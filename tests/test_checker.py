import tracemalloc
from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bglab import checker as K
from bglab import constructions as C
from bglab import corpus
from bglab import terms as T
from bglab.core import FiniteAlgebra, mult_reduct, validate
from bglab.errors import MapNotTotal


def parse(text):
    return T.parse_identity(text)


SMALL_SEMIGROUPS = corpus.all_semigroups_upto(3)


def reevaluates(alg, lhs, rhs, witness):
    return (set(witness) == set(lhs.variables()) | set(rhs.variables())
            and T.evaluate(lhs, witness, alg) != T.evaluate(rhs, witness, alg))


class TestExhaustive:
    def test_x2_equals_x4_on_b21(self, b21_mul):
        lhs, rhs = parse("x1^2 = x1^4")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs)
        assert verdict.status == K.HOLDS
        assert verdict.evaluations == 6

    def test_commutativity_fails_at_a_b(self, b21_mul, b21):
        lhs, rhs = parse("x1 x2 = x2 x1")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs)
        assert verdict.status == K.COUNTEREXAMPLE
        named = {v.name: b21.labels[i] for v, i in verdict.witness.items()}
        assert named == {"x1": "a", "x2": "b"}

    def test_syntactic_equality_short_circuits(self, b21_mul):
        w = T.parse_term("x1 x2 x1")
        verdict = K.check_identity_exhaustive(b21_mul, w, w)
        assert verdict.status == K.HOLDS and verdict.evaluations == 0

    def test_budget_exceeded(self, b21_mul):
        lhs, rhs = parse("x1 x2 x3 = x3 x2 x1")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs, budget=100)
        assert verdict.status == K.BUDGET_EXCEEDED
        assert verdict.attempted == 216

    def test_domain_restriction(self, b21_mul, b21):
        lhs, rhs = parse("x1 x2 = x2 x1")
        one = b21.index("1")
        x1 = next(v for v in lhs.variables() if v.name == "x1")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs,
                                              domains={x1: [one, 0]})
        assert verdict.status == K.HOLDS
        assert verdict.evaluations == 12

    @pytest.mark.parametrize("seed", range(6))
    def test_first_witness_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        table = rng.integers(0, n, size=(n, n)).tolist()
        alg = FiniteAlgebra("semigroup", tuple(f"r{i}" for i in range(n)), table)
        lhs, rhs = parse("x1 x2 = x2 x1")
        verdict = K.check_identity_exhaustive(alg, lhs, rhs)
        brute = next(((x, y) for x in range(n) for y in range(n)
                      if table[x][y] != table[y][x]), None)
        if brute is None:
            assert verdict.status == K.HOLDS
        else:
            xs = sorted(lhs.variables())
            got = (verdict.witness[xs[0]], verdict.witness[xs[1]])
            assert got == brute

    def test_null_semigroup_distinguishes_variables(self):
        null = FiniteAlgebra("semigroup", ("0", "n"), [[0, 0], [0, 0]])
        lhs, rhs = parse("x1 = x2")
        verdict = K.check_identity_exhaustive(null, lhs, rhs)
        assert verdict.status == K.COUNTEREXAMPLE
        xs = sorted(set(lhs.variables()) | set(rhs.variables()))
        assert (verdict.witness[xs[0]], verdict.witness[xs[1]]) == (0, 1)

    def test_repeated_variable_is_one_variable(self, b21_mul):
        lhs, rhs = parse("x1 x2 x1 = x1")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs)
        assert verdict.status == K.COUNTEREXAMPLE
        assert sorted(v.name for v in verdict.witness) == ["x1", "x2"]
        assert reevaluates(b21_mul, lhs, rhs, verdict.witness)

    @pytest.mark.parametrize("text", ["x1 x1' x1 = x1", "x1' x1 = x1 x1'"])
    def test_star_identities_agree_with_scalar_evaluate(self, ips3, text):
        lhs, rhs = parse(text)
        verdict = K.check_identity_exhaustive(ips3, lhs, rhs)
        (x1,) = lhs.variables()
        failing = [a for a in range(ips3.size)
                   if T.evaluate(lhs, {x1: a}, ips3) != T.evaluate(rhs, {x1: a}, ips3)]
        if failing:
            assert verdict.status == K.COUNTEREXAMPLE
            assert verdict.witness == {x1: failing[0]}
            assert reevaluates(ips3, lhs, rhs, verdict.witness)
        else:
            assert verdict.status == K.HOLDS
            assert verdict.evaluations == ips3.size


class TestSharedSide:
    """v = v^k evaluates v once and raises it to the power; spelling the
    power over the flat word defeats that path, so both sides are evaluated,
    and the two must give the same verdict, witness and count."""

    @given(st.sampled_from(SMALL_SEMIGROUPS),
           st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 2), (1, 1, 2)]),
           st.integers(2, 3), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_same_verdict_as_evaluating_both_sides(self, table, nmh, k, swap, seed):
        alg = corpus.as_algebra(table)
        v = T.v_word(*nmh)
        shared, both = (v, T.PowerOf(v, k)), (v, T.PowerOf(v.flatten(), k))
        if swap:
            shared, both = shared[::-1], both[::-1]
        for engine in (lambda l, r: K.check_identity_exhaustive(alg, l, r),
                       lambda l, r: K.check_identity_sampled(alg, l, r, 300, seed)):
            a, b = engine(*shared), engine(*both)
            assert (a.status, a.witness, a.evaluations) == (b.status, b.witness, b.evaluations)
            if a.witness:
                assert reevaluates(alg, *shared, a.witness)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_the_exponent_reaches_the_power(self, s3, k):
        # on S3, x = x^k fails at every non-identity element for k = 2, at
        # the 3-cycles for k = 3, at the transpositions for k = 4, nowhere for 7
        x = T.parse_term("x1")
        for engine in (lambda l, r: K.check_identity_exhaustive(s3, l, r),
                       lambda l, r: K.check_identity_sampled(s3, l, r, 50, 4)):
            for shared, both in (((x, T.PowerOf(x, k)), (x, T.parse_term(f"x1^{k}"))),
                                 ((T.PowerOf(x, k), x), (T.parse_term(f"x1^{k}"), x))):
                a, b = engine(*shared), engine(*both)
                assert (a.status, a.witness, a.evaluations) == (b.status, b.witness,
                                                                 b.evaluations)


class TestMembership:
    def test_values_inside_allowed_set(self, b21_mul, b21):
        word = T.parse_term("x1 x1")
        squares = {int(b21_mul.mul[x, x]) for x in range(6)}
        verdict = K.check_membership_exhaustive(b21_mul, word, squares)
        assert verdict.status == K.HOLDS

    def test_counterexample_with_witness(self, b21_mul, b21):
        word = T.parse_term("x1")
        verdict = K.check_membership_exhaustive(b21_mul, word, {0, 1})
        assert verdict.status == K.COUNTEREXAMPLE
        assert list(verdict.witness.values()) == [2]


def splitmix_reference(seed, counter):
    """Pure-int reference implementation of the counter-based generator."""
    mask = (1 << 64) - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestSampled:
    def test_generator_matches_pure_reference(self):
        counters = np.arange(10, dtype=np.uint64)
        got = K.splitmix64(counters, seed=42)
        want = [splitmix_reference(42, c) for c in range(10)]
        assert got.tolist() == want

    def test_sample_assignments_follow_the_reference_stream(self):
        xs = [T.Variable((i,), 10) for i in range(1, 11)]
        doms = [[0, 1, 2, 3, 4], [4, 2], list(range(257)), [3],
                [0], list(range(300, 557)), [0, 1, 2, 3, 4], [1, 0],
                list(range(64)), list(range(256))]
        got = K.sample_assignments(xs, doms, seed=7, start=1000, count=50)
        for j, (v, d) in enumerate(zip(xs, doms)):
            want = [d[splitmix_reference(7, s * len(xs) + j) % len(d)]
                    for s in range(1000, 1050)]
            assert got[v].tolist() == want
        # a whole carrier is drawn straight into the narrowest index dtype
        assert got[xs[2]].dtype == np.uint16 and got[xs[4]].dtype == np.uint8
        assert got[xs[8]].dtype == got[xs[9]].dtype == np.uint8

    def test_sampling_is_deterministic_and_seed_sensitive(self, b21_mul):
        lhs, rhs = parse("x1 x2 = x2 x1")
        v1 = K.check_identity_sampled(b21_mul, lhs, rhs, samples=500, seed=1)
        v2 = K.check_identity_sampled(b21_mul, lhs, rhs, samples=500, seed=1)
        assert v1.status == v2.status == K.COUNTEREXAMPLE
        assert v1.witness == v2.witness
        assert v1.seed == 1

    def test_sampled_never_claims_holds(self, b21_mul):
        lhs, rhs = parse("x1^2 = x1^4")
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=200, seed=3)
        assert verdict.status == K.NO_COUNTEREXAMPLE
        assert verdict.evaluations == 200

    def test_sampled_witness_revalidates(self, b21_mul):
        lhs, rhs = parse("x1 x2 = x2 x1")
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=500, seed=9)
        assert verdict.status == K.COUNTEREXAMPLE
        left = T.evaluate(lhs, verdict.witness, b21_mul)
        right = T.evaluate(rhs, verdict.witness, b21_mul)
        assert left != right

    def test_sampled_budget_refuses_before_drawing(self, b21_mul, monkeypatch):
        lhs, rhs = parse("x1 x2 = x2 x1")
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=100, seed=1,
                                           budget=99)
        assert verdict.status == K.BUDGET_EXCEEDED and verdict.evaluations == 0
        assert verdict.attempted == 100 and "budget 99" in verdict.note
        monkeypatch.setenv("BGLAB_BUDGET", "99")
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=100, seed=1)
        assert verdict.status == K.BUDGET_EXCEEDED
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=100, seed=1,
                                           budget=100)
        assert verdict.status == K.COUNTEREXAMPLE

    @pytest.mark.parametrize("samples, seed", [(0, 1), (-5, 1), (100, -1), (100, 2**64)])
    def test_bad_sample_count_or_seed_raises_before_drawing(self, b21_mul, monkeypatch,
                                                             samples, seed):
        lhs, rhs = parse("x1 x2 = x2 x1")

        def no_draw(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(K, "sample_assignments", no_draw)
        with pytest.raises(ValueError):
            K.check_identity_sampled(b21_mul, lhs, rhs, samples=samples, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_the_range_draw(self, b21_mul, seed):
        lhs, rhs = parse("x1^2 = x1^4")
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=10, seed=seed)
        assert verdict.status == K.NO_COUNTEREXAMPLE and verdict.seed == seed


# The sampled engine as it was before the offset fold and the narrow draws,
# frozen as an oracle: int32 draws and every product one flat take.
_FROZEN_CHUNK = 1 << 15


def frozen_sample_assignments(variables, doms, seed, start, count):
    V = len(variables)
    z0 = np.arange(start, start + count, dtype=np.uint64)
    z0 *= np.uint64(V)
    z0 += np.uint64(1)
    z0 *= K._SPLITMIX_GAMMA
    z0 += np.uint64(seed)
    z = np.empty_like(z0)
    t = np.empty_like(z0)
    out = {}
    for v, d in zip(variables, doms):
        np.copyto(z, z0)
        K._mix64(z, t)
        k = np.uint64(len(d))
        np.floor_divide(z, k, out=t)
        np.multiply(t, k, out=t)
        np.subtract(z, t, out=t)
        dom = np.asarray(d, dtype=np.int32)
        if np.array_equal(dom, np.arange(len(dom))):
            out[v] = t.astype(np.int32)
        else:
            out[v] = dom[t]
        z0 += K._SPLITMIX_GAMMA
    return out


def frozen_evaluate(term, sub, alg):
    size = np.intp(alg.size)
    flat = alg.mul.reshape(-1)

    def pair(a, b):
        return flat.take(a * size + b)

    def fold(t):
        if isinstance(t, T.Word):
            return reduce(pair, (sub[v] for v in t.letters))
        if isinstance(t, T.InvTerm):
            return reduce(pair, (sub[v] if e > 0 else alg.star.take(sub[v])
                                 for v, e in t.letters))
        if isinstance(t, T.BlockWord):
            vals = [sub[b] if isinstance(b, T.Variable) else fold(b) for b in t.blocks]
            prefix = reduce(pair, vals)
            middle = reduce(pair, vals[t.n - 1 :: -1] + vals[t.n:])
            return pair(prefix, T._pow_fold(middle, 2 * t.m - 1, pair))
        return T._pow_fold(fold(t.base), t.exponent, pair)

    return fold(term)


def frozen_sampled(alg, lhs, rhs, samples, seed, domains=None):
    """(status, witness, evaluations) of the frozen sampled engine."""
    variables = K._variables_of(lhs, rhs)
    doms = K._domain_lists(variables, alg, domains)
    done = 0
    for start in range(0, samples, _FROZEN_CHUNK):
        count = min(_FROZEN_CHUNK, samples - start)
        assign = frozen_sample_assignments(variables, doms, seed, start, count)
        left = frozen_evaluate(lhs, assign, alg)
        neq = np.atleast_1d(left != frozen_evaluate(rhs, assign, alg))
        done += neq.size
        if neq.any():
            s = int(np.argmax(neq))
            return K.COUNTEREXAMPLE, {v: int(assign[v][s]) for v in variables}, done
    return K.NO_COUNTEREXAMPLE, None, done


def sampled_triple(alg, lhs, rhs, samples, seed, domains=None):
    got = K.check_identity_sampled(alg, lhs, rhs, samples, seed, domains=domains)
    return got.status, got.witness, got.evaluations


class TestSampledAgainstFrozenOracle:
    @given(st.sampled_from(SMALL_SEMIGROUPS),
           st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 3, 2), (1, 1, 3)]),
           st.integers(2, 3), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=80)
    def test_same_verdict_witness_and_count(self, table, nmh, k, restrict, seed):
        alg = corpus.as_algebra(table)
        v = T.v_word(*nmh)
        domains = {x: [alg.size - 1, 0] for x in v.variables()[::2]} if restrict else None
        assert (sampled_triple(alg, v, T.PowerOf(v, k), 700, seed, domains)
                == frozen_sampled(alg, v, T.PowerOf(v, k), 700, seed, domains))

    def test_counterexample_past_the_first_chunk(self, ps3_mul):
        lhs, rhs = parse("x1 x2 x3 x4 x5 x6 x7 = (x1 x2 x3 x4 x5 x6 x7)^2")
        got = sampled_triple(ps3_mul, lhs, rhs, 100_000, 3)
        assert got == frozen_sampled(ps3_mul, lhs, rhs, 100_000, 3)
        assert got[0] == K.COUNTEREXAMPLE and got[2] == 2 * _FROZEN_CHUNK
        assert reevaluates(ps3_mul, lhs, rhs, got[1])

    def test_v245_on_the_suite_carriers(self, b21, ps3_mul):
        v = T.v_word(2, 4, 5)
        for alg in (b21, ps3_mul):
            assert (sampled_triple(alg, v, T.PowerOf(v, 2), 2000, 5)
                    == frozen_sampled(alg, v, T.PowerOf(v, 2), 2000, 5))

    def test_one_chunk_of_v245_stays_under_48_mib(self, b21):
        # the int32 draws of 1,024 variables held 130.7 MiB here
        v = T.v_word(2, 4, 5)
        tracemalloc.start()
        try:
            verdict = K.check_identity_sampled(b21, v, T.PowerOf(v, 2), 32768, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.evaluations == 32768
        assert peak < 48 * 2**20

    def test_validating_hall3_stays_under_16_mib(self, hall3):
        # the n^3 slabs of the associativity scan held 47.9 MiB here; a new
        # object, since validate remembers its verdict per algebra object
        alg = FiniteAlgebra(hall3.kind, hall3.labels, hall3.mul, hall3.add, hall3.star)
        tracemalloc.start()
        try:
            bad = validate(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bad is None
        assert peak < 16 * 2**20


class TestFindViolation:
    def test_kadourek_generator_biased_search(self, kad21):
        alg, gens = kad21
        gen_elems = sorted(gens.values())
        gen_elems += [int(alg.star[g]) for g in gen_elems]
        v = T.v_word(2, 1, 1)
        verdict = K.find_identity_violation(alg, v, T.PowerOf(v, 2), gen_elems)
        assert verdict.status == K.COUNTEREXAMPLE
        named = {var.name: alg.labels[i] for var, i in verdict.witness.items()}
        assert named == {"x1": "[0>1,3>2]", "x2": "[1>2,4>3]",
                         "x3": "[1>0,2>3]", "x4": "[2>1,3>4]"}
        left = T.evaluate(v, verdict.witness, alg)
        right = T.evaluate(T.PowerOf(v, 2), verdict.witness, alg)
        assert alg.labels[left] == "[0>4]" and alg.labels[right] == "[]"

    def test_exhaustive_strategy_agrees(self, kad21):
        alg, _ = kad21
        v = T.v_word(2, 1, 1)
        verdict = K.check_identity_exhaustive(alg, v, T.PowerOf(v, 2))
        assert verdict.status == K.COUNTEREXAMPLE

    def test_abelian_group_satisfies_depth1_identity(self, z4):
        # exponent 4: the whole word is a 16th power times commutators = 1
        v = T.v_word(1, 4, 1)
        verdict = K.check_identity_exhaustive(z4, v, T.PowerOf(v, 2))
        assert verdict.status == K.HOLDS


class TestMorphisms:
    def test_identity_automorphism(self, b21):
        rep = K.verify_morphism(K.MorphismSpec(b21, b21, tuple(range(6)),
                                               ("mul", "add", "star")))
        assert rep.ok and rep.surjective and rep.injective

    def test_swapping_e_f_alone_is_not_multiplicative(self, b21):
        swap = (0, 1, 2, 3, 5, 4)
        rep = K.verify_morphism(K.MorphismSpec(b21, b21, swap, ("mul",)))
        assert not rep.ok
        assert rep.failure == ("mul", (b21.index("a"), b21.index("b")))

    def test_map_not_total(self, b21):
        with pytest.raises(MapNotTotal):
            K.verify_morphism(K.MorphismSpec(b21, b21, (0, 1, 2), ("mul",)))

    def test_collapse_to_zero_is_a_non_injective_morphism(self, b21):
        rep = K.verify_morphism(K.MorphismSpec(b21, b21, (0,) * 6, ("mul", "add")))
        assert rep.ok and not rep.injective and not rep.surjective

    def test_no_injection_into_hall2_respects_mul_and_star(self, b21, hall2):
        # exhaustive over all 5040 injections: the transpose stars are
        # irreconcilable, which pins down the one expected-red suite check
        hits = [p for p in permutations(range(7), 6)
                if K.verify_morphism(
                    K.MorphismSpec(b21, hall2, p, ("mul", "star"))).ok]
        assert hits == []

    def test_exactly_two_semiring_embeddings_into_hall2(self, b21, hall2):
        hits = [p for p in permutations(range(7), 6)
                if K.verify_morphism(
                    K.MorphismSpec(b21, hall2, p, ("mul", "add"))).ok]
        assert len(hits) == 2
        from bglab.suite import B21_TO_HALL2
        paper_map = tuple(hall2.labels.index(s) for s in B21_TO_HALL2)
        assert paper_map in hits


class TestRestrictedDomains:
    def test_core_restricted_block_word_lands_in_idempotents(self, ps3_mul):
        # restricting every variable to the idempotent-generated core sends the
        # depth-1 word at the semigroup's own period into the idempotents
        from bglab import analysis as A
        rep = A.principal_series(ps3_mul)
        q = (2**rep.h) * rep.m
        core_set = A.idempotent_generated(ps3_mul)
        word = T.v_word(2, q, 1)
        domains = {v: core_set for v in word.variables()}
        verdict = K.check_membership_exhaustive(
            ps3_mul, word, set(A.idempotents(ps3_mul)), domains=domains)
        assert verdict.status == K.HOLDS
        assert verdict.evaluations == len(core_set) ** 4

    def test_b21_depth1_values_lie_in_subgroups(self, b21_mul):
        from bglab.analysis import subgroup_union
        verdict = K.check_membership_exhaustive(
            b21_mul, T.v_word(2, 4, 1), subgroup_union(b21_mul))
        assert verdict.status == K.HOLDS
        assert verdict.evaluations == 6**4

    @pytest.mark.parametrize("bad", [-1, 6, 99])
    @pytest.mark.parametrize("engine", ["exhaustive", "membership", "sampled"])
    def test_domain_outside_the_carrier_is_refused(self, b21_mul, engine, bad):
        # -1 once read as element 5, and 6 or 99 raised an IndexError
        lhs, rhs = parse("x1 x2 = x1")
        x2 = next(v for v in lhs.variables() if v.name == "x2")
        domains = {x2: [0, bad]}
        run = {
            "exhaustive": lambda: K.check_identity_exhaustive(
                b21_mul, lhs, rhs, domains=domains),
            "membership": lambda: K.check_membership_exhaustive(
                b21_mul, lhs, {0}, domains=domains),
            "sampled": lambda: K.check_identity_sampled(
                b21_mul, lhs, rhs, samples=100, seed=1, domains=domains),
        }[engine]
        with pytest.raises(ValueError, match=f"^index {bad} is outside 0..5$"):
            run()

    def test_budget_env_override(self, b21_mul, monkeypatch):
        lhs, rhs = parse("x1 x2 x3 = x3 x2 x1")
        monkeypatch.setenv("BGLAB_BUDGET", "10")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs)
        assert verdict.status == K.BUDGET_EXCEEDED
        monkeypatch.setenv("BGLAB_BUDGET", "1000")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs)
        assert verdict.status == K.COUNTEREXAMPLE


class TestImageTechnique:
    def test_b2_exact_square_identity(self, b2):
        report = K.check_v_square_image(b2, 2, 2, 3)
        assert report.ok
        assert report.level_sizes == [3, 3, 3]

    def test_agrees_with_exhaustive_on_small_cases(self, b21_mul):
        v = T.v_word(2, 1, 1)
        exhaustive = K.check_identity_exhaustive(b21_mul, v, T.PowerOf(v, 2))
        image = K.check_v_square_image(b21_mul, 2, 1, 1)
        assert (exhaustive.status == K.HOLDS) == image.ok

    def test_counterexample_witness_expands_and_revalidates(self):
        # Z3 has exponent 3, so a word of length 64 and its square differ
        z3 = C.cyclic_group(3)
        report = K.check_v_square_image(z3, 2, 1, 2)
        assert report.status == K.COUNTEREXAMPLE
        assert report.witness is not None
        v = T.v_word(2, 1, 2)
        left = T.evaluate(v, report.witness, z3)
        right = T.evaluate(T.PowerOf(v, 2), report.witness, z3)
        assert left == report.bad_value and left != right

    def test_budget_env_override(self, b21_mul, monkeypatch):
        monkeypatch.setenv("BGLAB_BUDGET", "100")
        report = K.check_v_square_image(b21_mul, 2, 1, 2)
        assert report.status == K.BUDGET_EXCEEDED and "budget 100" in report.note
        monkeypatch.setenv("BGLAB_BUDGET", "10000")
        assert K.check_v_square_image(b21_mul, 2, 1, 2).ok

    def test_fixed_point_levels_repeat(self, ps3_mul):
        report = K.check_v_square_image(ps3_mul, 2, 3072, 29)
        assert report.ok
        assert report.level_sizes == [24, 13] + [7] * 27
        assert report.evaluations == 64**4 + 24**4 + 13**4 + 26 * 7**4

    @given(st.sampled_from(SMALL_SEMIGROUPS),
           st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 2)]))
    @settings(max_examples=150)
    def test_agrees_with_exhaustive_on_small_semigroups(self, table, nmh):
        alg = corpus.as_algebra(table)
        v = T.v_word(*nmh)
        square = T.PowerOf(v, 2)
        exhaustive = K.check_identity_exhaustive(alg, v, square)
        image = K.check_v_square_image(alg, *nmh)
        assert image.status == exhaustive.status
        if image.witness is not None:
            assert reevaluates(alg, v, square, image.witness)
            assert T.evaluate(v, image.witness, alg) == image.bad_value

    def test_depth_one_matches_direct_scan(self, kad21):
        alg, _ = kad21
        report = K.check_v_square_image(alg, 2, 1, 1)
        v = T.v_word(2, 1, 1)
        exhaustive = K.check_identity_exhaustive(alg, v, T.PowerOf(v, 2))
        assert report.status == exhaustive.status == K.COUNTEREXAMPLE
