import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import islice, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bglab import checker as K
from bglab import constructions as C
from bglab import corpus
from bglab import terms as T
from bglab.core import FiniteAlgebra, mult_reduct, validate
from bglab.errors import BglabError, MapNotTotal, MissingStar


def parse(text):
    return T.parse_identity(text)


SMALL_SEMIGROUPS = [t for n in range(1, 4) for t in corpus.semigroup_tables(n)]
MAGMAS = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))


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
        verdict = K.check_identity_exhaustive(b21_mul, w, w, budget=1)
        assert (verdict.status, verdict.evaluations, verdict.note) == (
            K.HOLDS, 0, "syntactic equality")

    def test_syntactic_equality_needs_the_star(self, s3):
        # x1 x1' = x1 x1' x1 x1' raises MissingStar on S3, so x1 x1' = x1 x1'
        # must too
        w = T.parse_term("x1 x1'")
        with pytest.raises(MissingStar):
            K.check_identity_exhaustive(s3, w, w)
        with pytest.raises(MissingStar):
            K.check_identity_exhaustive(s3, T.PowerOf(w, 2), T.PowerOf(w, 2))

    def test_syntactic_equality_checks_the_domains(self, s3):
        w = T.parse_term("x1 x2")
        x1 = w.variables()[0]
        with pytest.raises(ValueError, match=r"^index 99 is outside 0\.\.5$"):
            K.check_identity_exhaustive(s3, w, w, domains={x1: [99]})
        with pytest.raises(ValueError, match="^empty domain for x1$"):
            K.check_identity_exhaustive(s3, w, w, domains={x1: []})

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

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_allowed_index_outside_the_carrier(self, s3, bad):
        # -1 would otherwise stand for the last element, (13), and hide x1's
        # counterexample; 6 would reach the mask as a bare IndexError
        word = T.parse_term("x1")
        assert K.check_membership_exhaustive(s3, word, range(5)).status == K.COUNTEREXAMPLE
        with pytest.raises(ValueError, match=rf"^index {bad} is outside 0\.\.5$"):
            K.check_membership_exhaustive(s3, word, {*range(5), bad})


# a1..an a1'..an' against [a1',a2'][(a2 a1)',a3'], [a,b] = a'b'ab, each
# form times the inverse of the right side, as a05 checks them
COMMUTATOR_FORMS = [
    "x1 x1'",
    "x1 x2 x1' x2' (x1'' x2'' x1' x2')'",
    "x1 x2 x3 x1' x2' x3' (x1'' x2'' x1' x2' (x2 x1)'' x3'' (x2 x1)' x3')'",
]


def loop_commutator_quotient(group, tup):
    """lhs rhs^-1 for a1..an a1^-1..an^-1 and its product of commutators,
    by hand-written lookups."""
    (e, inv), mul = C.ensure_group(group), group.mul

    def comm(a, b):
        return int(mul[mul[mul[inv[a], inv[b]], a], b])

    lhs = e
    for a in (*tup, *(inv[a] for a in tup)):
        lhs = int(mul[lhs, a])
    rhs, prefix = e, tup[0]
    for a in tup[1:]:
        rhs = int(mul[rhs, comm(inv[prefix], inv[a])])
        prefix = int(mul[a, prefix])
    return int(mul[lhs, inv[rhs]])


class TestCommutatorForms:
    @pytest.fixture
    def inverted(self, s3):
        return FiniteAlgebra("involution-semigroup", s3.labels, s3.mul,
                             star=C.ensure_group(s3)[1])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_forms_match_the_lookup_loop(self, inverted, s3, n):
        term = T.parse_term(COMMUTATOR_FORMS[n - 1])
        for tup in product(range(s3.size), repeat=n):
            sub = {T.Variable((i + 1,)): a for i, a in enumerate(tup)}
            assert T.evaluate(term, sub, inverted) == loop_commutator_quotient(s3, tup)
        verdict = K.check_membership_exhaustive(inverted, term, {C.ensure_group(s3)[0]})
        assert (verdict.status, verdict.evaluations) == (K.HOLDS, s3.size**n)

    def test_a_wrong_form_is_refuted(self, inverted, s3):
        term = T.parse_term("x1 x2 x1' x2'")
        verdict = K.check_membership_exhaustive(inverted, term, {C.ensure_group(s3)[0]})
        assert verdict.status == K.COUNTEREXAMPLE
        assert T.evaluate(term, verdict.witness, inverted) != C.ensure_group(s3)[0]


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
        z = np.uint64(42) + (counters + np.uint64(1)) * K._SPLITMIX_GAMMA
        got = K._mix64(z, np.empty_like(z))
        want = [splitmix_reference(42, c) for c in range(10)]
        assert got.tolist() == want

    def test_sample_assignments_follow_the_reference_stream(self):
        xs = [T.Variable((i,)) for i in range(1, 11)]
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

    def test_a_sample_block_draws_when_read(self):
        xs = [T.Variable((i,)) for i in range(1, 5)]
        doms = [[0, 1, 2], list(range(256)), [9, 4], list(range(5))]
        draws = K.sample_assignments(xs, doms, seed=11, start=40, count=30)
        assert list(draws) == xs and len(draws) == 4
        assert xs[0] in draws and T.Variable((5,)) not in draws
        with pytest.raises(KeyError):
            draws[T.Variable((5,))]
        assert draws[xs[2]].tolist() == draws[xs[2]].tolist()  # a re-read draws the same
        for s in (0, 13, 29):
            one = draws.substitution(s)
            assert one == {v: int(draws[v][s]) for v in xs}
            assert all(type(x) is int for x in one.values())

    def test_a_narrowed_block_reads_the_kept_samples(self):
        xs = [T.Variable((i,)) for i in range(1, 4)]
        doms = [[0, 1, 2], list(range(256)), [9, 4]]
        draws = K.sample_assignments(xs, doms, seed=5, start=70, count=40)
        kept = np.array([1, 2, 8, 30, 39])
        once = draws.narrow(kept)
        twice = once.narrow(np.array([0, 3]))
        assert list(once) == xs and len(once) == len(twice) == 3
        for v in xs:
            assert once[v].tolist() == draws[v][kept].tolist()
            assert twice[v].tolist() == draws[v][[1, 30]].tolist()
        assert once.substitution(3) == draws.substitution(30)
        assert draws[xs[0]].size == 40  # the root block is left whole

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

    def test_v245_on_s3_redraws_the_same_witness(self, s3):
        v = T.v_word(2, 4, 5)
        got = sampled_triple(s3, v, T.PowerOf(v, 2), 3000, 5)
        assert got == frozen_sampled(s3, v, T.PowerOf(v, 2), 3000, 5)
        assert got[0] == K.COUNTEREXAMPLE and got[2] == 3000 and len(got[1]) == 1024
        assert reevaluates(s3, v, T.PowerOf(v, 2), got[1])

    @pytest.mark.parametrize("text", ["x1 x2 x1 = x1 x2", "x1 x2 = x2 x1"])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_repeated_letters_on_restricted_domains(self, text, seed, b21_mul, ps3_mul):
        # each read of a letter draws it anew, with the same values
        lhs, rhs = parse(text)
        x1, x2 = lhs.variables()
        for alg, domains in [(b21_mul, {x1: [5, 2, 3], x2: [4, 3]}),
                             (b21_mul, {x1: [0]}),
                             (ps3_mul, {x2: [63, 1, 7, 40, 2]})]:
            got = sampled_triple(alg, lhs, rhs, 40_000, seed, domains)
            assert got == frozen_sampled(alg, lhs, rhs, 40_000, seed, domains)
            if got[0] == K.COUNTEREXAMPLE:
                assert reevaluates(alg, lhs, rhs, got[1])
                assert all(got[1][x] in d for x, d in domains.items())
            else:
                assert got[2] == 40_000  # two chunks, the second partial

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

    def test_sampled_v216_stays_under_16_mib(self, b21):
        # a whole chunk of draws of its 4,096 variables held 131 MiB here
        v = T.v_word(2, 1, 6)
        tracemalloc.start()
        try:
            verdict = K.check_identity_sampled(b21, v, T.PowerOf(v, 2), 40_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.status == K.NO_COUNTEREXAMPLE and verdict.evaluations == 40_000
        assert peak < 16 * 2**20

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


@pytest.fixture
def drawn(monkeypatch):
    """The length of every splitmix64 output array the sampler mixes."""
    sizes = []
    mix64 = K._mix64
    monkeypatch.setattr(K, "_mix64", lambda z, t: sizes.append(z.size) or mix64(z, t))
    return sizes


class TestSamplesStopAtTheZero:
    """a06's sampled runs: v(2,4,5) = v^2 over 10^5 samples with seed 1."""

    @pytest.mark.parametrize("name, share", [("b21_mul", 0.01), ("ps3_mul", 0.10)])
    def test_a06_runs_end_at_the_zero_and_draw_little(self, request, drawn, name, share):
        v = T.v_word(2, 4, 5)
        verdict = K.check_identity_sampled(request.getfixturevalue(name), v,
                                           T.PowerOf(v, 2), 100_000, seed=1)
        assert verdict.status == K.NO_COUNTEREXAMPLE and verdict.evaluations == 100_000
        assert verdict.zero_samples == 100_000
        assert verdict.note == "all 100000 samples ended at the zero on both sides"
        assert sum(drawn) <= share * 1024 * 100_000

    def test_without_a_zero_every_sample_is_drawn(self, s3, drawn):
        # 1,024 variables of 3,000 samples, and the witness redrawn once
        v = T.v_word(2, 4, 5)
        verdict = K.check_identity_sampled(s3, v, T.PowerOf(v, 2), 3000, seed=5)
        assert sum(drawn) == 1024 * 3000 + 1024
        assert verdict.zero_samples is None and verdict.note == ""
        want = frozen_sampled(s3, v, T.PowerOf(v, 2), 3000, 5)
        assert (verdict.status, verdict.witness, verdict.evaluations) == want

    def test_zero_samples_count_both_sides_at_the_zero(self, b21_mul, s3):
        lhs, rhs = parse("x1 x2 = x2 x1")
        verdict = K.check_identity_sampled(b21_mul, lhs, rhs, samples=5000, seed=2,
                                           domains={lhs.variables()[0]: [0, 4]})
        draws = K.sample_assignments(lhs.variables(), [[0, 4], range(6)], 2, 0, 5000)
        left = T.evaluate_batch(lhs, draws, b21_mul)
        right = T.evaluate_batch(rhs, draws, b21_mul)
        assert verdict.evaluations == 5000  # one chunk, counterexample or not
        assert verdict.zero_samples == np.count_nonzero((left == 0) & (right == 0)) > 0
        assert K.check_identity_sampled(s3, lhs, rhs, 500, seed=2).zero_samples is None

    def test_a_table_whose_zero_is_not_the_empty_set(self, s3):
        # P(G) without the empty set has G itself as its zero
        alg = C.power_semiring(s3, nonempty_only=True)
        zero = T.flat_kernel(alg).zero
        assert alg.labels[zero] == "{e,(23),(12),(123),(132),(13)}"
        v = T.v_word(2, 1, 3)
        verdict = K.check_identity_sampled(alg, v, T.PowerOf(v, 2), 2000, seed=1)
        assert 0 < verdict.zero_samples <= verdict.evaluations == 2000

    def test_exact_engines_count_no_zero_samples(self, b21_mul):
        lhs, rhs = parse("x1^2 = x1^4")
        assert K.check_identity_exhaustive(b21_mul, lhs, rhs).zero_samples is None
        assert K.check_v_square_image(b21_mul, 2, 4, 5).zero_samples is None


class TestFindViolation:
    def test_kadourek_generator_biased_search(self, kad21):
        alg = kad21
        gen_elems = sorted(alg.meta["generators"].values())
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
        alg = kad21
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
        # 0 is a budget; an empty or unset variable means the default
        monkeypatch.setenv("BGLAB_BUDGET", "0")
        verdict = K.check_identity_exhaustive(b21_mul, lhs, rhs)
        assert (verdict.status, verdict.note) == (
            K.BUDGET_EXCEEDED, "216 substitutions exceed budget 0")
        assert K.check_identity_exhaustive(b21_mul, lhs, rhs, budget=0).status == (
            K.BUDGET_EXCEEDED)
        monkeypatch.setenv("BGLAB_BUDGET", "")
        assert K.default_budget() == K.DEFAULT_BUDGET
        monkeypatch.delenv("BGLAB_BUDGET")
        assert K.default_budget() == K.DEFAULT_BUDGET

    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5"])
    def test_bad_budget_env_is_refused(self, b21_mul, monkeypatch, raw):
        monkeypatch.setenv("BGLAB_BUDGET", raw)
        with pytest.raises(BglabError, match=re.escape(
                f"BGLAB_BUDGET must be an integer >= 0, not '{raw}'")):
            K.check_identity_exhaustive(b21_mul, *parse("x1 x2 = x2 x1"))

    @pytest.mark.parametrize("budget", [-3, 2.5, "10", True], ids=repr)
    def test_bad_budget_argument_is_refused(self, b21_mul, budget):
        lhs, rhs = parse("x1 x2 = x2 x1")
        for run in (lambda: K.check_identity_exhaustive(b21_mul, lhs, rhs, budget=budget),
                    lambda: K.check_identity_exhaustive(b21_mul, lhs, lhs, budget=budget),
                    lambda: K.check_membership_exhaustive(b21_mul, lhs, {0}, budget=budget),
                    lambda: K.check_identity_sampled(b21_mul, lhs, rhs, samples=10, seed=1,
                                                     budget=budget),
                    lambda: K.check_v_square_image(b21_mul, 1, 1, 1, budget=budget)):
            with pytest.raises(BglabError, match=re.escape(
                    f"the budget argument must be an integer >= 0, not {budget!r}")):
                run()


# (status, bad_value, level_sizes, evaluations, sha256 of the witness's
# (index tuple, value) pairs in index order) of check_v_square_image on
# carriers with many pair states: power(S3) (64 elements) and hall(3) (247)
PINNED_IMAGE_WITNESSES = {
    ("ps3_mul", (2, 4, 5)): (
        "counterexample", 8, [24, 15, 15, 15, 15], 17260867,
        "50349f020f80cd1722790b60ade0953c1231b6701cd7ff5225757b48c04fbbb4"),
    ("ps3_mul", (2, 4, 8)): (
        "counterexample", 8, [24, 15, 15, 15, 15, 15, 15, 15], 17412742,
        "b2bde5600c6ffcba4b424e89872665e5651337b2a4c3d1ee0b08929b1fe98358"),
    ("hall3", (2, 44, 6)): (
        "counterexample", 8, [160, 64, 55, 55, 55, 55], 4421687172,
        "0f09f06e678dd5e171e542255b61171ce57db5eafa48240987187e4aaf148d19"),
}


def looped_image_counts(alg, n, m, h):
    """Oracle: level_sizes and evaluations of the image check by the loop
    over all h levels that the check ran before its closed form."""
    kernel = T.flat_kernel(alg)
    power = kernel.power(np.arange(alg.size, dtype=np.intp), 2 * m - 1)
    levels = list(T._levels(kernel.pair, alg.size, power, n))
    last = len(levels) - 1
    level_sizes = [len(levels[min(level, last)][2]) for level in range(h)]
    total = sum(len(levels[min(level, last)][0]) ** (2 * n) for level in range(h))
    return level_sizes, total


class TestImageTechnique:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2)])
    def test_level_images_are_np_unique_of_the_tuple_values(self, n, m, b21_mul, s3, ps3_mul):
        # and each level's block values are the image of the level before
        algs = [corpus.as_algebra(t) for t in SMALL_SEMIGROUPS]
        for alg in [*algs, b21_mul, s3, ps3_mul]:
            kernel = T.flat_kernel(alg)
            size = alg.size
            want = np.arange(size)
            power = kernel.power(want, 2 * m - 1)
            for vals, layers, image in islice(T._levels(kernel.pair, size, power, n), 4):
                assert vals.tolist() == want.tolist()
                want = np.unique(T._tuple_values(kernel.pair, size, power, layers[-1]))
                assert image.tolist() == want.tolist()

    @pytest.mark.parametrize("run", [
        "from bglab import checker, constructions\n"
        "assert checker.check_v_square_image(constructions.brandt_monoid_b21(), 2, 4, 5).ok\n",
        "import contextlib, io\n"
        "from bglab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify-suite', '--profile', 'full', '--seed', '1']) == 0\n",
    ], ids=["b21-block-check", "verify-suite-full"])
    def test_numpy_ma_stays_unimported(self, run):
        # numpy 1.x imports numpy.ma with numpy itself; then nothing is shown
        script = ("import sys, numpy\n"
                  "if 'numpy.ma' in sys.modules: sys.exit(3)\n"
                  + run +
                  "sys.exit(4 if 'numpy.ma' in sys.modules else 0)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(K.__file__).resolve().parents[1])}
        code = subprocess.run([sys.executable, "-c", script], env=env, timeout=120).returncode
        if code == 3:
            pytest.skip("import numpy loads numpy.ma")
        assert code == 0

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

    # power(S3) at v(2, 4, h), with id h, and hall(3) at v(2, 44, 6)
    @pytest.mark.parametrize("name, nmh, levels", [
        ("ps3_mul", (2, 4, 2), 2), ("ps3_mul", (2, 4, 3), 3), ("ps3_mul", (2, 4, 5), 3),
        ("ps3_mul", (2, 4, 8), 3), ("hall3", (2, 44, 6), 4)],
        ids=["2", "3", "5", "8", "hall3-(2, 44, 6)"])
    def test_witness_sweeps_each_level_once(self, name, nmh, levels, request):
        # the witness reads several values of each level, and the image the
        # layers it needs; the hook sees every terms._forward_states call,
        # under whatever name it is made
        alg = mult_reduct(request.getfixturevalue(name))
        swept = []
        code = T._forward_states.__code__

        def hook(frame, event, arg):
            if event == "call" and frame.f_code is code:
                swept.append(frame.f_locals["vals"].tobytes())

        sys.setprofile(hook)
        try:
            report = K.check_v_square_image(alg, *nmh, budget=10**12)
        finally:
            sys.setprofile(None)
        assert report.status == K.COUNTEREXAMPLE and report.witness is not None
        assert len(swept) == len(set(swept)) == levels
        if nmh[2] <= 3:
            v = T.v_word(*nmh)
            assert T.evaluate(v, report.witness, alg) != T.evaluate(
                T.PowerOf(v, 2), report.witness, alg)

    @pytest.mark.parametrize("name, nmh, calls", [("s3", (2, 4, 5), 5),
                                                  ("ps3_mul", (2, 4, 8), 7)], ids=str)
    def test_witness_finds_each_preimage_once(self, name, nmh, calls, request,
                                              monkeypatch):
        # levels past the last swept one read its layers, so they share its
        # preimages: one call per (swept level, value)
        seen = []
        least = K._least_preimage

        def spy(pair, size, power, vals, layers, n, value):
            seen.append((vals.tobytes(), value))
            return least(pair, size, power, vals, layers, n, value)

        monkeypatch.setattr(K, "_least_preimage", spy)
        report = K.check_v_square_image(request.getfixturevalue(name), *nmh)
        assert report.status == K.COUNTEREXAMPLE
        assert len(seen) == len(set(seen)) == calls

    @pytest.mark.parametrize("name, nmh", sorted(PINNED_IMAGE_WITNESSES), ids=str)
    def test_witnesses_on_many_pair_states_are_pinned(self, name, nmh, request):
        alg = mult_reduct(request.getfixturevalue(name))
        report = K.check_v_square_image(alg, *nmh, budget=10**12)
        witness = sorted((v.indices, x) for v, x in report.witness.items())
        digest = hashlib.sha256(repr(witness).encode()).hexdigest()
        assert (report.status, report.bad_value, report.level_sizes, report.evaluations,
                digest) == PINNED_IMAGE_WITNESSES[name, nmh]

    def test_witness_binds_exactly_the_variables_of_v(self, s3):
        # the witness builds its variables from index tuples alone, so they
        # are v(2, 4, 5)'s own 1,024
        report = K.check_v_square_image(s3, 2, 4, 5)
        assert report.status == K.COUNTEREXAMPLE
        v = T.v_word(2, 4, 5)
        assert set(report.witness) == set(v.variables()) and len(report.witness) == 1024
        assert T.evaluate(v, report.witness, s3) != T.evaluate(T.PowerOf(v, 2),
                                                               report.witness, s3)

    def test_witness_past_the_node_budget_is_not_expanded(self, ps3_mul, monkeypatch):
        def refuse(*args):
            raise AssertionError("witness expanded past the node budget")

        expand = K._expand_witness
        monkeypatch.setattr(K, "_expand_witness", refuse)
        report = K.check_v_square_image(ps3_mul, 2, 4, 40)
        assert report.status == K.COUNTEREXAMPLE and report.witness is None
        assert report.bad_value is not None and len(report.level_sizes) == 40
        assert f"node budget {T.DEFAULT_NODE_BUDGET}" in report.note
        # one variable past the bound refuses; at the bound, as v_word builds
        # the word there, the witness is expanded
        z3 = C.cyclic_group(3)
        monkeypatch.setattr(K, "DEFAULT_NODE_BUDGET", 4**2 - 1)
        report = K.check_v_square_image(z3, 2, 1, 2)
        assert report.status == K.COUNTEREXAMPLE and report.witness is None
        monkeypatch.setattr(K, "DEFAULT_NODE_BUDGET", 4**2)
        monkeypatch.setattr(K, "_expand_witness", expand)
        report = K.check_v_square_image(z3, 2, 1, 2)
        assert len(report.witness) == 16 and report.note == ""

    def test_huge_height_keeps_its_counterexample(self, ps3_mul):
        # (2n)^h = 4^8000 has 4,817 digits, more than str() converts
        report = K.check_v_square_image(ps3_mul, 2, 4, 8000)
        assert report.status == K.COUNTEREXAMPLE and report.witness is None
        assert report.note == ("witness of (2n)^h = about 10^4816 variables exceeds "
                               f"node budget {T.DEFAULT_NODE_BUDGET}; not expanded")

    def test_refusal_bound_is_the_sum_over_blocks(self, b2):
        # states x block values, summed over the 2n blocks of a sweep
        for n in (1, 2, 3, 7):
            work = b2.size * sum(b2.size ** min(i, 2) for i in range(2 * n))
            report = K.check_v_square_image(b2, n, 1, 1, budget=work - 1)
            assert report.note == f"{work} pair-state steps exceed budget {work - 1}"
            assert report.attempted == work and report.level_sizes == []
        # and it is read in closed form, with no Python call per block
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(event == "call"))
        try:
            report = K.check_v_square_image(b2, 10**5, 1, 1, budget=1)
        finally:
            sys.setprofile(None)
        assert report.status == K.BUDGET_EXCEEDED and sum(calls) < 100

    def test_budget_env_override(self, b21_mul, monkeypatch):
        monkeypatch.setenv("BGLAB_BUDGET", "100")
        report = K.check_v_square_image(b21_mul, 2, 1, 2)
        assert report.status == K.BUDGET_EXCEEDED and "budget 100" in report.note
        assert isinstance(report, K.CheckVerdict) and report.level_sizes == []
        monkeypatch.setenv("BGLAB_BUDGET", "10000")
        assert K.check_v_square_image(b21_mul, 2, 1, 2).ok

    @pytest.mark.parametrize("name", ["b2", "b21_mul", "s3"])
    def test_level_counts_match_the_loop_over_h(self, name, request):
        alg = request.getfixturevalue(name)
        for h in (1, 2, alg.size, alg.size + 1, 10**5):
            report = K.check_v_square_image(alg, 2, 1, h)
            assert (report.level_sizes, report.evaluations) == looped_image_counts(alg, 2, 1, h)

    def test_height_of_a_million_holds_on_b2(self, b2):
        report = K.check_v_square_image(b2, 2, 1, 10**6)
        assert report.status == K.HOLDS and len(report.level_sizes) == 10**6

    def test_fixed_point_levels_repeat(self, ps3_mul):
        report = K.check_v_square_image(ps3_mul, 2, 3072, 29)
        assert report.ok
        assert report.level_sizes == [24, 13] + [7] * 27
        assert report.evaluations == 64**4 + 24**4 + 13**4 + 26 * 7**4

    @given(st.one_of(st.sampled_from(SMALL_SEMIGROUPS), MAGMAS),
           st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 2, 2), (3, 1, 1)]))
    @settings(max_examples=150)
    # two magmas on which the sweep, run anyway, read holds and counterexample
    # where the exhaustive scan finds the opposite
    @example([[0, 2, 1], [2, 2, 0], [1, 0, 2]], (3, 1, 1))
    @example([[0, 0, 1], [1, 1, 1], [2, 1, 1]], (3, 1, 1))
    def test_agrees_with_exhaustive_on_small_semigroups(self, table, nmh):
        # and refuses exactly the tables that are not associative
        alg = corpus.as_algebra(table)
        bad = validate(alg)
        if bad is not None:
            with pytest.raises(BglabError, match=re.escape(bad.describe(alg))):
                K.check_v_square_image(alg, *nmh)
            return
        v = T.v_word(*nmh)
        square = T.PowerOf(v, 2)
        exhaustive = K.check_identity_exhaustive(alg, v, square)
        image = K.check_v_square_image(alg, *nmh)
        assert image.status == exhaustive.status
        if image.witness is not None:
            assert reevaluates(alg, v, square, image.witness)
            assert T.evaluate(v, image.witness, alg) == image.bad_value

    def test_depth_one_matches_direct_scan(self, kad21):
        alg = kad21
        report = K.check_v_square_image(alg, 2, 1, 1)
        v = T.v_word(2, 1, 1)
        exhaustive = K.check_identity_exhaustive(alg, v, T.PowerOf(v, 2))
        assert report.status == exhaustive.status == K.COUNTEREXAMPLE
