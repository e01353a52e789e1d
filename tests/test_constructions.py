import hashlib
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bglab import constructions as C
from bglab import corpus, suite
from bglab.analysis import is_group
from bglab.core import FiniteAlgebra, mult_reduct, save_algebra, validate
from bglab.errors import (
    BglabError,
    CarrierTooLarge,
    NormalSubgroup,
    NotAGroup,
    NotAnIdeal,
    NotASubgroup,
    UnsupportedSize,
)


def compose(p, q):
    # oracle convention matches the package: apply p, then q
    return tuple(q[p[i]] for i in range(len(p)))


def loop_group(alg):
    """Reference scan: the least identity and the least inverse of each
    element, or the message of the first thing missing."""
    mul, n = alg.mul, alg.size
    e = next((e for e in range(n)
              if all(mul[e, x] == x == mul[x, e] for x in range(n))), None)
    if e is None:
        return "no identity element"
    inv = []
    for x in range(n):
        y = next((y for y in range(n) if mul[x, y] == e == mul[y, x]), None)
        if y is None:
            return f"element {alg.labels[x]} has no inverse"
        inv.append(y)
    return e, inv


@st.composite
def magmas_with_identity(draw):
    """A random table of order <= 5, in some draws with an identity
    planted at a random index."""
    n = draw(st.integers(1, 5))
    mul = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                                 max_size=n * n))).reshape(n, n)
    e = draw(st.none() | st.integers(0, n - 1))
    if e is not None:
        mul[e] = mul[:, e] = np.arange(n)
    return FiniteAlgebra("semigroup", tuple(f"x{i}" for i in range(n)), mul)


class TestGroups:
    @given(magmas_with_identity())
    def test_recogniser_matches_loop_scan(self, alg):
        try:
            got = C.group_identity(alg), C.group_inverses(alg)
        except NotAGroup as ex:
            got = str(ex)
        assert got == loop_group(alg)
        assert is_group(alg) == isinstance(got, tuple)

    def test_cyclic_one_is_trivial(self):
        g = C.cyclic_group(1)
        assert g.size == 1 and validate(g) is None

    def test_symmetric_3_matches_permutation_oracle(self, s3):
        elems = sorted(permutations(range(3)))
        assert s3.size == 6
        for i, p in enumerate(elems):
            for j, q in enumerate(elems):
                assert elems[s3.mul[i, j]] == compose(p, q)
        assert any(s3.mul[i, j] != s3.mul[j, i] for i in range(6) for j in range(6))

    def test_identity_sits_at_index_zero(self, s3, q8, z4):
        for g in (s3, q8, z4, C.dihedral_group(4)):
            assert validate(g) is None
            e, inv = C.ensure_group(g)
            assert e == 0
            assert all(g.mul[x, inv[x]] == 0 for x in range(g.size))

    def test_quaternion_relations(self, q8):
        ix = {l: i for i, l in enumerate(q8.labels)}
        one, minus = ix["1"], ix["-1"]
        for u in ("i", "j", "k"):
            assert q8.mul[ix[u], ix[u]] == minus
        assert q8.mul[ix["i"], ix["j"]] == ix["k"]
        assert q8.mul[ix["j"], ix["i"]] == ix["-k"]
        # -1 is the unique involution
        involutions = [x for x in range(8) if x != one and q8.mul[x, x] == one]
        assert involutions == [minus]

    def test_dihedral_has_order_2n_and_relation(self):
        d4 = C.dihedral_group(4)
        assert d4.size == 8
        ix = {l: i for i, l in enumerate(d4.labels)}
        r, s = ix["r"], ix["s"]
        srs = d4.mul[d4.mul[s, r], s]
        rinv = C.group_inverses(d4)[r]
        assert srs == rinv

    def test_symmetric_size_cap(self):
        with pytest.raises(UnsupportedSize):
            C.symmetric_group(6)

    def test_make_group_dispatch(self):
        assert C.make_group("quaternion8").size == 8
        assert C.make_group("cyclic", 5).size == 5

    @pytest.mark.parametrize("family", ["cyclic", "symmetric", "dihedral"])
    def test_make_group_needs_n_outside_quaternion8(self, family):
        with pytest.raises(UnsupportedSize, match=f"^group family '{family}' needs n$"):
            C.make_group(family)


class TestBrandt:
    def test_carrier_formula(self, b2, bz2, b3):
        assert b2.size == 5      # 2*2*1 + 1
        assert bz2.size == 9     # 2*2*2 + 1
        assert b3.size == 10     # 3*3*1 + 1
        for alg in (b2, bz2, b3):
            assert validate(alg) is None

    def test_product_rule_against_triple_oracle(self, bz2, z2):
        labels = {l: i for i, l in enumerate(bz2.labels)}

        def idx(l, g, r):
            return labels[f"({l},{z2.labels[g]},{r})"]

        for l1 in (1, 2):
            for g1 in range(2):
                for r1 in (1, 2):
                    for l2 in (1, 2):
                        for g2 in range(2):
                            for r2 in (1, 2):
                                got = bz2.mul[idx(l1, g1, r1), idx(l2, g2, r2)]
                                if r1 == l2:
                                    want = idx(l1, int(z2.mul[g1, g2]), r2)
                                else:
                                    want = 0
                                assert got == want

    def test_product_rule_read_from_labels(self):
        # Brandt(C2, 3): (l, g, r)(r', h, s) = (l, gh, s) if r = r', else 0
        c2 = C.cyclic_group(2)
        alg = C.brandt_semigroup(c2, 3)
        assert alg.size == 19 and alg.labels[0] == "0"
        triples = [None] + [tuple(x.strip("()").split(",")) for x in alg.labels[1:]]
        for x, tx in enumerate(triples):
            for y, ty in enumerate(triples):
                want = None
                if tx is not None and ty is not None and tx[2] == ty[0]:
                    gh = c2.labels[c2.mul[c2.index(tx[1]), c2.index(ty[1])]]
                    want = (tx[0], gh, ty[2])
                assert triples[alg.mul[x, y]] == want

    def test_mismatched_inner_indices_give_zero(self, b2):
        a = b2.labels.index("(1,e,2)")
        assert b2.mul[a, a] == 0

    def test_diagonal_classes_are_subgroups_offdiagonal_square_to_zero(self, bz2, z2):
        for l in (1, 2):
            for r in (1, 2):
                cls = [bz2.labels.index(f"({l},{z2.labels[g]},{r})") for g in range(2)]
                products = {int(bz2.mul[x, y]) for x in cls for y in cls}
                if l == r:
                    assert products == set(cls)
                else:
                    assert products == {0}


class TestB21:
    MATS = {
        "0": ((0, 0), (0, 0)), "1": ((1, 0), (0, 1)), "a": ((0, 1), (0, 0)),
        "b": ((0, 0), (1, 0)), "e": ((1, 0), (0, 0)), "f": ((0, 0), (0, 1)),
    }

    @staticmethod
    def matmul(x, y):
        return tuple(tuple(int(any(x[i][k] and y[k][j] for k in range(2)))
                           for j in range(2)) for i in range(2))

    def test_labels_in_display_order(self, b21):
        assert b21.labels == ("0", "1", "a", "b", "e", "f")

    def test_multiplication_table_matches_matrix_oracle(self, b21):
        back = {m: l for l, m in self.MATS.items()}
        for x in b21.labels:
            for y in b21.labels:
                got = b21.labels[b21.mul[b21.index(x), b21.index(y)]]
                assert got == back[self.matmul(self.MATS[x], self.MATS[y])]

    def test_named_products(self, b21):
        ix = b21.index
        assert b21.mul[ix("a"), ix("b")] == ix("e")
        assert b21.mul[ix("b"), ix("a")] == ix("f")

    def test_hadamard_addition(self, b21):
        ix = b21.index
        assert b21.add[ix("1"), ix("e")] == ix("e")
        assert b21.add[ix("a"), ix("b")] == ix("0")
        for x in range(6):
            assert b21.add[x, x] == x
        # oracle: addition is the entry-wise product of the matrices
        back = {m: l for l, m in self.MATS.items()}
        for x in b21.labels:
            for y in b21.labels:
                ha = tuple(tuple(a & b for a, b in zip(rx, ry))
                           for rx, ry in zip(self.MATS[x], self.MATS[y]))
                assert b21.labels[b21.add[ix(x), ix(y)]] == back[ha]

    def test_star_is_transposition(self, b21):
        ix = b21.index
        assert b21.star[ix("a")] == ix("b")
        assert b21.star[ix("e")] == ix("e")
        assert validate(b21) is None


def set_product(x_mask, y_mask, mul):
    out = set()
    for i in range(6):
        if x_mask >> i & 1:
            for j in range(6):
                if y_mask >> j & 1:
                    out.add(int(mul[i, j]))
    mask = 0
    for v in out:
        mask |= 1 << v
    return mask


class TestPowerSemiring:
    def test_carrier_size(self, ps3):
        assert ps3.size == 64
        assert validate(ps3) is None

    def test_index_is_the_subset_bitmask(self, ps3, s3):
        assert ps3.labels[0] == "{}"
        assert ps3.labels[(1 << 0) | (1 << 2)] == "{e,(12)}"

    def test_subgroup_is_idempotent(self, ps3, s3):
        h = (1 << 0) | (1 << s3.index("(12)"))
        assert ps3.mul[h, h] == h

    def test_empty_set_laws(self, ps3):
        for a in range(64):
            assert ps3.mul[0, a] == 0 and ps3.mul[a, 0] == 0
            assert ps3.add[0, a] == a

    @pytest.mark.parametrize("seed", range(5))
    def test_products_match_elementwise_oracle(self, ps3, s3, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x, y = int(rng.integers(64)), int(rng.integers(64))
            assert ps3.mul[x, y] == set_product(x, y, s3.mul)
            assert ps3.add[x, y] == x | y

    def test_nonempty_variant_plus_zero_matches_full(self, s3, ps3):
        part = C.power_semiring(s3, nonempty_only=True)
        assert part.size == 63
        grown = C.adjoin_zero(mult_reduct(part))
        assert np.array_equal(grown.mul, mult_reduct(ps3).mul)



class TestInvolutionPower:
    def test_star_is_elementwise_inversion(self, ips3, s3):
        inv = C.group_inverses(s3)
        rho = s3.index("(123)")
        assert ips3.star[1 << rho] == 1 << inv[rho]
        assert ips3.labels[ips3.star[1 << rho]] == "{(132)}"

    def test_subgroups_and_empty_are_fixed(self, ips3, s3):
        h = (1 << 0) | (1 << s3.index("(12)"))
        assert ips3.star[h] == h
        assert ips3.star[0] == 0

    def test_validates_as_involution_semigroup(self, ips3):
        assert ips3.kind == "involution-semigroup"
        assert validate(ips3) is None


def bool_permanent_positive(mask, n):
    """Oracle: expand the permanent as an OR over all permutation products."""
    return any(all(mask >> (i * n + p[i]) & 1 for i in range(n))
               for p in permutations(range(n)))


class TestHall:
    def test_small_carriers_against_permanent_oracle(self):
        for n, want in ((1, 1), (2, 7), (3, 247)):
            oracle = [m for m in range(1 << (n * n)) if bool_permanent_positive(m, n)]
            assert C.hall_masks(n) == oracle
            assert len(oracle) == want

    def test_hall2_validates_with_transpose_star(self, hall2):
        assert hall2.size == 7
        assert validate(hall2) is None

    def test_hall3_validates(self, hall3):
        assert hall3.size == 247
        assert validate(hall3) is None

    def test_size_limits(self, monkeypatch):
        with pytest.raises(CarrierTooLarge):
            C.hall_semiring(5)

        def no_products(*args):
            raise AssertionError("the product step ran")

        # the refusal comes once the relations are counted, before any product
        monkeypatch.setattr(C, "_matrix_tables", no_products)
        with pytest.raises(CarrierTooLarge, match="hall\\(4\\): 37823 elements"):
            C.hall_semiring(4)
        monkeypatch.setattr(C, "MAX_TABLE_CELLS", 247 * 247 - 1)
        with pytest.raises(CarrierTooLarge, match="hall\\(3\\): 247 elements"):
            C.hall_semiring(3)

    @staticmethod
    def relation(label):
        return {(i, j) for i, row in enumerate(label.split("|"))
                for j, bit in enumerate(row) if bit == "1"}

    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_against_relation_composition(self, n):
        alg = C.hall_semiring(n)
        rels = [frozenset(self.relation(x)) for x in alg.labels]
        assert len(set(rels)) == alg.size
        for x, rx in enumerate(rels):
            assert rels[alg.star[x]] == {(j, i) for i, j in rx}
            for y, ry in enumerate(rels):
                assert rels[alg.mul[x, y]] == {(i, k) for i, j in rx
                                               for j2, k in ry if j == j2}
                assert rels[alg.add[x, y]] == rx | ry


class TestSubsetB:
    def test_carrier_of_47_after_closure(self, s3):
        masks = C.subset_b(s3, [0, s3.index("(12)")], s3.index("(13)"))
        assert len(masks) == 47
        big = [m for m in range(64) if bin(m).count("1") > 2]
        assert len(big) == 42 and set(big) <= set(masks)

    def test_left_and_right_cosets_differ(self, s3):
        H = [0, s3.index("(12)")]
        g = s3.index("(13)")
        inv = C.group_inverses(s3)
        gH = {int(s3.mul[inv[g], h]) for h in H}
        Hg = {int(s3.mul[h, g]) for h in H}
        assert gH != Hg

    def test_normal_subgroup_rejected(self, s3):
        a3 = [0, s3.index("(123)"), s3.index("(132)")]
        with pytest.raises(NormalSubgroup):
            C.subset_b(s3, a3, s3.index("(12)"))

    def test_non_subgroup_rejected(self, s3):
        with pytest.raises(NotASubgroup):
            C.subset_b(s3, [0, s3.index("(123)")], s3.index("(12)"))


def compose_partial(f, g):
    # act left to right: x -> g[f[x]]
    return tuple(-1 if f[x] < 0 or g[f[x]] < 0 else g[f[x]] for x in range(len(f)))


def invert_partial(f):
    out = [-1] * len(f)
    for x, y in enumerate(f):
        if y >= 0:
            out[y] = x
    return tuple(out)


def reference_kadourek(n, h):
    """FIFO worklist over partial maps as tuples (-1 undefined), then the
    table one composition at a time: (labels, mul, star, gen_index, meta)."""
    gens = C.kadourek_generators(n, h)
    seeds = [tuple([-1] * len(next(iter(gens.values()))))]
    for f in gens.values():
        seeds += [f, invert_partial(f)]
    pos = {}
    for f in seeds:
        pos.setdefault(f, len(pos))
    elements = list(pos)
    for f in elements:  # grows while it is walked
        for g in seeds[1:]:
            for prod in (compose_partial(f, g), compose_partial(g, f)):
                if prod not in pos:
                    pos[prod] = len(elements)
                    elements.append(prod)
    mul = [[pos[compose_partial(x, y)] for y in elements] for x in elements]
    star = [pos[invert_partial(x)] for x in elements]
    labels = tuple(C.partial_map_label(f) for f in elements)
    gen_index = {t: pos[f] for t, f in gens.items()}
    meta = {"construction": "kadourek", "n": n, "h": h,
            "generators": {"".join(map(str, t)): i for t, i in gen_index.items()}}
    return labels, mul, star, gen_index, meta


class TestKadourek:
    def test_depth1_generators(self):
        gens = C.kadourek_generators(2, 1)
        assert gens[(1,)] == (1, -1, -1, 2, -1)   # 0->1, 3->2
        assert gens[(2,)] == (-1, 2, -1, -1, 3)   # 1->2, 4->3

    def test_closure_is_an_inverse_semigroup(self, kad21):
        alg, gens = kad21
        assert alg.size == 34
        assert validate(alg) is None
        from bglab.analysis import unique_inverse_check
        assert unique_inverse_check(alg)
        assert alg.labels[0] == "[]"  # the empty map is the zero

    def test_generator_map_points_at_the_generators(self, kad21):
        alg, gens = kad21
        assert alg.labels[gens[(1,)]] == "[0>1,3>2]"
        assert alg.labels[gens[(2,)]] == "[1>2,4>3]"

    def test_default_budget_is_the_table_cell_budget(self):
        # kadourek(2,4) has 75,920 elements: a table of 5.8e9 cells
        with pytest.raises(CarrierTooLarge, match="8192"):
            C.kadourek_semigroup(2, 4)

    @pytest.mark.parametrize("n,h", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_matches_the_tuple_worklist(self, n, h):
        alg, gen_index = C.kadourek_semigroup(n, h)
        labels, mul, star, ref_index, meta = reference_kadourek(n, h)
        assert alg.labels == labels
        assert alg.mul.tolist() == mul
        assert alg.star.tolist() == star
        assert gen_index == ref_index
        assert alg.meta == meta

    def test_gathers_stay_within_the_slab(self, monkeypatch):
        alg, gen_index = C.kadourek_semigroup(2, 2)
        sizes = []
        append_new, row_keys = C._append_new, C._row_keys

        def spy_append_new(known, cand):  # cand: one worklist gather
            sizes.append(cand.size)
            return append_new(known, cand)

        def spy_row_keys(rows):
            if rows.ndim == 3:  # one row slab of the table gather
                sizes.append(rows.size)
            return row_keys(rows)

        monkeypatch.setattr(C, "_SLAB_CELLS", 20_000)
        monkeypatch.setattr(C, "_append_new", spy_append_new)
        monkeypatch.setattr(C, "_row_keys", spy_row_keys)
        small, small_index = C.kadourek_semigroup(2, 2)
        assert len(sizes) > 100 and max(sizes) <= 20_000
        assert small.labels == alg.labels and small_index == gen_index
        assert np.array_equal(small.mul, alg.mul)
        assert np.array_equal(small.star, alg.star)

    def test_depth2_generators_match_arrow_diagram(self):
        from bglab.suite import KADOUREK_22_GENERATORS
        gens = C.kadourek_generators(2, 2)
        for t, arrows in KADOUREK_22_GENERATORS.items():
            got = {x: y for x, y in enumerate(gens[t]) if y >= 0}
            assert got == arrows


def naive_closure(tables, seeds, star):
    """Fixpoint of one round of every product of members, and their stars."""
    got = set(seeds)
    while True:
        step = got | {int(t[x, y]) for t in tables for x in got for y in got}
        if star is not None:
            step |= {int(star[x]) for x in got}
        if step == got:
            return sorted(got)
        got = step


@st.composite
def magma_closure_cases(draw):
    """One or two random tables of order <= 5, an optional unary map, seeds."""
    n = draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    tables = [np.array(draw(st.lists(cells, min_size=n, max_size=n)))
              for _ in range(draw(st.integers(1, 2)))]
    star = np.array(draw(cells)) if draw(st.booleans()) else None
    seeds = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return tables, seeds, star


class TestClosure:
    @given(magma_closure_cases())
    def test_matches_naive_fixpoint_on_random_magmas(self, case):
        tables, seeds, star = case
        assert C.closure(tables, seeds, star) == naive_closure(tables, seeds, star)

    @given(magma_closure_cases(), st.lists(st.integers(0, 4), max_size=2))
    def test_growing_a_closed_set(self, case, more):
        tables, seeds, star = case
        more = [x % len(tables[0]) for x in more]
        closed = C.closure(tables, seeds, star)
        assert (C.closure(tables, more, star, closed=closed)
                == naive_closure(tables, seeds + more, star))

    def test_matches_naive_fixpoint_on_corpus_tables(self):
        for order in (1, 2, 3):
            for table in corpus.semigroup_tables(order):
                mul = np.array(table)
                for r in range(1, order + 1):
                    for seeds in combinations(range(order), r):
                        assert C.closure([mul], seeds) == naive_closure([mul], seeds, None)


class TestDerivedAlgebras:
    def test_generate_from_identity(self, s3):
        assert C.subalgebra_generate(s3, [0]) == [0]

    def test_generate_from_a_b_in_b21(self, b21_mul, b21):
        seeds = [b21.index("a"), b21.index("b")]
        got = C.subalgebra_generate(b21_mul, seeds)
        assert got == sorted(b21.index(x) for x in ("0", "a", "b", "e", "f"))

    def test_generate_whole_carrier(self, b21_mul):
        assert C.subalgebra_generate(b21_mul, range(6)) == list(range(6))

    @pytest.mark.parametrize("seeds", [[-1], [6], [0, 99]])
    def test_generate_rejects_indices_outside_the_carrier(self, b21, b21_mul,
                                                          seeds):
        for alg in (b21, b21_mul):
            with pytest.raises(ValueError, match="outside 0..5"):
                C.subalgebra_generate(alg, seeds)

    @pytest.mark.parametrize("elements", [[99], [-1, 0]])
    def test_induced_algebra_rejects_indices_outside_the_carrier(self, b21,
                                                                 elements):
        with pytest.raises(ValueError, match="outside 0..5"):
            C.induced_algebra(b21, elements)

    def test_induced_algebra_rejects_unclosed_sets(self, b21_mul, b21):
        with pytest.raises(ValueError, match="closed"):
            C.induced_algebra(b21_mul, [b21.index("a"), b21.index("b")])

    def test_rees_quotient_b21_by_b2(self, b21_mul, b21):
        ideal = [b21.index(x) for x in ("0", "a", "b", "e", "f")]
        q = C.rees_quotient(b21_mul, ideal)
        assert q.size == 2
        assert q.labels == ("0", "1")
        assert q.mul[1, 1] == 1
        assert q.mul[0, 1] == q.mul[1, 0] == q.mul[0, 0] == 0

    def test_rees_quotient_whole_carrier(self, b21_mul):
        q = C.rees_quotient(b21_mul, range(6))
        assert q.size == 1

    def test_rees_quotient_rejects_non_ideal_with_witness(self, b21_mul, b21):
        a = b21.index("a")
        with pytest.raises(NotAnIdeal) as err:
            C.rees_quotient(b21_mul, [a])
        i, s = err.value.witness
        assert i == a
        prod = int(b21_mul.mul[i, s])
        prod2 = int(b21_mul.mul[s, i])
        assert prod != a or prod2 != a

    def test_ideal_violation_matches_the_loop_scan(self):
        def loop_scan(mul, ideal):
            for i in sorted(ideal):
                for s in range(len(mul)):
                    if mul[i, s] not in ideal or mul[s, i] not in ideal:
                        return (i, s)
            return None

        for order in (1, 2, 3):
            for table in corpus.semigroup_tables(order):
                alg = corpus.as_algebra(table)
                for r in range(1, order + 1):
                    for ideal in combinations(range(order), r):
                        assert (C.ideal_violation(alg, ideal)
                                == loop_scan(alg.mul, set(ideal)))

    def test_adjoin_zero_to_singleton(self):
        one = FiniteAlgebra("semigroup", ("u",), [[0]])
        grown = C.adjoin_zero(one)
        assert grown.size == 2
        assert grown.mul.tolist() == [[0, 0], [0, 1]]

    def test_adjoin_identity_to_b2_gives_b21_up_to_relabeling(self, b2, b21):
        grown = C.adjoin_identity(b2)
        assert grown.size == 6
        to_b21 = {
            grown.labels.index("0"): b21.index("0"),
            grown.labels.index("(1,e,1)"): b21.index("e"),
            grown.labels.index("(1,e,2)"): b21.index("a"),
            grown.labels.index("(2,e,1)"): b21.index("b"),
            grown.labels.index("(2,e,2)"): b21.index("f"),
            grown.labels.index("1"): b21.index("1"),
        }
        for x in range(6):
            for y in range(6):
                assert to_b21[int(grown.mul[x, y])] == \
                    b21.mul[to_b21[x], to_b21[y]]

    def test_every_constructor_output_validates(self, s3, q8, b2, b3, bz2, ps3,
                                                ips3, hall2, hall3, kad21):
        for alg in (s3, q8, b2, b3, bz2, ps3, ips3, hall2, hall3, kad21[0]):
            assert validate(alg) is None


class TestRegistry:
    def test_every_suite_algebra_rebuilds_from_its_meta(self, workbench):
        rebuilt = 0
        for name in suite.BUILDERS:
            alg = workbench.get(name)
            if isinstance(alg, tuple):  # a Kadourek (algebra, generator index)
                alg = alg[0]
            if isinstance(alg, FiniteAlgebra):
                assert C.build(alg.meta).to_dict() == alg.to_dict(), name
                rebuilt += 1
        assert rebuilt == len(suite.BUILDERS) - 2  # all but the two series

    def test_an_algebra_stands_for_itself(self, s3):
        assert C.build(s3) is s3
        nested = C.build({"construction": "brandt", "group": s3, "index_count": 2})
        assert nested.to_dict() == C.brandt_semigroup(s3, 2).to_dict()

    @pytest.mark.parametrize("meta", [{}, {"construction": None},
                                      {"construction": "free"},
                                      {"construction": ["b21"]}])
    def test_unknown_construction(self, meta):
        with pytest.raises(BglabError, match="^cannot rebuild construction "):
            C.build(meta)


def _s3_subset_b():
    s3 = C.symmetric_group(3)
    return C.subset_b(s3, [0, s3.index("(12)")], s3.index("(13)"))


def _fail(*args):
    raise AssertionError("the table step ran")


# builder, the size its budget is charged for, and the step that fills its
# tables (None where the tables are filled inline)
BUDGETED = {
    "cyclic": (lambda: C.cyclic_group(12), 12, None),
    "dihedral": (lambda: C.dihedral_group(6), 12, None),
    "brandt": (lambda: C.brandt_semigroup(C.cyclic_group(2), 3), 19, "_brandt_table"),
    "power-semiring": (lambda: C.power_semiring(C.symmetric_group(3)), 64,
                       "_power_tables"),
    "involution-power": (lambda: C.involution_power(C.cyclic_group(3)), 8,
                         "_power_tables"),
    "subset-b": (_s3_subset_b, 64, "_power_tables"),
    "hall": (lambda: C.hall_semiring(2), 7, "_matrix_tables"),
    "kadourek": (lambda: C.kadourek_semigroup(2, 1)[0], 34, None),
}


class TestTableBudget:
    @pytest.mark.parametrize("name", sorted(BUDGETED))
    def test_refuses_past_the_budget(self, name, monkeypatch):
        build, size, step = BUDGETED[name]
        monkeypatch.setattr(C, "MAX_TABLE_CELLS", size * size)
        build()
        monkeypatch.setattr(C, "MAX_TABLE_CELLS", size * size - 1)
        if step is not None:
            monkeypatch.setattr(C, step, _fail)
        with pytest.raises(CarrierTooLarge, match=f": {size} elements need "):
            build()


def _power_s3_without_small_sets():
    # the empty set and the sets of 4 or more elements form an ideal
    ps3 = mult_reduct(C.power_semiring(C.symmetric_group(3)))
    return C.rees_quotient(ps3, [m for m in range(64)
                                 if m == 0 or bin(m).count("1") >= 4])


# sha256 of the save_algebra bytes: `build from-meta` reproduces a file byte
# for byte, so any change to a table, a label or a meta shows here
PINNED = {
    "b21": (C.brandt_monoid_b21,
            "8fdf779cbf7c480826e8f742b6c3368586278b8f763adc031dceab3ea41c0df4"),
    "brandt-c1-2": (lambda: C.brandt_semigroup(C.cyclic_group(1), 2),
                    "3619388b9b8abf7ba82f2d65ee17d8ed37ecdf912cc46c7397705aaa6f620dfb"),
    "brandt-s3-5": (lambda: C.brandt_semigroup(C.symmetric_group(3), 5),
                    "a92c74e5639277308f834eebd4dbbdb1244489e991ed562fe5f94ecec3750c91"),
    "power-s3": (lambda: C.power_semiring(C.symmetric_group(3)),
                 "bdd7073f05d0007eeb666e8f83005d52b4dee9ca09c3eb447179a10a6928f2f3"),
    "power-d3-nonempty-star": (
        lambda: C.power_semiring(C.dihedral_group(3), nonempty_only=True, with_star=True),
        "1454d69e9e6deceb13b55b8c824094a5fcc9245c189cea60222e6b19ff571887"),
    "involution-power-s3": (lambda: C.involution_power(C.symmetric_group(3)),
                            "17534a9e5527ac9f37ba4e90f99266eee8f974d1cb4155fda9ce5fe021bebdbe"),
    "hall1": (lambda: C.hall_semiring(1),
              "2fabcf308799756877deda0f3ff2e3a50ef00320c29867b7e9978c782fd84819"),
    "hall1-nostar": (lambda: C.hall_semiring(1, with_star=False),
                     "19bcf8917efc48da5f687091741f621b236f1e6b828d5b988f9febd84c1dab7b"),
    "hall2": (lambda: C.hall_semiring(2),
              "ed435bba8435d57043e0544f841922a078561994b0928583a8252be3f22e6ee6"),
    "hall2-nostar": (lambda: C.hall_semiring(2, with_star=False),
                     "2571164ce054c44f7ae7cfd9805033cda7a1e7c6c19cf0e2af0460c4270829a9"),
    "hall3": (lambda: C.hall_semiring(3),
              "8a3ccaff0b0f7df9572ef5dc5dd78b4528db0d9962a355f09cea087513b576b9"),
    "hall3-nostar": (lambda: C.hall_semiring(3, with_star=False),
                     "e5286c42c886336d12dfac27096df9ca2a512dfafa10b974fcc6806c2a33d100"),
    "kadourek-2-2": (lambda: C.kadourek_semigroup(2, 2)[0],
                     "7994e0f6fda6b6518039490b5fe144087ecd9170ac55621e10176d19b2ffdb23"),
    "c8": (lambda: C.cyclic_group(8),
           "88997327da29d11f86ddbc19aed9c77d1bdcbfe1dcf97e3212a3e8cb74c06a76"),
    "d5": (lambda: C.dihedral_group(5),
           "f3eb6a9c4dfc6a82b4f3606f8e716a3f71a5ff516dbd80aecc1554962f4bd6e7"),
    "rees-power-s3": (_power_s3_without_small_sets,
                      "bd4ec9c316ea35d8af61288004c22c615c0ea12c26eb787ddae65e156be981d6"),
    "adjoin-zero-brandt-s3-2": (
        lambda: C.adjoin_zero(C.brandt_semigroup(C.symmetric_group(3), 2)),
        "9651caa04b147227280901baeaf94d209c592af6e60b66a48f4488ceb8cf0ddb"),
    "adjoin-identity-brandt-s3-2": (
        lambda: C.adjoin_identity(C.brandt_semigroup(C.symmetric_group(3), 2)),
        "ccb19bc76ea7c1bff95a9c118c9a577dbbbffb0e37be9164496c46dca45608e9"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_saved_bytes_are_pinned(name, tmp_path):
    build, digest = PINNED[name]
    path = tmp_path / "alg.json"
    save_algebra(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
