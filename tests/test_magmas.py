"""Tables that need not be associative: evaluation keeps each term's own
bracketing, the associativity scan finds the first bad triple, and Light's
test from a generating set reaches the scan's verdict."""

from functools import reduce
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bglab import constructions as C
from bglab import core, corpus
from bglab import terms as T
from bglab.core import AxiomViolation, FiniteAlgebra


@st.composite
def magmas(draw):
    """A random table of order <= 5 with a random star table."""
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    mul = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    star = draw(st.lists(cell, min_size=n, max_size=n))
    return FiniteAlgebra("involution-semigroup", tuple(map(str, range(n))), mul, star=star)


@st.composite
def terms(draw):
    """A Word, a starred InvTerm, a BlockWord, or a PowerOf any of them."""
    kind = draw(st.sampled_from(["word", "inv", "block"]))
    if kind == "block":
        base = T.v_word(draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                        draw(st.integers(1, 2)))
    else:
        letters = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                                min_size=1, max_size=8))
        if kind == "word":
            base = T.Word(tuple(T.Variable((i,)) for i, _ in letters))
        else:
            base = T.InvTerm(tuple((T.Variable((i,)), e) for i, e in letters))
    exponent = draw(st.integers(0, 9))
    return T.PowerOf(base, exponent) if exponent else base


def left_fold(term, sub, alg):
    # Word and InvTerm products bracket to the left: ((a1 a2) a3) ...
    letters = term.letters if isinstance(term, T.InvTerm) else [(v, 1) for v in term.letters]
    vals = [sub[v] if e > 0 else int(alg.star[sub[v]]) for v, e in letters]
    return reduce(lambda a, b: int(alg.mul[a, b]), vals)


class TestBracketing:
    @given(magmas(), terms(), st.sampled_from([np.uint8, np.int32, np.int64]),
           st.booleans(), st.integers(0, 10**9))
    @settings(max_examples=200)
    def test_evaluate_batch_matches_scalar_evaluate(self, alg, term, dtype, scalar, seed):
        xs = sorted(term.variables())
        rng = np.random.default_rng(seed)
        cols = {v: rng.integers(0, alg.size, size=20).astype(dtype) for v in xs}
        if scalar:  # the exhaustive scan binds its leading variables to ints
            cols[xs[0]] = int(cols[xs[0]][0])
        batch = np.broadcast_to(T.evaluate_batch(term, cols, alg), 20)
        rows = np.broadcast_arrays(*cols.values(), batch)
        for i in range(20):
            sub = {v: int(c[i]) for v, c in zip(cols, rows)}
            want = T.evaluate(term, sub, alg)
            assert batch[i] == want
            if isinstance(term, (T.Word, T.InvTerm)):
                assert want == left_fold(term, sub, alg)


def fancy_assoc_violation(table, law, slab_cells):
    """The associativity scan with 2-D fancy indexing, as it was before the
    takes: slab by slab, (xy)z against x(yz), first bad triple."""
    n = table.shape[0]
    rows = max(1, slab_cells // (n * n))
    for lo in range(0, n, rows):
        sl = table[lo : lo + rows]
        bad = table[sl, :] != sl[:, table]
        if bad.any():
            x, y, z = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return AxiomViolation(law, (int(x) + lo, int(y), int(z)))
    return None


@st.composite
def near_semigroups(draw):
    """Z_n, a left-zero band or a max-semilattice with up to two cells
    overwritten, so the first bad triple can lie anywhere, or nowhere."""
    n = draw(st.integers(1, 8))
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    table = draw(st.sampled_from([(a + b) % n, a, np.maximum(a, b)])).copy()
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.integers(0, n - 1))
    return table.astype(np.int32)


class TestAssociativityScan:
    @given(near_semigroups(), st.sampled_from([1, 7, 64, 1 << 22]))
    @settings(max_examples=200)
    def test_same_witness_as_the_fancy_index_scan(self, table, slab_cells):
        with mock.patch.object(core, "_SLAB_CELLS", slab_cells):
            got = core._assoc_violation(table, "mul-associative")
        assert got == fancy_assoc_violation(table, "mul-associative", slab_cells)


def light_path():
    """Light's test on every table, whatever its size or generating set."""
    return mock.patch.multiple(core, _LIGHT_MIN_SIZE=1, _LIGHT_MAX_SHARE=1)


def slab_path():
    """The n^3 slab scan on every table: the oracle."""
    return mock.patch.object(core, "_LIGHT_MIN_SIZE", 1 << 30)


def indecomposables(table):
    n = len(table)
    return {x for x in range(n)
            if all(table[y, z] != x for y in range(n) for z in range(n) if x not in (y, z))}


# every corpus table of order 1..4 and of order 1..3
CORPUS = {k: [t for n in range(1, k + 1) for t in corpus.semigroup_tables(n)] for k in (3, 4)}


@st.composite
def perturbed_semigroups(draw):
    """A semigroup of order <= 4 from the corpus with up to two cells
    overwritten."""
    table = np.array(draw(st.sampled_from(CORPUS[4])))
    n = len(table)
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.integers(0, n - 1))
    return FiniteAlgebra("semigroup", tuple(map(str, range(n))), table)


def semilattices(n):
    """Every commutative idempotent associative table on 0..n-1."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in product(range(n), repeat=len(pairs)):
        add = np.diag(np.arange(n))
        for (i, j), v in zip(pairs, values):
            add[i, j] = add[j, i] = v
        if core._assoc_violation(add, "add-associative") is None:
            out.append(add)
    return out


SEMILATTICES = {n: semilattices(n) for n in (1, 2, 3)}
SEMIRINGS = [C.brandt_monoid_b21(), C.hall_semiring(2, with_star=False),
             C.power_semiring(C.cyclic_group(3)), C.power_semiring(C.symmetric_group(3))]


def semiring(mul, add):
    return FiniteAlgebra("ai-semiring", tuple(map(str, range(len(mul)))), mul, add)


def distrib_violation_by_rows(mul, add, slab_cells):
    """Reference for the distributive slab scan, one x at a time: slabs of
    max(1, slab_cells // n^2) values of x, and in each the first (x, y, z)
    in row-major order that breaks x(y+z) = xy + xz, else the first that
    breaks (y+z)x = yx + zx."""
    n = len(mul)
    rows = max(1, slab_cells // (n * n))
    laws = {"left-distributive": lambda x: mul[x, add] != add[mul[x, :, None], mul[x, None, :]],
            "right-distributive": lambda x: mul[add, x] != add[mul[:, None, x], mul[None, :, x]]}
    for lo in range(0, n, rows):
        for law, broken in laws.items():
            for x in range(lo, min(lo + rows, n)):
                bad = np.argwhere(broken(x))
                if len(bad):
                    return AxiomViolation(law, (x, *map(int, bad[0])))
    return None


@st.composite
def perturbed_semirings(draw):
    """An order <= 3 semigroup and semilattice with one product cell
    overwritten (this breaks one distributive law or the other), or a larger
    ai-semiring with one sum y + z = z + y overwritten."""
    if draw(st.booleans()):
        mul = np.array(draw(st.sampled_from(CORPUS[3])))
        add = draw(st.sampled_from(SEMILATTICES[len(mul)]))
        cell = st.integers(0, len(mul) - 1)
        mul[draw(cell), draw(cell)] = draw(cell)
        return semiring(mul, add)
    base = draw(st.sampled_from(SEMIRINGS))
    cell = st.integers(0, base.size - 1)
    add = np.array(base.add)
    y, z = draw(cell), draw(cell)
    add[y, z] = add[z, y] = draw(cell)
    return semiring(base.mul, add)


class TestLightsTest:
    @given(st.one_of(magmas(), perturbed_semigroups()))
    @settings(max_examples=300)
    def test_same_verdict_and_witness_as_the_slab_scan(self, alg):
        table = alg.mul
        with light_path():
            gens = core._generators(table)
            got = core.validate(FiniteAlgebra("semigroup", alg.labels, table))
        assert core.closure([table], gens) == list(range(alg.size))
        assert indecomposables(table) <= set(gens)
        oracle = core._assoc_violation(table, "mul-associative")
        assert core._light_holds(table, gens) == (oracle is None)
        assert got == oracle

    @given(perturbed_semirings(), st.sampled_from([1, 7, 50, 1 << 22]))
    @settings(max_examples=300)
    def test_semirings_with_one_broken_cell(self, alg, slab_cells):
        # each validate call gets a fresh object, which decides anew
        with mock.patch.object(core, "_SLAB_CELLS", slab_cells):
            with light_path():
                got = core.validate(alg)
            with slab_path():
                assert got == core.validate(semiring(alg.mul, alg.add))
        if got is None or got.law.endswith("-distributive"):
            assert got == distrib_violation_by_rows(alg.mul, alg.add, slab_cells)

    @pytest.mark.parametrize("mul, add, cell, want", [
        # set 1*1 = 1: 1(1+2) = 1*1 = 1, but 1*1 + 1*2 = 1 + 0 = 0
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
         (1, 1, 1), AxiomViolation("left-distributive", (1, 1, 2))),
        # set 2*1 = 1: (0+2)1 = 2*1 = 1, but 0*1 + 2*1 = 0 + 1 = 0
        ([[0, 0, 0], [0, 0, 0], [0, 0, 2]], [[0, 0, 2], [0, 1, 2], [2, 2, 2]],
         (2, 1, 1), AxiomViolation("right-distributive", (1, 0, 2))),
    ])
    def test_one_broken_distributive_cell_on_each_side(self, mul, add, cell, want):
        mul = np.array(mul)
        assert core.validate(semiring(mul, add)) is None
        x, y, value = cell
        mul[x, y] = value
        with slab_path():
            assert core.validate(semiring(mul, add)) == want
        with light_path():
            assert core.validate(semiring(mul, add)) == want

    @pytest.mark.parametrize("build, want", [
        (lambda: C.hall_semiring(3), [0, 1, 2, 4, 8, 79]),
        (lambda: C.power_semiring(C.dihedral_group(4)),
         [0, 1, 2, 3, 5, 16, 17, 18, 19, 21, 23, 26, 27, 31, 53, 87, 91]),
        (lambda: C.kadourek_semigroup(2, 2)[0], [1, 2, 3, 4, 5, 6, 7, 8]),
    ], ids=["hall3", "power-d4", "kadourek-2-2"])
    def test_generating_sets_are_pinned(self, build, want):
        # the greedy sets that the row-list closure found
        alg = build()
        assert core.validate(alg) is None
        assert alg._facts["mul"]["gens"] == want

    def test_large_tables_take_lights_path(self):
        hall3 = C.hall_semiring(3)
        assert hall3.size >= core._LIGHT_MIN_SIZE
        mul_gens, add_gens = core._generators(hall3.mul), core._generators(hall3.add)
        assert (len(mul_gens), len(add_gens)) == (6, 42)
        assert core._light_holds(hall3.mul, mul_gens)
        assert core._distributes(hall3.mul, hall3.add, mul_gens)
        # a left-zero band needs every element: the slab scan decides
        band = np.repeat(np.arange(64)[:, None], 64, axis=1)
        assert core._generators(band) is None
