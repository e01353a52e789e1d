"""Tables that need not be associative: evaluation keeps each term's own
bracketing, and the associativity scan finds the first bad triple."""

from functools import reduce
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bglab import core
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
        width = max(i for i, _ in letters)
        if kind == "word":
            base = T.Word(tuple(T.Variable((i,), width) for i, _ in letters))
        else:
            base = T.InvTerm(tuple((T.Variable((i,), width), e) for i, e in letters))
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
