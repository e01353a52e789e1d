from itertools import product
from unittest import mock

import numpy as np
import pytest

from bglab import corpus
from bglab.core import validate


def brute_force_count(n):
    """Oracle: filter every raw table for associativity."""
    rng = range(n)
    count = 0
    for flat in product(rng, repeat=n * n):
        t = [flat[i * n : (i + 1) * n] for i in range(n)]
        if all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in rng for b in rng for c in rng):
            count += 1
    return count


def _consistent(t, n, i, j):
    """Associativity triples that could involve the just-filled cell (i, j)."""
    v = t[i * n + j]
    # (i, j, c): inner-left product is the new cell
    for c in range(n):
        q = t[j * n + c]
        if q >= 0:
            left = t[v * n + c]
            right = t[i * n + q]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (a, i, j): inner-right product is the new cell
    for a in range(n):
        p = t[a * n + i]
        if p >= 0:
            left = t[p * n + j]
            right = t[a * n + v]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (a, b, j) where t[a][b] = i: new cell is the outer-left lookup
    for a in range(n):
        row = a * n
        for b in range(n):
            if t[row + b] == i:
                q = t[b * n + j]
                if q >= 0:
                    right = t[row + q]
                    if right >= 0 and right != v:
                        return False
    # (i, b, c) where t[b][c] = j: new cell is the outer-right lookup
    for b in range(n):
        tb = t[i * n + b]
        row = b * n
        for c in range(n):
            if t[row + c] == j:
                if tb >= 0:
                    left = t[tb * n + c]
                    if left >= 0 and left != v:
                        return False
    return True


def backtracked_tables(n):
    """Oracle: every associative table in ascending order, by backtracking
    over cells in row-major order with incremental associativity pruning."""
    cells = n * n
    t = [-1] * cells
    pos = 0
    value = [0] * cells
    while pos >= 0:
        if pos == cells:
            yield tuple(tuple(t[i * n : (i + 1) * n]) for i in range(n))
            pos -= 1
            value[pos] += 1
            t[pos] = -1
            continue
        v = value[pos]
        if v == n:
            value[pos] = 0
            t[pos] = -1
            pos -= 1
            if pos >= 0:
                value[pos] += 1
                t[pos] = -1
            continue
        t[pos] = v
        if _consistent(t, n, pos // n, pos % n):
            pos += 1
        else:
            value[pos] += 1


def fancy_fill(t, i, j):
    """Oracle: the filter with 3-D fancy indexing, as it was before the flat
    takes.  t is (F, n+1, n+1) int8 with -1 for an empty cell; its last row
    and column are empty, so an index of -1 reads an empty cell.  Returns
    every partial table of t with each value in the empty cell (i, j), less
    those with a decided, failing triple (a, b, c) with a = i or c = j."""
    n = t.shape[1] - 1
    t = np.repeat(t, n, axis=0)
    t[:, i, j] = np.tile(np.arange(n, dtype=np.int8), len(t) // n)
    f = np.arange(len(t))[:, None, None]
    s = np.arange(n)
    block = t[:, :n, :n]
    # (i, b, c): (ib)c against i(bc), indexed [b, c]
    left = t[f, t[:, i, :n, None], s]
    right = t[f, i, block]
    bad = (left != right) & (left >= 0) & (right >= 0)
    # (a, b, j): (ab)j against a(bj), indexed [a, b]
    left = t[f, block, j]
    right = t[f, s[:, None], t[:, None, :n, j]]
    bad |= (left != right) & (left >= 0) & (right >= 0)
    return t[~bad.any(axis=(1, 2))]


def oracle_frontiers(n, limit=None):
    """(i, j, parents) for every cell in fill order: the breadth-first
    frontier before (i, j) is filled, grown by the oracle, or with a limit
    its first `limit` partial tables (children come parent by parent, so
    the children of a prefix are a prefix of the next frontier)."""
    t = np.full((1, n + 1, n + 1), -1, dtype=np.int8)
    for i, j in corpus._cells(n):
        t = t[:limit]
        yield i, j, t
        t = fancy_fill(t, i, j)


def flat_frontier(t):
    """The oracle's (F, n+1, n+1) int8 frontier in the enumerator's layout:
    (F, (n+1)^2) uint8 with n for an empty cell."""
    n = t.shape[1] - 1
    return np.where(t < 0, n, t).astype(np.uint8).reshape(len(t), -1)


def assert_fill_matches_oracle(n, limit=None):
    for i, j, parents in oracle_frontiers(n, limit):
        got = corpus._fill(flat_frontier(parents), n, i, j)
        want = flat_frontier(fancy_fill(parents, i, j))
        assert np.array_equal(got, want), (n, i, j)


class TestFilter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fill_keeps_the_oracles_children_at_every_cell(self, n):
        assert_fill_matches_oracle(n)

    def test_fill_keeps_the_oracles_children_at_order_five(self):
        # at most the first 2,000 parents at each of the 25 cells
        assert_fill_matches_oracle(5, limit=2000)

    def test_oracle_frontier_is_the_corpus(self):
        *_, (i, j, parents) = oracle_frontiers(4)
        last = flat_frontier(fancy_fill(parents, i, j)).reshape(-1, 5, 5)[:, :4, :4]
        assert sorted(map(bytes, last)) == list(map(bytes, corpus.semigroup_stack(4)))


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_match_brute_force(self, n):
        assert sum(1 for _ in corpus.semigroup_tables(n)) == brute_force_count(n)

    def test_known_counts(self):
        assert sum(1 for _ in corpus.semigroup_tables(1)) == 1
        assert sum(1 for _ in corpus.semigroup_tables(2)) == 8
        assert sum(1 for _ in corpus.semigroup_tables(3)) == 113

    def test_order_four_count(self):
        assert sum(1 for _ in corpus.semigroup_tables(4)) == 3492

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_match_the_backtracker_in_order(self, n):
        assert list(corpus.semigroup_tables(n)) == list(backtracked_tables(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_is_a_read_only_uint8_array(self, n):
        stack = corpus.semigroup_stack(n)
        count = (1, 8, 113, 3492)[n - 1]
        assert stack.shape == (count, n, n)
        assert stack.dtype == np.uint8
        assert stack.flags.c_contiguous and not stack.flags.writeable
        assert corpus.semigroup_stack(n) is stack
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_is_refused(self, n):
        with pytest.raises(ValueError):
            corpus.semigroup_stack(n)
        with pytest.raises(ValueError):
            next(corpus.semigroup_tables(n))

    def test_order_above_five_is_refused_before_any_work(self):
        # order 6 has 17,061,118 tables; neither call builds a frontier
        with mock.patch.object(corpus, "_fill", wraps=corpus._fill) as fill:
            for n in (corpus.MAX_ORDER + 1, 10**6):
                with pytest.raises(ValueError, match="n must be <= 5"):
                    corpus.semigroup_stack(n)
                with pytest.raises(ValueError, match="n must be <= 5"):
                    next(corpus.semigroup_tables(n))
        fill.assert_not_called()

    def test_tables_are_emitted_in_ascending_order(self):
        tables = list(corpus.semigroup_tables(2))
        assert tables == sorted(tables)
        assert tables[0] == ((0, 0), (0, 0))

    def test_every_emitted_table_is_associative(self):
        for n in range(1, 4):
            for table in corpus.semigroup_tables(n):
                assert validate(corpus.as_algebra(table)) is None
