"""Exhaustive enumeration of small multiplication tables.

Generates every associative table on {0..n-1} (raw labeled tables, no
isomorphism rejection), breadth-first: a frontier of partial tables grows
one cell at a time, in max(i, j) order, so the filled cells form a growing
top-left block, and a partial table is dropped as soon as one of its
associativity triples is decided and fails.  The tables come out in
ascending lexicographic order of their rows.  Counts for n = 1..4 are
1, 8, 113, 3492.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import FiniteAlgebra

# Partial tables filled at once; bounds the children and the check's
# index arrays, so the frontier is the only array that grows with n.
_CHUNK = 1 << 10


def _cells(n: int):
    """Every cell, in max(i, j) order: shell k completes the (k+1)-block.
    Within a shell, (k, i) and (i, k) come in pairs and (k, k) last, which
    leaves fewer partial tables to check than filling row by row."""
    for k in range(n):
        for i in range(k):
            yield k, i
            yield i, k
        yield k, k


def _associates(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """Mask of the partial tables in t with no decided, failing triple
    (a, b, c) with a = i or c = j: every triple that reads cell (i, j).

    t is (F, n+1, n+1) int8 with -1 for an empty cell; its last row and
    column are empty, so an index of -1 reads an empty cell and a triple
    that reads one is undecided."""
    n = t.shape[1] - 1
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
    return ~bad.any(axis=(1, 2))


def _fill(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """Every partial table of t with each value in the empty cell (i, j),
    less those with a decided, failing triple."""
    n = t.shape[1] - 1
    t = np.repeat(t, n, axis=0)
    t[:, i, j] = np.tile(np.arange(n, dtype=np.int8), len(t) // n)
    return t[_associates(t, i, j)]


@lru_cache(maxsize=None)
def semigroup_stack(n: int) -> np.ndarray:
    """Every associative n x n table, as a read-only C-contiguous uint8
    array of shape (count, n, n) in ascending lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    t = np.full((1, n + 1, n + 1), -1, dtype=np.int8)
    for i, j in _cells(n):
        t = np.concatenate([_fill(t[k:k + _CHUNK], i, j)
                            for k in range(0, len(t), _CHUNK)])
    tables = t[:, :n, :n].reshape(len(t), n * n)
    out = np.ascontiguousarray(t[np.lexsort(tables.T[::-1]), :n, :n], dtype=np.uint8)
    out.flags.writeable = False
    return out


def semigroup_tables(n: int):
    """Yield every associative n x n table as a tuple of row tuples."""
    for table in semigroup_stack(n).tolist():
        yield tuple(map(tuple, table))


@lru_cache(maxsize=None)
def all_semigroups_upto(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    out = []
    for size in range(1, n + 1):
        out.extend(semigroup_tables(size))
    return tuple(out)


def as_algebra(table) -> FiniteAlgebra:
    n = len(table)
    labels = tuple(f"s{i}" for i in range(n))
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "corpus-table"})
