"""Exhaustive enumeration of small multiplication tables.

Generates every associative table on {0..n-1} (raw labeled tables, no
isomorphism rejection), breadth-first: a frontier of partial tables grows
one cell at a time, in max(i, j) order, so the filled cells form a growing
top-left block, and a partial table is dropped as soon as one of its
associativity triples is decided and fails.  The tables come out in
ascending lexicographic order of their rows.  Counts for n = 1..5 are
1, 8, 113, 3492, 183732; larger orders are refused.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import FiniteAlgebra

# Partial tables filled at once; bounds the children and the check's
# index arrays, so the frontier is the only array that grows with n.
_CHUNK = 1 << 10

# The largest order enumerated: order 6 has 17,061,118 tables (OEIS
# A023814), whose frontier would not fit in memory.
MAX_ORDER = 5


def _cells(n: int):
    """Every cell, in max(i, j) order: shell k completes the (k+1)-block.
    Within a shell, (k, i) and (i, k) come in pairs and (k, k) last, which
    leaves fewer partial tables to check than filling row by row."""
    for k in range(n):
        for i in range(k):
            yield k, i
            yield i, k
        yield k, k


def _fill(t: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Every partial table of t with each value in the empty cell (i, j),
    less those with a decided, failing triple (a, b, c) with a = i or
    c = j: every triple that reads cell (i, j).

    t is (F, (n+1)^2) uint8, one flattened (n+1) x (n+1) table a row, with
    n for an empty cell; row n and column n are empty, so a product that
    is still empty indexes an empty cell and a triple that reads one is
    undecided.  The children are read by flat takes at int32 offsets from
    one contiguous copy laid out cell by cell, so that cell (p, q) of child
    r sits at (p(n+1) + q)F + r and each take reads along r; the offsets
    are exact since _CHUNK * n * (n+1)^2 < 2^31 for n <= 127."""
    w = n + 1
    t = np.repeat(t, n, axis=0)
    t[:, i * w + j] = np.tile(np.arange(n, dtype=np.uint8), len(t) // n)
    f = len(t)
    cells = np.ascontiguousarray(t.T)
    flat = cells.ravel()
    cols = cells.reshape(w, w, f)[:n, :n].astype(np.int32)  # [a, b, r] = t_r[a, b]
    r = np.arange(f, dtype=np.int32)
    rows = cols * (w * f)
    rows += r  # offset of (t[a, b], 0), indexed [a, b]
    cols *= f
    cols += r  # offset of (0, t[a, b]), indexed [a, b]
    s = np.arange(0, n * f, f, dtype=np.int32)[:, None]  # column offsets qF
    # (i, b, c): (ib)c against i(bc), indexed [b, c]
    left = flat.take(rows[i][:, None] + s)
    right = flat.take(cols + i * w * f)
    bad = (left != right) & (left < n) & (right < n)
    # (a, b, j): (ab)j against a(bj), indexed [a, b]
    left = flat.take(rows + j * f)
    right = flat.take(cols[:, j] + s[:, None] * w)
    bad |= (left != right) & (left < n) & (right < n)
    return t[~bad.reshape(n * n, f).any(axis=0)]


@lru_cache(maxsize=None)
def semigroup_stack(n: int) -> np.ndarray:
    """Every associative n x n table, as a read-only C-contiguous uint8
    array of shape (count, n, n) in ascending lexicographic order.  Orders
    above MAX_ORDER are refused before any work starts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ORDER:
        raise ValueError(f"n must be <= {MAX_ORDER}: order {n} has too many tables to hold")
    t = np.full((1, (n + 1) ** 2), n, dtype=np.uint8)
    for i, j in _cells(n):
        # rebinding t to the children frees the parents before the join
        t = [_fill(t[k:k + _CHUNK], n, i, j) for k in range(0, len(t), _CHUNK)]
        t = np.concatenate(t)
    t = t.reshape(len(t), n + 1, n + 1)[:, :n, :n]
    tables = t.reshape(len(t), n * n)
    out = np.ascontiguousarray(t[np.lexsort(tables.T[::-1])])
    out.flags.writeable = False
    return out


def semigroup_tables(n: int):
    """Yield every associative n x n table as a tuple of row tuples."""
    for table in semigroup_stack(n).tolist():
        yield tuple(map(tuple, table))


def as_algebra(table) -> FiniteAlgebra:
    n = len(table)
    labels = tuple(f"s{i}" for i in range(n))
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "corpus-table"})
