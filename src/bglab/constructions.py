"""Builders for every concrete algebra the workbench studies.

Conventions baked in here:
  * permutations compose left to right: (p * q)(x) = q[p[x]];
  * subsets of a group are bitmasks over the group's element order, so in a
    full power semiring the element index *is* the mask;
  * Boolean matrices are read as row-major bit integers, ascending;
  * every constructor output passes the matching core validator (tested).
"""

from __future__ import annotations

from itertools import islice, permutations
from math import isqrt

import numpy as np

from . import terms
from .core import (_SLAB_CELLS, FiniteAlgebra, _check_indices, closure, mult_reduct,
                   validate)
from .errors import (
    BglabError,
    CarrierTooLarge,
    ClosureBudgetExceeded,
    NormalSubgroup,
    NotAGroup,
    NotAnIdeal,
    NotASubgroup,
    UnsupportedSize,
)

POWER_BIT_BUDGET = 16
HALL_MAX_N = 4
# Largest table (size^2 cells) the Hall and Kadourek builders will fill.
MAX_TABLE_CELLS = 1 << 26


# ---------------------------------------------------------------------------
# group families


def _cycle_label(p):
    n = len(p)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = True
        if p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "e"


def _table_from(elements, op):
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    table = [[index[op(elements[i], elements[j])] for j in range(n)] for i in range(n)]
    return table


def cyclic_group(n: int) -> FiniteAlgebra:
    if n < 1:
        raise UnsupportedSize("cyclic group needs n >= 1")
    labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteAlgebra("semigroup", tuple(labels), table,
                         meta={"construction": "group", "family": "cyclic", "n": n})


def symmetric_group(n: int) -> FiniteAlgebra:
    if not 1 <= n <= 5:
        raise UnsupportedSize("symmetric group supported for 1 <= n <= 5")
    elems = sorted(permutations(range(n)))  # identity is lexicographically first
    table = _table_from(elems, lambda p, q: tuple(q[p[i]] for i in range(n)))
    labels = tuple(_cycle_label(p) for p in elems)
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "group", "family": "symmetric", "n": n})


def dihedral_group(n: int) -> FiniteAlgebra:
    """Group of order 2n: rotations r^a and reflections r^a s, with s r s = r^-1."""
    if n < 1:
        raise UnsupportedSize("dihedral group needs n >= 1")
    elems = [(a, 0) for a in range(n)] + [(a, 1) for a in range(n)]

    def op(x, y):
        a, b = x
        c, d = y
        return ((a + c) % n if b == 0 else (a - c) % n, b ^ d)

    def label(x):
        a, b = x
        rot = "" if a == 0 else ("r" if a == 1 else f"r{a}")
        ref = "s" if b else ""
        return (rot + ref) or "e"

    table = _table_from(elems, op)
    return FiniteAlgebra("semigroup", tuple(label(x) for x in elems), table,
                         meta={"construction": "group", "family": "dihedral", "n": n})


def quaternion_group() -> FiniteAlgebra:
    """The 8-element quaternion group with labels 1, -1, i, -i, j, -j, k, -k."""
    # axis products for 1,i,j,k as (sign, axis)
    base = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elems = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]

    def op(x, y):
        s, a = base[(x[1], y[1])]
        return (s * x[0] * y[0], a)

    names = {0: "1", 1: "i", 2: "j", 3: "k"}
    labels = tuple(("" if s > 0 else "-") + names[a] for s, a in elems)
    table = _table_from(elems, op)
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "group", "family": "quaternion8"})


def make_group(family: str, n: int | None = None) -> FiniteAlgebra:
    if n is None and family in ("cyclic", "symmetric", "dihedral"):
        raise UnsupportedSize(f"group family {family!r} needs n")
    if family == "cyclic":
        return cyclic_group(n)
    if family == "symmetric":
        return symmetric_group(n)
    if family == "dihedral":
        return dihedral_group(n)
    if family == "quaternion8":
        return quaternion_group()
    raise UnsupportedSize(f"unknown group family {family!r}")


def group_identity(alg: FiniteAlgebra) -> int:
    """The least two-sided identity; raises NotAGroup when there is none."""
    return _identity(alg.mul.tolist())


def _identity(rows: list[list[int]]) -> int:
    # Python lists: most tables here are tiny, where numpy's per-call cost
    # outweighs the scan.
    ids = list(range(len(rows)))
    for e, row in enumerate(rows):
        if row == ids and all(r[e] == x for x, r in enumerate(rows)):
            return e
    raise NotAGroup("no identity element")


def group_inverses(alg: FiniteAlgebra) -> list[int]:
    """The least two-sided inverse of every element; raises NotAGroup when an
    element has none.  Associativity is not checked (see ensure_group)."""
    rows = alg.mul.tolist()
    e = _identity(rows)
    inv = []
    for x, row in enumerate(rows):
        y = next((y for y, v in enumerate(row) if v == e and rows[y][x] == e), None)
        if y is None:
            raise NotAGroup(f"element {alg.labels[x]} has no inverse")
        inv.append(y)
    return inv


def ensure_group(alg: FiniteAlgebra) -> tuple[int, list[int]]:
    bad = validate(alg)
    if bad is not None:
        raise NotAGroup(f"not associative: {bad}")
    return group_identity(alg), group_inverses(alg)


# ---------------------------------------------------------------------------
# Brandt semigroups and the 6-element Brandt monoid


def brandt_semigroup(group: FiniteAlgebra, index_count: int) -> FiniteAlgebra:
    """I x G x I plus a zero, with the coordinate-matching product."""
    if index_count < 1:
        raise UnsupportedSize("index_count must be >= 1")
    ensure_group(group)
    g_n = group.size
    n = index_count
    size = n * n * g_n + 1

    def idx(l, g, r):  # l, r are 1-based
        return 1 + ((l - 1) * g_n + g) * n + (r - 1)

    labels = ["0"]
    for l in range(1, n + 1):
        for g in range(g_n):
            for r in range(1, n + 1):
                labels.append(f"({l},{group.labels[g]},{r})")
    table = [[0] * size for _ in range(size)]
    gmul = group.mul
    for l1 in range(1, n + 1):
        for g1 in range(g_n):
            for r1 in range(1, n + 1):
                i = idx(l1, g1, r1)
                for g2 in range(g_n):
                    for r2 in range(1, n + 1):
                        # non-zero only when inner indices match
                        table[i][idx(r1, g2, r2)] = idx(l1, int(gmul[g1, g2]), r2)
    meta = {"construction": "brandt", "index_count": n, "group": _nested_meta(group)}
    return FiniteAlgebra("semigroup", tuple(labels), table, meta=meta)


_B21_MATRICES = (
    ((0, 0), (0, 0)),
    ((1, 0), (0, 1)),
    ((0, 1), (0, 0)),
    ((0, 0), (1, 0)),
    ((1, 0), (0, 0)),
    ((0, 0), (0, 1)),
)
B21_LABELS = ("0", "1", "a", "b", "e", "f")


def _bool_mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(int(any(x[i][k] and y[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def brandt_monoid_b21() -> FiniteAlgebra:
    """The 6-element Brandt monoid as zero-one matrices.

    mul is matrix product, add the Hadamard (entry-wise) product, star the
    transpose; labels 0, 1, a, b, e, f in the fixed matrix order.
    """
    mats = _B21_MATRICES
    index = {m: i for i, m in enumerate(mats)}
    mul = [[index[_bool_mat_mul(x, y)] for y in mats] for x in mats]
    add = [
        [index[tuple(tuple(a & b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))]
         for y in mats]
        for x in mats
    ]
    star = [index[tuple(zip(*m))] for m in mats]
    return FiniteAlgebra("involution-ai-semiring", B21_LABELS, mul, add, star,
                         meta={"construction": "b21"})


# ---------------------------------------------------------------------------
# power semirings of groups


def subset_label(group: FiniteAlgebra, mask: int) -> str:
    members = [group.labels[i] for i in range(group.size) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def _mask_translates(group: FiniteAlgebra) -> list[list[int]]:
    # translate[g][B] = bitmask of {g*b : b in B}
    m = group.size
    full = 1 << m
    mul = group.mul
    out = []
    for g in range(m):
        row = [0] * full
        images = [1 << int(mul[g, b]) for b in range(m)]
        for mask in range(1, full):
            low = mask & -mask
            row[mask] = row[mask ^ low] | images[low.bit_length() - 1]
        out.append(row)
    return out


def _power_tables(group: FiniteAlgebra):
    m = group.size
    full = 1 << m
    translates = _mask_translates(group)
    trans_rows = [np.array(t, dtype=np.int64) for t in translates]
    mul = np.zeros((full, full), dtype=np.int64)
    for mask in range(1, full):
        low = mask & -mask
        mul[mask] = mul[mask ^ low] | trans_rows[low.bit_length() - 1]
    masks = np.arange(full, dtype=np.int64)
    add = np.bitwise_or.outer(masks, masks)
    inv = group_inverses(group)
    star = [0] * full
    for mask in range(1, full):
        low = mask & -mask
        star[mask] = star[mask ^ low] | (1 << inv[low.bit_length() - 1])
    return mul, add, np.array(star, dtype=np.int64)


def power_semiring(group: FiniteAlgebra, nonempty_only: bool = False,
                   with_star: bool = False,
                   bit_budget: int = POWER_BIT_BUDGET) -> FiniteAlgebra:
    """(P(G), union, elementwise product); all subsets or the non-empty ones."""
    ensure_group(group)
    if group.size > bit_budget:
        raise CarrierTooLarge(
            f"2^{group.size} subsets exceed the {bit_budget}-bit budget")
    mul, add, star = _power_tables(group)
    labels = [subset_label(group, mask) for mask in range(1 << group.size)]
    if nonempty_only:
        mul, add, star = mul[1:, 1:] - 1, add[1:, 1:] - 1, star[1:] - 1
        labels = labels[1:]
    kind = "involution-ai-semiring" if with_star else "ai-semiring"
    meta = {"construction": "power-semiring", "nonempty": nonempty_only,
            "with_star": with_star, "group": _nested_meta(group)}
    return FiniteAlgebra(kind, tuple(labels), mul, add,
                         star if with_star else None, meta=meta)


def involution_power(group: FiniteAlgebra,
                     bit_budget: int = POWER_BIT_BUDGET) -> FiniteAlgebra:
    """(P(G), elementwise product, elementwise inversion)."""
    ensure_group(group)
    if group.size > bit_budget:
        raise CarrierTooLarge(
            f"2^{group.size} subsets exceed the {bit_budget}-bit budget")
    mul, _, star = _power_tables(group)
    labels = tuple(subset_label(group, mask) for mask in range(1 << group.size))
    meta = {"construction": "involution-power", "group": _nested_meta(group)}
    return FiniteAlgebra("involution-semigroup", labels, mul, star=star, meta=meta)


# ---------------------------------------------------------------------------
# Hall relations


def _is_hall(mask: int, n: int, perms) -> bool:
    for p in perms:
        if all(mask >> (i * n + p[i]) & 1 for i in range(n)):
            return True
    return False


def _iter_hall_masks(n: int):
    """hall_masks(n), enumerated lazily in ascending order."""
    perms = list(permutations(range(n)))
    return (m for m in range(1 << (n * n)) if _is_hall(m, n, perms))


def hall_masks(n: int) -> list[int]:
    """All n x n Boolean matrices containing a permutation, as bit integers."""
    return list(_iter_hall_masks(n))


def _mask_rows(mask: int, n: int) -> list[int]:
    return [(mask >> (i * n)) & ((1 << n) - 1) for i in range(n)]


def _hall_mul(x: int, y: int, n: int) -> int:
    yrows = _mask_rows(y, n)
    out = 0
    for i in range(n):
        row = 0
        bits = (x >> (i * n)) & ((1 << n) - 1)
        while bits:
            low = bits & -bits
            row |= yrows[low.bit_length() - 1]
            bits ^= low
        out |= row << (i * n)
    return out


def hall_semiring(n: int, with_star: bool = True,
                  max_table_cells: int = MAX_TABLE_CELLS) -> FiniteAlgebra:
    """Semiring of Hall relations on an n-element set (union, composition)."""
    if n < 1 or n > HALL_MAX_N:
        raise CarrierTooLarge(f"hall_semiring supports 1 <= n <= {HALL_MAX_N}")
    # size^2 > max_table_cells iff size > isqrt(max_table_cells): stop the
    # enumeration at the first mask past that
    most = isqrt(max_table_cells)
    masks = list(islice(_iter_hall_masks(n), most + 1))
    if len(masks) > most:
        raise CarrierTooLarge(
            f"carrier of more than {most} relations needs more than "
            f"{max_table_cells} table cells; raise max_table_cells to force it")
    size = len(masks)
    index = {m: i for i, m in enumerate(masks)}

    def look(m):
        try:
            return index[m]
        except KeyError:  # would mean the carrier is not closed
            raise ValueError("product left the Hall carrier") from None

    mul = [[look(_hall_mul(x, y, n)) for y in masks] for x in masks]
    add = [[index[x | y] for y in masks] for x in masks]

    def transpose(mask):
        out = 0
        for i in range(n):
            for j in range(n):
                if mask >> (i * n + j) & 1:
                    out |= 1 << (j * n + i)
        return out

    star = [index[transpose(m)] for m in masks] if with_star else None
    labels = tuple(
        "|".join("".join(str(m >> (i * n + j) & 1) for j in range(n)) for i in range(n))
        for m in masks
    )
    kind = "involution-ai-semiring" if with_star else "ai-semiring"
    return FiniteAlgebra(kind, labels, mul, add, star,
                         meta={"construction": "hall", "n": n, "with_star": with_star})


# ---------------------------------------------------------------------------
# the subsemiring B inside a power semiring


def subset_b(group: FiniteAlgebra, subgroup, g: int) -> list[int]:
    """Carrier of the subsemiring {E, H, g^-1 H, H g, g^-1 H g} + big sets.

    Returns subset bitmasks (= indices into the full power semiring), sorted.
    Requires H to be a subgroup that g does not normalize.
    """
    H = frozenset(int(x) for x in subgroup)
    # a non-empty subset of a finite group is a subgroup iff it is closed
    outside = sorted(set(closure([group.mul], H)) - H)
    if not H or outside:
        raise NotASubgroup("the subgroup is empty" if not H else
                           f"products reach {group.labels[outside[0]]}, outside the set")
    inv = group_inverses(group)
    mul = group.mul
    ginv = inv[g]
    conj = frozenset(int(mul[int(mul[ginv, h]), g]) for h in H)
    if conj == H:
        raise NormalSubgroup("g normalizes H; need g^-1 H g != H")

    def mask_of(s):
        out = 0
        for x in s:
            out |= 1 << x
        return out

    e = group_identity(group)
    gH = frozenset(int(mul[ginv, h]) for h in H)
    Hg = frozenset(int(mul[h, g]) for h in H)
    if gH == Hg:
        raise NormalSubgroup("g^-1 H = H g forces g^-1 H g = H")
    small = [frozenset([e]), H, gH, Hg, conj]
    big = [m for m in range(1 << group.size)
           if bin(m).count("1") > len(H)]
    carrier = sorted(set(mask_of(s) for s in small) | set(big))
    if len(set(mask_of(s) for s in small)) != 5:
        raise ValueError("the five distinguished subsets are not distinct")

    # closure sanity: union and product stay inside
    carrier_set = set(carrier)
    trans = _mask_translates(group)
    for x in carrier:
        for y in carrier:
            if x | y not in carrier_set:
                raise ValueError("carrier not closed under union")
            prod = 0
            bits = x
            while bits:
                low = bits & -bits
                prod |= trans[low.bit_length() - 1][y]
                bits ^= low
            if prod not in carrier_set:
                raise ValueError("carrier not closed under product")
    return carrier


# ---------------------------------------------------------------------------
# Kadourek inverse semigroups of partial injections.  A map on P points is an
# int16 row of P + 1 entries, the last point a sink for "undefined"; then
# "f, then g" (x -> g[f[x]]) is the gather g[f], and the row's bytes its key.


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void scalar per (contiguous) row, for sorting and exact lookup."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]


def _append_new(known: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """known, then the rows of cand it lacks, once each, in first-seen order."""
    both = np.concatenate([known, cand])
    _, first = np.unique(_row_keys(both), return_index=True)
    return both[np.sort(first)]


def _invert_rows(rows: np.ndarray) -> np.ndarray:
    sink = rows.shape[1] - 1
    out = np.full_like(rows, sink)
    r, x = np.nonzero(rows[:, :sink] < sink)
    out[r, rows[r, x]] = x
    return out


def partial_map_label(f) -> str:
    pairs = [f"{x}>{y}" for x, y in enumerate(f) if y >= 0]
    return "[" + ",".join(pairs) + "]"


def kadourek_generators(n: int, h: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Generator partial injections on {0..(2n)^h}, read off the letter positions
    of the depth-h inverse-pattern word over n base variables."""
    if n < 2 or h < 1:
        raise UnsupportedSize("kadourek construction needs n >= 2, h >= 1")
    word = terms.w_word(n, h)
    npoints = len(word.letters) + 1
    gens: dict[tuple[int, ...], list[int]] = {}
    for p, (var, exp) in enumerate(word.letters, start=1):
        f = gens.setdefault(var.indices, [-1] * npoints)
        src, dst = (p - 1, p) if exp > 0 else (p, p - 1)
        if f[src] >= 0:
            raise ValueError("conflicting letter positions for one generator")
        f[src] = dst
    return {t: tuple(f) for t, f in sorted(gens.items())}


def kadourek_semigroup(n: int, h: int,
                       closure_budget: int = isqrt(MAX_TABLE_CELLS)):
    """Inverse semigroup generated by the kadourek_generators and their inverses.

    Returns (algebra, generator_index) where generator_index maps each index
    tuple to the generator's carrier position.  The empty map is the zero.
    Elements are numbered in FIFO worklist order (each element times every
    generator and inverse, on the right, then on the left).  More than
    closure_budget elements raise ClosureBudgetExceeded before any table.
    """
    gens = kadourek_generators(n, h)
    sink = len(next(iter(gens.values())))
    g = np.array(list(gens.values()), dtype=np.int16)
    g = np.pad(np.where(g < 0, sink, g), ((0, 0), (0, 1)), constant_values=sink)
    width = sink + 1
    # the empty map, then each generator followed by its inverse
    start = np.concatenate([np.full((1, width), sink, dtype=np.int16),
                            np.stack([g, _invert_rows(g)], axis=1).reshape(-1, width)])
    seeds = start[1:]
    known = _append_new(start[:0], start)
    # the worklist, one block of parents per gather
    rows = max(1, _SLAB_CELLS // (2 * len(seeds) * width))
    head = 0
    while head < len(known):
        if len(known) > closure_budget:
            raise ClosureBudgetExceeded(f"closure exceeded {closure_budget} elements")
        f = known[head:head + rows]
        head += len(f)
        prods = np.stack([seeds.take(f, axis=1).swapaxes(0, 1), f.take(seeds, axis=1)],
                         axis=2)
        known = _append_new(known, prods.reshape(-1, width))
    keys = _row_keys(known)
    order = np.argsort(keys)

    def index_of(maps):
        # every element is a product of seeds and the carrier is closed
        # under multiplying by a seed, so every product is found
        return order[np.searchsorted(keys, _row_keys(maps), sorter=order)]

    mul = np.empty((len(known), len(known)), dtype=np.int32)
    rows = max(1, _SLAB_CELLS // (len(known) * width))
    for lo in range(0, len(known), rows):
        # [j, i] is known[lo + i] then known[j]
        mul[lo:lo + rows] = index_of(known.take(known[lo:lo + rows], axis=1)).T
    star = index_of(_invert_rows(known))
    labels = tuple(partial_map_label(f)
                   for f in np.where(known == sink, -1, known)[:, :sink].tolist())
    gen_index = dict(zip(gens, index_of(g).tolist()))
    meta = {
        "construction": "kadourek", "n": n, "h": h,
        "generators": {"".join(map(str, t)): i for t, i in gen_index.items()},
    }
    alg = FiniteAlgebra("involution-semigroup", labels, mul, star=star, meta=meta)
    return alg, gen_index


# ---------------------------------------------------------------------------
# generic derived algebras


def subalgebra_generate(alg: FiniteAlgebra, seeds) -> list[int]:
    """Least subset containing the seeds and closed under all present operations."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    tables = [alg.mul] + ([alg.add] if alg.add is not None else [])
    return closure(tables, seeds, alg.star)


def induced_algebra(alg: FiniteAlgebra, elements) -> tuple[FiniteAlgebra, dict[int, int]]:
    """Restrict every table to a closed element set; returns (algebra, old->new)."""
    old = sorted(int(x) for x in elements)
    _check_indices(old, alg.size)
    remap = {x: i for i, x in enumerate(old)}

    def shrink(table2d):
        out = [[0] * len(old) for _ in old]
        for i, x in enumerate(old):
            for j, y in enumerate(old):
                v = int(table2d[x, y])
                if v not in remap:
                    raise ValueError(
                        f"set not closed: {alg.labels[x]} o {alg.labels[y]} escapes")
                out[i][j] = remap[v]
        return out

    mul = shrink(alg.mul)
    add = shrink(alg.add) if alg.add is not None else None
    star = None
    if alg.star is not None:
        star = []
        for x in old:
            v = int(alg.star[x])
            if v not in remap:
                raise ValueError(f"set not closed under star at {alg.labels[x]}")
            star.append(remap[v])
    labels = tuple(alg.labels[x] for x in old)
    meta = {"construction": "subalgebra", "elements": old, "parent": _nested_meta(alg)}
    return FiniteAlgebra(alg.kind, labels, mul, add, star, meta=meta), remap


def ideal_violation(alg: FiniteAlgebra, ideal) -> tuple[int, int] | None:
    """First (i, s) with i*s or s*i outside the set, scanning ascending."""
    ideal_set = set(int(x) for x in ideal)
    mul = alg.mul
    for i in sorted(ideal_set):
        for s in range(alg.size):
            if int(mul[i, s]) not in ideal_set or int(mul[s, i]) not in ideal_set:
                return (i, s)
    return None


def rees_quotient(alg: FiniteAlgebra, ideal) -> FiniteAlgebra:
    """Collapse a two-sided ideal to a single zero (index 0 of the quotient)."""
    if alg.kind != "semigroup":
        raise ValueError("rees_quotient expects a plain semigroup")
    ideal_set = set(int(x) for x in ideal)
    if not ideal_set:
        raise NotAnIdeal("ideal must be non-empty")
    if not ideal_set <= set(range(alg.size)):
        raise NotAnIdeal("ideal contains invalid indices")
    bad = ideal_violation(alg, ideal_set)
    if bad is not None:
        i, s = bad
        raise NotAnIdeal(
            f"products of {alg.labels[i]} and {alg.labels[s]} escape the set",
            witness=bad)
    survivors = [x for x in range(alg.size) if x not in ideal_set]
    zero_label = alg.labels[min(ideal_set)]
    labels = [zero_label] + [alg.labels[x] for x in survivors]
    remap = {x: i + 1 for i, x in enumerate(survivors)}
    size = len(labels)
    table = [[0] * size for _ in range(size)]
    for i, x in enumerate(survivors):
        for j, y in enumerate(survivors):
            p = int(alg.mul[x, y])
            table[i + 1][j + 1] = remap.get(p, 0)
    meta = {"construction": "rees-quotient", "ideal": sorted(ideal_set),
            "parent": _nested_meta(alg)}
    return FiniteAlgebra("semigroup", tuple(labels), table, meta=meta)


def _fresh_label(labels, want):
    label = want
    while label in labels:
        label += "'"
    return label


def adjoin_zero(alg: FiniteAlgebra) -> FiniteAlgebra:
    """New absorbing element at index 0; existing indices shift up by one."""
    if alg.kind != "semigroup":
        raise ValueError("adjoin_zero expects a plain semigroup")
    n = alg.size
    labels = (_fresh_label(alg.labels, "0"),) + alg.labels
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            table[i + 1][j + 1] = int(alg.mul[i, j]) + 1
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "adjoin-zero", "parent": _nested_meta(alg)})


def adjoin_identity(alg: FiniteAlgebra) -> FiniteAlgebra:
    """New identity element appended at the last index."""
    if alg.kind != "semigroup":
        raise ValueError("adjoin_identity expects a plain semigroup")
    n = alg.size
    labels = alg.labels + (_fresh_label(alg.labels, "1"),)
    table = [[int(alg.mul[i, j]) for j in range(n)] + [i] for i in range(n)]
    table.append(list(range(n + 1)))
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "adjoin-identity",
                               "parent": _nested_meta(alg)})


def _nested_meta(alg: FiniteAlgebra):
    """What to record about an input algebra: its construction meta, or its size."""
    if alg.meta.get("construction"):
        return dict(alg.meta)
    return {"construction": None, "size": alg.size, "labels": list(alg.labels)}


# ---------------------------------------------------------------------------
# the registry: the meta each builder above records, read back


# What a parameter of each type accepts, and how a message names it: an int
# is no bool, and an algebra is a nested meta, rebuilt, or an algebra as it is.
_PARAM_TYPES = {
    int: (lambda v: type(v) is int, "an int"),
    bool: (lambda v: type(v) is bool, "a bool"),
    str: (lambda v: type(v) is str, "a string"),
    list: (lambda v: type(v) is list and all(type(x) is int for x in v),
           "a list of ints"),
    FiniteAlgebra: (lambda v: isinstance(v, (dict, FiniteAlgebra)),
                    "a construction meta or an algebra"),
}
_REQUIRED = object()

# meta["construction"] -> (constructor, then its positional parameters as
# (meta key, type) or (meta key, type, default when the key is absent))
REGISTRY = {
    "group": (make_group, ("family", str), ("n", int, None)),
    "brandt": (brandt_semigroup, ("group", FiniteAlgebra), ("index_count", int)),
    "b21": (brandt_monoid_b21,),
    "power-semiring": (power_semiring, ("group", FiniteAlgebra),
                       ("nonempty", bool, False), ("with_star", bool, False)),
    "involution-power": (involution_power, ("group", FiniteAlgebra)),
    "hall": (hall_semiring, ("n", int), ("with_star", bool, True)),
    "kadourek": (lambda n, h: kadourek_semigroup(n, h)[0], ("n", int), ("h", int)),
    "subalgebra": (lambda parent, elements: induced_algebra(parent, elements)[0],
                   ("parent", FiniteAlgebra), ("elements", list)),
    "rees-quotient": (rees_quotient, ("parent", FiniteAlgebra), ("ideal", list)),
    "adjoin-zero": (adjoin_zero, ("parent", FiniteAlgebra)),
    "adjoin-identity": (adjoin_identity, ("parent", FiniteAlgebra)),
}


def _param(kind: str, meta: dict, key: str, type_, default=_REQUIRED):
    if key not in meta:
        if default is _REQUIRED:
            raise BglabError(f"{kind} meta has no {key!r}")
        return default
    accepts, name = _PARAM_TYPES[type_]
    if not accepts(meta[key]):
        raise BglabError(f"{kind} meta: {key!r} must be {name}, got {meta[key]!r}")
    return meta[key]


def build(meta: dict | FiniteAlgebra) -> FiniteAlgebra:
    """Rebuild the algebra a construction meta records; an algebra is
    returned as it is.  Every parameter is type-checked first (a BglabError
    names the construction and the key), then each nested meta is rebuilt;
    a meta with `reduct_of` gives the multiplicative reduct."""
    if isinstance(meta, FiniteAlgebra):
        return meta
    kind = meta.get("construction")
    if not isinstance(kind, str) or kind not in REGISTRY:
        raise BglabError(f"cannot rebuild construction {kind!r}")
    constructor, *params = REGISTRY[kind]
    args = [_param(kind, meta, *p) for p in params]
    alg = constructor(*(build(a) if isinstance(a, dict) else a for a in args))
    return mult_reduct(alg) if "reduct_of" in meta else alg
