"""Builders for every concrete algebra the workbench studies.

Conventions baked in here:
  * permutations compose left to right: (p * q)(x) = q[p[x]];
  * subsets of a group are bitmasks over the group's element order, so in a
    full power semiring the element index *is* the mask;
  * Boolean matrices are read as row-major bit integers, ascending;
  * every constructor output passes the matching core validator (tested).
"""

from __future__ import annotations

from itertools import permutations
from math import isqrt

import numpy as np

from . import terms
from .core import (_SLAB_CELLS, FiniteAlgebra, _check_indices, _first_true, closure,
                   mult_reduct, validate)
from .errors import (
    BglabError,
    CarrierTooLarge,
    NormalSubgroup,
    NotAGroup,
    NotAnIdeal,
    NotASubgroup,
    UnsupportedSize,
)

HALL_MAX_N = 4
# Largest table (size^2 cells) any builder fills: at most 8,192 elements.
MAX_TABLE_CELLS = 1 << 26


def _table_budget(size: int, what: str) -> None:
    """Refuse a carrier whose size x size table passes MAX_TABLE_CELLS.
    Every builder calls this once the size is known, before any table work."""
    if size * size > MAX_TABLE_CELLS:
        raise CarrierTooLarge(
            f"{what}: {size} elements need {size * size} table cells, more than "
            f"MAX_TABLE_CELLS = {MAX_TABLE_CELLS} (at most {isqrt(MAX_TABLE_CELLS)} "
            "elements)")


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
    _table_budget(n, f"cyclic group C{n}")
    labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    i = np.arange(n, dtype=np.int32)
    table = (i[:, None] + i) % n
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
    _table_budget(2 * n, f"dihedral group D{n}")
    # r^a s^b at index a + b n
    x = np.arange(2 * n, dtype=np.int32)
    a, b = x % n, x // n
    rot = np.where(b[:, None] == 0, a[:, None] + a, a[:, None] - a) % n
    table = rot + n * (b[:, None] ^ b)

    def label(a, b):
        rot = "" if a == 0 else ("r" if a == 1 else f"r{a}")
        return (rot + ("s" if b else "")) or "e"

    labels = tuple(label(a, b) for b in (0, 1) for a in range(n))
    return FiniteAlgebra("semigroup", labels, table,
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


def _brandt_table(gmul: np.ndarray, count: int) -> np.ndarray:
    """The table of I x G x I + 0 over I = 1..count and the group table gmul:
    the zero at index 0, (l, g, r) at 1 + ((l-1)|G| + g) count + (r-1), and
    (l, g, r)(r', h, s) = (l, gh, s) when r = r', the zero otherwise."""
    g_n, n = len(gmul), count
    i = np.arange(n)
    block = np.zeros((n, g_n, n, n, g_n, n), dtype=np.int32)
    # [l, g, k, k, h, s]: (l, g, k)(k, h, s) = (l, gh, s)
    block[:, :, i, i] = 1 + (i[:, None, None, None, None] * g_n
                             + gmul[:, None, :, None]) * n + i
    table = np.zeros((n * n * g_n + 1,) * 2, dtype=np.int32)
    table[1:, 1:] = block.reshape(len(table) - 1, -1)
    return table


def brandt_semigroup(group: FiniteAlgebra, index_count: int) -> FiniteAlgebra:
    """I x G x I plus a zero, with the coordinate-matching product."""
    if index_count < 1:
        raise UnsupportedSize("index_count must be >= 1")
    n = index_count
    _table_budget(n * n * group.size + 1, f"Brandt semigroup over {n} indices")
    ensure_group(group)
    labels = ["0"] + [f"({l},{g},{r})" for l in range(1, n + 1)
                      for g in group.labels for r in range(1, n + 1)]
    meta = {"construction": "brandt", "index_count": n, "group": _nested_meta(group)}
    return FiniteAlgebra("semigroup", tuple(labels), _brandt_table(group.mul, n),
                         meta=meta)


_B21_MATRICES = (
    ((0, 0), (0, 0)),
    ((1, 0), (0, 1)),
    ((0, 1), (0, 0)),
    ((0, 0), (1, 0)),
    ((1, 0), (0, 0)),
    ((0, 0), (0, 1)),
)
B21_LABELS = ("0", "1", "a", "b", "e", "f")


def _matrix_tables(mats: np.ndarray, add):
    """(mul, add, star) index tables of a (k, n, n) stack of Boolean
    matrices: the Boolean product, the entrywise `add` (a NumPy logical
    ufunc) and the transpose.  Each result is looked up through an index
    array over all 2^(n^2) bit integers; a result outside the stack gives
    -1, which FiniteAlgebra refuses."""
    k, n, _ = mats.shape
    bits = 1 << np.arange(n * n).reshape(n, n)
    index = np.full(1 << n * n, -1, dtype=np.int32)
    index[(mats * bits).sum(axis=(1, 2))] = np.arange(k)

    def look(m):
        return index[(m * bits).sum(axis=(-2, -1))]

    ints = mats.astype(np.uint8)
    return (look(ints[:, None] @ ints > 0), look(add(mats[:, None], mats)),
            look(mats.transpose(0, 2, 1)))


def brandt_monoid_b21() -> FiniteAlgebra:
    """The 6-element Brandt monoid as zero-one matrices.

    mul is matrix product, add the Hadamard (entry-wise) product, star the
    transpose; labels 0, 1, a, b, e, f in the fixed matrix order.
    """
    mul, add, star = _matrix_tables(np.array(_B21_MATRICES, dtype=bool),
                                    np.logical_and)
    return FiniteAlgebra("involution-ai-semiring", B21_LABELS, mul, add, star,
                         meta={"construction": "b21"})


# ---------------------------------------------------------------------------
# power semirings of groups


def subset_label(group: FiniteAlgebra, mask: int) -> str:
    members = [group.labels[i] for i in range(group.size) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def _power_tables(group: FiniteAlgebra):
    """(mul, add, star) of P(G) over subset bitmasks, G a group."""
    m = group.size
    masks = np.arange(1 << m, dtype=np.int32)
    members = (masks[:, None] >> np.arange(m)) & 1  # [B, b]: b in B
    # [g, B]: the mask of gB; x -> gx permutes G, so the bits summed are distinct
    translates = (members @ (1 << group.mul.T)).T
    # the masks with top bit k are those below 2^k with k added: XB = X'B | kB
    mul = np.zeros((len(masks), len(masks)), dtype=np.int32)
    for k in range(m):
        mul[1 << k:2 << k] = mul[:1 << k] | translates[k]
    add = masks[:, None] | masks
    return mul, add, members @ (1 << np.array(group_inverses(group), dtype=np.int32))


def power_semiring(group: FiniteAlgebra, nonempty_only: bool = False,
                   with_star: bool = False) -> FiniteAlgebra:
    """(P(G), union, elementwise product); all subsets or the non-empty ones."""
    _table_budget(1 << group.size, f"power semiring of a {group.size}-element group")
    ensure_group(group)
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


def involution_power(group: FiniteAlgebra) -> FiniteAlgebra:
    """(P(G), elementwise product, elementwise inversion)."""
    _table_budget(1 << group.size, f"involution power of a {group.size}-element group")
    ensure_group(group)
    mul, _, star = _power_tables(group)
    labels = tuple(subset_label(group, mask) for mask in range(1 << group.size))
    meta = {"construction": "involution-power", "group": _nested_meta(group)}
    return FiniteAlgebra("involution-semigroup", labels, mul, star=star, meta=meta)


# ---------------------------------------------------------------------------
# Hall relations


def _hall_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, matrices) of every n x n Boolean matrix that contains a
    permutation matrix, ascending: one permutation gather over all 2^(n^2)
    matrices, the one with bit i n + j set having entry (i, j)."""
    if n < 1 or n > HALL_MAX_N:
        raise CarrierTooLarge(f"hall_semiring supports 1 <= n <= {HALL_MAX_N}")
    every = (np.arange(1 << n * n)[:, None] >> np.arange(n * n) & 1).astype(bool)
    every = every.reshape(-1, n, n)
    perms = np.array(list(permutations(range(n))))
    masks = np.flatnonzero(every[:, np.arange(n), perms].all(axis=2).any(axis=1))
    return masks, every[masks]


def hall_masks(n: int) -> list[int]:
    """All n x n Boolean matrices containing a permutation, as bit integers."""
    return _hall_matrices(n)[0].tolist()


def hall_semiring(n: int, with_star: bool = True) -> FiniteAlgebra:
    """Semiring of Hall relations on an n-element set (union, composition)."""
    masks, mats = _hall_matrices(n)
    _table_budget(len(masks), f"hall({n})")
    mul, add, star = _matrix_tables(mats, np.logical_or)
    labels = tuple("|".join("".join(map(str, row)) for row in m)
                   for m in mats.astype(np.uint8).tolist())
    kind = "involution-ai-semiring" if with_star else "ai-semiring"
    return FiniteAlgebra(kind, labels, mul, add, star if with_star else None,
                         meta={"construction": "hall", "n": n, "with_star": with_star})


# ---------------------------------------------------------------------------
# the subsemiring B inside a power semiring


def subset_b(group: FiniteAlgebra, subgroup, g: int) -> list[int]:
    """Carrier of the subsemiring {E, H, g^-1 H, H g, g^-1 H g} + big sets.

    Returns subset bitmasks (= indices into the full power semiring), sorted.
    Requires H to be a subgroup that g does not normalize.
    """
    _table_budget(1 << group.size, f"power semiring of a {group.size}-element group")
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

    e = group_identity(group)
    gH = frozenset(int(mul[ginv, h]) for h in H)
    Hg = frozenset(int(mul[h, g]) for h in H)
    if gH == Hg:
        raise NormalSubgroup("g^-1 H = H g forces g^-1 H g = H")
    small = {sum(1 << x for x in s) for s in (frozenset([e]), H, gH, Hg, conj)}
    if len(small) != 5:
        raise ValueError("the five distinguished subsets are not distinct")
    big = [m for m in range(1 << group.size) if bin(m).count("1") > len(H)]
    carrier = sorted(small.union(big))
    # closure sanity: union and product stay inside
    inside = np.zeros(1 << group.size, dtype=bool)
    inside[carrier] = True
    for name, table in zip(("product", "union"), _power_tables(group)):
        if not inside[table[np.ix_(carrier, carrier)]].all():
            raise ValueError(f"carrier not closed under {name}")
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


def kadourek_semigroup(n: int, h: int):
    """Inverse semigroup generated by the kadourek_generators and their inverses.

    Returns (algebra, generator_index) where generator_index maps each index
    tuple to the generator's carrier position.  The empty map is the zero.
    Elements are numbered in FIFO worklist order (each element times every
    generator and inverse, on the right, then on the left).  The worklist
    stops with CarrierTooLarge as soon as it holds more elements than
    MAX_TABLE_CELLS allows, before any table.
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

    def domain_and_image(maps):  # Boolean masks over the P points
        return [m[:, :sink] < sink for m in (maps, _invert_rows(maps))]

    seed_dom, seed_img = domain_and_image(seeds)
    # the worklist, one block of parents per gather
    rows = max(1, _SLAB_CELLS // (2 * len(seeds) * width))
    head = 0
    while head < len(known):
        _table_budget(len(known), f"kadourek({n},{h}), closure so far")
        f = known[head:head + rows]
        head += len(f)
        # [i, s, 0]: f_i then seed s, [i, s, 1]: seed s then f_i, gathered only
        # where an image meets a domain; every other product is the empty map,
        # known from the start
        dom, img = domain_and_image(f)
        i, s, left = np.nonzero(np.stack([img @ seed_dom.T, dom @ seed_img.T], axis=2))
        prods = np.where(left[:, None], f[i[:, None], seeds[s]], seeds[s[:, None], f[i]])
        known = _append_new(known, prods)
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
    members = np.array(sorted(set(int(x) for x in ideal)), dtype=np.intp)
    inside = np.zeros(alg.size, dtype=bool)
    inside[members] = True
    bad = _first_true(~(inside[alg.mul[members]] & inside[alg.mul[:, members].T]))
    return None if bad is None else (int(members[bad[0]]), bad[1])


def rees_table(mul: np.ndarray, kept) -> np.ndarray:
    """The table of a Rees quotient: the sorted elements `kept` become
    1..len(kept) and everything else collapses to the zero at index 0."""
    kept = np.asarray(kept, dtype=np.intp)
    remap = np.zeros(len(mul), dtype=np.int32)
    remap[kept] = np.arange(1, len(kept) + 1)
    table = np.zeros((len(kept) + 1,) * 2, dtype=np.int32)
    table[1:, 1:] = remap[mul[kept[:, None], kept]]
    return table


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
    meta = {"construction": "rees-quotient", "ideal": sorted(ideal_set),
            "parent": _nested_meta(alg)}
    return FiniteAlgebra("semigroup", tuple(labels), rees_table(alg.mul, survivors),
                         meta=meta)


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
    table = np.zeros((n + 1, n + 1), dtype=np.int32)
    table[1:, 1:] = alg.mul + 1
    return FiniteAlgebra("semigroup", labels, table,
                         meta={"construction": "adjoin-zero", "parent": _nested_meta(alg)})


def adjoin_identity(alg: FiniteAlgebra) -> FiniteAlgebra:
    """New identity element appended at the last index."""
    if alg.kind != "semigroup":
        raise ValueError("adjoin_identity expects a plain semigroup")
    n = alg.size
    labels = alg.labels + (_fresh_label(alg.labels, "1"),)
    table = np.empty((n + 1, n + 1), dtype=np.int32)
    table[:n, :n] = alg.mul
    table[n] = table[:, n] = np.arange(n + 1)
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
