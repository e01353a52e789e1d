"""Structural analytics over finite semigroups.

Everything here reads only the multiplication table and its memo in the
algebra's record, whatever else the algebra carries.  Scans are
deterministic: first witnesses are minimal in the ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import lcm
from operator import or_
from typing import NamedTuple

import numpy as np

from .core import (_SLAB_CELLS, FiniteAlgebra, _check_indices, closure, mul_violation,
                   require_associative, restrict)
from .errors import NotAGroup, SubgroupEnumerationBudget

SUBGROUP_SIZE_BUDGET = 16

# Tables of at least this many elements build their Green record from
# packed Boolean masks, smaller ones from Python row lists.  Measured per
# table, R and L plus J (2-vCPU Xeon): at 10 elements the lists take 19 µs
# and the masks 33 µs, at 12 both 29 µs, at 17 the lists 48 µs and the
# masks 41 µs, at 34 the lists 220 µs and the masks 80 µs.  Below it the
# record also keeps the table's row list, which every reader here takes
# in place of the array; from it on the record holds none, since a row
# list costs some 30 bytes a cell (16.7 M ints for power(D6)).
_MASK_MIN_SIZE = 14


def _table(alg: FiniteAlgebra):
    """alg's table as every small-table reader here takes it: below
    _MASK_MIN_SIZE elements its row list, built once per table into the
    record that the reduct shares, from it on the array itself."""
    if alg.size >= _MASK_MIN_SIZE:
        return alg.mul
    memo = alg._facts["mul"]
    if "rows" not in memo:
        memo["rows"] = alg.mul.tolist()
    return memo["rows"]


def _as_rows(table) -> list[list[int]]:
    """A table, array or row list, as a row list."""
    return table if isinstance(table, list) else table.tolist()


def _idempotents(alg: FiniteAlgebra) -> tuple[int, ...]:
    """The idempotents, ascending, read once per table into the record that
    the reduct shares."""
    memo = alg._facts["mul"]
    if "idempotents" not in memo:
        table = _table(alg)
        if isinstance(table, list):
            fixed = tuple(x for x, row in enumerate(table) if row[x] == x)
        else:
            fixed = tuple(np.flatnonzero(table.diagonal() == np.arange(alg.size)).tolist())
        memo["idempotents"] = fixed
    return memo["idempotents"]


def idempotents(alg: FiniteAlgebra) -> list[int]:
    return list(_idempotents(alg))


def _group(alg: FiniteAlgebra) -> tuple[int, tuple[int, ...]] | str:
    """The identity and the least two-sided inverse of each element, or the
    NotAGroup reason when either is missing: found once per table, into the
    record that the reduct shares.  Associativity is not checked."""
    memo = alg._facts["mul"]
    if "group" not in memo:
        memo["group"] = _group_facts(_table(alg), _idempotents(alg), alg.labels)
    return memo["group"]


def _group_facts(table, idems, labels) -> tuple[int, tuple[int, ...]] | str:
    """(identity, inverses) of a table or its row list, or why there are none:
    the identity is the idempotent in idems whose row and column are the
    carrier, and an array's inverses are read a slab of rows at a time."""
    n = len(table)
    ids = list(range(n))
    e = next((e for e in idems if list(table[e]) == ids == [row[e] for row in table]), None)
    if e is None:
        return "no identity element"
    if isinstance(table, list):  # n marks an element with no inverse
        inv = [next((y for y, v in enumerate(row) if v == e == table[y][x]), n)
               for x, row in enumerate(table)]
    else:
        inv, step = [], max(1, _SLAB_CELLS // n)
        for lo in range(0, n, step):
            # [x, y]: xy = e = yx, for the x of this slab
            both = table[lo : lo + step] == e
            both &= table[:, lo : lo + step].T == e
            inv += np.where(both.any(axis=1), both.argmax(axis=1), n).tolist()
            if n in inv:
                break
    if n in inv:
        return f"element {labels[inv.index(n)]} has no inverse"
    return e, tuple(inv)


def ensure_group(alg: FiniteAlgebra) -> tuple[int, tuple[int, ...]]:
    """_group's identity and inverses, once core.mul_violation finds mul
    associative on its memo, whatever add or star are; NotAGroup names the
    failing law and its labelled witness, or _group's reason."""
    bad = mul_violation(alg._facts["mul"], alg.mul)
    if bad is not None:
        raise NotAGroup(f"not associative: {bad.describe(alg)}")
    found = _group(alg)
    if isinstance(found, str):
        raise NotAGroup(found)
    return found


def block_group_violation(alg: FiniteAlgebra) -> tuple[int, int] | None:
    """First pair (e, f) violating one of the two block-group implications."""
    item = alg.mul.item
    idems = _idempotents(alg)
    for e in idems:
        for f in idems:
            if e == f:
                continue
            ef, fe = item(e, f), item(f, e)
            if (ef == e and fe == f) or (ef == f and fe == e):
                return (e, f)
    return None


def is_block_group(alg: FiniteAlgebra) -> bool:
    return block_group_violation(alg) is None


def inverse_matrix(alg: FiniteAlgebra) -> np.ndarray:
    """n x n Boolean matrix, [a, b] True iff aba = a and bab = b."""
    mul = alg.mul
    b = np.arange(alg.size)
    a = b[:, None]
    return (mul[mul[a, b], a] == a) & (mul[mul[b, a], b] == b)


def unique_inverse_violation(alg: FiniteAlgebra) -> tuple[int, int, int] | None:
    """First (a, b, c) with b < c both inverses of a."""
    inv = inverse_matrix(alg)
    many = np.flatnonzero(inv.sum(axis=1) > 1)
    if not many.size:
        return None
    a = int(many[0])
    b, c = np.flatnonzero(inv[a])[:2].tolist()
    return (a, b, c)


def unique_inverse_check(alg: FiniteAlgebra) -> bool:
    return unique_inverse_violation(alg) is None


def _reach(table: np.ndarray) -> np.ndarray:
    """[x, y] is True iff y = x or y = table[x, s] for some s: the mask of
    x S^1 for table = mul and of S^1 x for table = mul.T."""
    n = table.shape[0]
    out = np.eye(n, dtype=bool)
    out[np.arange(n)[:, None], table] = True
    return out


def _packed(masks: np.ndarray) -> tuple[int, ...]:
    """The rows of a Boolean matrix as ints, bit x of row a set iff [a, x]."""
    width = (masks.shape[1] + 7) // 8
    data = np.packbits(masks, axis=1, bitorder="little").tobytes()
    return tuple(int.from_bytes(data[lo : lo + width], "little")
                 for lo in range(0, len(data), width))


def _unpacked(rows, n: int) -> np.ndarray:
    """The ints rows as a len(rows) x n Boolean matrix: _packed reversed."""
    width = (n + 7) // 8
    data = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in rows), np.uint8)
    return np.unpackbits(data.reshape(len(rows), width), axis=1, count=n,
                         bitorder="little").view(bool)


def _ideal_rows(table) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(R, L) for the table, an array or its row list: bit x of R[a] is set
    iff x is in aS^1, and bit x of L[a] iff x is in S^1a.  Below
    _MASK_MIN_SIZE elements from Python row lists, which cost less there
    than NumPy's calls; from it on from the _reach masks, packed."""
    if len(table) >= _MASK_MIN_SIZE:
        table = np.asarray(table)
        return _packed(_reach(table)), _packed(_reach(table.T))
    rows = _as_rows(table)
    out = []
    for lines in (rows, zip(*rows)):
        found = []
        for a, line in enumerate(lines):
            bits = 1 << a
            for x in line:
                bits |= 1 << x
            found.append(bits)
        out.append(tuple(found))
    return out[0], out[1]


def _ideals(right, left) -> tuple[int, ...]:
    """J[a], the bits of S^1aS^1: the OR of right[c] (cS^1) over the set
    bits c of left[a] (S^1a).  Below _MASK_MIN_SIZE elements the bits are
    read by shifts; from it on they are unpacked, and each distinct left[a]
    is joined once."""
    n = len(right)
    if n < _MASK_MIN_SIZE:
        out = []
        for x in left:
            bits = 0
            for c, r in enumerate(right):
                if x >> c & 1:
                    bits |= r
            out.append(bits)
        return tuple(out)
    distinct = list(dict.fromkeys(left))
    found = {x: reduce(or_, map(right.__getitem__, np.flatnonzero(row).tolist()))
             for x, row in zip(distinct, _unpacked(distinct, n))}
    return tuple(map(found.__getitem__, left))


class Green(NamedTuple):
    """Green's R, L and J of one table as bit rows (Howie 1995, ch. 2): bit
    x of right[a] is set iff x is in aS^1, of left[a] iff x is in S^1a, and
    of ideal[a] iff x is in S^1aS^1."""

    right: tuple[int, ...]
    left: tuple[int, ...]
    ideal: tuple[int, ...]


def _green(alg: FiniteAlgebra) -> Green:
    """The Green record of alg's table: built once per table, in the record
    that the reduct shares, from _table's row list below _MASK_MIN_SIZE
    elements and from the array from it on."""
    memo = alg._facts["mul"]
    if "green" not in memo:
        right, left = _ideal_rows(_table(alg))
        memo["green"] = Green(right, left, _ideals(right, left))
    return memo["green"]


def _classes(values) -> list[list[int]]:
    """Indices grouped by equal values, classes and members in first-seen order."""
    by_value: dict = {}
    for a, x in enumerate(values):
        by_value.setdefault(x, []).append(a)
    return list(by_value.values())


def j_classes(alg: FiniteAlgebra) -> list[list[int]]:
    """Classes of the mutual-ideal-containment relation, sorted by least member."""
    return _classes(_green(alg).ideal)


def j_trivial(alg: FiniteAlgebra, subset=None) -> tuple[bool, tuple[int, int] | None]:
    """True iff distinct elements generate distinct principal ideals.

    With a closed subset, the check runs on the parent's products among its
    members, with no subalgebra built; the witness is in the parent's indices.
    The whole carrier, as a subset or by default, reads the record's J.
    """
    members = range(alg.size)
    if subset is not None:
        members = sorted(int(x) for x in subset)
        _check_indices(members, alg.size)
        if not members:
            raise ValueError("subset must be non-empty")
        twice = [x for x, y in zip(members, members[1:]) if x == y]
        if twice:
            raise ValueError(f"subset repeats index {twice[0]}")
    if len(members) == alg.size:  # sorted, distinct and in range: all of S
        ideal = _green(alg).ideal
    else:
        ideal = _ideals(*_ideal_rows(restrict(_table(alg), members, alg.labels)))
    # the first repeated ideal is the class whose second member comes first
    repeats = [cls[:2] for cls in _classes(ideal) if len(cls) > 1]
    if not repeats:
        return True, None
    a, b = min(repeats, key=lambda pair: pair[1])
    return False, (int(members[a]), int(members[b]))


def idempotent_generated(alg: FiniteAlgebra) -> list[int]:
    """Carrier of the subsemigroup generated by all idempotents (mul only)."""
    return closure([_table(alg)], _idempotents(alg))


def block_group_tests(stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three block-group tests on a (T, n, n) stack of tables at once.

    Returns Boolean arrays (block_group, unique_inverse, j_trivial_core) of
    length T, equal table by table to is_block_group, unique_inverse_check
    and j_trivial(alg, idempotent_generated(alg))[0], also on tables that
    are not associative.  A table with no idempotent has an empty core,
    which counts as J-trivial."""
    mul = np.asarray(stack)
    T, n, _ = mul.shape
    s = np.arange(n)
    t = np.arange(T)[:, None, None]
    distinct = ~np.eye(n, dtype=bool)

    def swap(m):
        return m.transpose(0, 2, 1)

    # is_left[e, f]: ef = e, is_right[e, f]: ef = f; idempotents e != f
    # break the block-group law when ef = e, fe = f or ef = f, fe = e
    is_left = mul == s[:, None]
    is_right = mul == s
    idem = is_left[:, s, s]
    pairs = idem[:, :, None] & idem[:, None, :] & distinct
    bad = pairs & ((is_left & swap(is_left)) | (is_right & swap(is_right)))
    block_group = ~bad.any(axis=(1, 2))

    # [a, b]: (ab)a = a, and with its transpose (ba)b = b
    half = mul[t, mul, s[:, None]] == s[:, None]
    unique_inverse = ((half & swap(half)).sum(axis=2) <= 1).all(axis=1)

    # the core: close the idempotent masks under products of members
    core = idem
    while True:
        k, x, y = np.nonzero(core[:, :, None] & core[:, None, :])
        grown = core.copy()
        grown[k, mul[k, x, y]] = True
        if np.array_equal(grown, core):
            break
        core = grown
    # [a, x]: x in aS'^1 (right) and x in S'^1 a (left), s running over the
    # core; row a of left @ right is S'^1 a S'^1, inside the core for a in it
    k, a, c = np.nonzero(np.broadcast_to(core[:, None, :], mul.shape))
    right = np.tile(np.eye(n, dtype=bool), (T, 1, 1))
    left = right.copy()
    right[k, a, mul[k, a, c]] = True
    left[k, a, mul[k, c, a]] = True
    ideals = left @ right
    same = (ideals[:, :, None, :] == ideals[:, None, :, :]).all(axis=3)
    twins = same & core[:, :, None] & core[:, None, :] & distinct
    j_trivial_core = ~twins.any(axis=(1, 2))
    return block_group, unique_inverse, j_trivial_core


def maximal_subgroups(alg: FiniteAlgebra) -> list[tuple[int, list[int]]]:
    """For each idempotent e, ascending, its maximal subgroup, members
    ascending: by Green's theorem the H-class of e, the elements a with
    aS^1 = eS^1 and S^1a = S^1e (Howie 1995, ch. 2), read off the Green
    record.  That holds in a semigroup only, so a table that is not
    associative is refused with a BglabError naming the law and the triple.
    Found once per table, kept as tuples in the record that the reduct
    shares; each call returns fresh lists."""
    memo = alg._facts["mul"]
    if "subgroups" not in memo:
        require_associative(alg, "maximal_subgroups")
        green = _green(alg)
        keys = list(zip(green.right, green.left))
        h_class = {keys[cls[0]]: tuple(cls) for cls in _classes(keys)}
        memo["subgroups"] = tuple((e, h_class[keys[e]]) for e in _idempotents(alg))
    return [(e, list(members)) for e, members in memo["subgroups"]]


def subgroup_union(alg: FiniteAlgebra) -> set[int]:
    """Union of all maximal subgroups: the elements lying in some subgroup."""
    return set().union(*(members for _, members in maximal_subgroups(alg)))


def is_group(alg: FiniteAlgebra) -> bool:
    """A two-sided identity and an inverse for every element (associativity
    is not checked)."""
    return not isinstance(_group(alg), str)


# ---------------------------------------------------------------------------
# principal series


@dataclass
class SeriesReport:
    """A maximal chain of ideals with per-factor classification and the derived
    parameters: h the height, m the lcm of subgroup exponents, k the largest
    subgroup derived length (floored at 1), q = 2^h m, r = kh + h + k.  A
    maximal subgroup that is not solvable has no derived length: then k and
    r are None and k_floored is False.  subgroups is maximal_subgroups of
    the table, which to_dict leaves out."""

    chain: list[list[int]]
    factors: list[dict]
    h: int
    m: int
    k: int | None
    k_floored: bool
    q: int
    r: int | None
    brandt_series: bool = field(default=False)
    subgroups: list[tuple[int, list[int]]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "series": [{"ideal": ideal, "kind": kind} for ideal, kind in
                       zip(self.chain, self.factors)],
            "h": self.h, "m": self.m, "k": self.k, "k_floored": self.k_floored,
            "q": self.q, "r": self.r, "brandt_series": self.brandt_series,
        }


def _classify_bottom(idems: set[int], kernel: list[int]) -> dict:
    # the kernel is completely simple, a rectangle of copies of one group, so
    # it is a group exactly when it holds one idempotent (Howie 1995, ch. 3)
    if sum(x in idems for x in kernel) == 1:
        return {"kind": "group", "order": len(kernel)}
    return {"kind": "other", "size": len(kernel)}


def _classify_factor(idems: set[int], green: Green, cls: list[int]) -> dict:
    # J^0 is null exactly when J holds no idempotent, else completely 0-simple,
    # and then Brandt exactly when each R-class (equal aS^1 rows) and L-class
    # (equal S^1a rows) of J holds one idempotent (Howie 1995, ch. 3 and 5)
    count = sum(x in idems for x in cls)
    if not count:
        return {"kind": "zero", "size": len(cls) + 1}
    if count == len({green.right[x] for x in cls}) == len({green.left[x] for x in cls}):
        return {"kind": "brandt", "group_order": len(cls) // count**2,
                "index_count": count}
    return {"kind": "other", "size": len(cls) + 1}


def principal_series(alg: FiniteAlgebra) -> SeriesReport:
    """Maximal ideal chain built one J-class at a time along the J-order,
    ties broken by least element index; factors classified; (h,m,k,q,r) filled.

    The table must be associative: core.require_associative refuses one
    that is not with a BglabError naming the law and the triple.  Each
    maximal subgroup H_e is then a group (Green's theorem), so its exponent
    and derived series are read off the parent's rows restricted to H_e,
    with e as identity."""
    require_associative(alg, "principal series")
    green = _green(alg)
    ideal = green.ideal
    rest = _classes(ideal)  # ascending least members
    chain: list[list[int]] = []
    factors: list[dict] = []
    current: set[int] = set()
    chain_bits = 0
    idems = set(_idempotents(alg))
    while rest:
        # the least class with no other class left below it: the bits of
        # its ideal outside the chain are its own members
        at = next(i for i, cls in enumerate(rest)
                  if (ideal[cls[0]] & ~chain_bits).bit_count() == len(cls))
        cls = rest.pop(at)
        factors.append(_classify_factor(idems, green, cls) if chain
                       else _classify_bottom(idems, cls))
        current.update(cls)
        chain.append(sorted(current))
        chain_bits |= ideal[cls[0]]
    h = len(chain) - 1
    m = 1
    lengths = []
    subgroups = maximal_subgroups(alg)
    for e, members in subgroups:
        if len(members) == 1:
            continue  # exponent 1, derived length 0
        # H_e's rows, renumbered 0..|H_e|-1 in the order of its members
        rows = _as_rows(restrict(_table(alg), members, alg.labels))
        one = members.index(e)
        m = lcm(m, _exponent(rows, one))
        lengths.append(_length(_derived_series(rows, [row.index(one) for row in rows])))
    if None in lengths:
        k, floored, r = None, False, None
    else:
        k = max([1, *lengths])
        floored, r = k == 1, k * h + h + k
    brandt = factors[0]["kind"] == "group" and all(
        f["kind"] in ("brandt", "zero") for f in factors[1:])
    return SeriesReport(chain, factors, h, m, k, floored, (2**h) * m, r, brandt,
                        subgroups)


# ---------------------------------------------------------------------------
# group analytics, on a group's table or a maximal subgroup's


def _exponent(rows: list[list[int]], one: int) -> int:
    """lcm of the element orders of the group table rows with identity one."""
    out = 1
    for x in range(len(rows)):
        y, order = x, 1
        while y != one:
            y = rows[y][x]
            order += 1
        out = lcm(out, order)
    return out


def _derived_series(table, inv) -> list[frozenset[int]]:
    """G, G', G'', ... down to the first repetition, for the group table
    with inverses inv.  Each step closes the commutators ((a^-1 b^-1) a) b
    of the last group: below _MASK_MIN_SIZE elements read off the table's
    row list, from it on by one gather over the table as an array per
    _SLAB_CELLS cells."""
    n = len(table)
    if n >= _MASK_MIN_SIZE:
        table, inv = np.asarray(table), np.asarray(inv)
    series = [frozenset(range(n))]
    while True:
        cur = series[-1]
        if n < _MASK_MIN_SIZE:
            comms = {table[table[table[inv[a]][inv[b]]][a]][b] for a in cur for b in cur}
        else:
            members = np.fromiter(cur, np.intp, len(cur))
            marked = np.zeros(n, dtype=bool)
            step = max(1, _SLAB_CELLS // members.size)
            for lo in range(0, members.size, step):
                a, b = members[lo : lo + step, None], members
                marked[table[table[table[inv[a], inv[b]], a], b]] = True
            comms = np.flatnonzero(marked).tolist()
        nxt = frozenset(closure([table], comms))
        if nxt == cur:
            return series
        series.append(nxt)


def _length(series: list[frozenset[int]]) -> int | None:
    """Steps until a derived series hits the trivial group; None otherwise."""
    return len(series) - 1 if len(series[-1]) == 1 else None


def group_exponent(alg: FiniteAlgebra) -> int:
    e, _ = ensure_group(alg)
    return _exponent(_as_rows(_table(alg)), e)


def derived_series(alg: FiniteAlgebra) -> list[frozenset[int]]:
    """G, G', G'', ... down to the first repetition."""
    _, inv = ensure_group(alg)
    return _derived_series(_table(alg), inv)


def derived_length(alg: FiniteAlgebra) -> int | None:
    """Steps until the derived series hits the trivial group; None otherwise."""
    return _length(derived_series(alg))


def subgroups_of(alg: FiniteAlgebra) -> list[frozenset[int]]:
    """Every subgroup, sorted by size, then members.  The lattice is walked
    up from {e}: each subgroup found is closed with one more element until
    nothing new appears, which reaches every subgroup, since each is such a
    chain of one-element extensions.  Groups of more than
    SUBGROUP_SIZE_BUDGET elements are refused."""
    e, _ = ensure_group(alg)
    if alg.size > SUBGROUP_SIZE_BUDGET:
        raise SubgroupEnumerationBudget(
            f"|G| = {alg.size} exceeds the enumeration budget {SUBGROUP_SIZE_BUDGET}")
    rows = _as_rows(_table(alg))
    found = {frozenset([e])}
    todo = list(found)
    while todo:
        H = todo.pop()
        closed = sorted(H)
        for x in range(alg.size):
            if x not in H:
                grown = frozenset(closure([rows], [x], closed=closed))
                if grown not in found:
                    found.add(grown)
                    todo.append(grown)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class GroupAnalytics:
    exponent: int
    derived_length: int | None
    solvable: bool
    dedekind: bool
    has_quaternion_subgroup: bool

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "derived_length": self.derived_length,
            "solvable": self.solvable,
            "dedekind": self.dedekind,
            "has_quaternion_subgroup": self.has_quaternion_subgroup,
        }


def group_analytics(alg: FiniteAlgebra) -> GroupAnalytics:
    """Exponent, derived length, the Dedekind test (every subgroup normal)
    and the quaternion test (an 8-element subgroup, non-abelian with one
    involution) from the rows; refused as by subgroups_of."""
    subgroups = subgroups_of(alg)
    e, inv = ensure_group(alg)
    rows = _as_rows(_table(alg))
    d = _length(_derived_series(rows, inv))
    dedekind = all({rows[rows[g][h]][inv[g]] for h in H} == H
                   for H in subgroups for g in range(alg.size))
    # x^2 = e for e and for each involution, so one involution gives two
    quaternion = any(
        len(H) == 8 and sum(rows[x][x] == e for x in H) == 2
        and any(rows[a][b] != rows[b][a] for a in H for b in H)
        for H in subgroups)
    return GroupAnalytics(_exponent(rows, e), d, d is not None, dedekind, quaternion)
