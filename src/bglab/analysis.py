"""Structural analytics over finite semigroups.

Everything here reads only the multiplication table (callers pass reducts of
richer algebras or let us ignore add/star).  Scans are deterministic: first
witnesses are minimal in the ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import lcm

import numpy as np

from .constructions import ensure_group, group_inverses
from .core import FiniteAlgebra, _check_indices, closure, mult_reduct, restrict, validate
from .errors import BglabError, NotAGroup, SubgroupEnumerationBudget
from .terms import flat_kernel

SUBGROUP_SIZE_BUDGET = 16


def idempotents(alg: FiniteAlgebra) -> list[int]:
    mul = alg.mul
    return [int(x) for x in range(alg.size) if mul[x, x] == x]


def block_group_violation(alg: FiniteAlgebra) -> tuple[int, int] | None:
    """First pair (e, f) violating one of the two block-group implications."""
    mul = alg.mul
    n = alg.size
    for e in range(n):
        if mul[e, e] != e:
            continue
        for f in range(n):
            if e == f or mul[f, f] != f:
                continue
            if mul[e, f] == e and mul[f, e] == f:
                return (e, f)
            if mul[e, f] == f and mul[f, e] == e:
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


def ideal_masks(alg: FiniteAlgebra) -> np.ndarray:
    """n x n Boolean matrix whose row a is the membership mask of
    S^1 a S^1 = {a} + aS + Sa + SaS, the union of c S^1 over c in S^1 a:
    one Boolean matrix product, with nothing of size n^3 built."""
    return _reach(alg.mul.T) @ _reach(alg.mul)


def _equal_rows(masks: np.ndarray) -> list[list[int]]:
    """Indices grouped by equal rows, classes and members in first-seen order."""
    by_row: dict[bytes, list[int]] = {}
    for a, row in enumerate(masks):
        by_row.setdefault(row.tobytes(), []).append(a)
    return list(by_row.values())


def j_classes(alg: FiniteAlgebra) -> list[list[int]]:
    """Classes of the mutual-ideal-containment relation, sorted by least member."""
    return _equal_rows(ideal_masks(alg))


def j_trivial(alg: FiniteAlgebra, subset=None) -> tuple[bool, tuple[int, int] | None]:
    """True iff distinct elements generate distinct principal ideals.

    With a closed subset, the check runs on the parent's products among its
    members, with no subalgebra built; the witness is in the parent's indices.
    """
    members, table = range(alg.size), alg.mul
    if subset is not None:
        members = sorted(int(x) for x in subset)
        _check_indices(members, alg.size)
        if not members:
            raise ValueError("subset must be non-empty")
        twice = [x for x, y in zip(members, members[1:]) if x == y]
        if twice:
            raise ValueError(f"subset repeats index {twice[0]}")
        table = restrict(alg.mul, members, alg.labels)
    # the first repeated ideal is the class whose second member comes first
    repeats = [cls[:2] for cls in _equal_rows(_reach(table.T) @ _reach(table))
               if len(cls) > 1]
    if not repeats:
        return True, None
    a, b = min(repeats, key=lambda pair: pair[1])
    return False, (int(members[a]), int(members[b]))


def idempotent_generated(alg: FiniteAlgebra) -> list[int]:
    """Carrier of the subsemigroup generated by all idempotents (mul only)."""
    return closure([alg.mul], idempotents(alg))


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
    """For each idempotent e, the group of units of the local monoid eSe."""
    mul = alg.mul
    n = alg.size
    out = []
    for e in idempotents(alg):
        local = sorted({int(mul[mul[e, s], e]) for s in range(n)})
        members = []
        for a in local:
            if any(mul[a, b] == e and mul[b, a] == e for b in local):
                members.append(a)
        out.append((e, members))
    return out


def subgroup_union(alg: FiniteAlgebra) -> set[int]:
    """Union of all maximal subgroups: the elements lying in some subgroup."""
    return set().union(*(members for _, members in maximal_subgroups(alg)))


def is_group(alg: FiniteAlgebra) -> bool:
    """A two-sided identity and an inverse for every element (associativity
    is not checked)."""
    try:
        group_inverses(alg)
    except NotAGroup:
        return False
    return True


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


def _classify_bottom(mul: np.ndarray, kernel: list[int]) -> dict:
    # the kernel is completely simple, a rectangle of copies of one group, so
    # it is a group exactly when it holds one idempotent (Howie 1995, ch. 3)
    if sum(int(mul[x, x]) == x for x in kernel) == 1:
        return {"kind": "group", "order": len(kernel)}
    return {"kind": "other", "size": len(kernel)}


def _classify_factor(mul: np.ndarray, right: np.ndarray, left: np.ndarray,
                     cls: list[int]) -> dict:
    # J^0 is null exactly when J holds no idempotent, else completely 0-simple,
    # and then Brandt exactly when each R-class (equal aS^1 rows) and L-class
    # (equal S^1a rows) of J holds one idempotent (Howie 1995, ch. 3 and 5)
    idems = sum(int(mul[x, x]) == x for x in cls)
    if not idems:
        return {"kind": "zero", "size": len(cls) + 1}
    if idems == len(_equal_rows(right[cls])) == len(_equal_rows(left[cls])):
        return {"kind": "brandt", "group_order": len(cls) // idems**2,
                "index_count": idems}
    return {"kind": "other", "size": len(cls) + 1}


def principal_series(alg: FiniteAlgebra) -> SeriesReport:
    """Maximal ideal chain built one J-class at a time along the J-order,
    ties broken by least element index; factors classified; (h,m,k,q,r) filled.

    The table must be associative, by validate(mult_reduct(alg)), which
    decides it once for an algebra and its reduct; a table that is not is
    refused with a BglabError naming the law and the triple.  Each
    maximal subgroup H_e is then a group (Green's theorem), so its exponent
    and derived series are read off the parent's rows restricted to H_e,
    with e as identity."""
    bad = validate(mult_reduct(alg))
    if bad is not None:
        raise BglabError(f"principal series needs an associative table: "
                         f"{bad.describe(alg)}")
    right, left = _reach(alg.mul), _reach(alg.mul.T)
    masks = left @ right  # ideal_masks(alg), with the rows aS^1 and S^1a kept
    classes = _equal_rows(masks)  # ascending least members
    reps = [cls[0] for cls in classes]
    below = masks[reps][:, reps]  # [i, j]: class j lies in the ideal of class i
    np.fill_diagonal(below, False)
    # Kahn's algorithm: the least class with nothing left below it comes next
    pending = below.sum(axis=1).tolist()
    ready = [i for i, p in enumerate(pending) if not p]
    chain: list[list[int]] = []
    factors: list[dict] = []
    current: set[int] = set()
    while ready:
        i = heappop(ready)
        cls = classes[i]
        factors.append(_classify_factor(alg.mul, right, left, cls) if chain
                       else _classify_bottom(alg.mul, cls))
        current.update(cls)
        chain.append(sorted(current))
        for k in np.flatnonzero(below[:, i]).tolist():
            pending[k] -= 1
            if not pending[k]:
                heappush(ready, k)
    h = len(chain) - 1
    m = 1
    lengths = []
    subgroups = maximal_subgroups(alg)
    for e, members in subgroups:
        if len(members) == 1:
            continue  # exponent 1, derived length 0
        # H_e's rows, renumbered 0..|H_e|-1 in the order of its members
        rows = restrict(alg.mul, members, alg.labels).tolist()
        one = members.index(e)
        m = lcm(m, _exponent(rows, one))
        lengths.append(_length(_derived_series(rows, one)))
    if None in lengths:
        k, floored, r = None, False, None
    else:
        k = max([1, *lengths])
        floored, r = k == 1, k * h + h + k
    brandt = factors[0]["kind"] == "group" and all(
        f["kind"] in ("brandt", "zero") for f in factors[1:])
    return SeriesReport(chain, factors, h, m, k, floored, (2**h) * m, r, brandt,
                        subgroups)


def satisfies_power_identity(alg: FiniteAlgebra, e1: int, e2: int):
    """Element-wise check of x^e1 = x^e2, e1, e2 >= 1 (huge exponents
    welcome), on the kernel's power tables; returns (ok, first bad element)."""
    if min(e1, e2) < 1:
        raise ValueError("exponent must be >= 1")
    kernel = flat_kernel(alg)
    carrier = np.arange(alg.size)
    bad = np.flatnonzero(kernel.power(carrier, e1) != kernel.power(carrier, e2))
    return (True, None) if not bad.size else (False, int(bad[0]))


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


def _derived_series(rows: list[list[int]], one: int) -> list[frozenset[int]]:
    """G, G', G'', ... down to the first repetition, for the group table rows
    with identity one."""
    inv = [row.index(one) for row in rows]
    series = [frozenset(range(len(rows)))]
    while True:
        cur = series[-1]
        comms = {rows[rows[rows[inv[a]][inv[b]]][a]][b] for a in cur for b in cur}
        nxt = frozenset(closure([rows], comms))
        if nxt == cur:
            return series
        series.append(nxt)


def _length(series: list[frozenset[int]]) -> int | None:
    """Steps until a derived series hits the trivial group; None otherwise."""
    return len(series) - 1 if len(series[-1]) == 1 else None


def group_exponent(alg: FiniteAlgebra) -> int:
    e, _ = ensure_group(alg)
    return _exponent(alg.mul.tolist(), e)


def derived_series(alg: FiniteAlgebra) -> list[frozenset[int]]:
    """G, G', G'', ... down to the first repetition."""
    e, _ = ensure_group(alg)
    return _derived_series(alg.mul.tolist(), e)


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
    rows = alg.mul.tolist()
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
    involution) from one copy of the rows; refused as by subgroups_of."""
    subgroups = subgroups_of(alg)
    e, inv = ensure_group(alg)
    rows = alg.mul.tolist()
    d = _length(_derived_series(rows, e))
    dedekind = all({rows[rows[g][h]][inv[g]] for h in H} == H
                   for H in subgroups for g in range(alg.size))
    # x^2 = e for e and for each involution, so one involution gives two
    quaternion = any(
        len(H) == 8 and sum(rows[x][x] == e for x in H) == 2
        and any(rows[a][b] != rows[b][a] for a in H for b in H)
        for H in subgroups)
    return GroupAnalytics(_exponent(rows, e), d, d is not None, dedekind, quaternion)
