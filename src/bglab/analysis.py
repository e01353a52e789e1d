"""Structural analytics over finite semigroups.

Everything here reads only the multiplication table (callers pass reducts of
richer algebras or let us ignore add/star).  Scans are deterministic: first
witnesses are minimal in the ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from math import lcm

import numpy as np

from .constructions import (
    _brandt_table,
    brandt_semigroup,
    closure,
    ensure_group,
    group_inverses,
    induced_algebra,
    rees_table,
)
from .core import FiniteAlgebra, mult_reduct
from .errors import NotAGroup, SubgroupEnumerationBudget

SUBGROUP_SIZE_BUDGET = 16
SUBGROUP_MAX_GENERATORS = 3


def idempotents(alg: FiniteAlgebra) -> list[int]:
    mul = alg.mul
    return [int(x) for x in range(alg.size) if mul[x, x] == x]


def zero_element(alg: FiniteAlgebra) -> int | None:
    mul = alg.mul
    for z in range(alg.size):
        if (mul[z] == z).all() and (mul[:, z] == z).all():
            return z
    return None


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


def _inverses(mul: np.ndarray, a) -> np.ndarray:
    """[..., b] is True iff aba = a and bab = b; a is one element, giving one
    row, or a column of elements, giving one row each."""
    ar = np.arange(mul.shape[0])
    return (mul[mul[a, ar], a] == a) & (mul[mul[ar, a], ar] == ar)


def inverse_matrix(alg: FiniteAlgebra) -> np.ndarray:
    """n x n Boolean matrix, [a, b] True iff aba = a and bab = b."""
    return _inverses(alg.mul, np.arange(alg.size)[:, None])


def inverses_of(alg: FiniteAlgebra, a: int) -> list[int]:
    """All b with aba = a and bab = b."""
    return np.flatnonzero(_inverses(alg.mul, a)).tolist()


def inverse_report(alg: FiniteAlgebra) -> list[list[int]]:
    """inverses_of for every element, indexed by element."""
    return [np.flatnonzero(row).tolist() for row in inverse_matrix(alg)]


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


def principal_ideal(alg: FiniteAlgebra, a: int) -> frozenset[int]:
    """S^1 a S^1 = {a} + aS + Sa + SaS."""
    row = _reach(alg.mul.T)[a] @ _reach(alg.mul)
    return frozenset(np.flatnonzero(row).tolist())


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

    With a subset, the check runs inside the induced subsemigroup but the
    witness is reported in the parent's indices.
    """
    if subset is not None:
        sub, _ = induced_algebra(mult_reduct(alg), subset)
        ok, w = j_trivial(sub)
        if w is None:
            return ok, None
        old = sorted(int(x) for x in subset)
        return ok, (old[w[0]], old[w[1]])
    # the first repeated ideal is the class whose second member comes first
    repeats = [cls[:2] for cls in _equal_rows(ideal_masks(alg)) if len(cls) > 1]
    if not repeats:
        return True, None
    a, b = min(repeats, key=lambda pair: pair[1])
    return False, (a, b)


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
    out: set[int] = set()
    for _, members in maximal_subgroups(alg):
        out.update(members)
    return out


def is_group(alg: FiniteAlgebra) -> bool:
    """A two-sided identity and an inverse for every element (associativity
    is not checked)."""
    try:
        group_inverses(alg)
    except NotAGroup:
        return False
    return True


@dataclass(frozen=True)
class BrandtRecognition:
    """Witness that a semigroup is I x G x I + 0, with an explicit isomorphism."""

    group: FiniteAlgebra
    index_count: int
    iso: tuple[int, ...]       # source index -> index in `target`

    @property
    def target(self) -> FiniteAlgebra:
        """brandt_semigroup(group, index_count), built on each call."""
        return brandt_semigroup(self.group, self.index_count)


def is_brandt(alg: FiniteAlgebra) -> BrandtRecognition | None:
    """Recognize a Brandt semigroup constructively; None when it is not one."""
    mul = alg.mul
    n = alg.size
    z = zero_element(alg)
    if z is None or n < 2:
        return None
    if (mul == z).all():  # zero semigroup
        return None
    full = ideal_masks(alg).all(axis=1)
    full[z] = True  # the zero's ideal is {z}
    if not full.all():
        return None  # not 0-simple
    inverses = inverse_matrix(alg)
    if (inverses.sum(axis=1) != 1).any():
        return None  # not inverse
    inv = inverses.argmax(axis=1)
    idems = [e for e in idempotents(alg) if e != z]
    if not idems:
        return None
    e1 = idems[0]
    members = [a for a in range(n)
               if mul[a, inv[a]] == e1 and mul[inv[a], a] == e1]
    group, remap = induced_algebra(mult_reduct(alg), members)
    us = []
    for ei in idems:
        u = next((a for a in range(n)
                  if mul[a, inv[a]] == e1 and mul[inv[a], a] == ei), None)
        if u is None:
            return None
        us.append(u)
    g_n = group.size
    count = len(idems)
    if n != count * count * g_n + 1:
        return None
    iso = [0] * n
    for x in range(n):
        if x == z:
            continue
        rows = [i for i, ei in enumerate(idems) if mul[ei, x] == x]
        cols = [j for j, ej in enumerate(idems) if mul[x, ej] == x]
        if len(rows) != 1 or len(cols) != 1:
            return None
        i, j = rows[0], cols[0]
        gx = int(mul[mul[us[i], x], inv[us[j]]])
        if gx not in remap:
            return None
        iso[x] = 1 + (i * g_n + remap[gx]) * count + j
    iso_arr = np.array(iso)
    if sorted(iso) != list(range(n)):
        return None
    target = _brandt_table(group.mul, count)
    if not np.array_equal(iso_arr[mul], target[iso_arr[:, None], iso_arr]):
        return None
    return BrandtRecognition(group, count, tuple(iso))


# ---------------------------------------------------------------------------
# principal series


@dataclass
class SeriesReport:
    """A maximal chain of ideals with per-factor classification and the derived
    parameters: h the height, m the lcm of subgroup exponents, k the largest
    subgroup derived length (floored at 1), q = 2^h m, r = kh + h + k."""

    chain: list[list[int]]
    factors: list[dict]
    h: int
    m: int
    k: int
    k_floored: bool
    q: int
    r: int
    brandt_series: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "series": [{"ideal": ideal, "kind": kind} for ideal, kind in
                       zip(self.chain, self.factors)],
            "h": self.h, "m": self.m, "k": self.k, "k_floored": self.k_floored,
            "q": self.q, "r": self.r, "brandt_series": self.brandt_series,
        }


def _classify_bottom(alg: FiniteAlgebra, kernel: list[int]) -> dict:
    sub, _ = induced_algebra(mult_reduct(alg), kernel)
    if is_group(sub):
        return {"kind": "group", "order": sub.size}
    return {"kind": "other", "size": sub.size}


def _classify_factor(alg: FiniteAlgebra, cls: list[int]) -> dict:
    # Rees quotient of one J-class over everything below it: class + fresh zero
    table = rees_table(alg.mul, cls)
    size = len(table)
    if not table.any():
        return {"kind": "zero", "size": size}
    labels = ["0"] + [f"c{i}" for i in range(1, size)]
    factor = FiniteAlgebra("semigroup", tuple(labels), table)
    rec = is_brandt(factor)
    if rec is not None:
        return {"kind": "brandt", "group_order": rec.group.size,
                "index_count": rec.index_count}
    return {"kind": "other", "size": size}


def principal_series(alg: FiniteAlgebra) -> SeriesReport:
    """Maximal ideal chain built one J-class at a time along the J-order,
    ties broken by least element index; factors classified; (h,m,k,q,r) filled."""
    masks = ideal_masks(alg)
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
        if not chain:
            factors.append(_classify_bottom(alg, cls))
        else:
            factors.append(_classify_factor(alg, cls))
        current.update(cls)
        chain.append(sorted(current))
        for k in np.flatnonzero(below[:, i]).tolist():
            pending[k] -= 1
            if not pending[k]:
                heappush(ready, k)
    h = len(chain) - 1
    m = 1
    k = 1
    floored = True
    for e, members in maximal_subgroups(alg):
        sub, _ = induced_algebra(mult_reduct(alg), members)
        m = lcm(m, group_exponent(sub))
        d = derived_length(sub)
        if d is not None and d > 1:
            k = max(k, d)
            floored = False
    q = (2**h) * m
    r = k * h + h + k
    brandt = factors[0]["kind"] == "group" and all(
        f["kind"] in ("brandt", "zero") for f in factors[1:])
    return SeriesReport(chain, factors, h, m, k, floored, q, r, brandt)


def satisfies_power_identity(alg: FiniteAlgebra, e1: int, e2: int):
    """Element-wise check of x^e1 = x^e2; returns (ok, first bad element)."""
    from .terms import element_power

    for x in range(alg.size):
        if element_power(alg, x, e1) != element_power(alg, x, e2):
            return False, x
    return True, None


def stabilizing_power(alg: FiniteAlgebra) -> int | None:
    """Least p with x^p = x^(p+1) for every x; None if the semigroup is not
    aperiodic."""
    mul = alg.mul
    powers = list(range(alg.size))
    for p in range(1, 2 * alg.size + 2):
        if all(mul[v, x] == v for x, v in enumerate(powers)):
            return p
        powers = [int(mul[v, x]) for x, v in enumerate(powers)]
    return None


# ---------------------------------------------------------------------------
# group analytics


def element_order(alg: FiniteAlgebra, x: int, identity: int) -> int:
    mul = alg.mul
    order = 1
    y = x
    while y != identity:
        y = int(mul[y, x])
        order += 1
        if order > alg.size:
            raise ValueError("element order exceeds the carrier; not a group?")
    return order


def group_exponent(alg: FiniteAlgebra) -> int:
    e, _ = ensure_group(alg)
    return lcm(*[element_order(alg, x, e) for x in range(alg.size)]) if alg.size else 1


def derived_series(alg: FiniteAlgebra) -> list[frozenset[int]]:
    """G, G', G'', ... down to the first repetition."""
    e, inv = ensure_group(alg)
    mul = alg.mul
    series = [frozenset(range(alg.size))]
    while True:
        cur = series[-1]
        comms = {e}
        for a in cur:
            for b in cur:
                comms.add(int(mul[mul[mul[inv[a], inv[b]], a], b]))
        nxt = frozenset(closure([mul], comms))
        if nxt == cur:
            return series
        series.append(nxt)


def derived_length(alg: FiniteAlgebra) -> int | None:
    """Steps until the derived series hits the trivial group; None otherwise."""
    series = derived_series(alg)
    if len(series[-1]) != 1:
        return None
    return len(series) - 1


def subgroups_of(alg: FiniteAlgebra,
                 max_generators: int = SUBGROUP_MAX_GENERATORS,
                 size_budget: int = SUBGROUP_SIZE_BUDGET) -> list[frozenset[int]]:
    """All subgroups reachable as closures of <= max_generators elements.

    Complete for the shipped group families up to the size budget; larger
    groups are refused rather than silently under-enumerated.
    """
    ensure_group(alg)
    if alg.size > size_budget:
        raise SubgroupEnumerationBudget(
            f"|G| = {alg.size} exceeds the enumeration budget {size_budget}")
    found = set()
    elems = range(alg.size)
    for r in range(1, max_generators + 1):
        for gens in combinations(elems, r):
            found.add(frozenset(closure([alg.mul], gens)))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_dedekind(alg: FiniteAlgebra, subgroups=None) -> bool:
    """True iff every subgroup is normal."""
    if subgroups is None:
        subgroups = subgroups_of(alg)
    _, inv = ensure_group(alg)
    mul = alg.mul
    for H in subgroups:
        for g in range(alg.size):
            if {int(mul[mul[g, h], inv[g]]) for h in H} != set(H):
                return False
    return True


def has_quaternion_subgroup(alg: FiniteAlgebra, subgroups=None) -> bool:
    """Detect an 8-element subgroup that is non-abelian with a unique involution."""
    if subgroups is None:
        subgroups = subgroups_of(alg)
    e, _ = ensure_group(alg)
    mul = alg.mul
    for H in subgroups:
        if len(H) != 8:
            continue
        hs = sorted(H)
        if all(mul[a, b] == mul[b, a] for a in hs for b in hs):
            continue
        involutions = [x for x in hs if x != e and mul[x, x] == e]
        if len(involutions) == 1:
            return True
    return False


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


def group_analytics(alg: FiniteAlgebra,
                    size_budget: int = SUBGROUP_SIZE_BUDGET) -> GroupAnalytics:
    subs = subgroups_of(alg, size_budget=size_budget)
    d = derived_length(alg)
    return GroupAnalytics(
        exponent=group_exponent(alg),
        derived_length=d,
        solvable=d is not None,
        dedekind=is_dedekind(alg, subs),
        has_quaternion_subgroup=has_quaternion_subgroup(alg, subs),
    )
