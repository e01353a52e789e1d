"""Table-based finite algebras and validators for their axiom systems.

An algebra is a carrier of dense indices 0..size-1 together with operation
tables: a multiplication table, an optional addition table, and an optional
unary star table.  All semantics (subsets, matrices, partial maps) live in
the element labels and in the construction metadata; every check below is a
pure table lookup.
"""

from __future__ import annotations

import gzip
import json
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import BglabError, MissingTable

KINDS = ("semigroup", "ai-semiring", "involution-semigroup", "involution-ai-semiring")

# Which optional tables each kind carries: (add, star)
_KIND_TABLES = {
    "semigroup": (False, False),
    "ai-semiring": (True, False),
    "involution-semigroup": (False, True),
    "involution-ai-semiring": (True, True),
}

# Cells per slab when scanning n^3 triple spaces; bounds peak memory.
_SLAB_CELLS = 1 << 22

# Tables of fewer elements keep the n^3 slab scan, because Light's test
# first pays for a generating set in Python.  Measured on cyclic groups and
# Brandt semigroups (2-vCPU Xeon): at 40 elements the scan takes 0.12 ms and
# Light's test 0.29 ms; they tie at 44 to 51; at 56 the scan takes 0.56 ms
# and Light's test 0.28 ms.
_LIGHT_MIN_SIZE = 48

# Light's test runs only while the generating set has at most n / this many
# elements.  Each greedy round converts the table to lists for the closure,
# so rounds without end would approach the cost of the n^3 scan.
_LIGHT_MAX_SHARE = 4


def _as_table(t, size, name):
    a = np.ascontiguousarray(np.asarray(t, dtype=np.int32))
    if a.shape != (size, size):
        raise ValueError(f"{name} table must be {size}x{size}, got {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= size):
        raise ValueError(f"{name} table entries must be indices < {size}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """A finite algebra given by operation tables over indices 0..size-1."""

    kind: str
    labels: tuple[str, ...]
    mul: np.ndarray
    add: np.ndarray | None = None
    star: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        n = len(labels)
        if n == 0:
            raise ValueError("carrier must be non-empty")
        if len(set(labels)) != n:
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "mul", _as_table(self.mul, n, "mul"))
        want_add, want_star = _KIND_TABLES[self.kind]
        if want_add != (self.add is not None):
            raise ValueError(f"kind {self.kind!r} and presence of add table disagree")
        if want_star != (self.star is not None):
            raise ValueError(f"kind {self.kind!r} and presence of star table disagree")
        if self.add is not None:
            object.__setattr__(self, "add", _as_table(self.add, n, "add"))
        if self.star is not None:
            s = np.ascontiguousarray(np.asarray(self.star, dtype=np.int32))
            if s.shape != (n,):
                raise ValueError(f"star table must have length {n}")
            if s.min() < 0 or s.max() >= n:
                raise ValueError("star table entries must be valid indices")
            s.setflags(write=False)
            object.__setattr__(self, "star", s)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"no element is labelled {label!r}")
        return self.labels.index(label)

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "size": self.size,
            "labels": list(self.labels),
            "mul": self.mul.tolist(),
            "meta": self.meta,
        }
        if self.add is not None:
            d["add"] = self.add.tolist()
        if self.star is not None:
            d["star"] = self.star.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteAlgebra":
        if not isinstance(d, dict):
            raise BglabError("algebra data must be a JSON object")
        for key in ("kind", "labels", "mul"):
            if key not in d:
                raise BglabError(f"algebra data has no {key!r}")
        alg = cls(
            kind=d["kind"],
            labels=tuple(d["labels"]),
            mul=d["mul"],
            add=d.get("add"),
            star=d.get("star"),
            meta=dict(d.get("meta", {})),
        )
        if "size" in d and d["size"] != alg.size:
            raise ValueError("declared size disagrees with labels")
        return alg

    def save(self, path) -> None:
        save_algebra(self, path)


def save_algebra(alg: FiniteAlgebra, path) -> None:
    data = (json.dumps(alg.to_dict(), indent=2, sort_keys=True) + "\n").encode()
    path = str(path)
    if path.endswith(".gz"):
        # mtime pinned to keep outputs byte-for-byte reproducible
        data = gzip.compress(data, mtime=0)
    with open(path, "wb") as fh:
        fh.write(data)


def load_algebra(path) -> FiniteAlgebra:
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".gz"):
        data = gzip.decompress(data)
    return FiniteAlgebra.from_dict(json.loads(data.decode()))


def mult_reduct(alg: FiniteAlgebra) -> FiniteAlgebra:
    """The (S, mul) reduct, dropping add and star."""
    if alg.kind == "semigroup":
        return alg
    meta = dict(alg.meta)
    meta["reduct_of"] = alg.kind
    return FiniteAlgebra(kind="semigroup", labels=alg.labels, mul=alg.mul, meta=meta)


@dataclass(frozen=True)
class AxiomViolation:
    """A violated law together with element indices reproducing the failure."""

    law: str
    witness: tuple[int, ...]

    def describe(self, alg: FiniteAlgebra) -> str:
        names = ", ".join(alg.labels[i] for i in self.witness)
        return f"{self.law} fails at ({names})"


def _first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    # row-major argmax == lexicographically first witness
    if not mask.any():
        return None
    flat = int(np.argmax(mask.reshape(-1)))
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def _check_indices(indices, size: int) -> None:
    for x in indices:
        if not 0 <= x < size:
            raise ValueError(f"index {x} is outside 0..{size - 1}")


def closure(tables, seeds, star=None, closed=()) -> list[int]:
    """Least index set containing the seeds and closed under every binary
    table in `tables` and, when given, the unary table `star`; sorted.
    `closed`, a list of indices already closed under them (such as an
    earlier result), joins the result without its own pairs being walked
    again."""
    members = set(map(int, seeds))
    _check_indices(members, len(tables[0]))
    found = [*closed, *members.difference(closed)] if closed else list(members)
    members.update(closed)
    walked = len(closed)
    rows = [t.tolist() for t in tables]
    star = None if star is None else star.tolist()
    # found grows while it is walked; x meets every element up to itself,
    # and the elements of closed have met each other already
    for i, x in enumerate(found):
        if i < walked:
            continue
        if star is not None and star[x] not in members:
            members.add(star[x])
            found.append(star[x])
        for t in rows:
            tx = t[x]
            for y in found[:i + 1]:
                for p in (tx[y], t[y][x]):
                    if p not in members:
                        members.add(p)
                        found.append(p)
    return sorted(found)


def _generators(table: np.ndarray) -> list[int] | None:
    """A generating set of the magma (0..n-1, table) for Light's test, or
    None to keep the slab scan: below _LIGHT_MIN_SIZE elements, and once the
    set would pass n / _LIGHT_MAX_SHARE elements.  Greedy: first the
    indecomposable elements, those x that are no product y*z with y, z != x
    (every generating set holds them), then the least element outside the
    closure, again and again."""
    n = len(table)
    if n < _LIGHT_MIN_SIZE:
        return None
    ids = np.arange(n)
    # a cell (y, z) decomposes its value x when y != x and z != x
    other = (table != ids[:, None]) & (table != ids)
    gens = np.flatnonzero(np.bincount(table[other], minlength=n) == 0).tolist()
    most = n // _LIGHT_MAX_SHARE
    found = closure([table], gens) if 0 < len(gens) <= most else []
    while len(gens) <= most and len(found) < n:
        # found is sorted, so its first gap is the least element outside
        x = next((i for i, y in enumerate(found) if i != y), len(found))
        gens.append(x)
        found = closure([table], [x], closed=found)
    return gens if len(gens) <= most else None


def _light_holds(table: np.ndarray, gens) -> bool:
    """Light's associativity test: when gens generates the magma, it is
    associative iff (xa)y = x(ay) for all x, y and every a in gens (Clifford
    & Preston, The Algebraic Theory of Semigroups I, 1961, 1.2).  The
    elements a that pass are closed under the product, so they are all of
    it.  |gens| n^2 lookups, in one gather pair per _SLAB_CELLS cells."""
    t = table.astype(np.min_scalar_type(len(table) - 1))
    step = max(1, _SLAB_CELLS // t.size)
    for lo in range(0, len(gens), step):
        a = gens[lo : lo + step]
        # [x, i, y] -> (x a_i) y  and  x (a_i y)
        if not np.array_equal(t.take(t[:, a], axis=0), t.take(t[a, :], axis=1)):
            return False
    return True


def _distributes(mul: np.ndarray, add: np.ndarray, gens) -> bool:
    """x(y+z) = xy + xz and (y+z)x = yx + zx for every x in gens and all y, z.
    Once mul is associative, the x that pass either law form a
    mul-subsemigroup, so a mul-generating set decides both laws."""
    for x in gens:
        for prod in (mul[x], mul[:, x]):
            # prod[add[y, z]] against add[prod[y], prod[z]]
            if not np.array_equal(prod.take(add), add.take(prod, axis=0).take(prod, axis=1)):
                return False
    return True


def _assoc_violation(table: np.ndarray, law: str) -> AxiomViolation | None:
    """The slab scan over all n^3 triples: the lexicographically first bad
    triple, or None."""
    n = table.shape[0]
    rows = max(1, _SLAB_CELLS // (n * n))
    for lo in range(0, n, rows):
        sl = table[lo : lo + rows]
        left = table.take(sl, axis=0)   # [x,y,z] -> (xy)z
        right = sl.take(table, axis=1)  # [x,y,z] -> x(yz)
        bad = _first_true(left != right)
        if bad is not None:
            return AxiomViolation(law, (bad[0] + lo, bad[1], bad[2]))
    return None


def _distrib_violation(mul: np.ndarray, add: np.ndarray) -> AxiomViolation | None:
    """The slab scan over all n^3 triples for both distributive laws; the
    witness (x, y, z) is the first bad triple of the first bad slab, left
    law before right."""
    n = len(mul)
    rows = max(1, _SLAB_CELLS // (n * n))
    for lo in range(0, n, rows):
        xs = np.arange(lo, min(lo + rows, n))
        # x(y+z) = xy + xz, witness (x, y, z)
        left = mul[xs[:, None, None], add[None, :, :]]
        right = add[mul[xs, :][:, :, None], mul[xs, :][:, None, :]]
        bad = _first_true(left != right)
        if bad is not None:
            return AxiomViolation("left-distributive", (bad[0] + lo, bad[1], bad[2]))
        # (y+z)x = yx + zx, witness (x, y, z)
        left = mul[add[None, :, :], xs[:, None, None]]
        right = add[mul[:, xs].T[:, :, None], mul[:, xs].T[:, None, :]]
        bad = _first_true(left != right)
        if bad is not None:
            return AxiomViolation("right-distributive", (bad[0] + lo, bad[1], bad[2]))
    return None


def _associativity(table: np.ndarray, law: str, gens) -> AxiomViolation | None:
    """Light's test from gens when there is one; the slab scan otherwise,
    and for the witness of a failure."""
    if gens is not None and _light_holds(table, gens):
        return None
    return _assoc_violation(table, law)


def validate_semigroup(alg: FiniteAlgebra) -> AxiomViolation | None:
    """None iff (xy)z = x(yz) for all triples; else the first bad triple."""
    if alg.mul is None:
        raise MissingTable("mul table required")
    return _associativity(alg.mul, "mul-associative", _generators(alg.mul))


def validate_ai_semiring(alg: FiniteAlgebra) -> AxiomViolation | None:
    """Check both associativities, add commutativity/idempotency, distributivity."""
    if alg.add is None:
        raise MissingTable("add table required")
    mul, add = alg.mul, alg.add
    gens = _generators(mul)
    bad = _associativity(mul, "mul-associative", gens)
    if bad is None:
        bad = _associativity(add, "add-associative", _generators(add))
    if bad is not None:
        return bad
    n = alg.size
    w = _first_true(add != add.T)
    if w is not None:
        return AxiomViolation("add-commutative", w)
    diag = add[np.arange(n), np.arange(n)]
    w = _first_true(diag != np.arange(n))
    if w is not None:
        return AxiomViolation("add-idempotent", w)
    if gens is not None and _distributes(mul, add, gens):
        return None
    return _distrib_violation(mul, add)


def validate_involution(alg: FiniteAlgebra) -> AxiomViolation | None:
    """Check (x*)* = x and (xy)* = y*x*; plus (x+y)* = x*+y* when add is present."""
    if alg.star is None:
        raise MissingTable("star table required")
    n = alg.size
    star = alg.star
    w = _first_true(star[star] != np.arange(n))
    if w is not None:
        return AxiomViolation("star-involutive", w)
    left = star[alg.mul]                      # (xy)*
    right = alg.mul[np.ix_(star, star)].T     # y* x* at [x, y]
    w = _first_true(left != right)
    if w is not None:
        return AxiomViolation("star-antiautomorphism", w)
    if alg.add is not None:
        left = star[alg.add]
        right = alg.add[np.ix_(star, star)]
        w = _first_true(left != right)
        if w is not None:
            return AxiomViolation("star-additive", w)
    return None


# One verdict per algebra object: its tables are read-only and the object is
# frozen, so the verdict never goes stale; an entry dies with its algebra.
_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def validate(alg: FiniteAlgebra) -> AxiomViolation | None:
    """Run every validator the algebra's kind calls for; first violation wins.
    Each algebra object is validated once; later calls return that verdict."""
    if alg in _VERDICTS:
        return _VERDICTS[alg]
    if alg.add is not None:
        bad = validate_ai_semiring(alg)
    else:
        bad = validate_semigroup(alg)
    if bad is None and alg.star is not None:
        bad = validate_involution(alg)
    _VERDICTS[alg] = bad
    return bad
