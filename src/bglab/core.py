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
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import MissingTable

KINDS = ("semigroup", "ai-semiring", "involution-semigroup", "involution-ai-semiring")

# Which optional tables each kind carries: (add, star)
_KIND_TABLES = {
    "semigroup": (False, False),
    "ai-semiring": (True, False),
    "involution-semigroup": (False, True),
    "involution-ai-semiring": (True, True),
}

# Rows per slab when scanning n^3 triple spaces; bounds peak memory.
_SLAB_CELLS = 1 << 22


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
        return self.labels.index(label)

    def elements(self) -> Iterator[int]:
        return iter(range(self.size))

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

    @classmethod
    def load(cls, path) -> "FiniteAlgebra":
        return load_algebra(path)


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


def _assoc_violation(table: np.ndarray, law: str) -> AxiomViolation | None:
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


def validate_semigroup(alg: FiniteAlgebra) -> AxiomViolation | None:
    """None iff (xy)z = x(yz) for all triples; else the first bad triple."""
    if alg.mul is None:
        raise MissingTable("mul table required")
    return _assoc_violation(alg.mul, "mul-associative")


def validate_ai_semiring(alg: FiniteAlgebra) -> AxiomViolation | None:
    """Check both associativities, add commutativity/idempotency, distributivity."""
    if alg.add is None:
        raise MissingTable("add table required")
    bad = _assoc_violation(alg.mul, "mul-associative")
    if bad is None:
        bad = _assoc_violation(alg.add, "add-associative")
    if bad is not None:
        return bad
    n = alg.size
    w = _first_true(alg.add != alg.add.T)
    if w is not None:
        return AxiomViolation("add-commutative", w)
    diag = alg.add[np.arange(n), np.arange(n)]
    w = _first_true(diag != np.arange(n))
    if w is not None:
        return AxiomViolation("add-idempotent", w)
    mul, add = alg.mul, alg.add
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


def validate(alg: FiniteAlgebra) -> AxiomViolation | None:
    """Run every validator the algebra's kind calls for; first violation wins."""
    if alg.add is not None:
        bad = validate_ai_semiring(alg)
    else:
        bad = validate_semigroup(alg)
    if bad is None and alg.star is not None:
        bad = validate_involution(alg)
    return bad
