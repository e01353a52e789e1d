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

import numpy as np

from .errors import BglabError

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
# first pays for a generating set.  Measured on cyclic groups and Brandt
# semigroups (2-vCPU Xeon): at 40 elements the scan takes 0.12 ms and
# Light's test 0.29 ms; they tie at 44 to 51; at 56 the scan takes 0.56 ms
# and Light's test 0.28 ms.  closure switches from its row-list worklist to
# Boolean masks at the same size.  analysis' Green record switches from row
# lists to packed Boolean masks, and its memo stops keeping mul's row list,
# at its own, smaller size, _MASK_MIN_SIZE.
_LIGHT_MIN_SIZE = 48

# Light's test runs only while the generating set has at most n / this many
# elements.  Each greedy round pays for a closure, so rounds without end
# would approach the cost of the n^3 scan.
_LIGHT_MAX_SHARE = 4


def _as_table(t, size, name):
    a = np.ascontiguousarray(np.asarray(t, dtype=np.int32))
    if a.shape != (size, size):
        raise ValueError(f"{name} table must be {size}x{size}, got {a.shape}")
    if a.size and (a.min() < 0 or a.max() >= size):
        raise ValueError(f"{name} table entries must be indices < {size}")
    a.setflags(write=False)
    return a


def _index_data(d: dict, key: str):
    """d[key] as an integer array, or None when absent.  A null or a scalar
    is refused (NumPy reads null as an object, and the table casts would
    widen a scalar to a list), and so are floats, bools and strings rather
    than cast, and integers that the cast of this array to int32 would wrap
    into valid indices."""
    if key not in d:
        return None
    a = np.asarray(d[key])
    if a.ndim == 0:
        raise BglabError(f"algebra data {key!r} must be a list, not "
                         f"{'null' if d[key] is None else 'a scalar'}")
    if a.dtype.kind in "iu" and _holds_bool(d[key], a):
        a = a.astype(bool)  # NumPy read the bools among the integers as 0 and 1
    if a.size and (a.dtype.kind not in "iu" or (a != a.astype(np.int32)).any()):
        raise BglabError(f"algebra data {key!r} must hold int32 integers, "
                         f"not {a.dtype} values")
    return a


def _holds_bool(value, a: np.ndarray) -> bool:
    """Whether a bool sits among the JSON integers that NumPy read into the
    integer array a, as 0 or 1.  Only the rows of a table that hold a 0 or
    1 are scanned, each in one C-level pass over its element types; arrays
    of more dimensions are refused later for their shape."""
    if not isinstance(value, list) or a.ndim > 2:
        return False  # NumPy input holds no bool; a deeper nest fails its shape
    rows = [value] if a.ndim == 1 else [value[i] for i in np.flatnonzero((a <= 1).any(axis=1))]
    return any(bool in map(type, row) for row in rows)


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """A finite algebra given by operation tables over indices 0..size-1."""

    kind: str
    labels: tuple[str, ...]
    mul: np.ndarray
    add: np.ndarray | None = None
    star: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    # The record of facts about this object, filled on first use: "mul", the
    # memo of mul_violation and mul_zero and of analysis' facts ("green",
    # the read-only R, L and J bit rows; "idempotents"; "subgroups", the
    # maximal subgroups as tuples; "group", the identity and inverses or the
    # NotAGroup reason; "rows", mul's row list, below _MASK_MIN_SIZE only),
    # which mult_reduct shares with the reduct; "reduct"; "verdict",
    # validate's; "kernel", terms.flat_kernel's.  It never holds an algebra
    # that holds it, so algebras are freed by reference counting alone.
    _facts: dict = field(default_factory=lambda: {"mul": {}}, init=False, repr=False)

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
        labels, meta = d["labels"], d.get("meta", {})
        if not isinstance(labels, list):
            raise BglabError("algebra data 'labels' must be a list")
        if not all(isinstance(x, str) for x in labels):
            raise BglabError("algebra data 'labels' must be strings")
        if not isinstance(meta, dict):
            raise BglabError("algebra data 'meta' must be a JSON object")
        alg = cls(
            kind=d["kind"],
            labels=tuple(labels),
            mul=_index_data(d, "mul"),
            add=_index_data(d, "add"),
            star=_index_data(d, "star"),
            meta=dict(meta),
        )
        if "size" in d and d["size"] != alg.size:
            raise ValueError("declared size disagrees with labels")
        return alg

    def save(self, path) -> None:
        save_algebra(self, path)


def _json_list(items, pad: str) -> str:
    """A JSON list of encoded items (at least one), laid out as
    json.dumps(..., indent=2) lays out a list nested at `pad`."""
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def save_algebra(alg: FiniteAlgebra, path) -> None:
    """Write json.dumps(alg.to_dict(), indent=2, sort_keys=True) and a
    newline, gzipped for a .gz path.  An indent makes CPython's json use its
    pure-Python encoder, so the tables and labels are joined here from
    strings; only the small meta goes through json.dumps."""
    cells = list(map(str, range(alg.size)))  # every table entry is an index

    def table(t):
        if t.ndim == 1:
            return _json_list(map(cells.__getitem__, t.tolist()), "  ")
        return _json_list((_json_list(map(cells.__getitem__, row), "    ")
                           for row in t.tolist()), "  ")

    fields = {"kind": json.dumps(alg.kind), "size": str(alg.size),
              "labels": _json_list(map(json.dumps, alg.labels), "  "),
              "meta": json.dumps(alg.meta, indent=2, sort_keys=True).replace("\n", "\n  ")}
    for name, t in (("mul", alg.mul), ("add", alg.add), ("star", alg.star)):
        if t is not None:
            fields[name] = table(t)
    data = ("{\n" + ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields))
            + "\n}\n").encode()
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
    """The (S, mul) reduct, dropping add and star; one object per algebra,
    sharing the algebra's memo of mul's associativity and zero.  The reduct
    holds its parent's tables, never the parent."""
    if alg.kind == "semigroup":
        return alg
    facts = alg._facts
    if "reduct" not in facts:
        meta = {**alg.meta, "reduct_of": alg.kind}
        reduct = facts["reduct"] = FiniteAlgebra("semigroup", alg.labels, alg.mul, meta=meta)
        reduct._facts["mul"] = facts["mul"]
    return facts["reduct"]


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
    table in `tables` (arrays or row lists) and, when given, the unary table
    `star`; sorted.
    `closed`, a list of indices already closed under them (such as an
    earlier result), joins the result without its own pairs being walked
    again.  Tables of at least _LIGHT_MIN_SIZE elements are closed over
    Boolean masks (_mask_closure); smaller ones by a worklist over Python
    row lists, which costs less than a round of NumPy calls there."""
    members = set(map(int, seeds))
    _check_indices(members, len(tables[0]))
    if len(tables[0]) >= _LIGHT_MIN_SIZE:
        return _mask_closure(tables, members, star, closed)
    found = [*closed, *members.difference(closed)] if closed else list(members)
    members.update(closed)
    walked = len(closed)
    rows = [t if isinstance(t, list) else t.tolist() for t in tables]
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


def _mask_closure(tables, seeds, star, closed) -> list[int]:
    """closure over Boolean masks of the n indices.  Each round takes the
    elements new in the last one, marks their stars and, per table, the
    products new x inside and inside x new, gathered in slabs of new rows of
    at most _SLAB_CELLS cells; whatever is marked and not yet inside is the
    next round's new.  Pairs of elements inside before a round met in an
    earlier one, or lie in `closed`."""
    tables = [np.asarray(t) for t in tables]
    star = None if star is None else np.asarray(star)
    n = len(tables[0])
    inside = np.zeros(n, dtype=bool)
    inside[list(closed)] = True
    new = np.zeros(n, dtype=bool)
    new[list(seeds)] = True
    new &= ~inside
    while new.any():
        inside |= new
        fresh = np.flatnonzero(new)
        members = np.flatnonzero(inside)
        marked = np.zeros(n, dtype=bool)
        if star is not None:
            marked[star[fresh]] = True
        rows = max(1, _SLAB_CELLS // members.size)
        for lo in range(0, fresh.size, rows):
            a = fresh[lo : lo + rows]
            for t in tables:
                marked[t[np.ix_(a, members)]] = True
                marked[t[np.ix_(members, a)]] = True
        new = marked & ~inside
    return np.flatnonzero(inside).tolist()


def restrict(table, members, labels):
    """A binary (n x n) or unary (star) table restricted to the index set
    `members`, sorted, and renumbered 0..len-1 in member order.  A product
    outside the set raises ValueError naming the first one in row-major
    order, with the parent's `labels`.  A binary table given as a row list
    is restricted in plain Python, which costs less than NumPy's calls on a
    small table, and comes back as a row list of the same values."""
    if isinstance(table, list):
        return _restrict_rows(table, members, labels)
    members = np.asarray(members, dtype=np.intp)
    local = np.full(len(table), -1, dtype=np.int32)
    local[members] = np.arange(members.size, dtype=np.int32)
    unary = table.ndim == 1
    out = local[table[members] if unary else table[members[:, None], members]]
    bad = _first_true(out < 0)
    if bad is None:
        return out
    names = [labels[members[i]] for i in bad]
    if unary:
        raise ValueError(f"set not closed under star at {names[0]}")
    raise ValueError(f"set not closed: {names[0]} o {names[1]} escapes")


def _restrict_rows(rows: list, members, labels) -> list[list[int]]:
    """restrict for a binary table given as a row list."""
    members = list(map(int, members))
    local = [-1] * len(rows)
    for i, x in enumerate(members):
        local[x] = i
    out = []
    for a in members:
        row = rows[a]
        got = [local[row[b]] for b in members]
        if -1 in got:
            b = members[got.index(-1)]
            raise ValueError(f"set not closed: {labels[a]} o {labels[b]} escapes")
        out.append(got)
    return out


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
        # prod[x] is x's row of mul for x(y+z) = xy + xz and its column for
        # (y+z)x = yx + zx; the witness is (x, y, z) for both
        for prod, law in ((mul, "left-distributive"), (mul.T, "right-distributive")):
            sl = prod[lo : lo + rows]
            bad = _first_true(sl[:, add] != add[sl[:, :, None], sl[:, None, :]])
            if bad is not None:
                return AxiomViolation(law, (bad[0] + lo, bad[1], bad[2]))
    return None


def _associativity(table: np.ndarray, law: str, gens) -> AxiomViolation | None:
    """Light's test from gens when there is one; the slab scan otherwise,
    and for the witness of a failure."""
    if gens is not None and _light_holds(table, gens):
        return None
    return _assoc_violation(table, law)


def mul_violation(memo: dict, mul: np.ndarray) -> AxiomViolation | None:
    """None iff (xy)z = x(yz) in mul for all triples; else the first bad
    triple.  Decided once per memo, which keeps the verdict ("bad") and
    mul's generating set ("gens", for the distributive laws): an algebra's
    record holds one, shared with its reduct, and a fresh {} decides anew."""
    if "bad" not in memo:
        memo["gens"] = _generators(mul)
        memo["bad"] = _associativity(mul, "mul-associative", memo["gens"])
    return memo["bad"]


def mul_zero(memo: dict, mul: np.ndarray) -> int | None:
    """The two-sided zero z of mul (zx = xz = z for every x), or None.
    Decided once per memo, as mul_violation is: a zero absorbs the left
    fold of every element from the moment it enters, in any magma, so the
    fold is the one candidate, and its row and column decide."""
    if "zero" not in memo:
        z = 0
        for x in range(1, len(mul)):
            z = mul.item(z, x)
        memo["zero"] = z if (mul[z] == z).all() and (mul[:, z] == z).all() else None
    return memo["zero"]


def _semiring_laws(mul: np.ndarray, add: np.ndarray, gens) -> AxiomViolation | None:
    """The ai-semiring laws past mul's associativity, in validate's order;
    gens is mul's generating set or None."""
    bad = _associativity(add, "add-associative", _generators(add))
    if bad is not None:
        return bad
    n = len(add)
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


def _involution_laws(alg: FiniteAlgebra) -> AxiomViolation | None:
    """(x*)* = x and (xy)* = y*x*; plus (x+y)* = x*+y* when add is present."""
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
    """Decide every law the algebra's kind calls for; first violation wins.
    Each algebra object is validated once, and mul's associativity is
    decided once for it and its reduct; later calls return the verdict.
    Tables are read-only and the object is frozen, so it never goes stale."""
    facts = alg._facts
    if "verdict" not in facts:
        memo = facts["mul"]
        bad = mul_violation(memo, alg.mul)
        if bad is None and alg.add is not None:
            bad = _semiring_laws(alg.mul, alg.add, memo["gens"])
        if bad is None and alg.star is not None:
            bad = _involution_laws(alg)
        facts["verdict"] = bad
    return facts["verdict"]


def require_associative(alg: FiniteAlgebra, what: str) -> None:
    """Refuse alg unless its mul is associative, with a BglabError that
    reads "<what> needs an associative table: " and the law and its first
    bad triple.  Read through mul_violation on alg's memo of mul, so it is
    decided once for an algebra, its reduct and validate."""
    bad = mul_violation(alg._facts["mul"], alg.mul)
    if bad is not None:
        raise BglabError(f"{what} needs an associative table: {bad.describe(alg)}")
