"""Words, involution terms, the recursive block-word family, and evaluators.

Variables are index tuples (i1..ih) with entries in 1..width; ordering for
substitution enumeration is lexicographic on the tuples.  Block words keep
the recursive shape (2n leading blocks, then a middle group repeated 2m-1
times) so evaluation never needs the flat word; flattening is available up
to a length budget.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import LengthBudgetExceeded, MissingStar, TermSyntaxError

DEFAULT_LENGTH_BUDGET = 10**6
DEFAULT_NODE_BUDGET = 1 << 20


@dataclass(frozen=True, order=True)
class Variable:
    indices: tuple[int, ...]
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        if not self.indices:
            raise ValueError("depth must be at least 1")
        if any(i < 1 or i > self.width for i in self.indices):
            raise ValueError(f"indices {self.indices} out of range for width {self.width}")

    @property
    def depth(self) -> int:
        return len(self.indices)

    @property
    def name(self) -> str:
        if len(self.indices) == 1:
            return f"x{self.indices[0]}"
        return "x" + "_".join(str(i) for i in self.indices)


def _check_homogeneous(variables: Iterable[Variable]):
    widths = {v.width for v in variables}
    depths = {v.depth for v in variables}
    if len(widths) > 1 or len(depths) > 1:
        raise ValueError("letters must share one width and one depth")


@dataclass(frozen=True)
class Word:
    letters: tuple[Variable, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a word must be non-empty")
        _check_homogeneous(self.letters)

    def __len__(self):
        return len(self.letters)

    @property
    def width(self) -> int:
        return self.letters[0].width

    @property
    def depth(self) -> int:
        return self.letters[0].depth

    def variables(self) -> list[Variable]:
        return sorted(set(self.letters))


@dataclass(frozen=True)
class InvTerm:
    """Sequence of (variable, exponent) with exponents +1 or -1."""

    letters: tuple[tuple[Variable, int], ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a term must be non-empty")
        if any(e not in (1, -1) for _, e in self.letters):
            raise ValueError("letter exponents must be +1 or -1")
        _check_homogeneous(v for v, _ in self.letters)

    def __len__(self):
        return len(self.letters)

    @property
    def width(self) -> int:
        return self.letters[0][0].width

    @property
    def depth(self) -> int:
        return self.letters[0][0].depth

    def variables(self) -> list[Variable]:
        return sorted(set(v for v, _ in self.letters))

    def inverse(self) -> "InvTerm":
        # (uv)^-1 = v^-1 u^-1, applied letter-wise
        return InvTerm(tuple((v, -e) for v, e in reversed(self.letters)))


@dataclass(frozen=True)
class BlockWord:
    """Recursive word: blocks b1..b2n, then (bn..b1 b(n+1)..b2n)^(2m-1)."""

    n: int
    m: int
    blocks: tuple  # 2n children, all BlockWord or all Variable

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if len(self.blocks) != 2 * self.n:
            raise ValueError("need exactly 2n blocks")

    @property
    def depth(self) -> int:
        child = self.blocks[0]
        return 1 if isinstance(child, Variable) else 1 + child.depth

    @property
    def width(self) -> int:
        child = self.blocks[0]
        return child.width

    @property
    def flat_length(self) -> int:
        return (4 * self.n * self.m) ** self.depth

    def flatten(self, length_budget: int = DEFAULT_LENGTH_BUDGET) -> Word:
        if self.flat_length > length_budget:
            raise LengthBudgetExceeded(
                f"flat length {self.flat_length} exceeds budget {length_budget}")
        return Word(tuple(self._letters()))

    def _letters(self):
        parts = []
        for b in self.blocks:
            parts.append([b] if isinstance(b, Variable) else list(b._letters()))
        n = self.n
        prefix = [x for p in parts for x in p]
        middle = [x for p in parts[n - 1 :: -1] for x in p]
        middle += [x for p in parts[n:] for x in p]
        return prefix + middle * (2 * self.m - 1)

    def variables(self) -> list[Variable]:
        out = set()
        stack = [self]
        while stack:
            node = stack.pop()
            for b in node.blocks:
                if isinstance(b, Variable):
                    out.add(b)
                else:
                    stack.append(b)
        return sorted(out)


@dataclass(frozen=True)
class PowerOf:
    """A term raised to a positive power; evaluation uses repeated squaring."""

    base: Union[Word, InvTerm, BlockWord]
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("exponent must be >= 1")

    def variables(self) -> list[Variable]:
        return self.base.variables()


Term = Union[Word, InvTerm, BlockWord, PowerOf]


# ---------------------------------------------------------------------------
# the word families


def v_word(n: int, m: int, h: int, node_budget: int = DEFAULT_NODE_BUDGET) -> BlockWord:
    """The depth-h block word over X_{2n}: at depth 1 it is
    x1..x2n (xn..x1 x(n+1)..x2n)^(2m-1); deeper levels repeat the shape on
    2n renamed copies of the previous level."""
    if n < 1 or m < 1 or h < 1:
        raise ValueError("v_word needs n, m, h >= 1")
    if (2 * n) ** h > node_budget:
        raise LengthBudgetExceeded(
            f"(2n)^h = {(2*n)**h} block nodes exceed budget {node_budget}")
    width = 2 * n
    word = BlockWord(n, m, tuple(Variable((i,), width) for i in range(1, width + 1)))
    for _ in range(h - 1):
        word = BlockWord(n, m, tuple(_append_index(word, j) for j in range(1, width + 1)))
    return word


def _append_index(node, j: int):
    if isinstance(node, Variable):
        return Variable(node.indices + (j,), node.width)
    return BlockWord(node.n, node.m, tuple(_append_index(b, j) for b in node.blocks))


def u_word(n: int, k: int, m: int) -> Word:
    """x1..x(n+k) (xn..x1 x(n+1)..x(n+k))^(2m-1) over a depth-1 alphabet."""
    if n < 0 or k < 0 or n + k < 1 or m < 1:
        raise ValueError("u_word needs n, k >= 0 with n + k > 0 and m >= 1")
    width = n + k
    x = [Variable((i,), width) for i in range(1, width + 1)]
    middle = x[n - 1 :: -1] + x[n:] if n > 0 else x[:]
    letters = x + middle * (2 * m - 1)
    return Word(tuple(letters))


def w_word(n: int, h: int, length_budget: int = DEFAULT_LENGTH_BUDGET) -> InvTerm:
    """Depth-h involution term: x1..xn x1^-1..xn^-1 at depth 1, then
    b1..bn b1^-1..bn^-1 on renamed copies; inverses flatten letter-wise."""
    if n < 1 or h < 1:
        raise ValueError("w_word needs n, h >= 1")
    if (2 * n) ** h > length_budget:
        raise LengthBudgetExceeded(
            f"length {(2*n)**h} exceeds budget {length_budget}")
    xs = [Variable((i,), n) for i in range(1, n + 1)]
    term = InvTerm(tuple((x, 1) for x in xs) + tuple((x, -1) for x in xs))
    for _ in range(h - 1):
        blocks = [
            InvTerm(tuple((Variable(v.indices + (j,), n), e) for v, e in term.letters))
            for j in range(1, n + 1)
        ]
        letters = []
        for b in blocks:
            letters.extend(b.letters)
        for b in blocks:
            letters.extend(b.inverse().letters)
        term = InvTerm(tuple(letters))
    return term


def sigma_apply(width: int, j: int, h: int, var: Variable) -> Variable:
    """Append j to a depth-(h-1) variable's index tuple."""
    if not 1 <= j <= width:
        raise ValueError(f"j must be in 1..{width}")
    if var.width != width:
        raise ValueError("variable width mismatch")
    if var.depth != h - 1:
        raise ValueError(f"expected a depth-{h-1} variable")
    return Variable(var.indices + (j,), width)


def sigma_word(width: int, j: int, word: Word) -> Word:
    h = word.depth + 1
    return Word(tuple(sigma_apply(width, j, h, v) for v in word.letters))


def zeta_expand(n: int, m: int, h: int, r: int,
                length_budget: int = DEFAULT_LENGTH_BUDGET) -> Word:
    """Substitute into the flat depth-h word: each variable x_t becomes the
    depth-r word with t appended to all its variable indices.  The result
    equals the flat depth-(h+r) word."""
    if r < 0:
        raise ValueError("r must be >= 0")
    host = v_word(n, m, h).flatten(length_budget)
    if r == 0:
        return host
    inner = v_word(n, m, r).flatten(length_budget)
    total = len(host) * len(inner)
    if total > length_budget:
        raise LengthBudgetExceeded(f"length {total} exceeds budget {length_budget}")
    width = 2 * n
    letters = []
    for t in host.letters:
        letters.extend(Variable(s.indices + t.indices, width) for s in inner.letters)
    return Word(tuple(letters))


# ---------------------------------------------------------------------------
# evaluation

Substitution = Mapping[Variable, int]


def _pow_fold(x, e, mul_pair):
    # repeated squaring; e >= 1, works for arbitrarily large ints
    result = None
    base = x
    while True:
        if e & 1:
            result = base if result is None else mul_pair(result, base)
        e >>= 1
        if not e:
            return result
        base = mul_pair(base, base)


class Kernel(NamedTuple):
    """How an evaluator multiplies.  A left fold a1 a2 ... ak is
    last(step(...step(lift(a1), a2)...), ak): lift(a) is the offset of a,
    step(off, b) the offset of (the element at off) times b, and
    last(off, b) that product itself.  power(x, e) is x^e bracketed as
    _pow_fold brackets it.  pair(a, b) is mul[a, b] and star(a) is star[a],
    or None when the algebra has no star."""

    pair: Callable
    star: Callable | None
    lift: Callable
    step: Callable
    last: Callable
    power: Callable


# One kernel per algebra object.  Tables are read-only (core._as_table
# clears their write flag), so a kernel never goes stale; the closures hold
# the tables, never the algebra, so an entry dies with its algebra.
_KERNELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def flat_kernel(alg) -> Kernel:
    """Vectorised lookups over index arrays (or scalars), built once per
    algebra object.  An offset is a*size, the start of row a in
    mul.reshape(-1), so each product of a fold is one add and one take, and
    rows = mul*size gives the next offset directly.  Offsets are int32 while
    size^2 < 2^31 and np.intp beyond; products keep the table's int32.
    power(x, e) is one take from the table of e-th powers, built on first
    use.  pair(a, b) indexes in np.intp, for the image engine's state codes."""
    kernel = _KERNELS.get(alg)
    if kernel is None:
        kernel = _KERNELS[alg] = _flat_kernel(alg.mul, alg.star)
    return kernel


def _flat_kernel(mul, star) -> Kernel:
    size = len(mul)
    offset = np.int32 if size * size < 2**31 else np.intp
    flat = mul.reshape(-1)
    stride = offset(size)
    rows = flat.astype(offset) * stride
    intp_size = np.intp(size)

    def pair(a, b):
        return flat.take(a * intp_size + b)

    def lift(a):
        return np.multiply(a, stride, dtype=offset)

    def step(off, b):
        return rows.take(np.add(off, b, dtype=offset))

    def last(off, b):
        return flat.take(np.add(off, b, dtype=offset))

    carrier = np.arange(size, dtype=np.intp)
    powers = {}

    def power(x, e):
        if e == 1:
            return x
        table = powers.get(e)
        if table is None:
            table = powers[e] = _pow_fold(carrier, e, pair)
        return table.take(x)

    return Kernel(pair, None if star is None else star.take, lift, step, last, power)


def evaluate(term: Term, sub: Substitution, alg) -> int:
    """Left-to-right fold by mul; exponent -1 applies star; block words are
    evaluated compositionally with repeated squaring on the middle group.
    Lookups are scalar, pair by pair, so this is the oracle for
    evaluate_batch."""
    mul, star = alg.mul, alg.star

    def pair(a, b):
        return int(mul[a, b])

    return _evaluate(term, sub, Kernel(
        pair, None if star is None else lambda a: int(star[a]),
        lift=lambda a: a, step=pair, last=pair,
        power=lambda x, e: _pow_fold(x, e, pair)))


def _fold(vals, kernel: Kernel):
    """The offset of the left-fold product of vals."""
    off = kernel.lift(vals[0])
    for b in vals[1:]:
        off = kernel.step(off, b)
    return off


def _product(vals, kernel: Kernel):
    """The left-fold product of vals."""
    if len(vals) == 1:
        return vals[0]
    return kernel.last(_fold(vals[:-1], kernel), vals[-1])


def _evaluate(term, sub, kernel: Kernel):
    if isinstance(term, Word):
        return _product([sub[v] for v in term.letters], kernel)
    if isinstance(term, InvTerm):
        star = kernel.star
        if star is None and any(e < 0 for _, e in term.letters):
            raise MissingStar("term has inverse letters but the algebra has no star")
        return _product([sub[v] if e > 0 else star(sub[v]) for v, e in term.letters],
                        kernel)
    if isinstance(term, BlockWord):
        vals = [sub[b] if isinstance(b, Variable) else _evaluate(b, sub, kernel)
                for b in term.blocks]
        n, m = term.n, term.m
        prefix = _fold(vals, kernel)
        middle = _product(vals[n - 1 :: -1] + vals[n:], kernel)
        return kernel.last(prefix, kernel.power(middle, 2 * m - 1))
    if isinstance(term, PowerOf):
        return kernel.power(_evaluate(term.base, sub, kernel), term.exponent)
    raise TypeError(f"cannot evaluate {type(term).__name__}")


def evaluate_batch(term: Term, sub: Mapping[Variable, np.ndarray], alg) -> np.ndarray:
    """Vectorized evaluate: every variable is bound to an index vector (or a
    scalar); lookups go through flat_kernel."""
    return _evaluate(term, sub, flat_kernel(alg))


def element_power(alg, x: int, e: int) -> int:
    """x^e in the multiplicative reduct, e >= 1 (huge exponents welcome)."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    mul = alg.mul
    return _pow_fold(int(x), e, lambda a, b: int(mul[a, b]))


# ---------------------------------------------------------------------------
# the textual identity DSL

_TOKEN = re.compile(r"\s*(?:(x\d+(?:_\d+)*)|(\()|(\))|(')|(\^-?\d+)|(=)|(\S))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        var, lpar, rpar, prime, caret, eq, junk = m.groups()
        at = m.start() + (len(m.group()) - len(m.group().lstrip()))
        if junk is not None:
            raise TermSyntaxError(f"unexpected character {junk!r}", at)
        if var is not None:
            out.append(("var", var, at))
        elif lpar is not None:
            out.append(("(", None, at))
        elif rpar is not None:
            out.append((")", None, at))
        elif prime is not None:
            out.append(("'", None, at))
        elif caret is not None:
            out.append(("^", int(caret[1:]), at))
        elif eq is not None:
            out.append(("=", None, at))
        pos = m.end()
    return out


def _parse_sequence(tokens, i, length_budget):
    letters = []  # (indices, exp, pos)
    while i < len(tokens):
        kind, value, at = tokens[i]
        if kind in (")", "="):
            break
        if kind == "var":
            indices = tuple(int(p) for p in value[1:].split("_"))
            if any(ix < 1 for ix in indices):
                raise TermSyntaxError("variable indices start at 1", at)
            group = [(indices, 1, at)]
            i += 1
        elif kind == "(":
            group, i = _parse_sequence(tokens, i + 1, length_budget)
            if i >= len(tokens) or tokens[i][0] != ")":
                raise TermSyntaxError("missing closing parenthesis", at)
            if not group:
                raise TermSyntaxError("empty group", at)
            i += 1
        else:
            raise TermSyntaxError(f"misplaced {kind!r}", at)
        # postfix operators bind to the preceding atom/group
        while i < len(tokens) and tokens[i][0] in ("'", "^"):
            kind, value, at = tokens[i]
            if kind == "'":
                group = [(ix, -e, p) for ix, e, p in reversed(group)]
            else:
                if value < 1:
                    raise TermSyntaxError("exponent must be >= 1", at)
                if len(group) * value > length_budget:
                    raise TermSyntaxError("expansion exceeds the length budget", at)
                group = group * value
            i += 1
        letters.extend(group)
        if len(letters) > length_budget:
            raise TermSyntaxError("term exceeds the length budget", tokens[i - 1][2])
    return letters, i


def _max_index(letters) -> int:
    return max((max(ix) for ix, _, _ in letters), default=0)


def _finish(letters, width):
    if not letters:
        raise TermSyntaxError("empty term", 0)
    depths = {len(ix) for ix, _, _ in letters}
    if len(depths) > 1:
        bad = next(p for ix, _, p in letters if len(ix) != len(letters[0][0]))
        raise TermSyntaxError("variables must share one index depth", bad)
    if all(e > 0 for _, e, _ in letters):
        return Word(tuple(Variable(ix, width) for ix, _, _ in letters))
    return InvTerm(tuple((Variable(ix, width), e) for ix, e, _ in letters))


def parse_term(text: str, length_budget: int = DEFAULT_LENGTH_BUDGET):
    """Parse the DSL: juxtaposition is mul, ' is star, ^k repeats, () groups."""
    tokens = _tokenize(text)
    letters, i = _parse_sequence(tokens, 0, length_budget)
    if i != len(tokens):
        raise TermSyntaxError("unexpected trailing input", tokens[i][2])
    return _finish(letters, _max_index(letters))


def parse_identity(text: str, length_budget: int = DEFAULT_LENGTH_BUDGET):
    """Parse "LHS = RHS" into a pair of terms over one alphabet, so that a
    variable name means the same variable on both sides."""
    tokens = _tokenize(text)
    lhs, i = _parse_sequence(tokens, 0, length_budget)
    if i >= len(tokens) or tokens[i][0] != "=":
        raise TermSyntaxError("expected '=' between two terms", len(text))
    rhs, j = _parse_sequence(tokens, i + 1, length_budget)
    if j != len(tokens):
        raise TermSyntaxError("unexpected trailing input", tokens[j][2])
    width = max(_max_index(lhs), _max_index(rhs))
    return _finish(lhs, width), _finish(rhs, width)


def with_width(term, width: int):
    """The same term with every variable over the alphabet X_width, so that
    terms built apart can share their variables."""
    if isinstance(term, Variable):
        return Variable(term.indices, width)
    if isinstance(term, Word):
        return Word(tuple(with_width(v, width) for v in term.letters))
    if isinstance(term, InvTerm):
        return InvTerm(tuple((with_width(v, width), e) for v, e in term.letters))
    if isinstance(term, BlockWord):
        return BlockWord(term.n, term.m, tuple(with_width(b, width) for b in term.blocks))
    if isinstance(term, PowerOf):
        return PowerOf(with_width(term.base, width), term.exponent)
    raise TypeError(f"cannot rewrite {type(term).__name__}")


def format_term(term: Term, length_budget: int = DEFAULT_LENGTH_BUDGET) -> str:
    if isinstance(term, Word):
        return " ".join(v.name for v in term.letters)
    if isinstance(term, InvTerm):
        return " ".join(v.name + ("" if e > 0 else "'") for v, e in term.letters)
    if isinstance(term, BlockWord):
        return format_term(term.flatten(length_budget))
    if isinstance(term, PowerOf):
        return f"({format_term(term.base, length_budget)})^{term.exponent}"
    raise TypeError(f"cannot format {type(term).__name__}")
