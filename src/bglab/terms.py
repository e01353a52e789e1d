"""Words, involution terms, the recursive block-word family, and evaluators.

Variables are index tuples (i1..ih) of positive entries; ordering for
substitution enumeration is lexicographic on the tuples.  Block words keep
the recursive shape (2n leading blocks, then a middle group repeated 2m-1
times) so evaluation never needs the flat word; flattening is available up
to a length budget.  A block-word node is its parameters (n, m, depth,
suffix) and builds its blocks only when an evaluator, variables() or
flatten reads them, so the image engine, which needs (n, m, h) alone,
builds no word.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .core import mul_violation, mul_zero
from .errors import LengthBudgetExceeded, MissingStar, TermSyntaxError

DEFAULT_LENGTH_BUDGET = 10**6
DEFAULT_NODE_BUDGET = 1 << 20

# Cells of the block-node tables of one (n, m), charged before each gather;
# a node over the cap keeps the fold.  It also keeps every table index
# below 2^31, so the tables hold int32.
_BLOCK_TABLE_CELLS = 1 << 22

# CPython's str() refuses ints of more digits than this
_STR_DIGITS = 4300

# A node narrows its sample block once at least 1/_NARROW_SHARE of the
# samples left are at the zero.  Narrowing costs a few passes over the
# block (the gathers and the final scatter), so it pays only once enough
# samples are dead: narrowing whenever one had died made power(S3)'s
# sampled v(1,3,3), about 3 % dead per block, 1.8-2.3 times as slow as no
# narrowing, and this share made it neither faster nor slower, while a06's
# runs kept their gain (2-vCPU Xeon).
_NARROW_SHARE = 4


def _power_exceeds(base: int, h: int, budget: int) -> bool:
    """base^h > budget for base >= 2, with no huge power built: past
    budget's bit length, 2^h alone already exceeds it."""
    return h > budget.bit_length() or base**h > budget


def _power_text(base: int, h: int) -> str:
    """base^h in decimal wherever str() can print it, else "about 10^d"."""
    digits = h * math.log10(base)
    return str(base**h) if digits < _STR_DIGITS else f"about 10^{int(digits)}"


@dataclass(frozen=True, order=True)
class Variable:
    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("depth must be at least 1")
        if min(self.indices) < 1:
            raise ValueError(f"indices {self.indices} must be positive")

    @property
    def depth(self) -> int:
        return len(self.indices)

    @property
    def name(self) -> str:
        if len(self.indices) == 1:
            return f"x{self.indices[0]}"
        return "x" + "_".join(str(i) for i in self.indices)


def variable_key(var: Variable):
    """The key of Variable's order, its indices, for sorting without the
    dataclass's Python-level comparisons."""
    return var.indices


def _check_homogeneous(variables: Iterable[Variable]):
    if len({v.depth for v in variables}) > 1:
        raise ValueError("letters must share one depth")


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
    def depth(self) -> int:
        return self.letters[0].depth

    def variables(self) -> list[Variable]:
        return sorted(set(self.letters), key=variable_key)


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
    def depth(self) -> int:
        return self.letters[0][0].depth

    def variables(self) -> list[Variable]:
        return sorted(set(v for v, _ in self.letters), key=variable_key)

    def inverse(self) -> "InvTerm":
        # (uv)^-1 = v^-1 u^-1, applied letter-wise
        return InvTerm(tuple((v, -e) for v, e in reversed(self.letters)))


@dataclass(frozen=True)
class BlockWord:
    """Recursive word: blocks b1..b2n, then (bn..b1 b(n+1)..b2n)^(2m-1).

    A node is its parameters: the node of v(n, m, h) at the given depth
    whose ancestors appended `suffix` to every index tuple.  Its 2n blocks
    are built on first read, so equality, hashing and the image engine read
    the four fields alone."""

    n: int
    m: int
    depth: int
    suffix: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.depth < 1:
            raise ValueError("n, m and depth must be positive")
        if _power_exceeds(2 * self.n, self.depth, DEFAULT_NODE_BUDGET):
            raise LengthBudgetExceeded(
                f"(2n)^h = {_power_text(2 * self.n, self.depth)} block nodes "
                f"exceed budget {DEFAULT_NODE_BUDGET}")

    @cached_property
    def blocks(self) -> tuple:
        """The 2n children, Variables at depth 1; copy j of a deeper node
        prepends j to its suffix.  A frozen dataclass admits the cache,
        since cached_property writes the instance __dict__ directly."""
        indices = range(1, 2 * self.n + 1)
        if self.depth == 1:
            return tuple(Variable((i,) + self.suffix) for i in indices)
        return tuple(BlockWord(self.n, self.m, self.depth - 1, (j,) + self.suffix)
                     for j in indices)

    def flatten(self, length_budget: int = DEFAULT_LENGTH_BUDGET) -> Word:
        base = 4 * self.n * self.m
        if _power_exceeds(base, self.depth, length_budget):
            raise LengthBudgetExceeded(f"flat length {_power_text(base, self.depth)} "
                                       f"exceeds budget {length_budget}")
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
        return list(self._variables)

    @cached_property
    def _variables(self) -> tuple[Variable, ...]:
        out = set()
        stack = [self]
        while stack:
            node = stack.pop()
            for b in node.blocks:
                if isinstance(b, Variable):
                    out.add(b)
                else:
                    stack.append(b)
        return tuple(sorted(out, key=variable_key))


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


# Every v_word(n, m, h) that some caller still holds, so that the two sides
# of v = v^2 share one object and its cached variables; an entry dies with
# the last reference to its word.
_V_WORDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def v_word(n: int, m: int, h: int) -> BlockWord:
    """The depth-h block word over X_{2n}: at depth 1 it is
    x1..x2n (xn..x1 x(n+1)..x2n)^(2m-1); deeper levels repeat the shape on
    2n renamed copies of the previous level, copy j appending j to every
    index tuple.  Refused past DEFAULT_NODE_BUDGET block nodes before any
    is built; each node builds its blocks on first read, and the word is
    shared while held."""
    if n < 1 or m < 1 or h < 1:
        raise ValueError("v_word needs n, m, h >= 1")
    word = _V_WORDS.get((n, m, h))
    if word is None:
        word = _V_WORDS[n, m, h] = BlockWord(n, m, h)
    return word


def u_word(n: int, k: int, m: int) -> Word:
    """x1..x(n+k) (xn..x1 x(n+1)..x(n+k))^(2m-1) over a depth-1 alphabet,
    refused past DEFAULT_LENGTH_BUDGET letters before any is built."""
    if n < 0 or k < 0 or n + k < 1 or m < 1:
        raise ValueError("u_word needs n, k >= 0 with n + k > 0 and m >= 1")
    length = 2 * m * (n + k)
    if length > DEFAULT_LENGTH_BUDGET:
        raise LengthBudgetExceeded(
            f"length {_power_text(length, 1)} exceeds budget {DEFAULT_LENGTH_BUDGET}")
    x = [Variable((i,)) for i in range(1, n + k + 1)]
    middle = x[n - 1 :: -1] + x[n:] if n > 0 else x[:]
    letters = x + middle * (2 * m - 1)
    return Word(tuple(letters))


def w_word(n: int, h: int, length_budget: int = DEFAULT_LENGTH_BUDGET) -> InvTerm:
    """Depth-h involution term: x1..xn x1^-1..xn^-1 at depth 1, then
    b1..bn b1^-1..bn^-1 on renamed copies; inverses flatten letter-wise."""
    if n < 1 or h < 1:
        raise ValueError("w_word needs n, h >= 1")
    if _power_exceeds(2 * n, h, length_budget):
        raise LengthBudgetExceeded(
            f"length {_power_text(2 * n, h)} exceeds budget {length_budget}")
    xs = [Variable((i,)) for i in range(1, n + 1)]
    term = InvTerm(tuple((x, 1) for x in xs) + tuple((x, -1) for x in xs))
    for _ in range(h - 1):
        blocks = [
            InvTerm(tuple((Variable(v.indices + (j,)), e) for v, e in term.letters))
            for j in range(1, n + 1)
        ]
        letters = []
        for b in blocks:
            letters.extend(b.letters)
        for b in blocks:
            letters.extend(b.inverse().letters)
        term = InvTerm(tuple(letters))
    return term


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
    or None when the algebra has no star.  block(n, m) is the
    _block_tables of v-word nodes (n, m), whose lookups go through
    step(off, b, table) and last(off, b, table), or None to fold, as on
    any table that core.mul_violation, through the algebra's memo of mul,
    finds not associative.  zero is mul's two-sided zero (core.mul_zero),
    or None to evaluate every sample of a block to the end."""

    pair: Callable
    star: Callable | None
    lift: Callable
    step: Callable
    last: Callable
    power: Callable
    block: Callable
    zero: int | None


def flat_kernel(alg) -> Kernel:
    """Vectorised lookups over index arrays (or scalars), built once per
    algebra object and kept in its record (see core.FiniteAlgebra); the
    closures hold the tables and the record's memo of mul, never the
    algebra.  An offset is a*size, the start of row a in
    mul.reshape(-1), so each product of a fold is one add and one take, and
    rows = mul*size gives the next offset directly.  Offsets are int32 while
    size^2 < 2^31 and np.intp beyond; products keep the table's int32.
    power(x, e) is one take from the table of e-th powers, built on first
    use.  pair(a, b) indexes in np.intp, for the image engine's state codes.
    On an associative table, block(n, m) builds the node tables of (n, m)
    on first use; associativity is read through the memo
    (core.mul_violation), so it is decided once for the algebra, its
    reduct and core.validate; so is its zero (core.mul_zero).  Tables are
    read-only (core._as_table clears their write flag), so a kernel never
    goes stale."""
    facts = alg._facts
    if "kernel" not in facts:
        facts["kernel"] = _flat_kernel(alg.mul, alg.star, facts["mul"])
    return facts["kernel"]


def _flat_kernel(mul, star, memo) -> Kernel:
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

    def step(off, b, table=rows):
        return table.take(np.add(off, b, dtype=offset))

    def last(off, b, table=flat):
        return table.take(np.add(off, b, dtype=offset))

    carrier = np.arange(size, dtype=np.intp)
    powers = {}

    def power(x, e):
        if e == 1:
            return x
        table = powers.get(e)
        if table is None:
            table = powers[e] = _pow_fold(carrier, e, pair)
        return table.take(x)

    blocks = {}

    def block(n, m):
        if (n, m) not in blocks:
            blocks[n, m] = (_block_tables(pair, size, power(carrier, 2 * m - 1), n)
                            if mul_violation(memo, mul) is None else None)
        return blocks[n, m]

    return Kernel(pair, None if star is None else star.take, lift, step, last, power,
                  block, mul_zero(memo, mul))


# ---------------------------------------------------------------------------
# pair states: the image engine's levels and witness, and the block-node tables


def _step(pair, size, states, b, i, n):
    """Pair states coded P*size + M, in np.intp, after block i (1-based)
    takes value b: P is the product of the blocks so far and M their
    product in middle order bn..b1 b(n+1)..b2n, so block i multiplies M on
    the left for i <= n and on the right after.  Broadcasts over states
    and b."""
    P, M = np.divmod(states, size)
    M = pair(b, M) if i <= n else pair(M, b)
    return pair(P, b) * np.intp(size) + M


def _tuple_values(pair, size, power, states):
    """Value b1..b2n (bn..b1 b(n+1)..b2n)^(2m-1) = P * M^(2m-1) of final
    states; power[M] is M^(2m-1)."""
    P, M = np.divmod(states, size)
    return pair(P, power[M])


def _marks(cells, at):
    """A Boolean mask of `cells` cells, True at the indices `at`."""
    mask = np.zeros(cells, dtype=bool)
    mask[at] = True
    return mask


def _advance(pair, size, states, vals, i, n):
    """Block i of a sweep: every state of `states` takes every value of
    vals.  Returns after, the |states| x |vals| states reached, and the
    distinct ones in ascending order, read off a mask over the codes."""
    after = _step(pair, size, states[:, None], vals[None, :], i, n)
    return after, np.flatnonzero(_marks(size * size, after))


def _forward_states(pair, size, vals, n):
    """The reachable pair states after each of the 2n blocks, block values
    drawn from vals (np.intp, ascending); at most size^2 states per block."""
    layers = [vals * size + vals]
    for i in range(2, 2 * n + 1):
        layers.append(_advance(pair, size, layers[-1], vals, i, n)[1])
    return layers


def _levels(pair, size, power, n):
    """The image engine's levels, each swept once, as (block values, their
    _forward_states layers, image), from the carrier at level 0.  An image,
    the tuple values off the last layer, distinct and ascending in a mask
    (np.unique would sort them, and in numpy 2 imports numpy.ma), is the
    next level's block values.  Images only shrink, so the levels stop,
    after at most size, at the first whose image equals its values."""
    vals = np.arange(size, dtype=np.intp)
    while True:
        layers = _forward_states(pair, size, vals, n)
        image = np.flatnonzero(_marks(size, _tuple_values(pair, size, power, layers[-1])))
        yield vals, layers, image
        if np.array_equal(image, vals):
            return
        vals = image


def _least_preimage(pair, size, power, vals, layers, n, value) -> tuple[int, ...]:
    """The lexicographically least (b1..b2n) over vals with the given tuple
    value: mark the states of each layer of _forward_states that can still
    reach it in a mask over the codes, last block first, then take the
    least value that lands on a marked state, block by block."""
    final = layers[-1]
    masks = [_marks(size * size, final[_tuple_values(pair, size, power, final) == value])]
    for i in range(2 * n, 1, -1):
        states = layers[i - 2]
        after = _step(pair, size, states[:, None], vals[None, :], i, n)
        masks.insert(0, _marks(size * size, states[masks[0][after].any(axis=1)]))
    picks = []
    for i, live in enumerate(masks, start=1):
        after = layers[0] if i == 1 else _step(pair, size, after[at], vals, i, n)
        at = int(np.argmax(live[after]))
        picks.append(int(vals[at]))
    return tuple(picks)


def _block_tables(pair, size, power, n):
    """Tables that evaluate a v-word node of an associative table in n + 1
    lookups, or None once they would pass _BLOCK_TABLE_CELLS.

    The node's value is (L R)(L' R)^(2m-1), where L = b1..bn, L' = bn..b1
    and R = b(n+1)..b2n, so the evaluator walks the reachable left pair
    states (L, L') of _step and multiplies R in once.  The state after
    block 1 is coded b1, and each later one by its rank among the states
    reached.  steps[i - 2] maps code*size + b(i) to the code of the next
    state times size, pre-scaled like rows; values maps code*size + R to
    the node's value, power[x] being x^(2m-1)."""
    carrier = np.arange(size, dtype=np.intp)
    states = carrier * size + carrier
    steps = []
    cells = 0
    for i in range(2, n + 1):
        cells += len(states) * size
        if cells > _BLOCK_TABLE_CELLS:
            return None
        after, states = _advance(pair, size, states, carrier, i, n)
        steps.append(np.multiply(np.searchsorted(states, after), size,
                                 dtype=np.int32).reshape(-1))
    cells += len(states) * size
    if cells > _BLOCK_TABLE_CELLS:
        return None
    # R enters as one block on the right, as block n + 1 would
    final = _step(pair, size, states[:, None], carrier[None, :], n + 1, n)
    return steps, _tuple_values(pair, size, power, final).reshape(-1)


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
        power=lambda x, e: _pow_fold(x, e, pair), block=lambda n, m: None, zero=None))


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
        if term.depth == 1:
            return _node_value(term, [sub[b] for b in term.blocks], kernel)
        if kernel.zero is not None and hasattr(sub, "narrow"):
            return _absorbing(term, sub, kernel)
        return _node_value(term, [_evaluate(b, sub, kernel) for b in term.blocks], kernel)
    if isinstance(term, PowerOf):
        return kernel.power(_evaluate(term.base, sub, kernel), term.exponent)
    raise TypeError(f"cannot evaluate {type(term).__name__}")


def _node_value(term: BlockWord, vals, kernel: Kernel):
    """The value of a block word node from the values of its 2n blocks."""
    n, m = term.n, term.m
    tables = kernel.block(n, m)
    if tables is not None:
        steps, values = tables
        off = kernel.lift(vals[0])
        for table, b in zip(steps, vals[1:n]):
            off = kernel.step(off, b, table)
        return kernel.last(off, _product(vals[n:], kernel), values)
    prefix = _fold(vals, kernel)
    middle = _product(vals[n - 1 :: -1] + vals[n:], kernel)
    return kernel.last(prefix, kernel.power(middle, 2 * m - 1))


def _absorbing(term: BlockWord, sub, kernel: Kernel):
    """_evaluate of a node whose blocks are block words, on a sample block
    that can narrow (checker._Draws.narrow), for a table with a zero.  A
    zero factor makes the node the zero under any bracketing, associative
    or not.  So after each block but the last, once at least
    1/_NARROW_SHARE of the samples left are at the zero, those are dropped
    and later blocks are evaluated on the rest only.  The node's value on
    the survivors is scattered into a full-length array of zeros in the
    table's dtype, which every block word's value has."""
    zero = kernel.zero
    first = _evaluate(term.blocks[0], sub, kernel)
    vals = [first]
    kept = None  # positions of the samples left in the node's block, None for all
    live = None  # which of the samples left no block has put at the zero
    for b in term.blocks[1:]:
        now = vals[-1] != zero
        live = now if live is None else np.logical_and(live, now, out=live)
        if (live.size - np.count_nonzero(live)) * _NARROW_SHARE >= live.size:
            at = np.flatnonzero(live)
            kept = at if kept is None else kept.take(at)
            if not kept.size:
                return np.full(len(first), zero, dtype=first.dtype)
            vals = [v.take(at) for v in vals]
            sub = sub.narrow(at)
            live = None
        vals.append(_evaluate(b, sub, kernel))
    value = _node_value(term, vals, kernel)
    if kept is None:
        return value
    out = np.full(len(first), zero, dtype=first.dtype)
    out[kept] = value
    return out


def evaluate_batch(term: Term, sub: Mapping[Variable, np.ndarray], alg) -> np.ndarray:
    """Vectorized evaluate: every variable is bound to an index vector (or a
    scalar); lookups go through flat_kernel."""
    return _evaluate(term, sub, flat_kernel(alg))


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


def _parse_sequence(tokens, i):
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
            group, i = _parse_sequence(tokens, i + 1)
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
                if len(group) * value > DEFAULT_LENGTH_BUDGET:
                    raise TermSyntaxError("expansion exceeds the length budget", at)
                group = group * value
            i += 1
        letters.extend(group)
        if len(letters) > DEFAULT_LENGTH_BUDGET:
            raise TermSyntaxError("term exceeds the length budget", tokens[i - 1][2])
    return letters, i


def _finish(letters):
    if not letters:
        raise TermSyntaxError("empty term", 0)
    depths = {len(ix) for ix, _, _ in letters}
    if len(depths) > 1:
        bad = next(p for ix, _, p in letters if len(ix) != len(letters[0][0]))
        raise TermSyntaxError("variables must share one index depth", bad)
    if all(e > 0 for _, e, _ in letters):
        return Word(tuple(Variable(ix) for ix, _, _ in letters))
    return InvTerm(tuple((Variable(ix), e) for ix, e, _ in letters))


def parse_term(text: str):
    """Parse the DSL: juxtaposition is mul, ' is star, ^k repeats, () groups."""
    tokens = _tokenize(text)
    letters, i = _parse_sequence(tokens, 0)
    if i != len(tokens):
        raise TermSyntaxError("unexpected trailing input", tokens[i][2])
    return _finish(letters)


def parse_identity(text: str):
    """Parse "LHS = RHS" into a pair of terms."""
    tokens = _tokenize(text)
    lhs, i = _parse_sequence(tokens, 0)
    if i >= len(tokens) or tokens[i][0] != "=":
        raise TermSyntaxError("expected '=' between two terms", len(text))
    rhs, j = _parse_sequence(tokens, i + 1)
    if j != len(tokens):
        raise TermSyntaxError("unexpected trailing input", tokens[j][2])
    return _finish(lhs), _finish(rhs)


def format_term(term: Term) -> str:
    if isinstance(term, Word):
        return " ".join(v.name for v in term.letters)
    if isinstance(term, InvTerm):
        return " ".join(v.name + ("" if e > 0 else "'") for v, e in term.letters)
    if isinstance(term, BlockWord):
        return format_term(term.flatten())
    if isinstance(term, PowerOf):
        return f"({format_term(term.base)})^{term.exponent}"
    raise TypeError(f"cannot format {type(term).__name__}")
