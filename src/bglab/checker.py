"""Identity-satisfaction engines, morphism verification, counterexample search.

Substitution enumeration is odometer order over the lexicographically sorted
variable list (first variable most significant), so the first counterexample
is deterministic.  Sampling uses a 64-bit counter-based splitmix generator;
verdicts from sampling never claim "holds".
"""

from __future__ import annotations

import copy
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache
from itertools import islice, product, repeat
from math import prod
from typing import NamedTuple

import numpy as np

from .core import FiniteAlgebra, _check_indices, require_associative
from .errors import BglabError, MapNotTotal, MissingStar, MissingTable
from .terms import (DEFAULT_NODE_BUDGET, InvTerm, PowerOf, Term, Variable, _least_preimage,
                    _levels, _power_exceeds, _power_text, evaluate_batch, flat_kernel,
                    variable_key)

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
NO_COUNTEREXAMPLE = "no_counterexample_found"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 15

# splitmix64's constants as 0-d uint64 arrays: a ufunc takes these as they
# are, where a NumPy or Python scalar is converted anew on every call
_SPLITMIX_GAMMA = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_MIX_STEPS = tuple(np.array(c, dtype=np.uint64) for c in (
    30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))


def default_budget() -> int:
    """The evaluation budget: BGLAB_BUDGET in the environment when it is set
    and not empty, else DEFAULT_BUDGET.  A value that is no integer >= 0 is
    refused with a BglabError naming the variable."""
    raw = os.environ.get("BGLAB_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    if not raw.strip().isdecimal():
        raise BglabError(f"BGLAB_BUDGET must be an integer >= 0, not {raw!r}")
    return int(raw)


@dataclass
class CheckVerdict:
    """The verdict of every engine.  seed is set by the sampler, and so is
    zero_samples: the evaluated samples at which both sides are mul's zero,
    or None when mul has none.  level_sizes and bad_value are set by the
    block-value image check."""

    status: str
    witness: dict[Variable, int] | None = None
    evaluations: int = 0
    seed: int | None = None
    attempted: int | None = None
    note: str = ""
    level_sizes: list[int] | None = None
    bad_value: int | None = None
    zero_samples: int | None = None

    @property
    def ok(self) -> bool:
        return self.status in (HOLDS, NO_COUNTEREXAMPLE)


def _budget(budget: int | None) -> int:
    """budget, or default_budget() when None; a BglabError unless an integer >= 0."""
    if budget is None:
        return default_budget()
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise BglabError(f"the budget argument must be an integer >= 0, not {budget!r}")
    return budget


def _over_budget(work: int, unit: str, budget: int | None, **fields) -> CheckVerdict | None:
    """The budget_exceeded verdict, with the other fields given, when work
    units pass _budget(budget); None within it."""
    budget = _budget(budget)
    if work <= budget:
        return None
    return CheckVerdict(BUDGET_EXCEEDED, attempted=work,
                        note=f"{work} {unit} exceed budget {budget}", **fields)


def check_seed(seed: int) -> None:
    """A sampling seed is a splitmix64 state: it must lie in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")


def _mix64(z, t):
    """splitmix64's output function, in place on z; t is scratch space."""
    s30, m1, s27, m2, s31 = _MIX_STEPS
    np.right_shift(z, s30, out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, m1, out=z)
    np.right_shift(z, s27, out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, m2, out=z)
    np.right_shift(z, s31, out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def _variables_of(*terms: Term) -> list[Variable]:
    out: set[Variable] = set()
    for t in terms:
        out.update(t.variables())
    return sorted(out, key=variable_key)


def _domain_lists(variables, alg, domains):
    full = list(range(alg.size))
    out = []
    for v in variables:
        if domains and v in domains:
            dom = [int(x) for x in domains[v]]
            if not dom:
                raise ValueError(f"empty domain for {v.name}")
            _check_indices(dom, alg.size)
            out.append(dom)
        else:
            out.append(full)
    return out


def _substitution_blocks(variables, doms):
    """Yield (assignment, origin) covering the whole space in odometer order.

    The assignment binds a prefix of variables to scalars and the rest to
    flat index arrays of one block; origin is the odometer position of the
    block's first substitution.
    """
    sizes = [len(d) for d in doms]
    split = len(sizes)
    inner = 1
    while split > 0 and inner * sizes[split - 1] <= _CHUNK:
        inner *= sizes[split - 1]
        split -= 1
    inner_doms = doms[split:]
    inner_sizes = sizes[split:]
    grids = []
    if inner_doms:
        mesh = np.meshgrid(*[np.asarray(d, dtype=np.int64) for d in inner_doms],
                           indexing="ij")
        grids = [g.reshape(-1) for g in mesh]
    origin = 0
    for prefix in product(*[doms[i] for i in range(split)]):
        assign = {}
        for v, value in zip(variables[:split], prefix):
            assign[v] = int(value)
        for v, arr in zip(variables[split:], grids):
            assign[v] = arr
        yield assign, origin
        origin += inner if inner_doms else 1


def _decode_witness(variables, doms, position) -> dict[Variable, int]:
    out = {}
    for v, d in zip(reversed(variables), reversed(doms)):
        position, at = divmod(position, len(d))
        out[v] = d[at]
    return out


def _odometer_scan(alg, terms, domains, budget, mismatch) -> CheckVerdict:
    """Walk every substitution of the terms' variables in odometer order, a
    block at a time.  Past the budget refusal, mismatch() gives the test of
    a block: assign -> its failures as a Boolean array; the first failure
    is the counterexample."""
    variables = _variables_of(*terms)
    doms = _domain_lists(variables, alg, domains)
    space = prod(len(d) for d in doms)
    refused = _over_budget(space, "substitutions", budget)
    if refused is not None:
        return refused
    failures = mismatch()
    done = 0
    for assign, origin in _substitution_blocks(variables, doms):
        bad = np.atleast_1d(failures(assign))
        done += bad.size
        if bad.any():
            at = origin + int(np.argmax(bad))
            return CheckVerdict(COUNTEREXAMPLE,
                                witness=_decode_witness(variables, doms, at),
                                evaluations=done)
    return CheckVerdict(HOLDS, evaluations=done)


def check_identity_exhaustive(alg: FiniteAlgebra, lhs: Term, rhs: Term,
                              domains=None, budget: int | None = None) -> CheckVerdict:
    """Enumerate every substitution; first counterexample in odometer order.
    Equal sides hold with no evaluation, once the domains, the budget and
    the star the scan would need have been checked."""
    if lhs == rhs:
        _domain_lists(_variables_of(lhs), alg, domains)
        _budget(budget)
        if alg.star is None and _inverse_letters(lhs):
            raise MissingStar("term has inverse letters but the algebra has no star")
        return CheckVerdict(HOLDS, evaluations=0, note="syntactic equality")

    def mismatch():
        sides = _side_evaluator(alg, lhs, rhs)
        return lambda assign: np.not_equal(*sides(assign))

    return _odometer_scan(alg, (lhs, rhs), domains, budget, mismatch)


def check_membership_exhaustive(alg: FiniteAlgebra, term: Term, allowed,
                                domains=None, budget: int | None = None) -> CheckVerdict:
    """Check that every substitution value lands in the allowed element set."""
    allowed = [int(x) for x in allowed]
    _check_indices(allowed, alg.size)

    def mismatch():
        mask = np.zeros(alg.size, dtype=bool)
        mask[allowed] = True
        return lambda assign: ~mask[evaluate_batch(term, assign, alg)]

    return _odometer_scan(alg, (term,), domains, budget, mismatch)


def _inverse_letters(term: Term) -> bool:
    while isinstance(term, PowerOf):
        term = term.base
    return isinstance(term, InvTerm) and any(e < 0 for _, e in term.letters)


def _side_evaluator(alg, lhs: Term, rhs: Term):
    """assign -> (lhs values, rhs values).  When one side is PowerOf(the other
    side, k), the other side is evaluated once and its values raised to the
    k-th power, so v = v^2 costs one evaluation of v, not two."""
    power = flat_kernel(alg).power
    if isinstance(rhs, PowerOf) and rhs.base == lhs:
        def sides(assign):
            left = evaluate_batch(lhs, assign, alg)
            return left, power(left, rhs.exponent)
    elif isinstance(lhs, PowerOf) and lhs.base == rhs:
        def sides(assign):
            right = evaluate_batch(rhs, assign, alg)
            return power(right, lhs.exponent), right
    else:
        def sides(assign):
            return evaluate_batch(lhs, assign, alg), evaluate_batch(rhs, assign, alg)
    return sides


class _Draw(NamedTuple):
    """A domain made ready for drawing: k values, gathered from `values`, or
    straight indices 0..k-1 when `values` is None (a whole carrier).  A draw
    is written in `dtype`, the narrowest that holds k - 1, and reduced mod k
    through `mask`, k - 1 as a 0-d uint64, when k is a power of two, and
    through `divisor`, k as a 0-d uint64, otherwise."""
    k: int
    values: np.ndarray | None
    dtype: np.dtype
    mask: np.ndarray | None
    divisor: np.ndarray


def _draw_domains(doms) -> list[_Draw]:
    """Each domain ready for drawing; variables sharing one domain object
    (every whole-carrier variable of _domain_lists) share its _Draw."""
    ready: dict[int, _Draw] = {}
    out = []
    for d in doms:
        if not isinstance(d, _Draw):
            if id(d) not in ready:
                dom = np.asarray(d, dtype=np.int32)
                k = len(dom)
                whole = np.array_equal(dom, np.arange(k))
                mask = np.array(k - 1, dtype=np.uint64) if k & (k - 1) == 0 else None
                ready[id(d)] = _Draw(k, None if whole else dom, np.min_scalar_type(k - 1),
                                     mask, np.array(k, dtype=np.uint64))
            d = ready[id(d)]
        out.append(d)
    return out


class _Draws(Mapping):
    """The sample block that sample_assignments returns."""

    def __init__(self, variables, doms, seed: int, start: int, count: int):
        self._variables = variables
        self._at = {v: j for j, v in enumerate(variables)}
        self._doms = _draw_domains(doms)
        # variable j's z is variable 0's plus j*gamma mod 2^64, one row per j
        self._offsets = (np.arange(len(variables), dtype=np.uint64) * _SPLITMIX_GAMMA)[:, None]
        z0 = np.arange(start, start + count, dtype=np.uint64)
        z0 *= np.uint64(len(variables))
        z0 += np.uint64(1)
        z0 *= _SPLITMIX_GAMMA
        z0 += np.uint64(seed)
        self._z0 = z0
        self._z = np.empty_like(z0)  # scratch, reused by every draw
        self._t = np.empty_like(z0)

    def __getitem__(self, v: Variable) -> np.ndarray:
        j = self._at[v]
        draw = self._doms[j]
        z, t = self._z, self._t
        np.add(self._z0, self._offsets[j], out=z)
        _mix64(z, t)
        x = np.empty(len(z), dtype=draw.dtype)
        if draw.mask is not None:
            # z % k keeps the low bits when k is a power of two
            np.bitwise_and(z, draw.mask, out=x, casting="unsafe")
        else:
            # z % k as z - (z // k) * k: floor_divide by a scalar is much faster
            np.floor_divide(z, draw.divisor, out=t)
            np.multiply(t, draw.divisor, out=t)
            np.subtract(z, t, out=x, casting="unsafe")  # < k, so it fits
        return x if draw.values is None else draw.values[x]

    def __contains__(self, v) -> bool:
        return v in self._at

    def __iter__(self):
        return iter(self._variables)

    def __len__(self) -> int:
        return len(self._variables)

    def narrow(self, kept: np.ndarray) -> "_Draws":
        """The block of the samples at positions `kept` (ascending) of this
        one, for terms._evaluate to drop samples whose value is fixed.  Its
        reads mix only those samples' states, with the same values, in
        prefix views of the scratch buffers."""
        block = copy.copy(self)
        block._z0 = self._z0.take(kept)
        block._z, block._t = self._z[:len(kept)], self._t[:len(kept)]
        return block

    def substitution(self, s: int) -> dict[Variable, int]:
        """Sample s of the block (0-based) as scalars: its V states, sample
        s's z0 plus j*gamma, are mixed in one call, then each is reduced by
        its domain."""
        z = self._offsets[:, 0] + self._z0[s]
        z = _mix64(z, np.empty_like(z)).tolist()
        return {v: int(x % d.k if d.values is None else d.values[x % d.k])
                for v, x, d in zip(self._variables, z, self._doms)}


def sample_assignments(variables, doms, seed: int, start: int, count: int) -> _Draws:
    """Deterministic sample block: variable j of sample s uses counter s*V + j.

    The block is a read-only Mapping that draws a variable's `count` values
    when it is read and keeps no draws, so an evaluator that reads each leaf
    once holds only the arrays it is combining: O(2n*h) chunk-length arrays
    for a v-word of depth h, not V of them.  A letter read twice is drawn
    twice, with the same values.  Equal to splitmix64 on those counters:
    z = seed + (s*V + j + 1) * gamma is variable 0's z plus j*gamma, one add
    per read, and the mixing runs in place in scratch buffers shared by
    every read.  A whole-carrier variable's values are written straight
    into the narrowest index dtype (uint8 up to 256 elements); a restricted
    domain gathers its int32 elements.  The domains may come ready from
    _draw_domains, once for all chunks.  narrow(kept) gives the block of
    the kept samples, so that terms._evaluate draws no more for samples
    whose value is already the zero."""
    return _Draws(variables, doms, seed, start, count)


def check_identity_sampled(alg: FiniteAlgebra, lhs: Term, rhs: Term,
                           samples: int, seed: int, domains=None,
                           budget: int | None = None) -> CheckVerdict:
    """Seeded search; reports a counterexample or no_counterexample_found,
    never "holds".  More samples than the budget are refused before any draw;
    a sample count below 1 or a seed outside [0, 2^64) raises ValueError.
    On a table with a zero, the evaluator stops each sample at the zero
    (terms._absorbing), and zero_samples counts the samples at which both
    sides end there; when that is every sample, the note says so."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    check_seed(seed)
    refused = _over_budget(samples, "samples", budget)
    if refused is not None:
        return refused
    variables = _variables_of(lhs, rhs)
    doms = _draw_domains(_domain_lists(variables, alg, domains))
    sides = _side_evaluator(alg, lhs, rhs)
    zero = flat_kernel(alg).zero
    zeros = None if zero is None else 0
    done = 0
    for start in range(0, samples, _CHUNK):
        count = min(_CHUNK, samples - start)
        draws = sample_assignments(variables, doms, seed, start, count)
        left, right = sides(draws)
        neq = np.atleast_1d(left != right)
        done += neq.size
        if zero is not None:
            zeros += int(np.count_nonzero((left == zero) & (right == zero)))
        if neq.any():
            return CheckVerdict(COUNTEREXAMPLE,
                                witness=draws.substitution(int(np.argmax(neq))),
                                evaluations=done, seed=seed, zero_samples=zeros)
    note = f"all {done} samples ended at the zero on both sides" if zeros == done else ""
    return CheckVerdict(NO_COUNTEREXAMPLE, evaluations=done, seed=seed, note=note,
                        zero_samples=zeros)


def find_identity_violation(alg: FiniteAlgebra, lhs: Term, rhs: Term, generators,
                            budget: int | None = None) -> CheckVerdict:
    """Exhaustive counterexample search that tries a generator set first:
    every domain lists the generators, then the other elements, so the
    reported witness is minimal in that biased order."""
    if not generators:
        raise ValueError("the generator-first search needs a generator set")
    gens = [int(g) for g in generators]
    biased = gens + [x for x in range(alg.size) if x not in set(gens)]
    domains = {v: biased for v in _variables_of(lhs, rhs)}
    return check_identity_exhaustive(alg, lhs, rhs, domains=domains, budget=budget)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class MorphismSpec:
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]
    ops: tuple[str, ...] = ("mul",)


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    failure: tuple[str, tuple[int, ...]] | None
    surjective: bool
    injective: bool


def verify_morphism(spec: MorphismSpec) -> MorphismReport:
    """Check f(x o y) = f(x) o f(y) per requested op, star pointwise."""
    src, dst = spec.source, spec.target
    if len(spec.mapping) != src.size:
        raise MapNotTotal(f"mapping covers {len(spec.mapping)} of {src.size} elements")
    f = np.asarray(spec.mapping, dtype=np.int64)
    if f.min() < 0 or f.max() >= dst.size:
        raise MapNotTotal("mapping hits indices outside the target")
    failure = None
    for op in spec.ops:
        if op in ("mul", "add"):
            s_table = src.mul if op == "mul" else src.add
            t_table = dst.mul if op == "mul" else dst.add
            if s_table is None or t_table is None:
                raise MissingTable(f"{op} table missing on one side")
            lhs = f[s_table]
            rhs = t_table[np.ix_(f, f)]
            neq = lhs != rhs
            if neq.any():
                x, y = np.unravel_index(int(np.argmax(neq)), neq.shape)
                failure = (op, (int(x), int(y)))
                break
        elif op == "star":
            if src.star is None or dst.star is None:
                raise MissingTable("star table missing on one side")
            neq = f[src.star] != dst.star[f]
            if neq.any():
                failure = ("star", (int(np.argmax(neq)),))
                break
        else:
            raise ValueError(f"unknown op {op!r}")
    image = set(int(x) for x in f)
    return MorphismReport(
        ok=failure is None,
        failure=failure,
        surjective=len(image) == dst.size,
        injective=len(image) == src.size,
    )


# ---------------------------------------------------------------------------
# block-value image technique for the v-family square identities


def check_v_square_image(alg: FiniteAlgebra, n: int, m: int, h: int,
                         budget: int | None = None) -> CheckVerdict:
    """Exact check of v = v^2 at depth h via level-by-level image sets
    (valid because sibling blocks use disjoint alphabets, so block values
    vary independently).

    Level l's image is the set of tuple values over block values from level
    l-1's image (the carrier at level 0), found by one sweep over reachable
    pair states (terms._levels), whose layers the witness reads too.  Once
    a level's image equals its block values every deeper level repeats it,
    so at most min(h, size) levels are swept.  The witness, if any, binds
    each block to the lexicographically least preimage of its value,
    bad_value.  A witness of more than terms.DEFAULT_NODE_BUDGET variables,
    the bound v_word puts on the same (2n)^h variables, is not expanded:
    the verdict keeps bad_value and level_sizes, with witness None and a
    note.  The table must be associative, since the sweep multiplies M from
    both ends; past the budget refusal, one that is not is refused by
    core.require_associative, with a BglabError naming the first bad triple.

    level_sizes[l] is the size of the level-l image set (empty when the
    budget refuses); past the last swept level it repeats the last size,
    extended in one call, so the list is h entries (O(h) pointers, since
    its length is part of the verdict) but no Python loop runs over h.
    evaluations is the number of block-value tuples the check decides, the
    sum over levels of k_l^(2n) with k_l the number of block values at
    level l, in closed form over the repeated levels; it is computed, not
    counted, because the pair-state sweep never visits the tuples."""
    if n < 1 or m < 1 or h < 1:
        raise ValueError("need n, m, h >= 1")
    size = alg.size
    # levels x block values x states, summed over the 2n blocks of a sweep,
    # which meet 1, |S|, then at most |S|^2 states each
    work = min(h, size) * size * (1 + size + (2 * n - 2) * size**2)
    refused = _over_budget(work, "pair-state steps", budget, level_sizes=[])
    if refused is not None:
        return refused
    require_associative(alg, "the block-value image check")
    kernel = flat_kernel(alg)
    pair, power = kernel.pair, kernel.power(np.arange(size, dtype=np.intp), 2 * m - 1)
    levels = list(islice(_levels(pair, size, power, n), h))
    past = h - len(levels)  # levels past the last swept one, which repeat it
    top = levels[-1][2]
    level_sizes = [len(image) for _, _, image in levels]
    level_sizes.extend(repeat(len(top), past))
    total = sum(len(vals) ** (2 * n) for vals, _, _ in levels) + past * len(top) ** (2 * n)
    bad = top[pair(top, top) != top]
    if not bad.size:
        return CheckVerdict(HOLDS, evaluations=total, level_sizes=level_sizes)
    bad_value = int(bad[0])
    if _power_exceeds(2 * n, h, DEFAULT_NODE_BUDGET):
        return CheckVerdict(COUNTEREXAMPLE, None, total, level_sizes=level_sizes,
                            bad_value=bad_value,
                            note=f"witness of (2n)^h = {_power_text(2 * n, h)} variables "
                                 f"exceeds node budget {DEFAULT_NODE_BUDGET}; not expanded")

    # one preimage per (swept level, value), read off that level's layers
    swept = cache(lambda at, value: _least_preimage(pair, size, power, *levels[at][:2], n,
                                                    value))
    witness = _expand_witness(lambda level, value: swept(min(level, len(levels) - 1), value),
                              bad_value, n, h)
    return CheckVerdict(COUNTEREXAMPLE, witness, total, level_sizes=level_sizes,
                        bad_value=bad_value)


def _expand_witness(preimage, bad_value, n, h) -> dict[Variable, int]:
    """Unfold block-value preimages into a substitution for the depth-h
    variables; preimage(level, value) gives the 2n block values."""

    def expand(level, value, suffix, out):
        pre = preimage(level, value)
        if level == 0:
            for i, elem in enumerate(pre, start=1):
                out[Variable((i,) + suffix)] = elem
        else:
            for j, child in enumerate(pre, start=1):
                expand(level - 1, child, (j,) + suffix, out)

    out: dict[Variable, int] = {}
    expand(h - 1, bad_value, (), out)
    return out
