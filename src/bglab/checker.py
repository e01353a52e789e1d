"""Identity-satisfaction engines, morphism verification, counterexample search.

Substitution enumeration is odometer order over the lexicographically sorted
variable list (first variable most significant), so the first counterexample
is deterministic.  Sampling uses a 64-bit counter-based splitmix generator;
verdicts from sampling never claim "holds".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np

from .core import FiniteAlgebra, _check_indices
from .errors import MapNotTotal, MissingTable
from .terms import PowerOf, Term, Variable, evaluate_batch, flat_kernel

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
NO_COUNTEREXAMPLE = "no_counterexample_found"
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 15

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def default_budget() -> int:
    """The evaluation budget; BGLAB_BUDGET in the environment overrides it."""
    raw = os.environ.get("BGLAB_BUDGET")
    return int(raw) if raw else DEFAULT_BUDGET


@dataclass
class CheckVerdict:
    status: str
    witness: dict[Variable, int] | None = None
    evaluations: int = 0
    seed: int | None = None
    attempted: int | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (HOLDS, NO_COUNTEREXAMPLE)


def check_seed(seed: int) -> None:
    """A sampling seed is a splitmix64 state: it must lie in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")


def splitmix64(counters: np.ndarray, seed: int) -> np.ndarray:
    """Counter-based splitmix64 output stream for the given seed."""
    z = (np.uint64(seed) + (counters.astype(np.uint64) + np.uint64(1))
         * _SPLITMIX_GAMMA)
    return _mix64(z, np.empty_like(z))


def _mix64(z, t):
    """splitmix64's output function, in place on z; t is scratch space."""
    np.right_shift(z, np.uint64(30), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.right_shift(z, np.uint64(27), out=t)
    np.bitwise_xor(z, t, out=z)
    np.multiply(z, np.uint64(0x94D049BB133111EB), out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def _variables_of(*terms: Term) -> list[Variable]:
    out: set[Variable] = set()
    for t in terms:
        out.update(t.variables())
    return sorted(out)


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


def _substitution_blocks(variables, doms, chunk=_CHUNK):
    """Yield (assignment, origin) covering the whole space in odometer order.

    The assignment binds a prefix of variables to scalars and the rest to
    flat index arrays of one block; origin is the odometer position of the
    block's first substitution.
    """
    sizes = [len(d) for d in doms]
    split = len(sizes)
    inner = 1
    while split > 0 and inner * sizes[split - 1] <= chunk:
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
    budget = default_budget() if budget is None else budget
    variables = _variables_of(*terms)
    doms = _domain_lists(variables, alg, domains)
    space = prod(len(d) for d in doms)
    if space > budget:
        return CheckVerdict(BUDGET_EXCEEDED, attempted=space,
                            note=f"{space} substitutions exceed budget {budget}")
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
    """Enumerate every substitution; first counterexample in odometer order."""
    if lhs == rhs:
        return CheckVerdict(HOLDS, evaluations=0, note="syntactic equality")

    def mismatch():
        sides = _side_evaluator(alg, lhs, rhs)
        return lambda assign: np.not_equal(*sides(assign))

    return _odometer_scan(alg, (lhs, rhs), domains, budget, mismatch)


def check_membership_exhaustive(alg: FiniteAlgebra, term: Term, allowed,
                                domains=None, budget: int | None = None) -> CheckVerdict:
    """Check that every substitution value lands in the allowed element set."""
    def mismatch():
        mask = np.zeros(alg.size, dtype=bool)
        mask[sorted(int(x) for x in allowed)] = True
        return lambda assign: ~mask[evaluate_batch(term, assign, alg)]

    return _odometer_scan(alg, (term,), domains, budget, mismatch)


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
    straight indices 0..k-1 when `values` is None (a whole carrier)."""
    k: int
    values: np.ndarray | None


def _draw_domains(doms) -> list[_Draw]:
    """Each domain ready for drawing; variables sharing one domain object
    (every whole-carrier variable of _domain_lists) share its _Draw."""
    ready: dict[int, _Draw] = {}
    out = []
    for d in doms:
        if not isinstance(d, _Draw):
            if id(d) not in ready:
                dom = np.asarray(d, dtype=np.int32)
                whole = np.array_equal(dom, np.arange(len(dom)))
                ready[id(d)] = _Draw(len(dom), None if whole else dom)
            d = ready[id(d)]
        out.append(d)
    return out


def sample_assignments(variables, doms, seed: int, start: int, count: int):
    """Deterministic sample block: variable j of sample s uses counter s*V + j.

    Equal to splitmix64 on those counters: z = seed + (s*V + j + 1) * gamma
    steps by gamma from one variable to the next, and the mixing runs in
    place in buffers reused for every variable (a single count x V draw is
    slower, being bound by memory bandwidth).  A whole-carrier variable's
    values are written straight into the narrowest index dtype (uint8 up
    to 256 elements); a restricted domain gathers its int32 elements.  The
    domains may come ready from _draw_domains, once for all chunks."""
    V = len(variables)
    z0 = np.arange(start, start + count, dtype=np.uint64)
    z0 *= np.uint64(V)
    z0 += np.uint64(1)
    z0 *= _SPLITMIX_GAMMA
    z0 += np.uint64(seed)
    z = np.empty_like(z0)
    t = np.empty_like(z0)
    out = {}
    for v, (k, values) in zip(variables, _draw_domains(doms)):
        np.copyto(z, z0)
        _mix64(z, t)
        x = np.empty(count, dtype=np.min_scalar_type(k - 1))
        if k & (k - 1) == 0:
            # z % k keeps the low bits when k is a power of two
            np.bitwise_and(z, np.uint64(k - 1), out=x, casting="unsafe")
        else:
            # z % k as z - (z // k) * k: floor_divide by a scalar is much faster
            np.floor_divide(z, np.uint64(k), out=t)
            np.multiply(t, np.uint64(k), out=t)
            np.subtract(z, t, out=x, casting="unsafe")  # < k, so it fits
        out[v] = x if values is None else values[x]
        z0 += _SPLITMIX_GAMMA
    return out


def check_identity_sampled(alg: FiniteAlgebra, lhs: Term, rhs: Term,
                           samples: int, seed: int, domains=None,
                           budget: int | None = None) -> CheckVerdict:
    """Seeded search; reports a counterexample or no_counterexample_found,
    never "holds".  More samples than the budget are refused before any draw;
    a sample count below 1 or a seed outside [0, 2^64) raises ValueError."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    check_seed(seed)
    if budget is None:
        budget = default_budget()
    if samples > budget:
        return CheckVerdict(BUDGET_EXCEEDED, attempted=samples,
                            note=f"{samples} samples exceed budget {budget}")
    variables = _variables_of(lhs, rhs)
    doms = _draw_domains(_domain_lists(variables, alg, domains))
    sides = _side_evaluator(alg, lhs, rhs)
    done = 0
    for start in range(0, samples, _CHUNK):
        count = min(_CHUNK, samples - start)
        assign = None  # release the previous chunk before drawing the next
        assign = sample_assignments(variables, doms, seed, start, count)
        left, right = sides(assign)
        neq = np.atleast_1d(left != right)
        done += neq.size
        if neq.any():
            s = int(np.argmax(neq))
            witness = {v: int(assign[v][s]) for v in variables}
            return CheckVerdict(COUNTEREXAMPLE, witness=witness,
                                evaluations=done, seed=seed)
    return CheckVerdict(NO_COUNTEREXAMPLE, evaluations=done, seed=seed)


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


@dataclass
class ImageCheck:
    """Exact verdict for "depth-h block word = its square" computed from the
    per-level image sets of block values (valid because sibling blocks use
    disjoint alphabets, so block values vary independently).

    level_sizes[l] is the size of the level-l image set.  evaluations is the
    number of block-value tuples the check decides, the sum over levels of
    k_l^(2n) with k_l the number of block values at level l; it is computed,
    not counted, because the pair-state sweep never visits the tuples."""

    status: str
    level_sizes: list[int] = field(default_factory=list)
    evaluations: int = 0
    bad_value: int | None = None
    witness: dict[Variable, int] | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == HOLDS


def _step(pair, size, states, b, i, n):
    """Pair states coded P*size + M after block i (1-based) takes value b:
    P is the product of the blocks so far and M their product in middle
    order bn..b1 b(n+1)..b2n, so block i multiplies M on the left for i <= n
    and on the right after.  Broadcasts over states and b."""
    P, M = np.divmod(states, size)
    M = pair(b, M) if i <= n else pair(M, b)
    return pair(P, b) * size + M


def _forward_states(pair, size, vals, n):
    """The reachable pair states after each of the 2n blocks, block values
    drawn from vals; at most size^2 states per block."""
    layers = [vals * size + vals]
    for i in range(2, 2 * n + 1):
        layers.append(np.unique(_step(pair, size, layers[-1][:, None], vals[None, :], i, n)))
    return layers


def _tuple_values(pair, size, power, states):
    """Value b1..b2n (bn..b1 b(n+1)..b2n)^(2m-1) = P * M^(2m-1) of final
    states; power[M] is M^(2m-1)."""
    P, M = np.divmod(states, size)
    return pair(P, power[M])


def _least_preimage(pair, size, power, vals, layers, n, value) -> tuple[int, ...]:
    """The lexicographically least (b1..b2n) over sorted vals with the given
    tuple value: mark the states that can still reach it, last block first,
    then take the least value that stays on a marked state, block by block."""
    live = [layers[-1][_tuple_values(pair, size, power, layers[-1]) == value]]
    for i in range(2 * n, 1, -1):
        after = _step(pair, size, layers[i - 2][:, None], vals[None, :], i, n)
        live.append(layers[i - 2][np.isin(after, live[-1]).any(axis=1)])
    live.reverse()
    picks = []
    state = None
    for i in range(1, 2 * n + 1):
        after = vals * size + vals if i == 1 else _step(pair, size, state, vals, i, n)
        at = int(np.argmax(np.isin(after, live[i - 1])))
        picks.append(int(vals[at]))
        state = after[at]
    return tuple(picks)


def check_v_square_image(alg: FiniteAlgebra, n: int, m: int, h: int,
                         budget: int | None = None) -> ImageCheck:
    """Exact check of v = v^2 at depth h via level-by-level image sets.

    Level l's image is the set of tuple values over block values from level
    l-1's image (the carrier at level 0), found by a sweep over reachable
    pair states.  Images only shrink with depth, and once a level's image
    equals its block values every deeper level repeats it, so at most
    min(h, size) levels are swept.  The witness, if any, binds each block to
    the lexicographically least preimage of its value.  The table must be
    associative, since the sweep multiplies M from both ends."""
    if n < 1 or m < 1 or h < 1:
        raise ValueError("need n, m, h >= 1")
    size = alg.size
    if budget is None:
        budget = default_budget()
    # states x block values per block, over the 2n blocks of every sweep
    work = min(h, size) * size * sum(size ** min(i, 2) for i in range(2 * n))
    if work > budget:
        return ImageCheck(BUDGET_EXCEEDED,
                          note=f"{work} pair-state steps exceed budget {budget}")
    size = np.intp(size)  # state codes P*size + M are computed in np.intp
    kernel = flat_kernel(alg)
    pair = kernel.pair
    carrier = np.arange(size, dtype=np.intp)
    power = kernel.power(carrier, 2 * m - 1)
    inputs = [carrier]  # block values of level l; inputs[l + 1] is its image
    while len(inputs) <= h:
        final = _forward_states(pair, size, inputs[-1], n)[-1]
        image = np.unique(_tuple_values(pair, size, power, final))
        if np.array_equal(image, inputs[-1]):
            break
        inputs.append(image)
    last = len(inputs) - 1
    level_sizes = [len(inputs[min(level + 1, last)]) for level in range(h)]
    total = sum(len(inputs[min(level, last)]) ** (2 * n) for level in range(h))
    top = inputs[min(h, last)]
    bad = top[pair(top, top) != top]
    if not bad.size:
        return ImageCheck(HOLDS, level_sizes, total)
    bad_value = int(bad[0])

    @cache
    def preimage(level, value):
        at = min(level, last)
        layers = _forward_states(pair, size, inputs[at], n)
        return _least_preimage(pair, size, power, inputs[at], layers, n, value)

    witness = _expand_witness(preimage, bad_value, n, h)
    return ImageCheck(COUNTEREXAMPLE, level_sizes, total, bad_value=bad_value,
                      witness=witness)


def _expand_witness(preimage, bad_value, n, h) -> dict[Variable, int]:
    """Unfold block-value preimages into a substitution for the depth-h
    variables; preimage(level, value) gives the 2n block values."""
    width = 2 * n

    def expand(level, value, suffix, out):
        pre = preimage(level, value)
        if level == 0:
            for i, elem in enumerate(pre, start=1):
                out[Variable((i,) + suffix, width)] = elem
        else:
            for j, child in enumerate(pre, start=1):
                expand(level - 1, child, (j,) + suffix, out)

    out: dict[Variable, int] = {}
    expand(h - 1, bad_value, (), out)
    return out
