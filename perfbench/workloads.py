"""Inputs, ops and correctness checks of the three workloads.

Everything here runs in a child process with bglab importable.  Inputs come
only from the workload seed; the algebras reach bglab as JSON files, the way
a CLI user hands them over.

Why these workloads:
  suite-full      `verify-suite --profile full`, one fresh process per run of
                  the suite; about 90 % of its time is in checker/terms (a06).
  check-stream    many short `check` requests: per-call set-up, early exit and
                  the witness path matter, where suite-full is bulk throughput.
  analyze-stream  the `analyze` call sequence over small corpus tables and a
                  few large carriers: core validators and analysis, no checker.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

# bglab functions are reached through their modules (core.validate, not
# validate) so that the tracer's wrappers see these calls too.
from bglab import analysis, checker, cli, constructions as C, core, corpus, terms
from bglab.errors import BglabError

GOLDEN = Path(__file__).resolve().parent / "golden"


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def run_cli(argv) -> tuple[int, str, str]:
    """One in-process CLI call; returns (exit code, stdout, stderr).

    An exception escaping the CLI is a crash a user would see; it becomes
    exit code -1 with the exception in stderr, and the op counts as failed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as ex:  # noqa: BLE001 (reported as a failed op)
            rc = -1
            print(f"crash: {type(ex).__name__}: {ex}", file=sys.stderr)
    return rc, out.getvalue(), err.getvalue()


def load_golden(name: str) -> dict:
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# suite-full


def check_suite_report(report: dict, golden: dict) -> list[str]:
    """Every mandatory check passes, a08b stays red, and status, evaluations
    and detail of every check equal the recorded run."""
    errors = []
    got = {c["id"]: c for c in report["checks"]}
    if set(got) != set(golden):
        errors.append(f"check ids differ: {sorted(set(got) ^ set(golden))}")
    for cid, want in golden.items():
        c = got.get(cid)
        if c is None:
            continue
        if c["mandatory"] and c["status"] != "pass":
            errors.append(f"{cid}: mandatory check failed: {c['detail']}")
        if cid == "a08b-hall-star" and c["status"] != "fail":
            errors.append("a08b-hall-star is no longer red")
        for key in ("status", "evaluations", "detail"):
            if c[key] != want[key]:
                errors.append(f"{cid}: {key} {c[key]!r} != recorded {want[key]!r}")
    return errors


# ---------------------------------------------------------------------------
# the algebras, by name

CONSTRUCTIONS = {
    "b21": lambda: C.brandt_monoid_b21(),
    "b2": lambda: C.brandt_semigroup(C.cyclic_group(1), 2),
    "b3": lambda: C.brandt_semigroup(C.cyclic_group(1), 3),
    "bz2": lambda: C.brandt_semigroup(C.cyclic_group(2), 2),
    "bs3_2": lambda: C.brandt_semigroup(C.symmetric_group(3), 2),
    "bs3_3": lambda: C.brandt_semigroup(C.symmetric_group(3), 3),
    "ps3": lambda: C.power_semiring(C.symmetric_group(3)),
    "s3": lambda: C.symmetric_group(3),
    "s4": lambda: C.symmetric_group(4),
    "s5": lambda: C.symmetric_group(5),
    "d5": lambda: C.dihedral_group(5),
    "hall2": lambda: C.hall_semiring(2),
    "kad21": lambda: C.kadourek_semigroup(2, 1)[0],
    "powc7": lambda: C.power_semiring(C.cyclic_group(7)),
    "bd4_4": lambda: C.brandt_semigroup(C.dihedral_group(4), 4),
    "bs3_5": lambda: C.brandt_semigroup(C.symmetric_group(3), 5),
}

# ---------------------------------------------------------------------------
# check-stream

CHECK_POOL = ("b21", "b2", "b3", "bz2", "bs3_2", "ps3", "s3", "hall2", "kad21")
BLOCK_POOL = ("b21", "b2", "b3", "bz2", "s3", "hall2")  # carriers of <= 12 elements

EXHAUSTIVE_IDENTITIES = [
    "x1 x1 = x1", "x1^2 = x1^3", "x1^2 = x1^4", "x1^3 = x1^5", "x1^4 = x1^8",
    "x1^6 = x1^12", "x1 x2 = x2 x1", "x1 x2 x1 = x1 x2", "x1 x2 x1 = x1 x2 x1 x2 x1",
    "x1^2 x2^2 = x2^2 x1^2", "(x1 x2)^2 = (x2 x1)^2", "x1 x2 x2 = x1 x2",
    "x1^2 x2 = x2 x1^2", "(x1 x2)^6 = (x1 x2)^12", "x1 x2 x3 = x1 x3 x2",
    "x1 x2 x3 x1 = x1 x3 x2 x1", "x1 x2 x1 x3 x1 = x1 x3 x1 x2 x1",
    "(x1 x2 x3)^2 = (x1 x3 x2)^2", "x1^2 x2 x3^2 = x3^2 x2 x1^2",
    "v[1,1,1] = v[1,1,1]^2", "v[1,2,1] = v[1,2,1]^2", "u[1,1,1] = u[1,1,1]^2",
]
# No star (') identities: exhaustive checks of them crash in evaluate_batch
# (int() of a star-table lookup on an index vector), so they would fail every
# run.  Star terms appear only as refusals on algebras without a star.
SAMPLED_PARAMS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (1, 1, 3),
                  (2, 2, 2), (1, 3, 3)]
SAMPLE_COUNTS = (1000, 3000, 10000)
SAMPLE_SEEDS = (1, 2)
BLOCK_PARAMS = [(1, 1, 1), (1, 2, 2), (2, 1, 1), (2, 2, 3), (1, 4, 5), (2, 4, 5),
                (1, 1, 3), (2, 3, 2)]


@dataclass(frozen=True)
class CheckRequest:
    kind: str                 # exhaustive | sampled | block | refusal
    alg: str
    identity: str
    mode: str = "exhaustive"  # the engine: exhaustive | sampled | block
    samples: int = 0
    seed: int = 0
    budget: int | None = None

    @property
    def key(self) -> str:
        return "|".join(str(x) for x in (self.alg, self.identity, self.mode,
                                          self.samples, self.seed, self.budget))


# Each must be refused: a budget_exceeded verdict, or a typed error raised
# before any search (the errors the CLI turns into exit code 2).
REFUSALS = [
    CheckRequest("refusal", "ps3", "x1 x2 x3 = x1 x3 x2", budget=1000),
    CheckRequest("refusal", "kad21", "x1 x2 = x2 x1", budget=100),
    CheckRequest("refusal", "bs3_2", "x1 x2 x3 = x3 x2 x1", budget=5000),
    CheckRequest("refusal", "b21", "v[2,2,3] = v[2,2,3]^2"),
    CheckRequest("refusal", "b21", "v[20,1,5] = v[20,1,5]^2", mode="block"),
    CheckRequest("refusal", "b21", "x1 x0 = x1"),
    CheckRequest("refusal", "s3", "x1 (x2 = x2"),
    CheckRequest("refusal", "b2", "x1 x2"),
    CheckRequest("refusal", "hall2", "x1 + x2 = x2 x1"),
    CheckRequest("refusal", "bz2", "x1^0 = x1"),
    CheckRequest("refusal", "s3", "x1 x1' x1 = x1"),
    CheckRequest("refusal", "ps3", "x1' x1 = x1 x1'"),
]
REFUSED = (BglabError, ValueError)
# Copies of each catalogue entry in one pass.  Every seed runs the same
# multiset, about 5 % of it refusals, in its own order: percentiles then
# compare across seeds instead of following which templates a seed drew.
CHECK_COPIES = {"exhaustive": 2, "sampled": 1, "block": 6, "refusal": 5}


def check_templates() -> dict[str, list[CheckRequest]]:
    """The finite catalogue check-stream passes are built from, by kind."""
    out: dict[str, list[CheckRequest]] = {k: [] for k in CHECK_COPIES}
    for alg in CHECK_POOL:
        out["exhaustive"] += [CheckRequest("exhaustive", alg, i)
                              for i in EXHAUSTIVE_IDENTITIES]
        for (n, m, h) in SAMPLED_PARAMS:
            for samples in SAMPLE_COUNTS:
                for seed in SAMPLE_SEEDS:
                    out["sampled"].append(CheckRequest(
                        "sampled", alg, f"v[{n},{m},{h}] = v[{n},{m},{h}]^2",
                        "sampled", samples, seed))
    for alg in BLOCK_POOL:
        for (n, m, h) in BLOCK_PARAMS:
            out["block"].append(CheckRequest(
                "block", alg, f"v[{n},{m},{h}] = v[{n},{m},{h}]^2", "block"))
    out["refusal"] = list(REFUSALS)
    return out


_FAMILY = re.compile(r"^\s*([vuw])\[(\d+(?:\s*,\s*\d+)*)\]\s*(?:\^(\d+))?\s*$")


def _family(m):
    params = [int(x) for x in m.group(2).split(",")]
    base = {"v": terms.v_word, "u": terms.u_word, "w": terms.w_word}[m.group(1)](*params)
    return terms.PowerOf(base, int(m.group(3))) if m.group(3) else base


def parse_identity(text: str):
    """DSL text, or word-family shorthand v[n,m,h] / u[n,k,m] / w[n,h] (^k)."""
    matches = [_FAMILY.match(side) for side in text.split("=", 1)]
    if len(matches) == 2 and all(matches):
        return tuple(_family(m) for m in matches)
    return terms.parse_identity(text)


def check_op(req: CheckRequest, alg):
    """One check request as the library serves it: parse, then one engine.
    Returns (lhs, rhs, verdict) or (None, None, refusal error)."""
    try:
        lhs, rhs = parse_identity(req.identity)
        if req.mode == "exhaustive":
            verdict = checker.check_identity_exhaustive(alg, lhs, rhs, budget=req.budget)
        elif req.mode == "sampled":
            verdict = checker.check_identity_sampled(alg, lhs, rhs, samples=req.samples,
                                                     seed=req.seed)
        else:
            verdict = checker.check_v_square_image(alg, lhs.n, lhs.m, lhs.depth)
        return lhs, rhs, verdict
    except REFUSED as ex:
        return None, None, ex


def check_record(outcome) -> dict:
    """What the digest covers: verdict, witness, evaluations, level sizes."""
    _lhs, _rhs, res = outcome
    if isinstance(res, Exception):
        return {"refused": type(res).__name__, "message": str(res)}
    return {"status": res.status, "evaluations": res.evaluations,
            "witness": sorted((v.name, x) for v, x in (res.witness or {}).items()),
            "level_sizes": getattr(res, "level_sizes", None)}


def check_problem(alg, req: CheckRequest, outcome) -> str | None:
    """Checks one result beyond its digest: the verdict fits the request,
    complete scans count every substitution, and every counterexample
    witness re-evaluates to an inequality with scalar terms.evaluate."""
    lhs, rhs, res = outcome
    if isinstance(res, Exception):
        return None if req.kind == "refusal" else f"{type(res).__name__}: {res}"
    if req.kind == "refusal":
        return None if res.status == checker.BUDGET_EXCEEDED else f"not refused: {res.status}"
    expected = {"exhaustive": (checker.HOLDS, checker.COUNTEREXAMPLE),
                "sampled": (checker.NO_COUNTEREXAMPLE, checker.COUNTEREXAMPLE),
                "block": (checker.HOLDS, checker.COUNTEREXAMPLE)}[req.mode]
    if res.status not in expected:
        return f"unexpected verdict {res.status}"
    variables = set(lhs.variables()) | set(rhs.variables())
    if req.mode == "exhaustive" and res.status == checker.HOLDS and lhs != rhs:
        if res.evaluations != alg.size ** len(variables):
            return f"holds after only {res.evaluations} substitutions"
    if req.mode == "sampled" and res.status != checker.COUNTEREXAMPLE:
        if res.evaluations != req.samples:
            return "sampling stopped early without a counterexample"
    if res.status == checker.COUNTEREXAMPLE:
        if set(res.witness) != variables:
            return "witness does not bind exactly the identity's variables"
        if terms.evaluate(lhs, res.witness, alg) == terms.evaluate(rhs, res.witness, alg):
            return "witness does not re-evaluate to an inequality"
    return None


# ---------------------------------------------------------------------------
# analyze-stream

CORPUS_ORDER = 4
CORPUS_SAMPLE = 800
ANALYZE_MID = ("b21", "b2", "b3", "bz2", "bs3_2", "bs3_3", "ps3", "s4", "s5", "d5",
               "kad21")
# 128 to 151 elements, 0.4 to 1.1 s each: the regime where a vectorised scan
# wins.  The 247- and 256-element carriers hall(3), power(Q8) and power(D4)
# take 3.5 to 5 s each: a run would hold two passes, too few for a steady
# median per op.
ANALYZE_LARGE = ("powc7", "bd4_4", "bs3_5")


def corpus_tables() -> list:
    return list(corpus.semigroup_tables(CORPUS_ORDER))


def analyze_op(alg) -> dict:
    """The `bglab analyze` call sequence on one algebra, as cli._cmd_analyze
    runs it; returns the payload the CLI would print."""
    bad = core.validate(alg)
    if bad is not None:
        return {"validation_failed": bad.describe(alg)}
    reduct = core.mult_reduct(alg)
    out: dict = {"kind": alg.kind, "size": alg.size}
    if analysis.is_group(reduct):
        out["group"] = True
        try:
            out.update(analysis.group_analytics(reduct).to_dict())
        except BglabError:
            out["exponent"] = analysis.group_exponent(reduct)
            out["derived_length"] = analysis.derived_length(reduct)
            out["solvable"] = out["derived_length"] is not None
            out["subgroup_enumeration"] = "skipped (size budget)"
    else:
        core_set = analysis.idempotent_generated(reduct)
        out["block_group"] = analysis.is_block_group(reduct)
        out["j_trivial_ES"] = analysis.j_trivial(reduct, core_set)[0]
        out.update(analysis.principal_series(reduct).to_dict())
        out["subgroups"] = [{"idempotent": e, "order": len(members)}
                            for e, members in analysis.maximal_subgroups(reduct)]
    return out


def analyze_algebras(seed: int | None) -> list[tuple[str, object]]:
    """(key, algebra) for one pass: the large carriers, the seeded corpus
    sample and the mid-size constructions.  Seed None gives every candidate.
    Corpus keys are `corpus4:<enumeration index>`."""
    tables = corpus_tables()
    picks = (range(len(tables)) if seed is None
             else random.Random(seed).sample(range(len(tables)), CORPUS_SAMPLE))
    items = [(f"corpus{CORPUS_ORDER}:{i}", corpus.as_algebra(tables[i])) for i in picks]
    return items + [(name, CONSTRUCTIONS[name]()) for name in ANALYZE_MID + ANALYZE_LARGE]


# ---------------------------------------------------------------------------
# stream set-up


class Op(NamedTuple):
    key: str                                  # the golden digest's key
    alg: str                                  # the algebra it runs on
    run: Callable[[object], object]           # the timed call, given the algebra
    record: Callable[[object], dict]          # what the digest covers
    problem: Callable[[object], str | None]   # further checks, once per key
    first: bool = False                       # opens every pass, in fixed order


def _via_json(alg, path: Path):
    alg.save(path)
    return core.load_algebra(path)


def fresh(alg):
    """A new algebra object with copied tables, so that nothing an earlier
    pass attached to an algebra object or to its arrays is found again."""
    tables = {name: getattr(alg, name).copy() for name in ("mul", "add", "star")
              if getattr(alg, name) is not None}
    return dataclasses.replace(alg, meta=json.loads(json.dumps(alg.meta)), **tables)


def _no_problem(_outcome):
    return None


def stream_ops(workload: str, seed: int, workdir: Path) -> tuple[dict, list[Op]]:
    """Builds, writes and loads back every algebra one pass needs; returns
    the algebras by name and the ops of one pass."""
    if workload == "check-stream":
        reqs = [req for kind, templates in check_templates().items()
                for req in templates * CHECK_COPIES[kind]]
        algs = {name: _via_json(CONSTRUCTIONS[name](), workdir / f"{name}.json")
                for name in CHECK_POOL}
        return algs, [Op(r.key, r.alg, partial(check_op, r), check_record,
                         partial(check_problem, algs[r.alg], r)) for r in reqs]
    items = analyze_algebras(seed)
    algs = {key: _via_json(alg, workdir / f"a{i}.json") for i, (key, alg) in enumerate(items)}
    # the large carriers open every pass, so that the peak memory, reached
    # inside them, does not depend on what the shuffle put before them
    return algs, [Op(key, key, analyze_op, dict, _no_problem, key in ANALYZE_LARGE)
                  for key, _alg in items]

