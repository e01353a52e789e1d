"""One benchmark process: set-up only, one verify-suite invocation, or a
stream of check / analyze requests.  Started by run.py, never imported.

    python3 child.py MODE WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

MODE is `setup` (set up, then exit) or `run`.  The result JSON goes to
RESULT.  Times use time.monotonic, which run.py shares, so run.py can measure
set-up from the moment it started this process; `setup_scale` and
`ref_scale` convert such wall intervals, up to the end of set-up and to the
end of the process, to reference-speed time (see clock.py).  The timed
calls are timed with the reference clock, which traced runs switch off.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import bglab.cli  # noqa: E402,F401  (timed: the CLI's import cost)

IMPORT_S = time.perf_counter() - _t0

import workloads as W  # noqa: E402
from clock import RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402


def _suite(seed, workdir: Path, result: dict, clock, tracer):
    result["ready"] = time.monotonic()
    result["setup_scale"] = clock.scale()
    report_path = workdir / "report.json"
    argv = ["verify-suite", "--profile", "full", "--seed", str(seed),
            "-o", str(report_path)]
    if tracer:
        tracer.phase = 1
        tracer.install()
    start, cpu = clock.now(), clock.cpu()
    rc, _out, err = W.run_cli(argv)
    wall, cpu = clock.now() - start, clock.cpu() - cpu
    if tracer:
        tracer.uninstall()
    errors = [] if rc in (0, 1) else [f"verify-suite exit {rc}: {err.strip()}"]
    check_ms = {}
    if not errors:
        with open(report_path) as fh:
            report = json.load(fh)
        errors = W.check_suite_report(report, W.load_golden("suite"))
        check_ms = {c["id"]: c["wall_ms"] for c in report["checks"]}
    result.update(passes=[{"wall": wall, "cpu": cpu, "traced": bool(tracer)}],
                  attempted=1, failed=1 if errors else 0, errors=errors,
                  check_ms=check_ms)


class _Verifier:
    """Checks each op's result against the recorded digest; the further
    checks of an op (witness re-evaluation and the like) run once per key."""

    def __init__(self, workload):
        self.golden = W.load_golden("check" if workload == "check-stream" else "analyze")
        self.problems: dict[str, str | None] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def __call__(self, op, outcome):
        self.attempted += 1
        if op.key not in self.problems:
            self.problems[op.key] = op.problem(outcome)
        problem = self.problems[op.key]
        if problem is None and W.digest(op.record(outcome)) != self.golden.get(op.key):
            problem = "result differs from the recorded digest"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.key}: {problem}")


def _stream(workload, seed, seconds, algs, ops, result: dict, clock, tracer):
    """Passes over the ops until the next pass would end after `seconds`.

    Each pass runs every op once, in an order the seed shuffles anew (ops
    marked `first` open it, in fixed order), on fresh copies of the
    algebras, after a garbage collection.  Times are kept per op, in op
    order, so that run.py can take each op's median over the passes.
    Results are checked between ops, outside the timed calls.  Traced runs
    alternate untraced and traced passes; traced passes check their results
    after the tracer is removed.
    """
    verify = _Verifier(workload)
    rng = random.Random(seed)
    passes, durations = [], []
    first = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = bool(tracer) and len(passes) % 2 == 1
        pass_algs = held = outcome = None   # the last pass's objects
        gc.collect()
        pass_algs = {name: W.fresh(alg) for name, alg in algs.items()}
        order = [i for i, op in enumerate(ops) if not op.first]
        rng.shuffle(order)
        order = [i for i, op in enumerate(ops) if op.first] + order
        if traced:
            tracer.phase = len(passes)
            tracer.install()
        held, op_ms, op_cpu_ms = [], [0.0] * len(ops), [0.0] * len(ops)
        for i in order:
            op = ops[i]
            if traced:
                tracer.op = i
            t, c = clock.now(), clock.cpu()
            outcome = op.run(pass_algs[op.alg])
            op_ms[i] = (clock.now() - t) * 1000
            op_cpu_ms[i] = (clock.cpu() - c) * 1000
            if traced:
                held.append((op, outcome))
            else:
                verify(op, outcome)
        if traced:
            tracer.uninstall()
            for op, outcome in held:
                verify(op, outcome)
        passes.append({"wall": sum(op_ms) / 1000, "cpu": sum(op_cpu_ms) / 1000,
                       "traced": traced, "op_ms": op_ms, "op_cpu_ms": op_cpu_ms})
        now = time.perf_counter()
        durations.append(now - began)
        need_traced = bool(tracer) and not any(p["traced"] for p in passes)
        if not need_traced and now - first + statistics.median(durations) > seconds:
            break
    result.update(passes=passes, attempted=verify.attempted, failed=verify.failed,
                  errors=verify.errors)


def main():
    mode, workload, seed, seconds, trace, workdir, out = sys.argv[1:8]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace and mode == "run" else None
    clock = RefClock(enabled=not trace)
    clock.start()
    result: dict = {"import_s": IMPORT_S}
    if workload == "suite-full":
        if mode == "setup":
            result["ready"] = time.monotonic()
            result["setup_scale"] = clock.scale()
        else:
            _suite(seed, workdir, result, clock, tracer)
    else:
        if tracer:
            tracer.install()
        algs, ops = W.stream_ops(workload, seed, workdir)
        if tracer:
            tracer.uninstall()
        result["ready"] = time.monotonic()
        result["setup_scale"] = clock.scale()
        if mode == "run":
            _stream(workload, seed, seconds, algs, ops, result, clock, tracer)
    result["ref_scale"] = clock.scale()
    clock.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        spans_path = workdir / "spans.jsonl"
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    with open(out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
