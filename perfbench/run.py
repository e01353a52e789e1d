"""bglab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 30 --trace 0

Run from the root of a bglab checkout (the package is imported from src/).
Workloads: suite-full, check-stream, analyze-stream (see workloads.py).
Every process this starts is a child run to completion.  Inputs come from
--seed; outputs are checked against perfbench/golden and by re-evaluation.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracer import COMPUTED, aggregate, per_layer_metric_names, read_spans  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("suite-full", "check-stream", "analyze-stream")
SETUP_SAMPLES = 5          # set-up-only processes per run, besides the measured one
DEADLINE_S = 170           # a run must end within 180 s


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + ([os.environ["PYTHONPATH"]]
                                              if os.environ.get("PYTHONPATH") else []))
        self.env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0

    def child(self, mode: str, trace: bool) -> tuple[dict, float, float]:
        """Runs one child to completion; returns (result, spawn time, exit time)."""
        self.count += 1
        sub = self.workdir / f"c{self.count}"
        out = self.workdir / f"c{self.count}.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, self.args.workload,
                str(self.args.seed), str(self.args.seconds), "1" if trace else "0",
                str(sub), str(out)]
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        spawned = time.monotonic()
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(remaining, 1))
        ended = time.monotonic()
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child failed:\n{proc.stderr}")
        with open(out) as fh:
            return json.load(fh), spawned, ended


def measure(runner: Runner, trace: bool) -> dict:
    args = runner.args
    # first import writes bytecode caches; keep it out of the set-up samples
    runner.child("setup", False)
    setups = []
    for _ in range(SETUP_SAMPLES):
        res, spawned, _ = runner.child("setup", False)
        setups.append((res["ready"] - spawned) * res["setup_scale"])
    runs = []        # (result, spawn, exit)
    if args.workload == "suite-full":
        # one fresh process per suite, as a CLI user runs it
        while True:
            traced = trace and len(runs) == 1
            runs.append(runner.child("run", traced))
            walls = [e - s for _, s, e in runs]
            elapsed = time.monotonic() - runs[0][1]
            if (not trace or len(runs) >= 2) and elapsed + statistics.median(walls) > args.seconds:
                break
    else:
        runs.append(runner.child("run", trace))
    return {"setups": setups, "runs": runs}


def end_to_end(workload: str, data: dict) -> tuple[dict, tuple[int, int | None]]:
    """The metrics, and the latency sample: ops, and passes each op's time
    is the median of (None for suite-full, where an op is a process)."""
    runs = data["runs"]
    setups = data["setups"] + [(res["ready"] - spawned) * res["setup_scale"]
                               for res, spawned, _ in runs]
    passes = [p for res, _, _ in runs for p in res["passes"] if not p["traced"]]
    if workload == "suite-full":
        op_ms = [(e - s) * res["ref_scale"] * 1000 for res, s, e in runs]
        wall = statistics.median(p["wall"] for p in passes)
        cpu = statistics.median(p["cpu"] for p in passes)
    else:
        # each op's median over the passes; a pass is the sum over its ops
        op_ms = [statistics.median(t) for t in zip(*(p["op_ms"] for p in passes))]
        wall = sum(op_ms) / 1000
        cpu = sum(statistics.median(t)
                  for t in zip(*(p["op_cpu_ms"] for p in passes))) / 1000
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1000), "1/s"),
        "op_p50_ms": (_percentile(op_ms, 50), "ms"),
        "op_p95_ms": (_percentile(op_ms, 95), "ms"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res, _, _ in runs), "MB"),
    }
    return metrics, (len(op_ms), None if workload == "suite-full" else len(passes))


def per_layer(workload: str, data: dict) -> dict:
    runs = [res for res, _, _ in data["runs"]]
    traced = [res for res in runs if "spans" in res]
    passes = [p for res in runs for p in res["passes"]]
    n_traced = sum(p["traced"] for p in passes)
    spans = [s for res in traced for s in read_spans(res["spans"])]
    values = aggregate(spans, n_traced)
    check_ms = next((res["check_ms"] for res in runs if res.get("check_ms")
                     and not res["passes"][0]["traced"]), {})
    with open(HERE / "golden" / "suite.json") as fh:
        check_ids = sorted(json.load(fh))
    for cid in check_ids:
        values[f"suite.{cid}.s"] = check_ms.get(cid, 0.0) / 1000
    values["cli.import_s"] = statistics.median(res["import_s"] for res in runs)
    plain = statistics.median(p["wall"] for p in passes if not p["traced"])
    with_trace = statistics.median(p["wall"] for p in passes if p["traced"])
    values["trace.overhead_s"] = with_trace - plain
    values["trace.overhead_share"] = (with_trace - plain) / plain
    return {name: (values[name], unit) for name, unit in per_layer_metric_names(check_ids)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bglab" / "cli.py").is_file():
        print(f"error: no bglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir)
        data = measure(runner, bool(args.trace))
        runs = [res for res, _, _ in data["runs"]]
        attempted = sum(res["attempted"] for res in runs)
        failed = sum(res["failed"] for res in runs)
        errors = [e for res in runs for e in res["errors"]]
        if args.trace:
            metrics = per_layer(args.workload, data)
            samples = None
        else:
            metrics, samples = end_to_end(args.workload, data)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for e in errors:
        print(f"FAILED {e}")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed, failed_share {failed / attempted:.4f}"
          + (f"; latency percentiles over {samples[0]} ops" if samples else "")
          + (f", each its median over {samples[1]} passes" if samples and samples[1] else ""))
    if not args.trace:
        scales = [res["ref_scale"] for res, _, _ in data["runs"]]
        print(f"reference-speed time over wall time in the measured process: "
              f"{statistics.median(scales):.4f}")
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:44s} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
