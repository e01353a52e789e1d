"""Records the reference results the benchmark checks every op against.

    PYTHONPATH=src:perfbench python3 perfbench/make_golden.py

Run it on a commit whose results are known good; it rewrites
perfbench/golden/{suite,check,analyze}.json.  suite.json keeps status,
evaluations and detail of every check of `verify-suite --profile full
--seed 1`; check.json and analyze.json keep a digest of every request the
streams can draw, keyed by template or algebra.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads as W


def _write(name, data):
    W.GOLDEN.mkdir(exist_ok=True)
    with open(W.GOLDEN / f"{name}.json", "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def suite(workdir: Path):
    path = workdir / "report.json"
    W.run_cli(["verify-suite", "--profile", "full", "--seed", "1", "-o", str(path)])
    with open(path) as fh:
        report = json.load(fh)
    golden = {c["id"]: {k: c[k] for k in ("status", "evaluations", "detail", "mandatory")}
              for c in report["checks"]}
    problems = W.check_suite_report(report, golden)
    if problems:
        raise SystemExit("\n".join(problems))
    _write("suite", golden)


def check(workdir: Path):
    golden = {}
    for requests in W.check_templates().values():
        for req in requests:
            alg = W.CONSTRUCTIONS[req.alg]()
            outcome = W.check_op(req, alg)
            problem = W.check_problem(alg, req, outcome)
            if problem:
                raise SystemExit(f"{req.key}: {problem}")
            golden[req.key] = W.digest(W.check_record(outcome))
    _write("check", golden)


def analyze(workdir: Path):
    """Also checks that analyze_op gives what `bglab analyze` prints."""
    golden = {}
    for key, alg in W.analyze_algebras(None):
        payload = W.analyze_op(alg)
        path = workdir / "alg.json"
        alg.save(path)
        rc, out, err = W.run_cli(["analyze", str(path)])
        if rc != 0 or json.loads(out) != json.loads(json.dumps(payload)):
            raise SystemExit(f"{key}: analyze_op disagrees with the CLI ({rc}, {err})")
        golden[key] = W.digest(payload)
    _write("analyze", golden)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for step in (check, analyze, suite):
            step(Path(tmp))
            print(f"recorded {step.__name__}")
