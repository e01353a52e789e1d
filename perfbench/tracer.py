"""In-memory span tracer for the bglab benchmark.

The tracer times calls into the public functions of each bglab module from
outside the package: it replaces a function by a timing wrapper in *every*
loaded bglab module that holds a reference to it.  That matters because
`checker` does `from .terms import evaluate_batch` and `cli`/`suite` import
`validate` by name; patching only the defining module would miss those calls.

A span is (id, parent id, phase, op, name, duration, counters).  Spans stay in
memory and are written out once, at the end of the traced process.  Counters
marked "computed" below are derived from the call's arguments and result by
the tracer; bglab itself counts nothing yet.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, function, span name, counter kind)
PLAN = [
    ("core", "validate", "core.validate", "cells"),
    ("core", "load_algebra", "core.load_algebra", None),
    ("terms", "evaluate", "terms.evaluate", "lookups"),
    ("terms", "evaluate_batch", "terms.evaluate_batch", "lookups_batch"),
    ("terms", "parse_term", "terms.parse_term", None),
    ("terms", "parse_identity", "terms.parse_identity", None),
    ("terms", "v_word", "terms.v_word", None),
    ("terms", "u_word", "terms.u_word", None),
    ("terms", "w_word", "terms.w_word", None),
    ("checker", "check_identity_exhaustive", "checker.exhaustive", "exhaustive"),
    ("checker", "check_membership_exhaustive", "checker.membership", "subs"),
    ("checker", "check_identity_sampled", "checker.sampled", "subs"),
    ("checker", "sample_assignments", "checker.sample_assignments", None),
    ("checker", "check_v_square_image", "checker.image", "image"),
    ("checker", "verify_morphism", "checker.morphism", "morphism"),
    ("analysis", "principal_series", "analysis.principal_series", None),
    ("analysis", "j_classes", "analysis.j_classes", None),
    ("analysis", "is_block_group", "analysis.is_block_group", None),
    ("analysis", "unique_inverse_check", "analysis.unique_inverse_check", None),
    ("analysis", "j_trivial", "analysis.j_trivial", None),
    ("analysis", "idempotent_generated", "analysis.idempotent_generated", None),
    ("analysis", "maximal_subgroups", "analysis.maximal_subgroups", None),
    ("analysis", "group_analytics", "analysis.group_analytics", None),
    ("corpus", "semigroup_tables", "corpus.semigroup_tables", "generator"),
]

BUILDERS = [
    "cyclic_group", "symmetric_group", "dihedral_group", "quaternion_group",
    "brandt_semigroup", "brandt_monoid_b21", "power_semiring",
    "involution_power", "hall_semiring", "kadourek_semigroup",
]
PLAN += [("constructions", b, f"constructions.{b}", None) for b in BUILDERS]

ENGINES = {
    "exhaustive": "checker.exhaustive", "membership": "checker.membership",
    "sampled": "checker.sampled", "image": "checker.image",
    "morphism": "checker.morphism",
}
ANALYSIS = {
    "principal_series": ["analysis.principal_series"],
    "j_classes": ["analysis.j_classes"],
    "block_group_tests": ["analysis.is_block_group", "analysis.unique_inverse_check",
                          "analysis.j_trivial", "analysis.idempotent_generated"],
    "maximal_subgroups": ["analysis.maximal_subgroups"],
    "group_analytics": ["analysis.group_analytics"],
}
# Derived by the tracer from arguments and results, not counted by bglab.
COMPUTED = {"core.validate.cells", "core.kernel.lookups", "core.kernel.lookups_per_s",
            "terms.evaluate_batch.elems", "checker.morphism.subs",
            "checker.image.useful_ratio", "checker.exhaustive.useful_ratio",
            "corpus.tables_per_s"}
BUILD_SPANS = ["terms.parse_term", "terms.parse_identity", "terms.v_word",
               "terms.u_word", "terms.w_word"]


def per_layer_metric_names(check_ids) -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = [("core.validate.s", "s"), ("core.validate.cells", "count"),
           ("core.load_algebra.s", "s"), ("core.kernel.lookups", "count"),
           ("core.kernel.lookups_per_s", "1/s"),
           ("terms.evaluate_batch.calls", "count"), ("terms.evaluate_batch.s", "s"),
           ("terms.evaluate_batch.elems", "count"), ("terms.evaluate.calls", "count"),
           ("terms.evaluate.s", "s"), ("terms.build.s", "s")]
    for engine in ENGINES:
        out += [(f"checker.{engine}.calls", "count"), (f"checker.{engine}.s", "s"),
                (f"checker.{engine}.subs", "count")]
    out += [("checker.sampled.draw_s", "s"), ("checker.image.states", "count"),
            ("checker.image.useful_ratio", "ratio"),
            ("checker.exhaustive.useful_ratio", "ratio")]
    for group in ANALYSIS:
        out += [(f"analysis.{group}.calls", "count"), (f"analysis.{group}.s", "s")]
    out += [(f"constructions.{b}.s", "s") for b in BUILDERS]
    out += [("corpus.semigroup_tables.s", "s"), ("corpus.tables_per_s", "1/s")]
    out += [(f"suite.{cid}.s", "s") for cid in check_ids]
    out += [("cli.import_s", "s"), ("trace.spans", "count"),
            ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
    return out


# ---------------------------------------------------------------------------
# computed counters


def _pow_pairs(e: int) -> int:
    # products terms._pow_fold performs for exponent e >= 1
    return e.bit_length() - 1 + bin(e).count("1") - 1


def pair_calls(term) -> int:
    """Computed: `pair` calls terms._evaluate makes for one substitution."""
    from bglab import terms as t

    if isinstance(term, (t.Word, t.InvTerm)):
        return len(term.letters) - 1
    if isinstance(term, t.BlockWord):
        inner = sum(pair_calls(b) for b in term.blocks if not isinstance(b, t.Variable))
        return inner + 2 * (2 * term.n - 1) + _pow_pairs(2 * term.m - 1) + 1
    if isinstance(term, t.PowerOf):
        return pair_calls(term.base) + _pow_pairs(term.exponent)
    return 0


def _odometer_position(alg, lhs, rhs, domains, witness) -> int:
    """Index of the witness in the exhaustive scan's odometer order."""
    pos = 0
    for v in sorted(set(lhs.variables()) | set(rhs.variables())):
        dom = [int(x) for x in domains[v]] if domains and v in domains else range(alg.size)
        pos = pos * len(dom) + dom.index(witness[v])
    return pos


def _counters(kind, a, result) -> dict:
    """Counts for one call, from its bound arguments `a` and its result."""
    if kind == "cells":
        return {"cells": a["alg"].size ** 3}
    if kind == "lookups":
        return {"lookups": pair_calls(a["term"])}
    if kind == "lookups_batch":
        elems = max((int(getattr(x, "size", 1)) for x in a["sub"].values()), default=1)
        return {"lookups": pair_calls(a["term"]) * elems, "elems": elems}
    if kind == "subs":
        return {"subs": result.evaluations}
    if kind == "exhaustive":
        useful = result.evaluations
        if result.status == "counterexample":
            useful = _odometer_position(a["alg"], a["lhs"], a["rhs"], a["domains"],
                                        result.witness) + 1
        return {"subs": result.evaluations, "useful": useful}
    if kind == "image":
        return {"subs": result.evaluations, "states": sum(result.level_sizes)}
    if kind == "morphism":
        spec = a["spec"]
        n = spec.source.size
        return {"subs": sum(n if op == "star" else n * n for op in spec.ops)}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Wraps bglab's public functions; records spans while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import bglab

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bglab" or name.startswith("bglab."))]
        for mod_name, fn_name, span, kind in PLAN:
            orig = getattr(getattr(bglab, mod_name), fn_name)
            if kind == "generator":
                wrapper = self._wrap_generator(span, orig)
            else:
                wrapper = self._wrap(span, orig, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _open(self) -> tuple[int, int]:
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name, fn, kind):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            phase, op = tracer.phase, tracer.op
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dur = time.perf_counter() - start
                tracer._stack.pop()
                extra = None
                if kind is not None and done:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = _counters(kind, bound.arguments, result)
                tracer.spans.append((sid, parent, phase, op, name, dur, extra))

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        def timed(gen, sid, parent, phase, op):
            busy, items = 0.0, 0
            try:
                while True:
                    tracer._stack.append(sid)
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - start
                        tracer._stack.pop()
                    items += 1
                    yield item
            finally:
                tracer.spans.append((sid, parent, phase, op, name, busy,
                                     {"items": items}))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            tracer._stack.pop()
            return timed(fn(*args, **kwargs), sid, parent, tracer.phase, tracer.op)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# aggregation


def aggregate(spans, traced_passes: int) -> dict[str, float]:
    """Per-layer metrics for one setup plus one traced pass.

    Spans from the setup phase count once; spans from traced passes are
    averaged over `traced_passes`.  Times are self times: a span's duration
    minus the durations of its direct children.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        parent, dur = span[1], span[5]
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + dur
    # per phase kind, so counts stay exact: divide the pass sums only once
    sums: dict[str, dict[str, dict[str, float]]] = {"setup": {}, "pass": {}}
    for sid, _parent, phase, _op, name, dur, extra in spans:
        acc = sums["setup" if phase == "setup" else "pass"].setdefault(
            name, {"calls": 0, "s": 0.0})
        acc["calls"] += 1
        acc["s"] += dur - child_time.get(sid, 0.0)
        for key, value in (extra or {}).items():
            acc[key] = acc.get(key, 0) + value

    def get(name, key="s"):
        once = sums["setup"].get(name, {}).get(key, 0)
        return once + sums["pass"].get(name, {}).get(key, 0) / max(traced_passes, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["core.validate.s"] = get("core.validate")
    m["core.validate.cells"] = get("core.validate", "cells")
    m["core.load_algebra.s"] = get("core.load_algebra")
    lookups = get("terms.evaluate", "lookups") + get("terms.evaluate_batch", "lookups")
    m["core.kernel.lookups"] = lookups
    m["core.kernel.lookups_per_s"] = ratio(
        lookups, get("terms.evaluate") + get("terms.evaluate_batch"))
    m["terms.evaluate_batch.calls"] = get("terms.evaluate_batch", "calls")
    m["terms.evaluate_batch.s"] = get("terms.evaluate_batch")
    m["terms.evaluate_batch.elems"] = get("terms.evaluate_batch", "elems")
    m["terms.evaluate.calls"] = get("terms.evaluate", "calls")
    m["terms.evaluate.s"] = get("terms.evaluate")
    m["terms.build.s"] = sum(get(n) for n in BUILD_SPANS)
    for engine, span in ENGINES.items():
        m[f"checker.{engine}.calls"] = get(span, "calls")
        m[f"checker.{engine}.s"] = get(span)
        m[f"checker.{engine}.subs"] = get(span, "subs")
    m["checker.sampled.draw_s"] = get("checker.sample_assignments")
    m["checker.image.states"] = get("checker.image", "states")
    m["checker.image.useful_ratio"] = ratio(get("checker.image", "states"),
                                            get("checker.image", "subs"))
    m["checker.exhaustive.useful_ratio"] = ratio(get("checker.exhaustive", "useful"),
                                                 get("checker.exhaustive", "subs"))
    for group, names in ANALYSIS.items():
        m[f"analysis.{group}.calls"] = sum(get(n, "calls") for n in names)
        m[f"analysis.{group}.s"] = sum(get(n) for n in names)
    for b in BUILDERS:
        m[f"constructions.{b}.s"] = get(f"constructions.{b}")
    m["corpus.semigroup_tables.s"] = get("corpus.semigroup_tables")
    m["corpus.tables_per_s"] = ratio(get("corpus.semigroup_tables", "items"),
                                     get("corpus.semigroup_tables"))
    m["trace.spans"] = sum(get(n, "calls") for n in set(sums["setup"]) | set(sums["pass"]))
    return m
