"""Command-line front end: build, analyze, words, check, verify-suite.

Exit codes: 0 success / identity holds; 1 semantic failure (counterexample
or suite failure); 2 invalid input or validation error.  BGLAB_BUDGET in
the environment, an integer >= 0, overrides the default evaluation budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import analysis, checker, constructions, suite, terms
from .core import load_algebra, validate
from .errors import BglabError, SubgroupEnumerationBudget

_FAMILIES = {"S": "symmetric", "C": "cyclic", "D": "dihedral"}

# One verb per registered construction, then two that only the command line
# knows: subset-b picks its elements from a group, from-meta reads a file.
BUILD_CHOICES = [*constructions.REGISTRY, "subset-b", "from-meta"]


def _build_spec(args):
    """The options of one `build` verb as the meta of its construction;
    `group` with a file gives the loaded algebra, saved as it is."""
    what = args.what

    def need(option):
        if getattr(args, option) is None:
            raise BglabError(f"build {what} needs --{option}")
        return getattr(args, option)

    def group():
        # a group spec (S3, C6, D4, Q8) as its meta, or the algebra in a file
        spec = need("group")
        if spec == "Q8":
            return {"construction": "group", "family": "quaternion8"}
        m = re.match(r"([SCD])(\d+)$", spec)
        if not m:
            return load_algebra(spec)
        return {"construction": "group", "family": _FAMILIES[m[1]], "n": int(m[2])}

    def parent():
        return load_algebra(need("algebra"))

    def indices(option):
        return [int(s) for s in need(option).split(",")]

    if what == "group":
        return group()
    if what == "from-meta":
        return parent().meta
    if what == "subset-b":
        g = constructions.build(group())
        members = [g.index(s.strip()) for s in need("subgroup").split(",")]
        masks = constructions.subset_b(g, members, g.index(need("element")))
        power = {"construction": "power-semiring", "group": g,
                 "with_star": args.with_star}
        return {"construction": "subalgebra", "parent": power, "elements": masks}
    if what == "subalgebra":
        alg = parent()
        return {"construction": what, "parent": alg,
                "elements": constructions.subalgebra_generate(alg, indices("seeds"))}
    options = {
        "brandt": lambda: {"group": group(), "index_count": args.indices},
        "b21": dict,
        "power-semiring": lambda: {"group": group(), "nonempty": args.nonempty,
                                   "with_star": args.with_star},
        "involution-power": lambda: {"group": group()},
        "hall": lambda: {"n": args.n, "with_star": not args.no_star},
        "kadourek": lambda: {"n": args.n, "h": args.height},
        "rees-quotient": lambda: {"parent": parent(), "ideal": indices("ideal")},
        "adjoin-zero": lambda: {"parent": parent()},
        "adjoin-identity": lambda: {"parent": parent()},
    }
    return {"construction": what, **options[what]()}


def _cmd_build(args) -> int:
    alg = constructions.build(_build_spec(args))
    alg.save(args.output)
    print(f"{args.output}: {alg.kind} with {alg.size} elements")
    return 0


def _cmd_analyze(args) -> int:
    alg = load_algebra(args.algebra)
    bad = validate(alg)
    if bad is not None:
        print(f"validation failed: {bad.describe(alg)}", file=sys.stderr)
        return 2
    out: dict = {"kind": alg.kind, "size": alg.size}
    if analysis.is_group(alg):
        out["group"] = True
        try:
            out.update(analysis.group_analytics(alg).to_dict())
        except SubgroupEnumerationBudget:
            out["exponent"] = analysis.group_exponent(alg)
            out["derived_length"] = analysis.derived_length(alg)
            out["solvable"] = out["derived_length"] is not None
            out["subgroup_enumeration"] = "skipped (size budget)"
    else:
        core_set = analysis.idempotent_generated(alg)
        out["block_group"] = analysis.is_block_group(alg)
        out["j_trivial_ES"] = analysis.j_trivial(alg, core_set)[0]
        rep = analysis.principal_series(alg)
        out.update(rep.to_dict())
        out["subgroups"] = [
            {"idempotent": e, "order": len(members)}
            for e, members in rep.subgroups
        ]
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_words(args) -> int:
    if args.family == "v":
        term = terms.v_word(args.n, args.m, args.height)
        word = term.flatten(args.budget)
    elif args.family == "u":
        word = terms.u_word(args.n, args.k, args.m)
    else:
        word = terms.w_word(args.n, args.height, args.budget)
    if args.json:
        if isinstance(word, terms.Word):
            letters = [{"indices": list(v.indices), "exp": 1} for v in word.letters]
        else:
            letters = [{"indices": list(v.indices), "exp": e} for v, e in word.letters]
        payload = {"alphabet": [v.name for v in word.variables()],
                   "letters": letters}
        print(json.dumps(payload))
    else:
        print(terms.format_term(word))
    return 0


_FAMILY_ATOM = re.compile(
    r"^\s*(?P<fam>[vuw])\[(?P<args>\d+(?:\s*,\s*\d+)*)\]\s*(?:\^(?P<exp>\d+))?\s*$")


def _parse_side(text: str):
    m = _FAMILY_ATOM.match(text)
    if not m:
        return terms.parse_term(text)
    params = [int(x) for x in m.group("args").split(",")]
    family, form = {"v": (terms.v_word, "v[n,m,h]"), "u": (terms.u_word, "u[n,k,m]"),
                    "w": (terms.w_word, "w[n,h]")}[m.group("fam")]
    if len(params) != form.count(",") + 1:
        raise BglabError(f"{text.strip()!r} gives {len(params)} parameters, but the "
                         f"form is {form}")
    base = family(*params)
    exp = m.group("exp")
    return terms.PowerOf(base, int(exp)) if exp else base


def _parse_identity_arg(text: str):
    if "=" not in text:
        raise BglabError("identity must contain '='")
    return tuple(_parse_side(side) for side in text.split("=", 1))


def _read_domain(path, alg) -> list[int]:
    """The elements a --domain file lists: a JSON list of labels or indices."""
    with open(path) as fh:
        try:
            values = json.load(fh)
        except ValueError:
            values = None
    if not isinstance(values, list) or not all(
            isinstance(v, str) or type(v) is int for v in values):
        raise BglabError(f"--domain file {path} must hold a JSON list of element "
                         "labels or indices")
    return [alg.index(v) if isinstance(v, str) else v for v in values]


def _cmd_check(args) -> int:
    if args.mode == "block" and args.domain:
        raise BglabError("--domain restricts exhaustive and sampled checks; block mode "
                         "sweeps every block value and cannot honour it")
    alg = load_algebra(args.algebra)
    lhs, rhs = _parse_identity_arg(args.identity)
    domains = {}
    for spec in args.domain or []:
        name, eq, path = spec.partition("=")
        if not eq:
            raise BglabError(f"--domain expects NAME=FILE, got {spec!r}")
        elems = _read_domain(path, alg)
        matches = [v for v in set(lhs.variables()) | set(rhs.variables())
                   if v.name == name]
        if not matches:
            raise BglabError(f"--domain names {name!r}, which is not a variable "
                             "of the identity")
        for v in matches:
            domains[v] = elems
    if args.mode == "exhaustive":
        verdict = checker.check_identity_exhaustive(
            alg, lhs, rhs, domains=domains or None, budget=args.budget)
    elif args.mode == "sampled":
        verdict = checker.check_identity_sampled(
            alg, lhs, rhs, samples=args.samples, seed=args.seed,
            domains=domains or None, budget=args.budget)
    else:  # block: v = v^2 is the same identity as v^2 = v
        word, square = (rhs, lhs) if isinstance(lhs, terms.PowerOf) else (lhs, rhs)
        if not (isinstance(word, terms.BlockWord) and isinstance(square, terms.PowerOf)
                and square.base == word and square.exponent == 2):
            raise BglabError("block mode expects v[n,m,h] = v[n,m,h]^2 or "
                             "v[n,m,h]^2 = v[n,m,h]")
        verdict = checker.check_v_square_image(alg, word.n, word.m, word.depth,
                                               budget=args.budget)
    payload = {"status": verdict.status, "evaluations": verdict.evaluations}
    if verdict.seed is not None:
        payload["seed"] = verdict.seed
    if verdict.zero_samples is not None:
        payload["zero_samples"] = verdict.zero_samples
    if verdict.witness:
        payload["witness"] = {v.name: alg.labels[verdict.witness[v]] for v in
                              sorted(verdict.witness, key=terms.variable_key)}
    if verdict.note:
        payload["note"] = verdict.note
    print(json.dumps(payload, indent=2, sort_keys=True))
    if verdict.status == checker.COUNTEREXAMPLE:
        return 1
    if verdict.status == checker.BUDGET_EXCEEDED:
        return 2
    return 0


def _cmd_verify_suite(args) -> int:
    report = suite.run_suite(profile=args.profile, seed=args.seed)
    for result in sorted(report.results, key=lambda r: r.id):
        flag = "PASS" if result.status == "pass" else "FAIL"
        note = "" if result.mandatory else " [non-mandatory]"
        print(f"{flag}{note} {result.id}: {result.claim} "
              f"({result.evaluations} evaluations, {result.wall_ms:.0f} ms)")
        if result.status != "pass":
            print(f"      {result.detail}")
    print(f"suite: {'PASS' if report.passed else 'FAIL'} ({args.profile} profile)")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bglab",
                                description="finite semigroup/semiring workbench")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct an algebra and write it as JSON")
    b.add_argument("what", choices=BUILD_CHOICES)
    b.add_argument("--group", help="group spec (S3, C6, D4, Q8) or algebra file")
    b.add_argument("--indices", type=int, default=2, help="Brandt index count")
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--height", type=int, default=1)
    b.add_argument("--nonempty", action="store_true")
    b.add_argument("--with-star", action="store_true")
    b.add_argument("--no-star", action="store_true")
    b.add_argument("--subgroup", help="comma-separated element labels")
    b.add_argument("--element", help="conjugating element label")
    b.add_argument("--algebra", help="input algebra file for derived builds")
    b.add_argument("--seeds", help="comma-separated element indices")
    b.add_argument("--ideal", help="comma-separated element indices")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(fn=_cmd_build)

    a = sub.add_parser("analyze", help="validate and report structure")
    a.add_argument("algebra")
    a.add_argument("-o", "--output")
    a.set_defaults(fn=_cmd_analyze)

    w = sub.add_parser("words", help="emit a word-family member")
    w.add_argument("family", choices=["v", "u", "w"])
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--m", type=int, default=1)
    w.add_argument("--k", type=int, default=0)
    w.add_argument("--height", type=int, default=1)
    w.add_argument("--budget", type=int, default=terms.DEFAULT_LENGTH_BUDGET)
    w.add_argument("--json", action="store_true")
    w.set_defaults(fn=_cmd_words)

    c = sub.add_parser("check", help="check an identity on an algebra")
    c.add_argument("--algebra", required=True)
    c.add_argument("--identity", required=True,
                   help="\"LHS = RHS\"; sides may be DSL text or v[n,m,h], "
                        "u[n,k,m], w[n,h] with an optional ^k")
    c.add_argument("--mode", choices=["exhaustive", "sampled", "block"],
                   default="exhaustive")
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--samples", type=int, default=10_000)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--domain", action="append",
                   help="VAR=SETFILE restricting one variable (repeatable)")
    c.set_defaults(fn=_cmd_check)

    v = sub.add_parser("verify-suite", help="run the whole verification suite")
    v.add_argument("--profile", choices=["quick", "full"], default="quick")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("-o", "--output")
    v.set_defaults(fn=_cmd_verify_suite)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BglabError, OSError, ValueError, KeyError) as ex:  # JSONDecodeError too
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
