"""The verification suite: one callable check per acceptance-level claim.

Each check returns a CheckResult; run_suite collects them into a SuiteReport.
The quick profile trims the corpus to order <= 3 and samples to 10^4; the
full profile runs order <= 4 and 10^5 samples plus the exact image check at
the power semiring's own (q, r).

One check (b21 -> Hall star preservation) is expected to fail: exhaustive
search over all 5040 injections proves no map can respect both products and
the transpose stars.  It is reported, flagged non-mandatory, and asserted
red in the acceptance tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import analysis, checker, constructions, corpus, terms
from .core import FiniteAlgebra, validate

SAMPLED_CHECK_SEED = 1


@dataclass
class CheckResult:
    id: str
    claim: str
    status: str              # "pass" | "fail"
    evaluations: int
    wall_ms: float
    detail: str = ""
    mandatory: bool = True

    def to_dict(self) -> dict:
        return {
            "id": self.id, "claim": self.claim, "status": self.status,
            "evaluations": self.evaluations, "wall_ms": round(self.wall_ms, 2),
            "detail": self.detail, "mandatory": self.mandatory,
        }


@dataclass
class SuiteReport:
    profile: str
    seed: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results if r.mandatory)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile, "seed": self.seed,
            "pass": self.passed,
            "checks": [r.to_dict() for r in sorted(self.results, key=lambda r: r.id)],
        }


class _Fail(Exception):
    pass


def _need(ok: bool, message: str):
    if not ok:
        raise _Fail(message)


# ---------------------------------------------------------------------------
# shared fixtures (built once per run)


class Workbench:
    """Lazily built shared algebras for the suite, one per name in FIXTURES or SERIES."""

    def __init__(self):
        self._cache: dict[str, object] = {}

    def get(self, name: str):
        if name not in self._cache:
            self._cache[name] = (analysis.principal_series(self.get(SERIES[name]))
                                 if name in SERIES else constructions.build(FIXTURES[name]))
        return self._cache[name]


# Every named algebra of the suite, as the construction meta that
# constructions.build reads; a meta with `reduct_of` gives the (S, mul) reduct.
_TRIV = {"construction": "group", "family": "cyclic", "n": 1}
_S3 = {"construction": "group", "family": "symmetric", "n": 3}
_PS3 = {"construction": "power-semiring", "group": _S3}
FIXTURES = {
    "s3": _S3,
    "q8": {"construction": "group", "family": "quaternion8"},
    "z2": {"construction": "group", "family": "cyclic", "n": 2},
    "z4": {"construction": "group", "family": "cyclic", "n": 4},
    "triv": _TRIV,
    "b21": {"construction": "b21"},
    "b21_mul": {"construction": "b21", "reduct_of": "involution-ai-semiring"},
    "b2": {"construction": "brandt", "group": _TRIV, "index_count": 2},
    "b3": {"construction": "brandt", "group": _TRIV, "index_count": 3},
    "bz2": {"construction": "brandt", "index_count": 2,
            "group": {"construction": "group", "family": "cyclic", "n": 2}},
    "ps3": _PS3,
    "ps3_star": {**_PS3, "with_star": True},
    "ps3_mul": {**_PS3, "reduct_of": "ai-semiring"},
    "ips3": {"construction": "involution-power", "group": _S3},
    "hall2": {"construction": "hall", "n": 2},
    "hall3": {"construction": "hall", "n": 3},
    "kad21": {"construction": "kadourek", "n": 2, "h": 1},
    "kad22": {"construction": "kadourek", "n": 2, "h": 2},
}
# the principal series of a fixture, by the fixture's name
SERIES = {"b21_series": "b21_mul", "ps3_series": "ps3_mul"}


# ---------------------------------------------------------------------------
# the checks


def check_axioms(wb: Workbench, profile: str, seed: int):
    evals = 0
    for name in ("b21", "ps3", "ips3", "hall2", "hall3"):
        alg = wb.get(name)
        bad = validate(alg)
        _need(bad is None, f"{name}: {bad}")
        evals += alg.size**3
    return evals, "b21, power(S3), involution power(S3), hall(2), hall(3) validate"


def block_group_algebras(wb: Workbench) -> list[FiniteAlgebra]:
    """The constructed semigroups a02 tests, in the order it tests them."""
    algs = [wb.get(n) for n in
            ("b21_mul", "b2", "b3", "bz2", "ps3_mul", "s3", "q8")]
    algs.append(wb.get("hall2"))
    algs.append(wb.get("kad21"))
    return algs


def check_block_group_equivalences(wb: Workbench, profile: str, seed: int):
    max_order = 3 if profile == "quick" else 4
    stacks = [alg.mul[None] for alg in block_group_algebras(wb)]
    stacks += [corpus.semigroup_stack(n) for n in range(1, max_order + 1)]
    for stack in stacks:
        _block_group_tests_agree(stack)
    tested = sum(len(stack) for stack in stacks)
    return tested, f"{tested} semigroups agree on all three block-group tests"


def _block_group_tests_agree(stack):
    """Fail on the first table of a (T, n, n) stack on which the three
    block-group tests disagree."""
    bg, ui, jt = analysis.block_group_tests(stack)
    disagree = (bg != ui) | (bg != jt)
    if disagree.any():
        k = disagree.argmax()
        raise _Fail(f"disagreement on a {stack.shape[1]}-element semigroup: "
                    f"block-group={bool(bg[k])} unique-inverse={bool(ui[k])} "
                    f"j-trivial-core={bool(jt[k])}")


def check_u_words_in_subgroups(wb: Workbench, profile: str, seed: int):
    evals = 0
    for name in ("b2", "b3", "bz2"):
        alg = wb.get(name)
        allowed = analysis.subgroup_union(alg)
        for n, k in [(n, k) for n in range(4) for k in range(4) if 1 <= n + k <= 3]:
            for m in (1, 2):
                verdict = checker.check_membership_exhaustive(
                    alg, terms.u_word(n, k, m), allowed)
                evals += verdict.evaluations
                _need(verdict.status == checker.HOLDS,
                      f"{name}: u({n},{k},{m}) escaped the subgroups: {verdict.witness}")
                _need(verdict.evaluations <= 10**3,
                      f"{name}: u({n},{k},{m}) took {verdict.evaluations} "
                      "evaluations, over 10^3")
    return evals, "all u-family values lie in subgroups on three Brandt semigroups"


def check_power_law(wb: Workbench, profile: str, seed: int):
    word = terms.Word((terms.Variable((1,)),))
    rep = wb.get("ps3_series")
    q = (2**rep.h) * rep.m
    evals = 0
    for name, e1, e2 in (("b21_mul", 4, 8), ("bz2", 4, 8), ("ps3_mul", q, 2 * q)):
        verdict = checker.check_identity_exhaustive(
            wb.get(name), terms.PowerOf(word, e1), terms.PowerOf(word, e2))
        evals += verdict.evaluations
        _need(verdict.status == checker.HOLDS,
              f"{name}: x^{e1} = x^{e2} is {verdict.status}: {verdict.witness or verdict.note}")
    return evals, f"x^(2^h m) = x^(2^(h+1) m) element-wise (power semiring q={q})"


def check_group_identities(wb: Workbench, profile: str, seed: int):
    s3 = wb.get("s3")
    one = analysis.ensure_group(s3)[0]
    evals = 0
    verdict = checker.check_membership_exhaustive(s3, terms.v_word(1, 6, 2), {one})
    evals += verdict.evaluations
    _need(verdict.status == checker.HOLDS, f"v(1,6,2) != 1 at {verdict.witness}")
    _need(verdict.evaluations == 1296,
          f"v(1,6,2): {verdict.evaluations} substitutions, expected 1296")
    derived = analysis.derived_series(s3)[1]
    _need(derived == {one, s3.index("(123)"), s3.index("(132)")},
          f"derived subgroup of S3 is {sorted(derived)}, not A3")
    verdict = checker.check_membership_exhaustive(s3, terms.v_word(1, 6, 1), derived)
    evals += verdict.evaluations
    _need(verdict.status == checker.HOLDS,
          f"v(1,6,1) left the derived subgroup at {verdict.witness}")
    _need(verdict.evaluations == 36,
          f"v(1,6,1): {verdict.evaluations} substitutions, expected 36")
    z4 = wb.get("z4")
    for n in (1, 2):
        verdict = checker.check_membership_exhaustive(
            z4, terms.v_word(n, 4, 1), {analysis.ensure_group(z4)[0]})
        evals += verdict.evaluations
        _need(verdict.status == checker.HOLDS, f"Z4: v({n},4,1) != 1")
    # a1..an a1'..an' is [a1',a2'][(a2 a1)',a3'], with [a,b] = a'b'ab, so
    # the left side times the inverse of the right lands in {e}
    inverted = FiniteAlgebra("involution-semigroup", s3.labels, s3.mul,
                             star=analysis.ensure_group(s3)[1])
    for form in ("x1 x1'", "x1 x2 x1' x2' (x1'' x2'' x1' x2')'",
                 "x1 x2 x3 x1' x2' x3' (x1'' x2'' x1' x2' (x2 x1)'' x3'' (x2 x1)' x3')'"):
        verdict = checker.check_membership_exhaustive(inverted, terms.parse_term(form), {one})
        evals += verdict.evaluations
        _need(verdict.status == checker.HOLDS,
              f"commutator factorization fails at {verdict.witness}")
    return evals, "v(1,6,2)=1 on S3 (1296 subs); v(1,6,1) lands in A3; commutator form"


def check_square_identities(wb: Workbench, profile: str, seed: int):
    samples = 10_000 if profile == "quick" else 100_000
    evals = 0
    img = checker.check_v_square_image(wb.get("b2"), 2, 2, 3)
    evals += img.evaluations
    _need(img.ok, f"B2: v(2,2,3) = square fails at value {img.bad_value}")
    _need(img.level_sizes == [3, 3, 3], f"B2: image level sizes {img.level_sizes}")
    rep = wb.get("b21_series")
    _need((rep.q, rep.r) == (4, 5), f"b21: (q,r)=({rep.q},{rep.r}), expected (4,5)")
    img = checker.check_v_square_image(wb.get("b21_mul"), 2, rep.q, rep.r)
    evals += img.evaluations
    _need(img.ok, f"b21: v(2,4,5) = square fails at value {img.bad_value}")
    v45 = terms.v_word(2, 4, 5)
    sq45 = terms.PowerOf(v45, 2)
    for name in ("b21_mul", "ps3_mul"):
        verdict = checker.check_identity_sampled(wb.get(name), v45, sq45,
                                                 samples=samples, seed=seed)
        evals += verdict.evaluations
        _need(verdict.status == checker.NO_COUNTEREXAMPLE,
              f"{name}: sampled v(2,4,5) = square found {verdict.witness}")
        _need(verdict.evaluations == samples,
              f"{name}: {verdict.evaluations} of {samples} samples evaluated")
    detail = f"exact on B2/b21; {samples} seeded samples on b21 and power(S3)"
    if profile == "full":
        rep = wb.get("ps3_series")
        _need((rep.q, rep.r) == (3072, 29),
              f"power(S3): (q,r)=({rep.q},{rep.r}), expected (3072,29)")
        img = checker.check_v_square_image(wb.get("ps3_mul"), 2, rep.q, rep.r)
        evals += img.evaluations
        _need(img.ok, f"power(S3): v(2,{rep.q},{rep.r}) = square fails")
        detail += f"; exact at computed (q,r)=({rep.q},{rep.r}) on power(S3)"
    return evals, detail


def check_kadourek_violation(wb: Workbench, profile: str, seed: int):
    alg = wb.get("kad21")
    gen_elems = sorted(alg.meta["generators"].values())
    gen_elems += [int(alg.star[g]) for g in gen_elems]
    v = terms.v_word(2, 1, 1)
    verdict = checker.find_identity_violation(alg, v, terms.PowerOf(v, 2), gen_elems)
    _need(verdict.status == checker.COUNTEREXAMPLE,
          "no violation of v(2,1,1) = square found")
    left = terms.evaluate(v, verdict.witness, alg)
    right = terms.evaluate(terms.PowerOf(v, 2), verdict.witness, alg)
    _need(left != right, "witness does not re-evaluate to an inequality")
    return verdict.evaluations, (
        f"violation witness re-evaluates: {alg.labels[left]} != {alg.labels[right]}")


# Arrow lists for the depth-2 partial-injection generators on {0..16}:
# chi_t maps p-1 -> p at each positive occurrence of x_t and p -> p-1 at each
# inverted one, read off the depth-2 word.
KADOUREK_22_GENERATORS = {
    (1, 1): {0: 1, 3: 2, 9: 10, 12: 11},
    (2, 1): {1: 2, 4: 3, 8: 9, 11: 10},
    (1, 2): {4: 5, 7: 6, 13: 14, 16: 15},
    (2, 2): {5: 6, 8: 7, 12: 13, 15: 14},
}


def check_kadourek_generators(wb: Workbench, profile: str, seed: int):
    gens = constructions.kadourek_generators(2, 2)
    _need(set(gens) == set(KADOUREK_22_GENERATORS), "wrong generator index set")
    for t, arrows in KADOUREK_22_GENERATORS.items():
        got = {x: y for x, y in enumerate(gens[t]) if y >= 0}
        _need(got == arrows, f"chi{t}: expected {arrows}, got {got}")
    alg = wb.get("kad22")
    for t, f in gens.items():
        index = alg.meta["generators"]["".join(map(str, t))]
        _need(alg.labels[index] == constructions.partial_map_label(f),
              f"generator {t} mislabeled in the carrier")
    return len(gens) * 17, f"4 depth-2 generators match, carrier size {alg.size}"


B21_TO_HALL2 = ("11|11", "10|01", "01|11", "11|10", "10|11", "11|01")


def subset_b_onto_b21(wb: Workbench):
    """The canonical surjection from the subset subsemiring onto the monoid."""
    s3 = wb.get("s3")
    e = analysis.ensure_group(s3)[0]
    H = [e, s3.index("(12)")]
    g = s3.index("(13)")
    masks = constructions.subset_b(s3, H, g)
    balg = constructions.induced_algebra(wb.get("ps3_star"), masks)
    # {e}, H, g^-1 H, H g, g^-1 H g
    special = dict(zip(constructions.subset_b_masks(s3, H, g), "1ebaf"))
    b21 = wb.get("b21")
    mapping = tuple(b21.index(special.get(m, "0")) for m in masks)
    return balg, b21, mapping


def check_morphisms(wb: Workbench, profile: str, seed: int):
    balg, b21, mapping = subset_b_onto_b21(wb)
    spec = checker.MorphismSpec(balg, b21, mapping, ("mul", "add"))
    rep = checker.verify_morphism(spec)
    _need(rep.ok and rep.surjective,
          f"subset semiring map onto b21 failed: {rep.failure}")
    spec = checker.MorphismSpec(balg, b21, mapping, ("mul", "star"))
    rep = checker.verify_morphism(spec)
    _need(rep.ok, f"element-wise inversion not respected: {rep.failure}")
    hall2 = wb.get("hall2")
    mapping2 = tuple(hall2.labels.index(s) for s in B21_TO_HALL2)
    rep = checker.verify_morphism(
        checker.MorphismSpec(wb.get("b21"), hall2, mapping2, ("mul", "add")))
    _need(rep.ok and rep.injective,
          f"b21 -> hall(2) embedding failed: {rep.failure}")
    n = balg.size
    return 2 * n * n + 2 * 36, ("subset map onto b21 respects union, product and "
                                "inversion; b21 embeds in hall(2) for (+, .)")


def check_hall_star_preservation(wb: Workbench, profile: str, seed: int):
    """Expected to fail: no injection b21 -> hall(2) respects mul and both
    transpose stars (exhaustively provable over all 5040 injections)."""
    hall2 = wb.get("hall2")
    mapping2 = tuple(hall2.labels.index(s) for s in B21_TO_HALL2)
    rep = checker.verify_morphism(
        checker.MorphismSpec(wb.get("b21"), hall2, mapping2,
                             ("mul", "add", "star")))
    _need(rep.ok and rep.injective,
          f"transpose-star is not preserved: first failure {rep.failure}")
    return 36, "star preserved"


def check_structure_reports(wb: Workbench, profile: str, seed: int):
    rep = wb.get("b21_series")
    _need((rep.h, rep.m, rep.k, rep.q, rep.r) == (2, 1, 1, 4, 5),
          f"b21 series parameters off: {(rep.h, rep.m, rep.k, rep.q, rep.r)}")
    kinds = [f["kind"] for f in rep.factors]
    _need(kinds == ["group", "brandt", "brandt"], f"b21 factor kinds {kinds}")
    chain_sizes = [len(c) for c in rep.chain]
    _need(chain_sizes == [1, 5, 6], f"b21 chain sizes {chain_sizes}")
    ps3 = wb.get("ps3_mul")
    s3 = wb.get("s3")
    e = analysis.ensure_group(s3)[0]
    subgroup_mask = (1 << e) | (1 << s3.index("(12)"))
    locals_ = dict(analysis.maximal_subgroups(ps3))
    _need(len(locals_[subgroup_mask]) == 1,
          "local group at {e,(12)} should be trivial")
    _need(len(locals_[1 << e]) == 6, "local group at {e} should have order 6")
    ga = analysis.group_analytics(s3)
    _need((ga.solvable, ga.dedekind) == (True, False), f"S3 analytics {ga}")
    ga = analysis.group_analytics(wb.get("q8"))
    _need((ga.dedekind, ga.has_quaternion_subgroup) == (True, True),
          f"Q8 analytics {ga}")
    return ps3.size**2, "series(b21) = ({0} < B2 < b21, h=2,m=1,k=1,q=4,r=5); locals ok"


def check_hall_carrier(wb: Workbench, profile: str, seed: int):
    sizes = {n: len(constructions.hall_masks(n)) for n in (1, 2, 3)}
    _need(sizes == {1: 1, 2: 7, 3: 247}, f"hall carrier sizes {sizes}")
    # construction asserts closure internally; building is the check
    built = (wb.get("hall2").size, wb.get("hall3").size)
    _need(built == (7, 247), f"hall(2), hall(3) have {built} elements")
    _need(analysis.is_block_group(wb.get("hall2")),
          "hall(2) reduct is not a block-group")
    return sum(sizes.values()), "sizes 1, 7, 247; closed; hall(2) is a block-group"


CHECKS = [
    ("a01-axioms", "constructed algebras satisfy their axiom systems",
     True, check_axioms),
    ("a02-block-group-equivalences",
     "block-group = at most one inverse = J-trivial idempotent core",
     True, check_block_group_equivalences),
    ("a03-u-words-in-subgroups",
     "u-family substitutions land in subgroups of Brandt semigroups",
     True, check_u_words_in_subgroups),
    ("a04-power-law", "x^(2^h m) = x^(2^(h+1) m) element-wise",
     True, check_power_law),
    ("a05-group-identities", "depth-k block words collapse in solvable groups",
     True, check_group_identities),
    ("a06-square-identities", "block words square to themselves at depth kh+h+k",
     True, check_square_identities),
    ("a07-kadourek-violation", "partial-injection semigroup violates the square identity",
     True, check_kadourek_violation),
    ("a07b-kadourek-generators", "depth-2 generators match their arrow diagram",
     True, check_kadourek_generators),
    ("a08-morphisms", "subset semiring maps onto b21; b21 embeds in hall(2)",
     True, check_morphisms),
    ("a08b-hall-star", "b21 -> hall(2) embedding preserves transpose-star "
     "(known impossible; kept for the record)",
     False, check_hall_star_preservation),
    ("a09-structure-reports", "series, local subgroups and group analytics",
     True, check_structure_reports),
    ("a10-hall-carrier", "Hall relation carriers and closure",
     True, check_hall_carrier),
]


def run_check(wb: Workbench, check, profile: str,
              seed: int = SAMPLED_CHECK_SEED) -> CheckResult:
    """Run one entry of CHECKS on `wb`; a refuted claim gives status "fail".
    wall_ms includes building what `wb` does not hold yet."""
    check_id, claim, mandatory, fn = check
    start = time.perf_counter()
    try:
        evals, detail = fn(wb, profile, seed)
        status = "pass"
    except _Fail as ex:
        evals, detail, status = 0, str(ex), "fail"
    wall = (time.perf_counter() - start) * 1000
    return CheckResult(check_id, claim, status, evals, wall, detail, mandatory)


def run_suite(profile: str = "quick", seed: int = SAMPLED_CHECK_SEED) -> SuiteReport:
    if profile not in ("quick", "full"):
        raise ValueError("profile must be quick or full")
    checker.check_seed(seed)
    checker.default_budget()  # refuse a bad BGLAB_BUDGET before any check runs
    wb = Workbench()
    return SuiteReport(profile, seed, [run_check(wb, check, profile, seed)
                                       for check in CHECKS])
