"""Acceptance gate: every claim in suite.CHECKS, run at the full profile.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
check.  One check (a08b, transpose-star preservation of the Hall embedding)
is genuinely unattainable and is asserted faithfully anyway, so it shows up
red; tests/test_checker.py proves the impossibility by exhausting all 5040
injections.
"""

import pytest

from bglab import suite
from bglab.core import FiniteAlgebra

# Wall-time bounds in seconds on a check's whole run at the full profile.
# They stay here, not in the suite: under load a01 nears its bound, and a
# bound inside the suite could fail a verify-suite run.
FULL_BOUNDS_S = {
    "a01-axioms": 1.0,
    "a02-block-group-equivalences": 600.0,
    "a04-power-law": 1.0,
    "a08-morphisms": 1.0,
}


# hall3 is built before the clock starts: the a01 bound is on validation,
# and hall(3) alone takes 0.2 s to build.
@pytest.mark.parametrize("check", suite.CHECKS, ids=[c[0] for c in suite.CHECKS])
def test_acceptance(check, workbench, hall3):
    result = suite.run_check(workbench, check, "full")
    verdict = "PASS" if result.status == "pass" else "FAIL"
    print(f"ACCEPTANCE {result.id}: {verdict} — {result.detail} "
          f"({result.wall_ms:.0f} ms)")
    assert result.status == "pass", result.detail
    bound = FULL_BOUNDS_S.get(result.id)
    if bound is not None:
        assert result.wall_ms < 1000 * bound, f"{result.id} took {result.wall_ms:.0f} ms"


def test_suite_quick_profile_agrees():
    rep = suite.run_suite("quick")
    assert rep.passed
    failing = [r.id for r in rep.results if r.status != "pass"]
    assert failing == ["a08b-hall-star"]
    # a02 at the quick profile (named semigroups and orders <= 3) has its
    # own bound.
    a02 = next(r for r in rep.results if r.id == "a02-block-group-equivalences")
    assert a02.wall_ms < 60_000
    print("ACCEPTANCE suite-quick: PASS — 11 mandatory checks pass; a08b recorded red")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_refused_before_any_check(seed, monkeypatch):
    def no_check(*args):
        raise AssertionError("ran a check")

    monkeypatch.setattr(suite, "run_check", no_check)
    with pytest.raises(ValueError):
        suite.run_suite("quick", seed=seed)


def test_a02_names_the_first_disagreement(monkeypatch):
    # two magmas on which the block-group tests disagree, each differently;
    # a02 names the first in its wording from before the batched kernel
    magmas = [[[0, 0, 0], [0, 1, 1], [2, 0, 2]], [[0, 0, 0], [0, 0, 0], [1, 0, 2]]]
    monkeypatch.setattr(suite, "block_group_algebras", lambda wb: [
        FiniteAlgebra("semigroup", ("a", "b", "c"), m) for m in magmas])
    check = next(c for c in suite.CHECKS if c[0] == "a02-block-group-equivalences")
    result = suite.run_check(suite.Workbench(), check, "quick")
    assert (result.status, result.evaluations) == ("fail", 0)
    assert result.detail == ("disagreement on a 3-element semigroup: block-group=False "
                             "unique-inverse=False j-trivial-core=True")
