import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bglab
from bglab import analysis, checker, core, suite, terms
from bglab.cli import BUILD_CHOICES, _parse_identity_arg, main
from bglab.constructions import brandt_monoid_b21, hall_semiring, symmetric_group
from bglab.core import FiniteAlgebra, load_algebra, mult_reduct
from bglab.errors import BglabError, NotAGroup


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# One `build` per choice; an argument ending in .json names a file made by
# the `inputs` fixture.
ROUND_TRIPS = {
    "group": ["group", "--group", "S3"],
    "group-file": ["group", "--group", "q8.json"],
    "brandt": ["brandt", "--group", "C2", "--indices", "3"],
    "brandt-group-file": ["brandt", "--group", "q8.json", "--indices", "2"],
    "b21": ["b21"],
    "power-semiring": ["power-semiring", "--group", "D3", "--nonempty",
                       "--with-star"],
    "involution-power": ["involution-power", "--group", "C3"],
    "hall": ["hall", "--n", "2", "--no-star"],
    "kadourek": ["kadourek", "--n", "2", "--height", "1"],
    "subset-b": ["subset-b", "--group", "S3", "--subgroup", "e,(12)",
                 "--element", "(13)", "--with-star"],
    "subalgebra": ["subalgebra", "--algebra", "b2.json", "--seeds", "1,2"],
    "subalgebra-of-reduct": ["subalgebra", "--algebra", "b21_mul.json",
                             "--seeds", "2"],
    "rees-quotient": ["rees-quotient", "--algebra", "b2.json", "--ideal", "0"],
    "adjoin-zero": ["adjoin-zero", "--algebra", "b2.json"],
    "adjoin-identity": ["adjoin-identity", "--algebra", "b2.json"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files of the derived builds, b21_mul.json a saved
    multiplicative reduct."""
    d = tmp_path_factory.mktemp("inputs")
    assert main(["build", "group", "--group", "Q8", "-o", str(d / "q8.json")]) == 0
    assert main(["build", "brandt", "--group", "C1", "--indices", "2",
                 "-o", str(d / "b2.json")]) == 0
    mult_reduct(brandt_monoid_b21()).save(str(d / "b21_mul.json"))
    return d


class TestBuild:
    def test_build_b21(self, tmp_path, capsys):
        path = str(tmp_path / "b21.json")
        code, out, _ = run(capsys, "build", "b21", "-o", path)
        assert code == 0 and "6 elements" in out
        assert load_algebra(path).size == 6

    def test_build_power_semiring_s3(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        code, out, _ = run(capsys, "build", "power-semiring", "--group", "S3",
                           "-o", path)
        assert code == 0 and "64 elements" in out

    def test_build_hall_2(self, tmp_path, capsys):
        path = str(tmp_path / "h.json")
        code, out, _ = run(capsys, "build", "hall", "--n", "2", "-o", path)
        assert code == 0 and "7 elements" in out

    def test_build_brandt_and_kadourek(self, tmp_path, capsys):
        code, out, _ = run(capsys, "build", "brandt", "--group", "C2",
                           "--indices", "2", "-o", str(tmp_path / "b.json"))
        assert code == 0 and "9 elements" in out
        code, out, _ = run(capsys, "build", "kadourek", "--n", "2",
                           "--height", "1", "-o", str(tmp_path / "k.json"))
        assert code == 0 and "34 elements" in out

    def test_build_subset_b(self, tmp_path, capsys):
        code, out, _ = run(capsys, "build", "subset-b", "--group", "S3",
                           "--subgroup", "e,(12)", "--element", "(13)",
                           "--with-star", "-o", str(tmp_path / "sb.json"))
        assert code == 0 and "47 elements" in out

    def test_build_rejects_oversized_hall(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "hall", "--n", "5",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("n,h,points", [("2", "8", "65537"), ("3", "6", "46657")])
    def test_build_refuses_kadourek_past_int16(self, tmp_path, n, h, points):
        # the sink point (2n)^h + 1 must fit an int16 row: exit 2, no traceback
        src = str(Path(bglab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "bglab", "build", "kadourek",
                               "--n", n, "--height", h, "-o", str(tmp_path / "k.json")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert f"{points} points" in done.stderr and "32767" in done.stderr

    def test_brandt_over_a_non_associative_loop_is_refused(self, tmp_path):
        # a Latin square with identity e whose (aa)b != a(ab): exit 2, the
        # law and the labelled triple in the message, no traceback
        loop = FiniteAlgebra("semigroup", ("e", "a", "b", "c", "d"),
                             [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        loop.save(str(tmp_path / "loop.json"))
        src = str(Path(bglab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "bglab", "build", "brandt",
                               "--group", str(tmp_path / "loop.json"), "--indices", "2",
                               "-o", str(tmp_path / "b.json")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and "Traceback" not in done.stderr
        assert done.stderr == ("error: not associative: "
                               "mul-associative fails at (a, a, b)\n")
        assert "AxiomViolation(" not in done.stderr

    def test_build_rejects_empty_hall(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "hall", "--n", "0",
                           "-o", str(tmp_path / "x.json"))
        assert code == 2 and "needs n >= 1" in err

    def test_round_trip_build_analyze_rebuild(self, tmp_path, capsys):
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        run(capsys, "build", "power-semiring", "--group", "S3", "-o", first)
        code, _, _ = run(capsys, "analyze", first)
        assert code == 0
        code, _, _ = run(capsys, "build", "from-meta", "--algebra", first,
                         "-o", second)
        assert code == 0
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

    def test_every_build_choice_has_a_round_trip(self):
        assert sorted({args[0] for args in ROUND_TRIPS.values()}) == \
            sorted(set(BUILD_CHOICES) - {"from-meta"})

    @pytest.mark.parametrize("args", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_from_meta_round_trip(self, args, inputs, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = [str(inputs / a) if a.endswith(".json") else a for a in args]
        assert run(capsys, "build", *argv, "-o", str(first))[0] == 0
        assert run(capsys, "build", "from-meta", "--algebra", str(first),
                   "-o", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_from_meta_rebuilds_a_saved_reduct(self, inputs, tmp_path, capsys):
        saved, rebuilt = inputs / "b21_mul.json", tmp_path / "r.json"
        code, out, _ = run(capsys, "build", "from-meta", "--algebra", str(saved),
                           "-o", str(rebuilt))
        assert code == 0 and "semigroup with 6 elements" in out
        assert rebuilt.read_bytes() == saved.read_bytes()

    def test_gzip_output(self, tmp_path, capsys):
        path = str(tmp_path / "b21.json.gz")
        code, _, _ = run(capsys, "build", "b21", "-o", path)
        assert code == 0
        assert load_algebra(path).labels == ("0", "1", "a", "b", "e", "f")

    def test_derived_builds(self, tmp_path, capsys):
        base = str(tmp_path / "b2.json")
        run(capsys, "build", "brandt", "--group", "C1", "--indices", "2",
            "-o", base)
        code, out, _ = run(capsys, "build", "adjoin-identity", "--algebra", base,
                           "-o", str(tmp_path / "b2one.json"))
        assert code == 0 and "6 elements" in out
        code, out, _ = run(capsys, "build", "adjoin-zero", "--algebra", base,
                           "-o", str(tmp_path / "b2zero.json"))
        assert code == 0 and "6 elements" in out
        alg = load_algebra(base)
        ideal = ",".join(str(i) for i in range(alg.size))
        code, out, _ = run(capsys, "build", "rees-quotient", "--algebra", base,
                           "--ideal", ideal, "-o", str(tmp_path / "q.json"))
        assert code == 0 and "1 elements" in out
        code, out, _ = run(capsys, "build", "subalgebra", "--algebra", base,
                           "--seeds", "1", "-o", str(tmp_path / "s.json"))
        assert code == 0 and "1 elements" in out

    @pytest.mark.parametrize("args,missing", [
        (["subalgebra", "--algebra", "b2.json"], "--seeds"),
        (["rees-quotient", "--algebra", "b2.json"], "--ideal"),
        (["subset-b", "--group", "S3"], "--subgroup"),
        (["subset-b", "--group", "S3", "--subgroup", "e,(12)"], "--element"),
        (["group"], "--group"),
        (["from-meta"], "--algebra"),
    ])
    def test_missing_option_exits_2(self, args, missing, inputs, tmp_path, capsys):
        argv = [str(inputs / a) if a.endswith(".json") else a for a in args]
        code, _, err = run(capsys, "build", *argv, "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert err == f"error: build {args[0]} needs {missing}\n"

    @pytest.mark.parametrize("seeds", ["99", "-1", "1,5"])
    def test_subalgebra_seed_out_of_range_exits_2(self, seeds, inputs, tmp_path,
                                                  capsys):
        code, _, err = run(capsys, "build", "subalgebra", "--algebra",
                           str(inputs / "b2.json"), "--seeds", seeds,
                           "-o", str(tmp_path / "x.json"))
        assert code == 2 and "is outside 0..4" in err

    def test_from_meta_element_out_of_range_exits_2(self, tmp_path, capsys):
        meta = {"construction": "subalgebra", "elements": [0, 99],
                "parent": {"construction": "b21"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(brandt_monoid_b21().to_dict(), meta=meta)))
        code, _, err = run(capsys, "build", "from-meta", "--algebra", str(path),
                           "-o", str(tmp_path / "x.json"))
        assert code == 2 and "index 99 is outside 0..5" in err


    B21_PARENT = {"construction": "b21"}
    MALFORMED_METAS = {
        "n-a-string": ({"construction": "group", "family": "cyclic", "n": "3"},
                       "group meta: 'n' must be an int, got '3'"),
        "n-missing": ({"construction": "group", "family": "cyclic"},
                      "group family 'cyclic' needs n"),
        "n-a-bool": ({"construction": "hall", "n": True},
                     "hall meta: 'n' must be an int, got True"),
        "h-a-string": ({"construction": "kadourek", "n": 2, "h": "1"},
                       "kadourek meta: 'h' must be an int, got '1'"),
        "group-missing": ({"construction": "brandt", "index_count": 2},
                          "brandt meta has no 'group'"),
        "group-a-spec": ({"construction": "power-semiring", "group": "S3"},
                         "power-semiring meta: 'group' must be a construction "
                         "meta or an algebra, got 'S3'"),
        "with-star-an-int": ({"construction": "hall", "n": 2, "with_star": 1},
                             "hall meta: 'with_star' must be a bool, got 1"),
        "elements-a-string": ({"construction": "subalgebra", "elements": "01",
                               "parent": B21_PARENT},
                              "subalgebra meta: 'elements' must be a list of "
                              "ints, got '01'"),
        "nested-malformed": ({"construction": "adjoin-zero",
                              "parent": {"construction": "rees-quotient",
                                         "parent": B21_PARENT}},
                             "rees-quotient meta has no 'ideal'"),
    }

    @pytest.mark.parametrize("case", MALFORMED_METAS)
    def test_malformed_meta_exits_2_naming_the_key(self, case, tmp_path, capsys):
        meta, message = self.MALFORMED_METAS[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(brandt_monoid_b21().to_dict(), meta=meta)))
        code, out, err = run(capsys, "build", "from-meta", "--algebra", str(path),
                             "-o", str(tmp_path / "x.json"))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "x.json").exists()

    def test_unknown_element_label_exits_2_naming_it(self, tmp_path, capsys):
        code, out, err = run(capsys, "build", "subset-b", "--group", "S3",
                             "--subgroup", "e,(12)", "--element", "zz",
                             "-o", str(tmp_path / "x.json"))
        assert (code, out, err) == (2, "", "error: no element is labelled 'zz'\n")


class TestAnalyze:
    def test_b21_report(self, tmp_path, capsys):
        path = str(tmp_path / "b21.json")
        run(capsys, "build", "b21", "-o", path)
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out[out.index("{"):])
        assert report["block_group"] is True
        assert report["j_trivial_ES"] is True
        assert (report["h"], report["m"], report["k"]) == (2, 1, 1)
        assert (report["q"], report["r"]) == (4, 5)
        kinds = [step["kind"]["kind"] for step in report["series"]]
        assert kinds == ["group", "brandt", "brandt"]

    def test_group_report(self, tmp_path, capsys):
        path = str(tmp_path / "s3.json")
        run(capsys, "build", "group", "--group", "S3", "-o", path)
        code, out, _ = run(capsys, "analyze", path)
        report = json.loads(out[out.index("{"):])
        assert report["group"] is True
        assert report["solvable"] is True
        assert report["derived_length"] == 2
        assert report["dedekind"] is False

    def test_corrupt_table_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kind": "semigroup", "size": 2, "labels": ["p", "q"],
            "mul": [[0, 1], [1, 1]], "meta": {},
        }))
        # table is a valid magma but not associative? [[0,1],[1,1]]:
        # (q q) q = q, q (q q) = q ... make it non-associative explicitly
        path.write_text(json.dumps({
            "kind": "semigroup", "size": 2, "labels": ["p", "q"],
            "mul": [[1, 0], [0, 0]], "meta": {},
        }))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "mul-associative" in err

    # hall(2) with one cell broken, and the message the slab scan gives
    BROKEN_HALL2 = {
        # 01|10 + 11|10 = 11|10 + 01|10 set to 11|11
        "left-distributive": ("add", [(0, 1), (1, 0)], 6,
                              "left-distributive fails at (01|10, 01|10, 11|10)"),
        # (01|10)(01|10) set to 01|10
        "mul-associative": ("mul", [(0, 0)], 0,
                            "mul-associative fails at (01|10, 01|10, 11|10)"),
    }

    @pytest.mark.parametrize("light", [False, True], ids=["slab", "light"])
    @pytest.mark.parametrize("law", sorted(BROKEN_HALL2))
    def test_broken_hall2_exits_2_with_the_first_bad_triple(self, law, light,
                                                             tmp_path, capsys):
        name, cells, value, message = self.BROKEN_HALL2[law]
        hall2 = hall_semiring(2)
        tables = {"mul": np.array(hall2.mul), "add": np.array(hall2.add)}
        for cell in cells:
            tables[name][cell] = value
        path = str(tmp_path / "broken.json")
        FiniteAlgebra(hall2.kind, hall2.labels, star=hall2.star, **tables).save(path)
        size = 1 if light else core._LIGHT_MIN_SIZE
        with mock.patch.multiple(core, _LIGHT_MIN_SIZE=size, _LIGHT_MAX_SHARE=1):
            code, out, err = run(capsys, "analyze", path)
        assert (code, out, err) == (2, "", f"validation failed: {message}\n")

    @pytest.mark.parametrize("group", ["S4", "S5"])
    def test_analyze_runs_the_associativity_engine_once(self, group, tmp_path, capsys):
        # S5 is past the subgroup budget, so exponent and derived length ask too
        path = str(tmp_path / "g.json")
        symmetric_group(int(group[1])).save(path)
        with mock.patch.object(core, "_associativity", wraps=core._associativity) as spy:
            code, _, _ = run(capsys, "analyze", path)
        assert code == 0 and spy.call_count == 1

    def test_analyze_reports_other_group_errors(self, tmp_path, capsys, monkeypatch):
        # only the subgroup budget takes the fallback; any other refusal
        # exits 2 with its own message
        def refuse(alg):
            raise NotAGroup("refused for the test")

        path = str(tmp_path / "s3.json")
        symmetric_group(3).save(path)
        monkeypatch.setattr(analysis, "group_analytics", refuse)
        assert run(capsys, "analyze", path) == (2, "", "error: refused for the test\n")

    def test_analyze_finds_the_maximal_subgroups_once(self, tmp_path, capsys):
        # the principal series carries them; the report reads them from there
        path = str(tmp_path / "b21.json")
        run(capsys, "build", "b21", "-o", path)
        with mock.patch.object(analysis, "maximal_subgroups",
                               wraps=analysis.maximal_subgroups) as spy:
            code, out, _ = run(capsys, "analyze", path)
        assert code == 0 and spy.call_count == 1
        report = json.loads(out[out.index("{"):])
        want = analysis.maximal_subgroups(mult_reduct(brandt_monoid_b21()))
        assert report["subgroups"] == [{"idempotent": e, "order": len(members)}
                                       for e, members in want]

    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "nolabels.json"
        path.write_text(json.dumps({"kind": "semigroup", "mul": [[0]]}))
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out, err) == (2, "", "error: algebra data has no 'labels'\n")


class TestWords:
    def test_v_word_text(self, capsys):
        code, out, _ = run(capsys, "words", "v", "--n", "1", "--m", "1",
                           "--height", "1")
        assert code == 0 and out.strip() == "x1 x2 x1 x2"

    def test_u_word_text(self, capsys):
        code, out, _ = run(capsys, "words", "u", "--n", "2", "--k", "1",
                           "--m", "1")
        assert code == 0 and out.strip() == "x1 x2 x3 x2 x1 x3"

    def test_w_word_json(self, capsys):
        code, out, _ = run(capsys, "words", "w", "--n", "2", "--height", "1",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alphabet"] == ["x1", "x2"]
        assert payload["letters"][2] == {"indices": [1], "exp": -1}

    def test_budget_error_exits_2(self, capsys):
        code, _, err = run(capsys, "words", "v", "--n", "2", "--m", "4",
                           "--height", "5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv", [["v", "--n", "2", "--height", "100000"],
                                      ["u", "--n", "1", "--m", "500001"]])
    def test_past_the_length_budget_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "words", *argv)
        assert (code, out) == (2, "")
        assert "exceed" in err and "integer string conversion" not in err


BUILDS = {"b21": ["b21"], "S3": ["group", "--group", "S3"]}

# (exit code, sha256 of stdout) of `check --identity 'v[2,4,5] = v[2,4,5]^2'`
# with --samples 1000 in sampled mode: b21 holds; on S3 both modes print a
# witness of all 1,024 variables.  b21's sampled output also carries
# zero_samples and its note; without them it printed the bytes of
# B21_SAMPLED_BEFORE.
PINNED_V245 = {
    ("b21", "block"): (0, "9cb80bd802f472f4a17d0d35745f7bf8527ba29b18872e8cf61f3b0df5db99a3"),
    ("b21", "sampled"): (0, "f403981812aaa1411830b76a3c179c35165ec492719cb974f77a965a293695ec"),
    ("S3", "block"): (1, "3830ee9d8ee83275e3ec12273214be13b005f9c2c97a4cef121f591ff6295e52"),
    ("S3", "sampled"): (1, "ee3a71178eae5b8264fe44d77f8eb25bd578feb63eb9236e366c912fbf29a70a"),
}
B21_SAMPLED_BEFORE = "aeaa01d7689e45a59c4eba0c87cfa39ce2cf8a97077461ec9f33896a723e1b27"


class TestCheck:
    @pytest.fixture()
    def b21_path(self, tmp_path, capsys):
        path = str(tmp_path / "b21.json")
        run(capsys, "build", "b21", "-o", path)
        return path

    def test_exhaustive_holds_exit_0(self, b21_path, capsys):
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "x1^2 = x1^4")
        assert code == 0
        assert json.loads(out)["status"] == "holds"

    def test_counterexample_exit_1(self, b21_path, capsys):
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "x1 x2 = x2 x1")
        assert code == 1
        payload = json.loads(out)
        assert payload["witness"] == {"x1": "a", "x2": "b"}

    def test_budget_exit_2(self, b21_path, capsys):
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "x1 x2 x3 = x3 x2 x1",
                           "--budget", "10")
        assert code == 2
        assert json.loads(out)["status"] == "budget_exceeded"

    @pytest.mark.parametrize("env, argv, source", [
        ("abc", [], "BGLAB_BUDGET"), ("-5", [], "BGLAB_BUDGET"),
        ("", ["--budget", "-3"], "the budget argument")], ids=["abc", "-5", "--budget -3"])
    def test_bad_budget_exits_2_naming_its_source(self, b21_path, capsys, monkeypatch,
                                                  env, argv, source):
        monkeypatch.setenv("BGLAB_BUDGET", env)
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1 x2 = x2 x1", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {source} must be an integer >= 0, not ")
        assert "invalid literal" not in err

    @pytest.mark.parametrize("mode", [["--mode", "block"],
                                      ["--mode", "sampled", "--samples", "100000"]])
    def test_budget_reaches_block_and_sampled_mode(self, b21_path, capsys, mode):
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "v[2,1,2] = v[2,1,2]^2",
                           "--budget", "10", *mode)
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "budget_exceeded"
        assert payload["evaluations"] == 0 and "budget 10" in payload["note"]

    def test_family_shorthand_sampled(self, b21_path, capsys):
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "v[2,4,5] = v[2,4,5]^2",
                           "--mode", "sampled", "--samples", "500",
                           "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "no_counterexample_found"
        assert payload["seed"] == 1

    @pytest.mark.parametrize("bad", [["--samples", "0"], ["--samples", "-5"],
                                     ["--seed", "-1"], ["--seed", str(2**64)]])
    def test_bad_sample_count_or_seed_exits_2(self, b21_path, capsys, bad):
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1^2 = x1^4", "--mode", "sampled", *bad)
        assert code == 2 and out == "" and "error" in err

    def test_block_mode(self, tmp_path, capsys):
        path = str(tmp_path / "b2.json")
        run(capsys, "build", "brandt", "--group", "C1", "--indices", "2",
            "-o", path)
        code, out, _ = run(capsys, "check", "--algebra", path,
                           "--identity", "v[2,2,3] = v[2,2,3]^2",
                           "--mode", "block")
        assert code == 0
        assert json.loads(out)["status"] == "holds"

    @pytest.mark.parametrize("algebra", sorted(BUILDS))
    def test_block_mode_reads_either_orientation(self, algebra, tmp_path, capsys):
        # v^2 = v is the identity v = v^2: the same exit code and the same
        # output, verdict and witness, as the pinned run
        path = str(tmp_path / "alg.json")
        run(capsys, "build", *BUILDS[algebra], "-o", path)
        runs = [run(capsys, "check", "--algebra", path, "--mode", "block",
                    "--identity", identity)
                for identity in ("v[2,4,5] = v[2,4,5]^2", "v[2,4,5]^2 = v[2,4,5]")]
        assert runs[0] == runs[1]
        code, out, _ = runs[1]
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_V245[algebra,
                                                                              "block"]

    @pytest.mark.parametrize("identity", [
        "v[2,1,2] = v[2,1,2]^3", "v[2,1,2]^3 = v[2,1,2]",
        "v[2,1,2] = v[2,1,3]^2", "v[2,2,2]^2 = v[2,1,2]",
        "v[2,1,2] = v[2,1,2]", "v[2,1,2]^2 = v[2,1,2]^2",
        "u[1,1,1] = u[1,1,1]^2", "w[1,1]^2 = w[1,1]"])
    def test_block_mode_refuses_other_identities(self, identity, b21_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(checker, "check_v_square_image", lambda *a, **k: pytest.fail())
        code, out, err = run(capsys, "check", "--algebra", b21_path, "--mode", "block",
                             "--identity", identity)
        assert (code, out, err) == (2, "", "error: block mode expects v[n,m,h] = "
                                           "v[n,m,h]^2 or v[n,m,h]^2 = v[n,m,h]\n")

    def test_domain_restriction_file(self, b21_path, tmp_path, capsys):
        dom = tmp_path / "units.json"
        dom.write_text(json.dumps(["1", "0"]))
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "x1 x2 = x2 x1",
                           "--domain", f"x1={dom}")
        assert code == 0

    @pytest.mark.parametrize("identity,names", [
        ("x1 x2 x1 = x1", ["x1", "x2"]),
        ("u[1,1,1] = x1", ["x1", "x2"]),
        ("v[1,1,1] = u[1,2,1]", ["x1", "x2", "x3"]),
    ])
    def test_witness_binds_one_variable_per_name(self, b21_path, capsys,
                                                 identity, names):
        from bglab.cli import _parse_identity_arg
        from bglab.terms import evaluate
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", identity)
        assert code == 1
        witness = json.loads(out)["witness"]
        lhs, rhs = _parse_identity_arg(identity)
        variables = set(lhs.variables()) | set(rhs.variables())
        assert sorted(witness) == sorted(v.name for v in variables) == names
        alg = load_algebra(b21_path)
        sub = {v: alg.index(witness[v.name]) for v in variables}
        assert evaluate(lhs, sub, alg) != evaluate(rhs, sub, alg)

    def test_star_identity_on_involution_semigroup(self, tmp_path, capsys):
        from bglab.terms import evaluate, parse_identity
        path = str(tmp_path / "ips3.json")
        run(capsys, "build", "involution-power", "--group", "S3", "-o", path)
        code, out, _ = run(capsys, "check", "--algebra", path,
                           "--identity", "x1 x1' x1 = x1")
        assert code == 1
        witness = json.loads(out)["witness"]
        alg = load_algebra(path)
        lhs, rhs = parse_identity("x1 x1' x1 = x1")
        sub = {v: alg.index(witness[v.name]) for v in lhs.variables()}
        assert evaluate(lhs, sub, alg) != evaluate(rhs, sub, alg)

    def test_unknown_domain_name_exits_2(self, b21_path, tmp_path, capsys):
        dom = tmp_path / "units.json"
        dom.write_text(json.dumps(["1", "0"]))
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1 x2 = x2 x1",
                             "--domain", f"x3={dom}")
        assert code == 2 and "x3" in err and out == ""

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("bad", [-1, 7, 99])
    def test_domain_outside_the_carrier_exits_2(self, b21_path, tmp_path, capsys,
                                                bad, mode):
        # [-1] once read as element 5 ("f"), [7] and [99] raised an IndexError
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps([bad]))
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1 x2 = x1", "--mode", mode,
                             "--domain", f"x2={dom}")
        assert (code, out, err) == (2, "", f"error: index {bad} is outside 0..5\n")

    def test_domain_label_not_in_the_carrier_exits_2(self, b21_path, tmp_path,
                                                     capsys):
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps(["1", "zz"]))
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1 x2 = x1", "--domain", f"x2={dom}")
        assert (code, out, err) == (2, "", "error: no element is labelled 'zz'\n")

    @pytest.mark.parametrize("content", ["[null]", "[1.5]", '{"a": 1}', "[true]",
                                         "not json"],
                             ids=["null", "float", "object", "bool", "not-json"])
    def test_domain_file_of_other_content_exits_2(self, b21_path, tmp_path, capsys,
                                                  content):
        # [null] once crashed, [1.5] was read as element 1 and {"a": 1} as its keys
        dom = tmp_path / "dom.json"
        dom.write_text(content)
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1 x2 = x1", "--domain", f"x2={dom}")
        assert (code, out, err) == (
            2, "", f"error: --domain file {dom} must hold a JSON list of element "
                   "labels or indices\n")

    def test_domain_without_a_file_exits_2(self, b21_path, capsys):
        code, out, err = run(capsys, "check", "--algebra", b21_path,
                             "--identity", "x1 x2 = x1", "--domain", "x2")
        assert (code, out, err) == (
            2, "", "error: --domain expects NAME=FILE, got 'x2'\n")

    def test_block_mode_refuses_a_domain(self, b21_path, tmp_path, capsys, monkeypatch):
        # the image sweep ranges over the whole carrier; a domain it ignored
        # once printed the unrestricted verdict, holds with 36 evaluations
        dom = tmp_path / "dom.json"
        dom.write_text(json.dumps(["0", "1"]))
        monkeypatch.setattr(checker, "check_v_square_image", lambda *a, **k: pytest.fail())
        code, out, err = run(capsys, "check", "--algebra", b21_path, "--mode", "block",
                             "--identity", "v[1,1,1] = v[1,1,1]^2", "--domain", f"x1={dom}")
        assert code == 2 and out == "" and "--domain" in err

    def test_block_mode_beyond_n_2(self, b21_path, tmp_path, capsys):
        from bglab.terms import PowerOf, evaluate, v_word
        code, out, _ = run(capsys, "check", "--algebra", b21_path,
                           "--identity", "v[3,1,2] = v[3,1,2]^2",
                           "--mode", "block")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "holds"
        assert payload["evaluations"] == 6**6 + 4**6
        # 64^6 block-value tuples per level: out of reach for a tuple scan
        path = str(tmp_path / "ps3.json")
        run(capsys, "build", "power-semiring", "--group", "S3", "-o", path)
        code, out, _ = run(capsys, "check", "--algebra", path,
                           "--identity", "v[3,1,2] = v[3,1,2]^2",
                           "--mode", "block")
        assert code == 1
        witness = json.loads(out)["witness"]
        alg = load_algebra(path)
        v = v_word(3, 1, 2)
        sub = {x: alg.index(witness[x.name]) for x in v.variables()}
        assert len(sub) == len(witness) == 36
        assert evaluate(v, sub, alg) != evaluate(PowerOf(v, 2), sub, alg)

    @pytest.mark.parametrize("data,message", [
        ({"labels": ["a", "b"], "mul": [[0.7, 1], [1, 0.2]]},
         "'mul' must hold int32 integers, not float64 values"),
        ({"labels": ["a", "b"], "mul": [[0, 1], [1, True]]},
         "'mul' must hold int32 integers, not bool values"),
        ({"labels": "ab", "mul": [[True, False], [False, True]]},
         "'labels' must be a list"),
    ], ids=["float-table", "bool-among-integers", "string-labels"])
    def test_malformed_table_exits_2(self, data, message, tmp_path, capsys):
        path = str(tmp_path / "alg.json")
        Path(path).write_text(json.dumps({"kind": "semigroup", **data}))
        code, out, err = run(capsys, "check", "--algebra", path,
                             "--identity", "x1 x2 = x2 x1")
        assert (code, out, err) == (2, "", f"error: algebra data {message}\n")

    @pytest.mark.parametrize("command", [
        ["analyze"], ["check", "--identity", "x1 x2 = x2 x1", "--algebra"]],
        ids=["analyze", "check"])
    @pytest.mark.parametrize("data,message", [
        ({"labels": ["a", "b"], "meta": [1]}, "'meta' must be a JSON object"),
        ({"labels": ["a", "b"], "meta": "xy"}, "'meta' must be a JSON object"),
        ({"labels": [1, 2]}, "'labels' must be strings"),
        ({"labels": ["a"], "mul": None}, "'mul' must be a list, not null"),
        ({"kind": "involution-semigroup", "labels": ["a"], "mul": [[0]], "star": 0},
         "'star' must be a list, not a scalar"),
    ], ids=["list-meta", "string-meta", "integer-labels", "null-table", "scalar-star"])
    def test_malformed_meta_or_labels_exit_2(self, command, data, message, tmp_path,
                                              capsys):
        # [1] as meta and a null table once died with a TypeError and exit
        # 1, the counterexample code of check; integer labels and a scalar
        # star loaded silently
        path = str(tmp_path / "alg.json")
        Path(path).write_text(json.dumps({"kind": "semigroup",
                                          "mul": [[0, 1], [1, 0]], **data}))
        code, out, err = run(capsys, *command, path)
        assert (code, out, err) == (2, "", f"error: algebra data {message}\n")

    @pytest.mark.parametrize("identity,form", [
        ("v[1,1] = v[1,1]^2", "v[n,m,h]"),
        ("x1 = v[1,1,1,1]^2", "v[n,m,h]"),
        ("u[1,1,1,5] = x1", "u[n,k,m]"),
        ("w[2,2,100] = x1 x1", "w[n,h]"),
        ("w[1,1,1] = x1", "w[n,h]"),
    ])
    def test_word_family_with_the_wrong_parameter_count_exits_2(self, identity, form,
                                                                  b21_path, capsys):
        # too few or too many once died with a TypeError and exit 1, and a
        # third w parameter was read as the length budget
        code, out, err = run(capsys, "check", "--algebra", b21_path, "--identity", identity)
        assert code == 2 and out == "" and err.endswith(f"but the form is {form}\n")

    @pytest.mark.parametrize("table,triple,exhaustive", [
        ([[0, 2, 1], [2, 2, 0], [1, 0, 2]], "(0, 0, 1)", 1),
        ([[0, 0, 1], [1, 1, 1], [2, 1, 1]], "(0, 0, 2)", 0),
    ], ids=["read-holds", "read-counterexample"])
    def test_block_mode_refuses_a_non_associative_table(self, tmp_path, capsys,
                                                        table, triple, exhaustive):
        # the sweep multiplies from both ends; on these magmas it once read
        # holds where the exhaustive scan finds a counterexample, and the
        # other way round
        path = str(tmp_path / "magma.json")
        FiniteAlgebra("semigroup", ("0", "1", "2"), table).save(path)
        identity = ["--identity", "v[3,1,1] = v[3,1,1]^2"]
        code, out, err = run(capsys, "check", "--algebra", path, "--mode", "block",
                             *identity)
        assert (code, out, err) == (
            2, "", "error: the block-value image check needs an associative table: "
                   f"mul-associative fails at {triple}\n")
        code, out, _ = run(capsys, "check", "--algebra", path, *identity)
        assert code == exhaustive and json.loads(out)["evaluations"] == 3**6

    def test_block_check_builds_no_word(self, b21_path, capsys, monkeypatch):
        # the image engine reads (n, m, h) alone: no variable is built and
        # no node's blocks are read, by the library or by the CLI
        built, read = [], []
        monkeypatch.setattr(terms.Variable, "__post_init__", lambda v: built.append(v))
        monkeypatch.setattr(terms.BlockWord, "blocks", property(read.append),
                            raising=False)
        lhs, rhs = _parse_identity_arg("v[2,4,5] = v[2,4,5]^2")
        assert rhs.base is lhs == terms.BlockWord(2, 4, 5)
        assert checker.check_v_square_image(brandt_monoid_b21(), 2, 4, 5).status == "holds"
        code, out, _ = run(capsys, "check", "--algebra", b21_path, "--mode", "block",
                           "--identity", "v[2,4,5] = v[2,4,5]^2")
        assert (code, json.loads(out)["status"]) == (0, "holds")
        assert built == [] and read == []

    @pytest.mark.parametrize("algebra,mode", sorted(PINNED_V245))
    def test_v245_output_is_pinned(self, algebra, mode, tmp_path, capsys):
        path = str(tmp_path / "alg.json")
        run(capsys, "build", *BUILDS[algebra], "-o", path)
        samples = ["--samples", "1000"] if mode == "sampled" else []
        code, out, _ = run(capsys, "check", "--algebra", path,
                           "--identity", "v[2,4,5] = v[2,4,5]^2", "--mode", mode,
                           *samples)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == PINNED_V245[algebra, mode]
        assert len(json.loads(out).get("witness", {})) == (1024 if code else 0)

    @pytest.mark.parametrize("algebra", sorted(BUILDS))
    def test_sampled_output_reports_zero_samples(self, algebra, tmp_path, capsys):
        path = str(tmp_path / "alg.json")
        run(capsys, "build", *BUILDS[algebra], "-o", path)
        code, out, _ = run(capsys, "check", "--algebra", path, "--identity",
                           "v[2,4,5] = v[2,4,5]^2", "--mode", "sampled", "--samples", "1000")
        payload = json.loads(out)
        if algebra == "S3":  # no zero: no key, and the output is as before
            assert code == 1 and "zero_samples" not in payload and "note" not in payload
            return
        # every b21 sample ends at the zero; the rest of the output is as before
        assert payload.pop("zero_samples") == payload["evaluations"] == 1000
        assert payload.pop("note") == "all 1000 samples ended at the zero on both sides"
        before = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(before.encode()).hexdigest() == B21_SAMPLED_BEFORE

    def test_sampled_counterexample_counts_its_zero_samples(self, b21_path, capsys):
        code, out, _ = run(capsys, "check", "--algebra", b21_path, "--identity",
                           "x1 x2 = x2 x1", "--mode", "sampled", "--samples", "1000",
                           "--seed", "3")
        payload = json.loads(out)
        assert code == 1 and 0 < payload["zero_samples"] < payload["evaluations"]
        assert "note" not in payload


class TestVerifySuite:
    def test_quick_profile_passes(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code, out, _ = run(capsys, "verify-suite", "--profile", "quick",
                           "-o", report_path)
        assert code == 0
        assert "suite: PASS" in out
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["pass"] is True
        by_id = {c["id"]: c for c in report["checks"]}
        # the impossible star check is recorded, failing, non-mandatory
        assert by_id["a08b-hall-star"]["status"] == "fail"
        assert by_id["a08b-hall-star"]["mandatory"] is False
        mandatory = [c for c in report["checks"] if c["mandatory"]]
        assert all(c["status"] == "pass" for c in mandatory)
        assert len(mandatory) == 11

    def test_out_of_range_seed_exits_2_before_any_check(self, capsys, monkeypatch):
        def no_check(*args):
            raise AssertionError("ran a check")

        monkeypatch.setattr(suite, "run_check", no_check)
        code, out, err = run(capsys, "verify-suite", "--seed", "-1")
        assert code == 2 and out == "" and "seed -1" in err

    def test_bad_budget_exits_2_before_any_check(self, capsys, monkeypatch):
        def no_check(*args):
            raise AssertionError("ran a check")

        monkeypatch.setattr(suite, "run_check", no_check)
        monkeypatch.setenv("BGLAB_BUDGET", "abc")
        with pytest.raises(BglabError, match="^BGLAB_BUDGET must be"):
            suite.run_suite()
        code, out, err = run(capsys, "verify-suite")
        assert (code, out) == (2, "")
        assert err == "error: BGLAB_BUDGET must be an integer >= 0, not 'abc'\n"

    def test_runs_as_python_dash_m(self):
        src = str(Path(bglab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "bglab", "verify-suite",
                               "--profile", "quick"], env=env, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert "suite: PASS (quick profile)" in done.stdout
