import gc
import gzip
import json
import weakref

import numpy as np
import pytest

from bglab import analysis, core
from bglab.analysis import principal_series
from bglab.checker import check_v_square_image
from bglab.constructions import power_semiring, symmetric_group
from bglab.core import (
    AxiomViolation,
    FiniteAlgebra,
    load_algebra,
    mult_reduct,
    validate,
)
from bglab.errors import BglabError
from bglab.terms import evaluate_batch, flat_kernel, v_word


def brute_assoc_violation(table):
    """Independent oracle: first non-associative triple in index order."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


def brute_zero(table):
    """Independent oracle: the element z with z x = x z = z for every x."""
    n = len(table)
    zeros = [z for z in range(n) if all(table[z][x] == z == table[x][z] for x in range(n))]
    return zeros[0] if zeros else None


def semigroup(table, labels=None):
    labels = labels or tuple(f"t{i}" for i in range(len(table)))
    return FiniteAlgebra("semigroup", labels, table)


class TestFiniteAlgebra:
    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match="indices"):
            semigroup([[0, 2], [0, 0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteAlgebra("semigroup", ("x", "x"), [[0, 0], [0, 0]])

    def test_rejects_kind_table_mismatch(self):
        with pytest.raises(ValueError, match="add"):
            FiniteAlgebra("ai-semiring", ("a",), [[0]])
        with pytest.raises(ValueError, match="star"):
            FiniteAlgebra("semigroup", ("a",), [[0]], star=[0])

    def test_tables_are_immutable(self, b21):
        with pytest.raises(ValueError):
            b21.mul[0, 0] = 1

    def test_mult_reduct_drops_extras(self, b21):
        red = mult_reduct(b21)
        assert red.kind == "semigroup"
        assert red.add is None and red.star is None
        assert np.array_equal(red.mul, b21.mul)

    def test_mult_reduct_is_one_object_per_algebra(self, b21):
        assert mult_reduct(b21) is mult_reduct(b21)
        alg = FiniteAlgebra("ai-semiring", ("a", "b"), [[0, 1], [1, 1]],
                            add=[[0, 1], [1, 1]])
        red = weakref.ref(mult_reduct(alg))
        del alg
        gc.collect()
        assert red() is None


def read_mul_everywhere(alg, reduct_first):
    """Every call that needs mul's associativity, on alg and on its reduct:
    validate, the principal series, the image check and block-word
    evaluation, with the reduct's calls first or last."""
    red = mult_reduct(alg)
    word = v_word(2, 4, 2)
    draws = np.random.default_rng(0).integers(0, alg.size, (len(word.variables()), 8))
    sub = dict(zip(word.variables(), draws))
    on_alg = {"validate": lambda: validate(alg),
              "evaluate": lambda: evaluate_batch(word, sub, alg).tolist()}
    on_red = {"series": lambda: principal_series(red).to_dict(),
              "image": lambda: check_v_square_image(red, 2, 1, 1).status,
              "evaluate reduct": lambda: evaluate_batch(word, sub, red).tolist()}
    steps = {**on_red, **on_alg} if reduct_first else {**on_alg, **on_red}
    return {name: step() for name, step in steps.items()}


def analyze_sequence(alg):
    """The `bglab analyze` calls on a semigroup that is not a group."""
    red = mult_reduct(alg)
    core_set = analysis.idempotent_generated(red)
    return {"block group": analysis.is_block_group(red),
            "j-trivial core": analysis.j_trivial(red, core_set),
            "series": analysis.principal_series(red).to_dict(),
            "subgroups": analysis.maximal_subgroups(red)}


class TestRecord:
    """One record of facts per algebra object: mul's associativity, its
    Green's rows, idempotents and maximal subgroups are decided once for
    an algebra and its reduct, and the record keeps neither alive."""

    @pytest.mark.parametrize("reduct_first", [False, True],
                             ids=["algebra-first", "reduct-first"])
    def test_one_decision_per_table(self, monkeypatch, reduct_first):
        alg = power_semiring(symmetric_group(3))  # 64 elements: Light's test
        gens_of_mul, laws = [], []
        generators, associativity = core._generators, core._associativity
        monkeypatch.setattr(core, "_generators",
                            lambda t: gens_of_mul.append(t is alg.mul) or generators(t))
        monkeypatch.setattr(core, "_associativity",
                            lambda t, law, gens: laws.append(law) or associativity(t, law, gens))
        out = read_mul_everywhere(alg, reduct_first)
        assert out["validate"] is None and out["evaluate"] == out["evaluate reduct"]
        assert gens_of_mul.count(True) == 1 and laws.count("mul-associative") == 1

    def test_the_zero_is_decided_once_for_the_algebra_and_its_reduct(self):
        alg = power_semiring(symmetric_group(3))
        assert flat_kernel(alg).zero == alg.index("{}")
        memo = alg._facts["mul"]
        assert mult_reduct(alg)._facts["mul"] is memo
        memo["zero"] = "decided"  # a second decision would overwrite it
        assert flat_kernel(mult_reduct(alg)).zero == "decided"

    def test_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            alg = power_semiring(symmetric_group(3))
            read_mul_everywhere(alg, reduct_first=False)
            analyze_sequence(alg)
            assert {"green", "idempotents", "subgroups"} <= alg._facts["mul"].keys()
            refs = weakref.ref(alg), weakref.ref(mult_reduct(alg))
            del alg
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


    def test_returned_lists_leave_the_record_alone(self):
        alg = power_semiring(symmetric_group(3))
        subgroups, idems = analysis.maximal_subgroups(alg), analysis.idempotents(alg)
        want = [(e, list(members)) for e, members in subgroups], list(idems)
        subgroups[1][1].append(99)
        subgroups.pop()
        idems.append(99)
        assert (analysis.maximal_subgroups(alg), analysis.idempotents(alg)) == want

    def test_green_record_is_read_only_and_shared_with_the_reduct(self):
        alg = power_semiring(symmetric_group(3))
        green = analysis._green(alg)
        assert analysis._green(mult_reduct(alg)) is green
        for rows in green:
            assert isinstance(rows, tuple) and len(rows) == alg.size
            with pytest.raises(TypeError):
                rows[0] = 0
        with pytest.raises(AttributeError):
            green.ideal = ()

    def test_record_is_built_once_per_table(self, monkeypatch):
        built = []
        ideal_rows = analysis._ideal_rows
        monkeypatch.setattr(analysis, "_ideal_rows",
                            lambda t: built.append(t) or ideal_rows(t))
        alg = mult_reduct(power_semiring(symmetric_group(3)))
        analysis.principal_series(alg)
        analysis._unpacked(analysis._green(alg).ideal, alg.size)
        analysis.j_classes(alg)
        assert analysis.j_trivial(alg) == analysis.j_trivial(alg, range(alg.size))
        assert len(built) == 1
        # any other subset builds its own rows on its own table
        analysis.j_trivial(alg, [0])
        assert len(built) == 2


class TestValidateSemigroup:
    def test_b21_multiplication_is_associative(self, b21):
        assert validate(b21) is None

    def test_single_element(self):
        assert validate(semigroup([[0]])) is None

    def test_first_violation_matches_brute_force(self):
        # 0*0=1 breaks associativity; the witness must be the index-least triple
        table = [[1, 0], [0, 0]]
        bad = validate(semigroup(table))
        expected = brute_assoc_violation(table)
        assert expected is not None
        assert bad == AxiomViolation("mul-associative", expected)
        x, y, z = bad.witness
        assert table[table[x][y]][z] != table[x][table[y][z]]

    @pytest.mark.parametrize("seed", range(8))
    def test_violations_replay_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 4, size=(4, 4)).tolist()
        bad = validate(semigroup(table))
        assert (bad.witness if bad else None) == brute_assoc_violation(table)


class TestMulZero:
    @pytest.mark.parametrize("seed", range(12))
    def test_zero_matches_brute_force_on_random_magmas(self, seed):
        # row z is all z, a left zero; its column is then all z (a zero),
        # all z but one cell (no zero), or random
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        table = rng.integers(0, n, size=(n, n))
        z = int(rng.integers(0, n))
        table[z] = z
        if seed % 3 == 0:
            table[:, z] = z
        elif seed % 3 == 1 and n > 1:
            table[(z + 1) % n, z] = (z + 1) % n
        table = table.tolist()
        assert core.mul_zero({}, np.array(table)) == brute_zero(table)

    def test_zero_of_named_tables(self, b21, b2, s3, hall2):
        assert core.mul_zero({}, b21.mul) == b21.index("0")
        assert core.mul_zero({}, b2.mul) == brute_zero(b2.mul.tolist()) is not None
        assert core.mul_zero({}, hall2.mul) == brute_zero(hall2.mul.tolist()) is not None
        assert core.mul_zero({}, s3.mul) is None
        # the left-zero band: every element a left zero, none a zero
        assert core.mul_zero({}, np.array([[0, 0], [1, 1]])) is None


class TestValidateAiSemiring:
    def test_b21_is_an_ai_semiring(self, b21):
        assert validate(b21) is None

    def test_semilattice_with_mul_equal_add(self):
        # meet table of the 3-chain used for both operations
        meet = [[min(i, j) for j in range(3)] for i in range(3)]
        alg = FiniteAlgebra("ai-semiring", ("0", "1", "2"), meet, add=meet)
        assert validate(alg) is None

    def test_xor_addition_fails_idempotency_at_one(self):
        mul = [[0, 0], [0, 1]]
        xor = [[0, 1], [1, 0]]
        alg = FiniteAlgebra("ai-semiring", ("0", "1"), mul, add=xor)
        bad = validate(alg)
        assert bad == AxiomViolation("add-idempotent", (1,))

    def test_broken_distributivity_is_caught(self):
        mul = [[0, 0], [0, 1]]
        add = [[0, 1], [1, 1]]  # join: distributes
        alg = FiniteAlgebra("ai-semiring", ("0", "1"), mul, add=add)
        assert validate(alg) is None
        skew = [[1, 1], [1, 1]]  # constant add: x(y+z) = x, xy+xz = 1
        alg = FiniteAlgebra("ai-semiring", ("0", "1"), mul, add=skew)
        bad = validate(alg)
        assert bad is not None and bad.law == "add-idempotent"

    def test_power_semiring_validates(self, ps3):
        assert validate(ps3) is None


class TestValidateInvolution:
    def test_b21_transpose_star(self, b21):
        assert validate(b21) is None

    def test_identity_star_on_commutative_semigroup(self, z4):
        alg = FiniteAlgebra("involution-semigroup", z4.labels, z4.mul,
                            star=list(range(4)))
        assert validate(alg) is None

    def test_swapping_both_pairs_breaks_antiautomorphism(self, b21):
        # swap a<->b and e<->f on top of the matrix tables
        swap = [0, 1, 3, 2, 5, 4]
        alg = FiniteAlgebra("involution-ai-semiring", b21.labels, b21.mul,
                            add=b21.add, star=swap)
        bad = validate(alg)
        assert bad is not None and bad.law == "star-antiautomorphism"
        x, y = bad.witness
        assert swap[b21.mul[x, y]] != b21.mul[swap[y], swap[x]]
        # oracle: the scan returns the row-major first offending pair
        firsts = [(x, y) for x in range(6) for y in range(6)
                  if swap[b21.mul[x, y]] != b21.mul[swap[y], swap[x]]]
        assert bad.witness == firsts[0]

    def test_swapping_only_e_f_is_a_second_valid_involution(self, b21):
        # fixing a and b while swapping e and f is an involution too; it is the
        # one induced by transposition on the Hall-relation images
        psi = [0, 1, 2, 3, 5, 4]
        alg = FiniteAlgebra("involution-ai-semiring", b21.labels, b21.mul,
                            add=b21.add, star=psi)
        assert validate(alg) is None

    def test_additive_star_law_checked_when_add_present(self, hall2):
        assert validate(hall2) is None
        # the zero semigroup with the chain 0 < 1 < 2 as its sum: swapping 1
        # and 2 keeps every product 0 but turns 1 + 2 = 2 into 1
        chain = [[max(i, j) for j in range(3)] for i in range(3)]
        alg = FiniteAlgebra("involution-ai-semiring", ("0", "1", "2"), [[0] * 3] * 3,
                            add=chain, star=[0, 2, 1])
        assert validate(alg) == AxiomViolation("star-additive", (1, 2))

    def test_validate_dispatches_on_kind(self, b21, ps3, ips3, b2):
        for alg in (b21, ps3, ips3, b2):
            assert validate(alg) is None


class TestRestrict:
    def test_row_lists_restrict_like_arrays(self):
        # the same values and the same first escape, row-major, on closed
        # and non-closed subsets of random magmas
        rng = np.random.default_rng(7)
        outcomes = set()
        for n in (1, 2, 3, 5, 13, 14, 30):
            table = rng.integers(0, n, (n, n)).astype(np.int32)
            labels = tuple(f"x{i}" for i in range(n))
            for size in range(1, n + 1):
                members = sorted(rng.choice(n, size, replace=False).tolist())
                got = []
                for t in (table, table.tolist()):
                    try:
                        out = core.restrict(t, members, labels)
                    except ValueError as refused:
                        got.append(str(refused))
                    else:
                        got.append(out if isinstance(out, list) else out.tolist())
                assert got[0] == got[1]
                outcomes.add(isinstance(got[0], str))
        assert outcomes == {True, False}

    def test_a_row_list_comes_back_as_a_row_list(self):
        rows = [[0, 1, 1], [1, 1, 2], [2, 2, 2]]
        assert core.restrict(rows, [1, 2], ("a", "b", "c")) == [[0, 1], [1, 1]]
        with pytest.raises(ValueError, match=r"^set not closed: a o c escapes$"):
            core.restrict(rows, [0, 2], ("a", "b", "c"))


class TestJsonRoundTrip:
    def test_plain_round_trip(self, tmp_path, b21):
        path = tmp_path / "b21.json"
        b21.save(path)
        back = load_algebra(path)
        assert back.kind == b21.kind
        assert back.labels == b21.labels
        assert np.array_equal(back.mul, b21.mul)
        assert np.array_equal(back.add, b21.add)
        assert np.array_equal(back.star, b21.star)

    def test_gzip_round_trip_is_reproducible(self, tmp_path, bz2):
        p1, p2 = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        bz2.save(p1)
        bz2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_algebra(p1).labels == bz2.labels
        raw = json.loads(gzip.decompress(p1.read_bytes()))
        assert raw["size"] == bz2.size
        assert raw["mul"] == bz2.mul.tolist()

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size"):
            FiniteAlgebra.from_dict(
                {"kind": "semigroup", "size": 3, "labels": ["x"], "mul": [[0]]})

    @pytest.mark.parametrize("key", ["kind", "labels", "mul"])
    def test_missing_key_is_named(self, key):
        d = {"kind": "semigroup", "labels": ["x"], "mul": [[0]]}
        del d[key]
        with pytest.raises(BglabError, match=f"^algebra data has no '{key}'$"):
            FiniteAlgebra.from_dict(d)

    @pytest.mark.parametrize("key,value,dtype", [
        ("mul", [[0.7, 1], [1, 0.2]], "float64"),
        ("mul", [[True, False], [False, True]], "bool"),
        ("mul", [["0", "1"], ["1", "0"]], "<U1"),
        ("add", [[0, 1], [1, 1.0]], "float64"),
        ("star", [1.9, 0], "float64"),
        ("mul", [[0, 1], [1, 2**32]], "int64"),
        ("mul", [[0, 1], [1, -2**32]], "int64"),
        ("mul", [[0, 1], [1, True]], "bool"),
        ("add", [[0, 1], [False, 1]], "bool"),
        ("star", [0, True], "bool"),
    ])
    def test_tables_that_are_not_int32_integers_are_refused(self, key, value, dtype):
        # a cast to int32 once read 0.7 as 0, true as 1 and "0" as 0, and
        # 2^32 raised an OverflowError, which the command line did not catch;
        # NumPy reads a bool among integers as 0 or 1 in an integer array
        d = {"kind": "involution-ai-semiring", "labels": ["a", "b"],
             "mul": [[0, 1], [1, 0]], "add": [[0, 1], [1, 1]], "star": [0, 1],
             key: value}
        with pytest.raises(BglabError, match=f"^algebra data '{key}' must hold "
                                             f"int32 integers, not {dtype} values$"):
            FiniteAlgebra.from_dict(d)

    @pytest.mark.parametrize("kind,key,value,what", [
        ("semigroup", "mul", None, "null"),
        ("ai-semiring", "add", None, "null"),
        ("involution-semigroup", "star", 0, "a scalar"),
        ("semigroup", "mul", 0, "a scalar"),
    ])
    def test_tables_that_are_no_list_are_refused(self, kind, key, value, what):
        # a null mul once died with a TypeError, and a scalar star was
        # widened to the one-element list [0]
        d = {"kind": kind, "labels": ["a"], "mul": [[0]], key: value}
        with pytest.raises(BglabError, match=f"^algebra data '{key}' must be a list, "
                                             f"not {what}$"):
            FiniteAlgebra.from_dict(d)

    def test_labels_that_are_no_list_are_refused(self):
        # "ab" once read as the labels a, b
        d = {"kind": "semigroup", "labels": "ab", "mul": [[0, 1], [1, 0]]}
        with pytest.raises(BglabError, match="^algebra data 'labels' must be a list$"):
            FiniteAlgebra.from_dict(d)

    @pytest.mark.parametrize("meta", [[1], "xy"], ids=["list", "string"])
    def test_meta_that_is_no_object_is_refused(self, meta):
        # dict() once read [1] with a TypeError and "xy" as a sequence of
        # pairs, neither naming the key
        d = {"kind": "semigroup", "labels": ["a", "b"], "mul": [[0, 1], [1, 0]],
             "meta": meta}
        with pytest.raises(BglabError, match="^algebra data 'meta' must be a JSON object$"):
            FiniteAlgebra.from_dict(d)

    def test_labels_that_are_no_strings_are_refused(self):
        # 1 once loaded as the label "1"; to_dict writes strings only
        d = {"kind": "semigroup", "labels": [1, 2], "mul": [[0, 1], [1, 0]]}
        with pytest.raises(BglabError, match="^algebra data 'labels' must be strings$"):
            FiniteAlgebra.from_dict(d)
        assert FiniteAlgebra("semigroup", (1, 2), [[0, 1], [1, 0]]).labels == ("1", "2")

    def test_data_that_is_no_object_is_refused(self):
        with pytest.raises(BglabError, match="^algebra data must be a JSON object$"):
            FiniteAlgebra.from_dict([["semigroup"]])
