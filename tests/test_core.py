import gzip
import json

import numpy as np
import pytest

from bglab.core import (
    AxiomViolation,
    FiniteAlgebra,
    load_algebra,
    mult_reduct,
    validate,
    validate_ai_semiring,
    validate_involution,
    validate_semigroup,
)
from bglab.errors import BglabError, MissingTable


def brute_assoc_violation(table):
    """Independent oracle: first non-associative triple in index order."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return (x, y, z)
    return None


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


class TestValidateSemigroup:
    def test_b21_multiplication_is_associative(self, b21):
        assert validate_semigroup(b21) is None

    def test_single_element(self):
        assert validate_semigroup(semigroup([[0]])) is None

    def test_first_violation_matches_brute_force(self):
        # 0*0=1 breaks associativity; the witness must be the index-least triple
        table = [[1, 0], [0, 0]]
        bad = validate_semigroup(semigroup(table))
        expected = brute_assoc_violation(table)
        assert expected is not None
        assert bad == AxiomViolation("mul-associative", expected)
        x, y, z = bad.witness
        assert table[table[x][y]][z] != table[x][table[y][z]]

    @pytest.mark.parametrize("seed", range(8))
    def test_violations_replay_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 4, size=(4, 4)).tolist()
        bad = validate_semigroup(semigroup(table))
        assert (bad.witness if bad else None) == brute_assoc_violation(table)

    def test_missing_table_only_for_richer_validators(self, b2):
        with pytest.raises(MissingTable):
            validate_ai_semiring(b2)
        with pytest.raises(MissingTable):
            validate_involution(b2)


class TestValidateAiSemiring:
    def test_b21_is_an_ai_semiring(self, b21):
        assert validate_ai_semiring(b21) is None

    def test_semilattice_with_mul_equal_add(self):
        # meet table of the 3-chain used for both operations
        meet = [[min(i, j) for j in range(3)] for i in range(3)]
        alg = FiniteAlgebra("ai-semiring", ("0", "1", "2"), meet, add=meet)
        assert validate_ai_semiring(alg) is None

    def test_xor_addition_fails_idempotency_at_one(self):
        mul = [[0, 0], [0, 1]]
        xor = [[0, 1], [1, 0]]
        alg = FiniteAlgebra("ai-semiring", ("0", "1"), mul, add=xor)
        bad = validate_ai_semiring(alg)
        assert bad == AxiomViolation("add-idempotent", (1,))

    def test_broken_distributivity_is_caught(self):
        mul = [[0, 0], [0, 1]]
        add = [[0, 1], [1, 1]]  # join: distributes
        alg = FiniteAlgebra("ai-semiring", ("0", "1"), mul, add=add)
        assert validate_ai_semiring(alg) is None
        skew = [[1, 1], [1, 1]]  # constant add: x(y+z) = x, xy+xz = 1
        alg = FiniteAlgebra("ai-semiring", ("0", "1"), mul, add=skew)
        bad = validate_ai_semiring(alg)
        assert bad is not None and bad.law == "add-idempotent"

    def test_power_semiring_validates(self, ps3):
        assert validate_ai_semiring(ps3) is None


class TestValidateInvolution:
    def test_b21_transpose_star(self, b21):
        assert validate_involution(b21) is None

    def test_identity_star_on_commutative_semigroup(self, z4):
        alg = FiniteAlgebra("involution-semigroup", z4.labels, z4.mul,
                            star=list(range(4)))
        assert validate_involution(alg) is None

    def test_swapping_both_pairs_breaks_antiautomorphism(self, b21):
        # swap a<->b and e<->f on top of the matrix tables
        swap = [0, 1, 3, 2, 5, 4]
        alg = FiniteAlgebra("involution-ai-semiring", b21.labels, b21.mul,
                            add=b21.add, star=swap)
        bad = validate_involution(alg)
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
        assert validate_involution(alg) is None

    def test_additive_star_law_checked_when_add_present(self, hall2):
        assert validate_involution(hall2) is None

    def test_validate_dispatches_on_kind(self, b21, ps3, ips3, b2):
        for alg in (b21, ps3, ips3, b2):
            assert validate(alg) is None


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

    def test_data_that_is_no_object_is_refused(self):
        with pytest.raises(BglabError, match="^algebra data must be a JSON object$"):
            FiniteAlgebra.from_dict([["semigroup"]])
