import dataclasses
import hashlib
import json
import tracemalloc
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bglab import analysis as A
from bglab import constructions as C
from bglab import core, corpus, suite
from bglab import terms as T
from bglab.checker import check_identity_exhaustive, check_v_square_image
from bglab.cli import main
from bglab.core import FiniteAlgebra, mul_violation, mult_reduct, validate
from bglab.errors import BglabError, NotAGroup, SubgroupEnumerationBudget


X1 = T.Variable((1,))


def power_law(alg, e1, e2):
    """The exhaustive engine's verdict on x1^e1 = x1^e2."""
    x = T.Word((X1,))
    return check_identity_exhaustive(alg, T.PowerOf(x, e1), T.PowerOf(x, e2))


def corpus_algebras(order):
    """Every corpus table of order 1..order, as a fresh algebra."""
    return [corpus.as_algebra(t)
            for n in range(1, order + 1) for t in corpus.semigroup_tables(n)]


def left_zero(n):
    return FiniteAlgebra("semigroup", tuple(f"l{i}" for i in range(n)),
                         [[i] * n for i in range(n)])


def rectangular_band():
    elems = [(i, j) for i in range(2) for j in range(2)]
    ix = {e: k for k, e in enumerate(elems)}
    table = [[ix[(a[0], b[1])] for b in elems] for a in elems]
    return FiniteAlgebra("semigroup", tuple(map(str, elems)), table)


def clifford_z2_z2():
    """Semilattice of two copies of Z2, {1, g} above {0, h}, listed as
    1, 0, h, g: the class of 0 repeats (at h) before the class of 1 does."""
    return FiniteAlgebra("semigroup", ("1", "0", "h", "g"),
                         [[0, 1, 2, 3], [1, 1, 2, 2], [2, 2, 1, 1], [3, 2, 1, 0]])


def chain_semilattice(n):
    return FiniteAlgebra("semigroup", tuple(f"c{i}" for i in range(n)),
                         [[min(i, j) for j in range(n)] for i in range(n)])


def all_ideals(alg):
    """Oracle: every non-empty two-sided ideal, by scanning all subsets."""
    n = alg.size
    out = []
    for mask in range(1, 1 << n):
        members = {x for x in range(n) if mask >> x & 1}
        if all(int(alg.mul[i, s]) in members and int(alg.mul[s, i]) in members
               for i in members for s in range(n)):
            out.append(frozenset(members))
    return out


# ---------------------------------------------------------------------------
# set-based oracles for the whole-table kernels (ideal masks, inverse matrix)


def oracle_principal_ideal(alg, a):
    """S^1 a S^1 = {a} + aS + Sa + SaS, built as a Python set."""
    mul = alg.mul
    out = {int(a)}
    out.update(int(x) for x in mul[a])
    col = mul[:, a]
    out.update(int(x) for x in col)
    out.update(int(x) for x in mul[col].reshape(-1))
    return frozenset(out)


def oracle_right_ideal(alg, a):
    """aS^1 = {a} + aS, built as a Python set."""
    return {int(a)} | {int(x) for x in alg.mul[a]}


def oracle_left_ideal(alg, a):
    """S^1a = {a} + Sa, built as a Python set."""
    return {int(a)} | {int(x) for x in alg.mul[:, a]}


def oracle_inverses_of(alg, a):
    """All b with aba = a and bab = b, by a scalar scan."""
    mul = alg.mul
    return [b for b in range(alg.size)
            if mul[mul[a, b], a] == a and mul[mul[b, a], b] == b]


def oracle_rows(alg, members):
    out = np.zeros((alg.size, alg.size), dtype=bool)
    for a in range(alg.size):
        out[a, sorted(members(alg, a))] = True
    return out


def oracle_j_classes(alg):
    by_ideal = {}
    for a in range(alg.size):
        by_ideal.setdefault(oracle_principal_ideal(alg, a), []).append(a)
    return sorted(by_ideal.values(), key=lambda c: c[0])


def oracle_j_trivial(alg):
    seen = {}
    for a in range(alg.size):
        ideal = oracle_principal_ideal(alg, a)
        if ideal in seen:
            return False, (seen[ideal], a)
        seen[ideal] = a
    return True, None


def oracle_unique_inverse_violation(alg):
    for a in range(alg.size):
        inv = oracle_inverses_of(alg, a)
        if len(inv) > 1:
            return (a, inv[0], inv[1])
    return None


def oracle_is_brandt(alg):
    """A finite semigroup is Brandt iff it has a zero, is 0-simple and every
    element has exactly one inverse (a 0-simple inverse semigroup)."""
    zeros = [z for z in range(alg.size)
             if (alg.mul[z] == z).all() and (alg.mul[:, z] == z).all()]
    if not zeros or alg.size < 2:
        return False
    full = frozenset(range(alg.size))
    return (all(oracle_principal_ideal(alg, a) == full
                for a in range(alg.size) if a != zeros[0])
            and all(len(oracle_inverses_of(alg, a)) == 1 for a in range(alg.size)))


def oracle_chain(alg):
    """The series' chain by the set-based rule: the least class with no
    other remaining class inside its principal ideal joins next."""
    ideals = {c[0]: (c, oracle_principal_ideal(alg, c[0]))
              for c in oracle_j_classes(alg)}
    chain, current = [], set()
    while ideals:
        rep = min(r for r in ideals
                  if not any(o != r and o in ideals[r][1] for o in ideals))
        current |= set(ideals.pop(rep)[0])
        chain.append(sorted(current))
    return chain


def oracle_brandt_parameters(alg, zero):
    """(group order, index count) of a Brandt semigroup by the set oracles:
    the H-class {a : aa' = e = a'a} of its first non-zero idempotent e, a'
    being a's one inverse, and the number of non-zero idempotents."""
    mul = alg.mul
    idems = [e for e in range(alg.size) if e != zero and mul[e, e] == e]
    inv = [oracle_inverses_of(alg, a)[0] for a in range(alg.size)]
    group = [a for a in range(alg.size)
             if mul[a, inv[a]] == idems[0] == mul[inv[a], a]]
    return len(group), len(idems)


def oracle_maximal_subgroups(alg):
    """For each idempotent e, the group of units of the local monoid eSe,
    by a scan of the table's rows."""
    rows = alg.mul.tolist()
    out = []
    for e in A.idempotents(alg):
        local = sorted({rows[x][e] for x in rows[e]})
        out.append((e, [a for a in local
                        if any(rows[a][b] == e and rows[b][a] == e for b in local)]))
    return out


def series_says_brandt(alg):
    """A semigroup is Brandt iff its series is {0} < S with one Brandt
    factor, for that factor is S/{0}, a copy of S."""
    factors = A.principal_series(alg).factors
    return (len(factors) == 2 and factors[0] == {"kind": "group", "order": 1}
            and factors[1]["kind"] == "brandt")


def boom(*args, **kwargs):
    raise AssertionError("called where the parent's table should be read")


def oracle_factor_kinds(alg, chain):
    """Each factor's kind the way the series once found it: the kernel as
    its own algebra, tested by is_group; every other J-class as its Rees
    factor (class + fresh zero at 0) built as an algebra and tested by the
    set oracle for Brandt semigroups, whose group order and index count
    are read off its H-classes and idempotents."""
    kernel = C.induced_algebra(alg, chain[0])
    kinds = [{"kind": "group", "order": kernel.size} if A.is_group(kernel)
             else {"kind": "other", "size": kernel.size}]
    for lo, hi in zip(chain, chain[1:]):
        table = C.rees_table(alg.mul, sorted(set(hi) - set(lo)))
        size = len(table)
        if not table.any():
            kinds.append({"kind": "zero", "size": size})
            continue
        factor = FiniteAlgebra("semigroup", tuple(map(str, range(size))), table)
        if oracle_is_brandt(factor):
            order, count = oracle_brandt_parameters(factor, 0)
            kinds.append({"kind": "brandt", "group_order": order, "index_count": count})
        else:
            kinds.append({"kind": "other", "size": size})
    return kinds


def oracle_restricted_j_trivial(alg, subset):
    """j_trivial inside the subsemigroup built as its own algebra, the
    witness mapped back to the parent's indices."""
    ok, w = A.j_trivial(C.induced_algebra(alg, subset))
    members = sorted(subset)
    return ok, None if w is None else (members[w[0]], members[w[1]])


def oracle_cases():
    s3 = C.symmetric_group(3)
    yield from corpus_algebras(3)
    yield mult_reduct(C.brandt_monoid_b21())
    yield C.brandt_semigroup(C.cyclic_group(2), 2)
    yield mult_reduct(C.power_semiring(s3))
    yield C.brandt_semigroup(s3, 2)
    yield C.kadourek_semigroup(2, 1)[0]
    yield clifford_z2_z2()


class TestKernelsAgainstSetOracles:
    """The whole-table kernels and everything built on them agree with the
    per-element set computations they replace."""

    def test_masks_classes_and_inverses(self):
        for alg in oracle_cases():
            masks = oracle_rows(alg, oracle_principal_ideal)
            inverses = oracle_rows(alg, oracle_inverses_of)
            assert np.array_equal(A._unpacked(A._green(alg).ideal, alg.size), masks)
            assert np.array_equal(A._reach(alg.mul), oracle_rows(alg, oracle_right_ideal))
            assert np.array_equal(A._reach(alg.mul.T), oracle_rows(alg, oracle_left_ideal))
            green = A._green(alg)
            assert np.array_equal(A._unpacked(green.right, alg.size),
                                  oracle_rows(alg, oracle_right_ideal))
            assert np.array_equal(A._unpacked(green.left, alg.size),
                                  oracle_rows(alg, oracle_left_ideal))
            assert np.array_equal(A.inverse_matrix(alg), inverses)
            assert A.j_classes(alg) == oracle_j_classes(alg)
            assert A.j_trivial(alg) == oracle_j_trivial(alg)
            assert A.unique_inverse_violation(alg) == oracle_unique_inverse_violation(alg)

    def test_brandt_recognition_and_series(self, monkeypatch):
        cases = list(oracle_cases())
        got = []
        for alg in cases:
            assert series_says_brandt(alg) == oracle_is_brandt(alg)
            rep = A.principal_series(alg)
            assert rep.chain == oracle_chain(alg)
            got.append(rep.to_dict())
        # the same reports with the rows aS^1 and S^1a, which the series
        # reads as _ideal_rows of mul, computed from the set oracles
        built = []

        def oracle_ideal_rows(table):
            built.append(table)
            alg = FiniteAlgebra("semigroup", tuple(map(str, range(len(table)))),
                                np.array(table))
            return tuple(tuple(sum(1 << x for x in ideal(alg, a)) for a in range(alg.size))
                         for ideal in (oracle_right_ideal, oracle_left_ideal))

        monkeypatch.setattr(A, "_ideal_rows", oracle_ideal_rows)
        for alg, series in zip(cases, got):
            before = len(built)
            # a fresh copy starts an empty record, so the series builds anew
            assert series == A.principal_series(dataclasses.replace(alg)).to_dict()
            assert len(built) == before + 1

    def test_row_lists_and_packed_masks_agree(self, monkeypatch):
        # the Green rows from row lists and from packed masks, on tables on
        # both sides of _MASK_MIN_SIZE, associative or not
        rng = np.random.default_rng(3)
        tables = [alg.mul for alg in oracle_cases()]
        tables += [rng.integers(0, n, (n, n)) for n in (1, 5, 13, 14, 70)]
        for table in tables:
            got = []
            for size in (1, 1 << 30):
                monkeypatch.setattr(A, "_MASK_MIN_SIZE", size)
                right, left = A._ideal_rows(table)
                got.append((right, left, A._ideals(right, left)))
            assert got[0] == got[1]

    def test_large_carrier_series_values(self, hall3):
        rep = A.principal_series(mult_reduct(hall3))
        assert (rep.h, rep.m, rep.k, rep.k_floored, rep.q, rep.r) == (
            14, 6, 2, False, 98304, 44)
        assert rep.brandt_series
        rep = A.principal_series(C.kadourek_semigroup(2, 2)[0])
        assert (rep.h, rep.m, rep.k, rep.k_floored, rep.q, rep.r) == (
            7, 1, 1, True, 128, 15)
        assert rep.brandt_series


def a_non_closed_subset(alg):
    """The first {x} or {x, y} that some product of its members escapes, or
    None when every such set is closed."""
    rows = alg.mul.tolist()
    for x in range(alg.size):
        if rows[x][x] != x:
            return [x]
    for x in range(alg.size):
        for y in range(x + 1, alg.size):
            if {rows[x][y], rows[y][x]} - {x, y}:
                return [x, y]
    return None


def row_list_cases():
    """Every table of order at most 4, b21, Brandt(S3, 2) and random magmas
    of 1, 5, 13 and 14 elements: tables on both sides of _MASK_MIN_SIZE."""
    rng = np.random.default_rng(11)
    yield from corpus_algebras(4)
    yield mult_reduct(C.brandt_monoid_b21())
    yield mult_reduct(C.brandt_semigroup(C.symmetric_group(3), 2))
    for n in (1, 5, 13, 14):
        for _ in range(3):
            yield FiniteAlgebra("semigroup", tuple(map(str, range(n))),
                                rng.integers(0, n, (n, n)))


def small_table_readers(alg):
    """What the small-table readers return on a fresh copy of alg; refusals
    of a non-closed subset as their message."""
    alg = dataclasses.replace(alg)
    core_set = A.idempotent_generated(alg)
    out = [A._idempotents(alg), core_set, A.j_trivial(alg),
           A.j_trivial(alg, core_set) if core_set else None]  # a magma may have none
    subset = a_non_closed_subset(alg)
    if subset is not None:
        with pytest.raises(ValueError, match="^set not closed: ") as refused:
            A.j_trivial(alg, subset)
        out.append(str(refused.value))
    if validate(alg) is None:
        out += [A.maximal_subgroups(alg), A.principal_series(alg).to_dict()]
    return out


class TestRowListAgainstArray:
    """Below _MASK_MIN_SIZE elements the readers of a table take its row
    list, from it on the array: forcing either path on every table gives
    the same results."""

    def test_both_paths_agree(self, monkeypatch):
        cases = list(row_list_cases())
        assert {alg.size for alg in cases} == {1, 2, 3, 4, 5, 6, 13, 14, 25}
        got = []
        for size in (1, 1 << 30):
            monkeypatch.setattr(A, "_MASK_MIN_SIZE", size)
            got.append([small_table_readers(alg) for alg in cases])
        assert got[0] == got[1]
        # non-closed subsets, associative tables and both sizes were met
        assert sum(len(out) in (5, 7) for out in got[0]) > 1000
        assert sum(len(out) >= 6 for out in got[0]) > 3000

    def test_row_list_is_built_once_and_shared_with_the_reduct(self, monkeypatch):
        seen = []  # (reader, the table it was given)

        def spy(name, table_of):
            original = getattr(A, name)

            def wrapped(*args):
                seen.append((name, table_of(args)))
                return original(*args)
            monkeypatch.setattr(A, name, wrapped)

        spy("closure", lambda args: args[0][0])
        spy("restrict", lambda args: args[0])
        spy("_ideal_rows", lambda args: args[0])
        b21 = C.brandt_monoid_b21()
        reduct = mult_reduct(b21)
        A.idempotent_generated(b21)
        A.j_trivial(reduct, A.idempotent_generated(reduct))  # the core is 0, 1, e, f
        A.principal_series(reduct)  # every maximal subgroup is trivial
        A.j_trivial(b21, [0])
        rows = b21._facts["mul"]["rows"]
        assert reduct._facts["mul"]["rows"] is rows
        assert rows == b21.mul.tolist()
        assert [(name, table is rows) for name, table in seen] == [
            ("closure", True), ("closure", True),
            ("restrict", True), ("_ideal_rows", False),  # the core's own rows
            ("_ideal_rows", True),                       # the Green record
            ("restrict", True), ("_ideal_rows", False)]  # {0}'s own rows
        assert [table for name, table in seen if table is not rows] == [
            core.restrict(b21.mul, [0, 1, 4, 5], b21.labels).tolist(), [[0]]]

    def test_tables_of_the_mask_size_keep_no_row_list(self):
        table = np.arange(14)[None, :].repeat(14, axis=0)  # a right-zero band
        alg = FiniteAlgebra("semigroup", tuple(map(str, range(14))), table)
        A.j_trivial(alg, A.idempotent_generated(alg))
        A.principal_series(alg)
        memo = alg._facts["mul"]
        assert {"green", "idempotents", "subgroups"} <= memo.keys()
        assert "rows" not in memo
        small = dataclasses.replace(alg, labels=alg.labels[:13], mul=table[:13, :13])
        A.principal_series(small)
        assert small._facts["mul"]["rows"] == table[:13, :13].tolist()


class TestIdempotentsAndCore:
    def test_b21_idempotents(self, b21_mul, b21):
        got = {b21.labels[i] for i in A.idempotents(b21_mul)}
        assert got == {"0", "1", "e", "f"}

    def test_power_semiring_idempotents_are_subgroups_plus_empty(self, ps3_mul, s3):
        # oracle: nonempty product-closed subsets of a finite group = subgroups
        closed = [m for m in range(1, 64)
                  if all((1 << int(s3.mul[i, j])) & m
                         for i in range(6) if m >> i & 1
                         for j in range(6) if m >> j & 1)]
        assert A.idempotents(ps3_mul) == [0] + closed
        assert len(closed) == 6

    def test_group_has_one_idempotent(self, s3):
        assert A.idempotents(s3) == [0]

    def test_idempotent_generated_core(self, ps3_mul):
        core_set = A.idempotent_generated(ps3_mul)
        assert len(core_set) == 13
        assert set(A.idempotents(ps3_mul)) <= set(core_set)


class TestBlockGroup:
    def test_power_semiring_is_block_group(self, ps3_mul):
        assert A.is_block_group(ps3_mul)

    def test_hall_reduct_is_block_group(self, hall2):
        assert A.is_block_group(mult_reduct(hall2))

    def test_left_zero_fails_with_least_witness(self):
        assert A.block_group_violation(left_zero(2)) == (0, 1)

    def test_inverses_in_b21(self, b21_mul, b21):
        rows = A.inverse_matrix(b21_mul)
        assert np.flatnonzero(rows[b21.index("a")]).tolist() == [b21.index("b")]
        assert np.flatnonzero(rows[b21.index("0")]).tolist() == [b21.index("0")]

    def test_group_inverse_is_the_unique_inverse(self, s3):
        inv = C.ensure_group(s3)[1]
        rows = A.inverse_matrix(s3)
        for g in range(6):
            assert np.flatnonzero(rows[g]).tolist() == [inv[g]]

    def test_rectangular_band_has_many_inverses(self):
        band = rectangular_band()
        assert not A.unique_inverse_check(band)
        a, b, c = A.unique_inverse_violation(band)
        for x in (b, c):
            assert band.mul[band.mul[a, x], a] == a
            assert band.mul[band.mul[x, a], x] == x


class TestJTriviality:
    def test_idempotent_core_of_power_semiring(self, ps3_mul):
        core_set = A.idempotent_generated(ps3_mul)
        ok, witness = A.j_trivial(ps3_mul, core_set)
        assert ok and witness is None

    def test_groups_are_not_j_trivial(self, s3):
        ok, witness = A.j_trivial(s3)
        assert not ok and witness is not None
        a, b = witness
        assert oracle_principal_ideal(s3, a) == oracle_principal_ideal(s3, b)

    def test_chain_semilattice_is_j_trivial(self):
        ok, _ = A.j_trivial(chain_semilattice(3))
        assert ok

    def test_subsets_agree_with_the_subalgebra_oracle(self):
        rng = np.random.default_rng(5)
        for n in range(1, 5):
            for table in corpus.semigroup_stack(n):
                alg = corpus.as_algebra(table)
                two = C.closure([alg.mul], rng.integers(0, n, 2).tolist())
                for subset in (A.idempotent_generated(alg), two):
                    assert A.j_trivial(alg, subset) == oracle_restricted_j_trivial(
                        alg, subset)

    def test_subsets_build_no_subalgebra(self, ps3_mul, monkeypatch):
        subset = C.closure([ps3_mul.mul], [3, 5])
        want = oracle_restricted_j_trivial(ps3_mul, subset)
        monkeypatch.setattr(A, "FiniteAlgebra", boom)
        assert A.j_trivial(ps3_mul, subset) == want
        assert A.j_trivial(ps3_mul, A.idempotent_generated(ps3_mul)) == (True, None)

    def test_bad_subsets_are_refused(self, b21_mul, b21):
        e, a = b21.index("e"), b21.index("a")
        with pytest.raises(ValueError, match=r"^index 6 is outside 0\.\.5$"):
            A.j_trivial(b21_mul, [0, 6, 7])
        with pytest.raises(ValueError, match=r"^index -1 is outside 0\.\.5$"):
            A.j_trivial(b21_mul, [0, -1])
        with pytest.raises(ValueError, match="^subset must be non-empty$"):
            A.j_trivial(b21_mul, [])
        with pytest.raises(ValueError, match=f"^subset repeats index {e}$"):
            A.j_trivial(b21_mul, [e, e])
        # a repeat is named before closure is tested: {a} is not closed
        with pytest.raises(ValueError, match=f"^subset repeats index {a}$"):
            A.j_trivial(b21_mul, [a, a])
        # the first escape in (x, y) order, as induced_algebra reports it
        with pytest.raises(ValueError) as oracle:
            C.induced_algebra(b21_mul, [e, a])
        with pytest.raises(ValueError, match=r"^set not closed: ") as got:
            A.j_trivial(b21_mul, [a, e])
        assert str(got.value) == str(oracle.value)


class TestPrincipalSeries:
    def test_b21_series_exact(self, b21_mul, b21):
        rep = A.principal_series(b21_mul)
        named = [[b21.labels[i] for i in ideal] for ideal in rep.chain]
        assert named == [["0"], ["0", "a", "b", "e", "f"],
                         ["0", "1", "a", "b", "e", "f"]]
        assert [f["kind"] for f in rep.factors] == ["group", "brandt", "brandt"]
        assert rep.factors[1] == {"kind": "brandt", "group_order": 1, "index_count": 2}
        assert rep.factors[2] == {"kind": "brandt", "group_order": 1, "index_count": 1}
        assert (rep.h, rep.m, rep.k, rep.q, rep.r) == (2, 1, 1, 4, 5)
        assert rep.k_floored and rep.brandt_series

    def test_group_series_has_height_zero(self, s3):
        rep = A.principal_series(s3)
        assert rep.h == 0
        assert rep.factors == [{"kind": "group", "order": 6}]
        assert (rep.m, rep.k, rep.q, rep.r) == (6, 2, 6, 2)

    def test_brandt_over_z2_series(self, bz2):
        rep = A.principal_series(bz2)
        assert (rep.h, rep.m, rep.k, rep.q, rep.r) == (1, 2, 1, 4, 3)
        assert [f["kind"] for f in rep.factors] == ["group", "brandt"]

    def test_power_semiring_series(self, ps3_mul):
        rep = A.principal_series(ps3_mul)
        assert (rep.h, rep.m, rep.k) == (9, 6, 2)
        assert (rep.q, rep.r) == (3072, 29)
        assert not rep.k_floored
        assert rep.brandt_series

    @pytest.mark.parametrize("fixture", ["b21_mul", "b2", "bz2"])
    def test_chain_is_maximal_against_ideal_oracle(self, fixture, request):
        alg = request.getfixturevalue(fixture)
        rep = A.principal_series(alg)
        ideals = set(all_ideals(alg))
        chain = [frozenset(c) for c in rep.chain]
        assert all(c in ideals for c in chain)
        assert chain[0] == min(ideals, key=len)  # the kernel is the least ideal
        for lo, hi in zip(chain, chain[1:]):
            between = [i for i in ideals if lo < i < hi]
            assert between == []

    def test_order4_corpus_reports_are_pinned(self):
        # sha256 over every order-4 table's report and subgroup orders,
        # recorded when each subgroup was still built as its own algebra
        digest = hashlib.sha256()
        for table in corpus.semigroup_tables(4):
            alg = corpus.as_algebra(table)
            orders = [len(members) for _, members in A.maximal_subgroups(alg)]
            digest.update(json.dumps([A.principal_series(alg).to_dict(), orders],
                                     sort_keys=True).encode())
        assert digest.hexdigest() == (
            "d12a993ad2dded982f6bb1c743ec8b7165be7355c5a54ef531b9bbb329d9a8e5")

    @pytest.mark.parametrize("k, want", [(4, "2385d43bf27e75f5"), (5, "4924f52225f15cfb")])
    def test_power_dihedral_reports_are_pinned(self, k, want):
        # sha256[:16] of the report on P(D_k), 4^k elements, recorded when
        # the J-classes came from a Boolean matrix product
        rep = A.principal_series(mult_reduct(C.power_semiring(C.dihedral_group(k))))
        got = hashlib.sha256(json.dumps(rep.to_dict(), sort_keys=True).encode())
        assert got.hexdigest()[:16] == want

    def test_derived_length_three_and_a_non_solvable_subgroup(self):
        rep = A.principal_series(C.brandt_semigroup(C.symmetric_group(4), 2))
        assert (rep.h, rep.m, rep.k, rep.k_floored, rep.q, rep.r) == (
            1, 12, 3, False, 24, 7)
        # S5 is not solvable, so no k exists and r = kh + h + k is undefined
        rep = A.principal_series(C.brandt_semigroup(C.symmetric_group(5), 1))
        assert (rep.h, rep.m, rep.k, rep.k_floored, rep.q, rep.r) == (
            1, 60, None, False, 120, None)
        assert rep.to_dict()["k"] is None and rep.to_dict()["r"] is None

    def test_subgroups_read_off_the_parent_table(self, ps3_mul, hall3, monkeypatch):
        calls = []

        def boom(alg):
            raise AssertionError("a subgroup or the kernel was built as a group")

        def counted(memo, mul):
            calls.append(mul)
            return mul_violation(memo, mul)

        monkeypatch.setattr(A, "ensure_group", boom)
        monkeypatch.setattr(A, "is_group", boom)
        monkeypatch.setattr(core, "mul_violation", counted)
        for alg, params in ((ps3_mul, (9, 6, 2, 3072, 29)),
                            (mult_reduct(hall3), (14, 6, 2, 98304, 44))):
            before = len(calls)
            rep = A.principal_series(alg)
            assert (rep.h, rep.m, rep.k, rep.q, rep.r) == params
            # the table itself is checked, no subgroup as its own algebra
            assert calls[before:] and all(table is alg.mul for table in calls[before:])

    def test_factors_agree_with_the_rees_factor_oracle(self, hall3):
        algs = [corpus.as_algebra(t) for n in range(1, 5)
                for t in corpus.semigroup_stack(n)]
        algs += [*oracle_cases(), mult_reduct(hall3)]
        kinds = set()
        for alg in algs:
            rep = A.principal_series(alg)
            assert rep.factors == oracle_factor_kinds(alg, rep.chain)
            kinds.update(f["kind"] for f in rep.factors)
        assert kinds == {"group", "zero", "brandt", "other"}

    def test_factor_kinds_are_pinned(self):
        null = FiniteAlgebra("semigroup", ("0", "a", "b"), np.zeros((3, 3), dtype=int))
        assert A.principal_series(null).factors == [
            {"kind": "group", "order": 1}, {"kind": "zero", "size": 2},
            {"kind": "zero", "size": 2}]
        # a 2 x 2 rectangular band with a zero adjoined: four idempotents in
        # two R-classes and two L-classes, so not Brandt
        band = FiniteAlgebra("semigroup", ("0", "00", "01", "10", "11"),
                             np.pad(rectangular_band().mul + 1, ((1, 0), (1, 0))))
        assert A.principal_series(band).factors == [
            {"kind": "group", "order": 1}, {"kind": "other", "size": 5}]
        brandt = C.brandt_semigroup(C.symmetric_group(3), 3)
        assert A.principal_series(brandt).factors == [
            {"kind": "group", "order": 1},
            {"kind": "brandt", "group_order": 6, "index_count": 3}]

    def test_factors_read_off_the_parent_table(self, ps3_mul, b21_mul, hall3,
                                               monkeypatch):
        algs = [ps3_mul, b21_mul, mult_reduct(hall3),
                C.brandt_semigroup(C.symmetric_group(3), 3)]
        algs += [corpus.as_algebra(t) for t in corpus.semigroup_stack(3)]
        want = [A.principal_series(alg).to_dict() for alg in algs]
        monkeypatch.setattr(A, "FiniteAlgebra", boom)
        monkeypatch.setattr(C, "rees_table", boom)
        assert [A.principal_series(alg).to_dict() for alg in algs] == want

    def test_repeated_series_validate_once(self, monkeypatch):
        # mul's associativity is decided once per memo, which the series reads
        calls = []
        original = core._associativity

        def spy(table, *args):
            calls.append(table)
            return original(table, *args)

        hall2 = C.hall_semiring(2)
        monkeypatch.setattr(core, "_associativity", spy)
        reps = [A.principal_series(hall2).to_dict() for _ in range(3)]
        assert len(calls) == 1 and reps[0] == reps[1] == reps[2]

    def test_non_associative_table_is_refused(self):
        # (aa)b = bb = a but a(ab) = aa = b
        alg = FiniteAlgebra("semigroup", ("a", "b"), [[1, 0], [0, 0]])
        with pytest.raises(BglabError,
                           match=r"mul-associative fails at \(a, a, b\)"):
            A.principal_series(alg)

    @pytest.mark.parametrize("descending", [False, True])
    def test_long_chain_is_its_ideals_in_order(self, descending):
        # 500 one-element J-classes; listed top first, every step of the
        # walk takes the last class still outside the chain
        n = 500
        alg = chain_semilattice(n)
        order = list(range(n))
        if descending:  # c_i above c_j for i < j
            alg = FiniteAlgebra("semigroup", alg.labels, np.maximum.outer(order, order))
            order.reverse()
        rep = A.principal_series(alg)
        assert rep.chain == [sorted(order[: k + 1]) for k in range(n)]
        assert rep.h == n - 1 and rep.brandt_series

    def test_every_corpus_algebra_gets_a_full_chain(self):
        for alg in corpus_algebras(3):
            rep = A.principal_series(alg)
            assert rep.chain[-1] == list(range(alg.size))
            q, r = (2**rep.h) * rep.m, rep.k * rep.h + rep.h + rep.k
            assert (rep.q, rep.r) == (q, r)


class TestBrandtRecognition:
    """principal_series is the one Brandt decider: S is Brandt exactly
    when its one factor over {0} is, as the set oracle agrees."""

    def test_recognizes_constructed_brandt(self, bz2):
        assert series_says_brandt(bz2) and oracle_is_brandt(bz2)
        assert A.principal_series(bz2).factors == [
            {"kind": "group", "order": 1},
            {"kind": "brandt", "group_order": 2, "index_count": 2}]

    def test_null_semigroup_is_not_brandt(self):
        null = FiniteAlgebra("semigroup", ("0", "n"), [[0, 0], [0, 0]])
        assert not series_says_brandt(null) and not oracle_is_brandt(null)
        assert A.principal_series(null).factors == [
            {"kind": "group", "order": 1}, {"kind": "zero", "size": 2}]

    def test_b21_is_not_brandt(self, b21_mul):
        # its two Brandt factors are pinned by test_b21_series_exact
        assert not series_says_brandt(b21_mul) and not oracle_is_brandt(b21_mul)

    def test_two_element_group_with_zero_is_brandt_with_one_index(self):
        alg = FiniteAlgebra("semigroup", ("0", "1"), [[0, 0], [0, 1]])
        assert series_says_brandt(alg) and oracle_is_brandt(alg)
        assert A.principal_series(alg).factors == [
            {"kind": "group", "order": 1},
            {"kind": "brandt", "group_order": 1, "index_count": 1}]


class TestMaximalSubgroups:
    def test_brandt_over_z2(self, bz2, z2):
        locals_ = dict(A.maximal_subgroups(bz2))
        e11 = bz2.labels.index("(1,e,1)")
        e22 = bz2.labels.index("(2,e,2)")
        assert set(locals_) == {0, e11, e22}
        assert locals_[0] == [0]
        assert len(locals_[e11]) == 2 and len(locals_[e22]) == 2

    def test_power_semiring_normalizer_quotients(self, ps3_mul, s3):
        locals_ = dict(A.maximal_subgroups(ps3_mul))
        h_mask = (1 << 0) | (1 << s3.index("(12)"))
        assert locals_[h_mask] == [h_mask]
        singletons = sorted(1 << g for g in range(6))
        assert locals_[1 << 0] == singletons
        a3_mask = (1 << 0) | (1 << s3.index("(123)")) | (1 << s3.index("(132)"))
        assert len(locals_[a3_mask]) == 2  # N(A3)/A3 has order 2

    def test_group_is_its_own_maximal_subgroup(self, s3):
        assert A.maximal_subgroups(s3) == [(0, list(range(6)))]

    def test_h_classes_agree_with_the_units_of_ese(self, b21_mul, bz2, ps3_mul, hall3):
        algs = corpus_algebras(3) + [
            b21_mul, bz2, ps3_mul, C.kadourek_semigroup(2, 2)[0], mult_reduct(hall3),
            mult_reduct(C.power_semiring(C.dihedral_group(4)))]
        for alg in algs:
            assert A.maximal_subgroups(alg) == oracle_maximal_subgroups(alg)

    def test_non_associative_table_is_refused(self):
        # (aa)b = bb = a but a(ab) = aa = b
        alg = FiniteAlgebra("semigroup", ("a", "b"), [[1, 0], [0, 0]])
        for find in (A.maximal_subgroups, A.subgroup_union):
            with pytest.raises(BglabError, match=r"^maximal_subgroups needs an associative "
                                                 r"table: mul-associative fails at \(a, a, b\)$"):
                find(alg)


def brute_subgroups(alg):
    """Oracle: all product-closed subsets containing the identity that are
    closed under inversion, found by scanning every subset."""
    n = alg.size
    e, inv = C.ensure_group(alg)
    out = []
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        if e not in members:
            continue
        if any(inv[x] not in members for x in members):
            continue
        if all(int(alg.mul[x, y]) in members for x in members for y in members):
            out.append(frozenset(members))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def analytics_groups():
    """C1-C16, D1-D8, S1-S3, Q8, C2^4, Q8 x C2 and the 22 group tables of
    the order-4 corpus, by name."""
    q8 = C.quaternion_group()
    out = {f"C{n}": C.cyclic_group(n) for n in range(1, 17)}
    out.update({f"D{n}": C.dihedral_group(n) for n in range(1, 9)})
    out.update({f"S{n}": C.symmetric_group(n) for n in range(1, 4)})
    out["Q8"] = q8
    out["C2^4"] = FiniteAlgebra("semigroup", [str(i) for i in range(16)],
                                [[i ^ j for j in range(16)] for i in range(16)])
    # (a, i) at 2a + i
    out["Q8xC2"] = FiniteAlgebra(
        "semigroup", [str(i) for i in range(16)],
        [[2 * int(q8.mul[a // 2, b // 2]) + (a + b) % 2 for b in range(16)]
         for a in range(16)])
    tables = [alg for alg in corpus_algebras(4) if A.is_group(alg)]
    out.update({f"corpus{i}": alg for i, alg in enumerate(tables)})
    return out


def oracle_analytics(alg):
    """(exponent, derived length, Dedekind, quaternion) by brute force, with
    the identity and inverses found by scanning the table."""
    n, mul = alg.size, alg.mul.tolist()
    e = next(x for x in range(n) if all(mul[x][y] == y for y in range(n)))
    inv = [next(y for y in range(n) if mul[x][y] == e) for x in range(n)]

    def order(x):
        k, y = 1, x
        while y != e:
            k, y = k + 1, mul[y][x]
        return k

    def generated(seeds):
        out = {e, *seeds}
        while True:
            more = {mul[a][b] for a in out for b in out} - out
            if not more:
                return frozenset(out)
            out |= more

    exponent = 1
    for x in range(n):
        exponent = lcm(exponent, order(x))
    series = [frozenset(range(n))]
    while True:
        nxt = generated({mul[mul[inv[a]][inv[b]]][mul[a][b]]
                         for a in series[-1] for b in series[-1]})
        if nxt == series[-1]:
            break
        series.append(nxt)
    length = len(series) - 1 if len(series[-1]) == 1 else None
    subgroups = brute_subgroups(alg)
    dedekind = all({mul[mul[g][h]][inv[g]] for h in H} == H
                   for H in subgroups for g in range(n))
    quaternion = any(
        len(H) == 8
        and any(mul[a][b] != mul[b][a] for a in H for b in H)
        and len([x for x in H if x != e and mul[x][x] == e]) == 1
        for H in subgroups)
    return exponent, length, dedekind, quaternion


class TestGroupAnalytics:
    def test_every_field_agrees_with_brute_force(self):
        groups = analytics_groups()
        assert len(groups) == 52
        flags = set()
        for name, alg in groups.items():
            ga = A.group_analytics(alg)
            exponent, length, dedekind, quaternion = oracle_analytics(alg)
            assert (ga.exponent, ga.derived_length, ga.solvable, ga.dedekind,
                    ga.has_quaternion_subgroup) == (
                exponent, length, length is not None, dedekind, quaternion), name
            flags.add((ga.dedekind, ga.has_quaternion_subgroup))
        # Q8 and Q8 x C2 are the Dedekind groups with a quaternion subgroup
        assert flags == {(True, False), (False, False), (True, True)}

    def test_identity_and_inverses_are_read_once(self, monkeypatch, tmp_path, capsys):
        # subgroups_of and group_analytics call ensure_group once each, the
        # power builders once, and the table's facts are read once
        calls = []
        original = A._group_facts

        def spy(table, idems, labels):
            calls.append(len(table))
            return original(table, idems, labels)

        monkeypatch.setattr(A, "_group_facts", spy)
        A.group_analytics(C.dihedral_group(4))
        C.power_semiring(C.symmetric_group(3), with_star=True)
        C.involution_power(C.cyclic_group(3))
        assert calls == [8, 6, 3]
        # analyze on S5: is_group, then group_analytics refused by the size
        # budget, group_exponent and derived_length, on one read
        C.symmetric_group(5).save(str(tmp_path / "s5.json"))
        del calls[:]
        assert main(["analyze", str(tmp_path / "s5.json")]) == 0
        assert json.loads(capsys.readouterr().out)["derived_length"] is None
        assert calls == [120]

    def test_group_facts_are_shared_with_the_reduct(self, s3):
        inverted = FiniteAlgebra("involution-semigroup", s3.labels, s3.mul,
                                 star=C.ensure_group(s3)[1])
        power = C.power_semiring(s3)
        for alg, group in ((inverted, True), (power, False)):
            assert A.is_group(alg) == group
            facts = alg._facts["mul"]["group"]
            assert mult_reduct(alg)._facts["mul"]["group"] is facts
            assert A.is_group(mult_reduct(alg)) == group
        assert inverted._facts["mul"]["group"] == (0, tuple(inverted.star.tolist()))
        assert power._facts["mul"]["group"] == "element {} has no inverse"

    def test_no_group_copies_no_table(self):
        # power(D5)'s reduct has the identity {e} and no inverse of the
        # empty set; deciding that reads one slab of the array, no row list
        alg = mult_reduct(C.power_semiring(C.dihedral_group(5)))
        tracemalloc.start()
        try:
            assert not A.is_group(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert "rows" not in alg._facts["mul"]

    def test_group_readers_ask_mul_alone(self):
        # mul is C2 and add is not commutative: each group reader accepts the
        # table, whatever the algebra's other laws
        alg = FiniteAlgebra("ai-semiring", ("e", "g"), [[0, 1], [1, 0]],
                            add=[[0, 0], [1, 1]])
        assert validate(alg).law == "add-commutative"
        assert A.is_group(alg)
        assert A.ensure_group(alg) == (0, (0, 1))
        assert C.brandt_semigroup(alg, 2).size == 9
        assert C.power_semiring(alg).size == 4

    def test_mul_questions_build_no_reduct(self, monkeypatch):
        # the series, the maximal subgroups, the image check and the group
        # guard read the mul memo, which decides associativity once a table
        calls = []
        original = core._associativity

        def spy(table, *args):
            calls.append(table)
            return original(table, *args)

        algs = (C.brandt_monoid_b21(), C.power_semiring(C.symmetric_group(3)))
        monkeypatch.setattr(core, "_associativity", spy)
        for alg in algs:
            A.principal_series(alg)
            A.maximal_subgroups(alg)
            check_v_square_image(alg, 1, 1, 1)
            with pytest.raises(NotAGroup, match="has no inverse"):
                A.ensure_group(alg)
            assert "reduct" not in alg._facts
            assert calls[-1] is alg.mul
        assert len(calls) == 2

    def test_subgroup_enumeration_matches_brute_force(self, s3, q8, z4):
        # C2^4 needs four generators; corpus groups need not have e = 0
        c2_4 = FiniteAlgebra("semigroup", [str(i) for i in range(16)],
                             [[i ^ j for j in range(16)] for i in range(16)])
        corpus_groups = [alg for alg in corpus_algebras(4) if A.is_group(alg)]
        assert len(corpus_groups) == 22
        assert any(C.ensure_group(g)[0] != 0 for g in corpus_groups)
        for g in (s3, q8, z4, C.dihedral_group(4), c2_4, *corpus_groups):
            assert A.subgroups_of(g) == brute_subgroups(g)
        assert len(A.subgroups_of(c2_4)) == 67

    def test_gathered_commutators_agree_with_the_row_lists(self, monkeypatch):
        # groups from 14 elements on gather each step's commutators over the
        # array; forcing either path on every group gives the same series
        groups = [*analytics_groups().values(), C.symmetric_group(5)]
        assert max(g.size for g in groups) >= A._MASK_MIN_SIZE
        got = []
        for size in (1, 1 << 30):
            monkeypatch.setattr(A, "_MASK_MIN_SIZE", size)
            got.append([A.derived_series(g) for g in groups])
        assert got[0] == got[1]
        assert [len(s) for s in got[0][-1]] == [120, 60]

    def test_s3(self, s3):
        ga = A.group_analytics(s3)
        assert (ga.exponent, ga.derived_length, ga.solvable, ga.dedekind,
                ga.has_quaternion_subgroup) == (6, 2, True, False, False)

    def test_q8(self, q8):
        ga = A.group_analytics(q8)
        assert (ga.exponent, ga.derived_length, ga.solvable, ga.dedekind,
                ga.has_quaternion_subgroup) == (4, 2, True, True, True)

    def test_z4(self, z4):
        ga = A.group_analytics(z4)
        assert (ga.exponent, ga.derived_length, ga.solvable, ga.dedekind,
                ga.has_quaternion_subgroup) == (4, 1, True, True, False)

    def test_derived_series_of_s3_descends_through_a3(self, s3):
        series = A.derived_series(s3)
        assert [len(s) for s in series] == [6, 3, 1]

    def test_dihedral_4_is_not_dedekind_has_no_quaternion(self):
        ga = A.group_analytics(C.dihedral_group(4))
        assert (ga.dedekind, ga.has_quaternion_subgroup) == (False, False)

    def test_size_budget(self):
        with pytest.raises(SubgroupEnumerationBudget):
            A.subgroups_of(C.symmetric_group(5))


class TestCorpusInvariants:
    def test_three_way_equivalence_small_orders(self):
        for alg in corpus_algebras(3):
            bg = A.is_block_group(alg)
            assert bg == A.unique_inverse_check(alg)
            assert bg == A.j_trivial(alg, A.idempotent_generated(alg))[0]

    def test_regular_core_elements_are_idempotent_in_block_groups(self):
        for alg in corpus_algebras(3):
            if not A.is_block_group(alg):
                continue
            idem = set(A.idempotents(alg))
            regular = A.inverse_matrix(alg).any(axis=1)
            for a in A.idempotent_generated(alg):
                if regular[a]:
                    assert a in idem

    def test_block_groups_have_brandt_series_and_conversely(self):
        for alg in corpus_algebras(3):
            assert A.principal_series(alg).brandt_series == A.is_block_group(alg)

    def test_j_trivial_word_products_collapse(self):
        # in a finite J-trivial semigroup, w^p only depends on the set of
        # variables once p stabilizes powers; such a semigroup is aperiodic
        # with index at most |S|, so p = |S| does
        rng = np.random.default_rng(11)
        checked = 0
        for alg in corpus_algebras(3):
            if not A.j_trivial(alg)[0]:
                continue
            p = alg.size
            assert power_law(alg, p, p + 1).status == "holds"
            for _ in range(3):
                length = int(rng.integers(1, 7))
                picks = [int(rng.integers(1, 4)) for _ in range(length)]
                w = T.Word(tuple(T.Variable((i,)) for i in picks))
                u = T.Word(tuple(T.Variable((i,)) for i in sorted(set(picks))))
                verdict = check_identity_exhaustive(
                    alg, T.PowerOf(w, p), T.PowerOf(u, p))
                assert verdict.status == "holds"
                checked += 1
        assert checked >= 50

    def test_constructed_block_groups_satisfy_the_power_law(
            self, b2, b3, bz2, b21_mul, ps3_mul, hall2):
        for alg in (b2, b3, bz2, b21_mul, ps3_mul, mult_reduct(hall2)):
            rep = A.principal_series(alg)
            e = (2**rep.h) * rep.m
            verdict = power_law(alg, e, 2 * e)
            assert verdict.status == "holds", f"failed at {verdict.witness}"
            assert verdict.evaluations == alg.size

    def test_power_identity_failure_and_bad_exponent(self, s3):
        # x = x^2 holds only at the identity, element 0
        verdict = power_law(s3, 1, 2)
        assert (verdict.status, verdict.witness) == ("counterexample", {X1: 1})
        assert power_law(s3, 2**80 * 6 + 1, 1).status == "holds"
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            power_law(s3, 0, 6)


def per_table_block_group_tests(alg):
    """Oracle for analysis.block_group_tests: the per-table functions."""
    core = A.idempotent_generated(alg)
    return [A.is_block_group(alg), A.unique_inverse_check(alg),
            A.j_trivial(alg, core)[0] if core else True]


def batched_block_group_tests(stack):
    return np.stack(A.block_group_tests(stack), axis=1).tolist()


@st.composite
def magma_stacks(draw):
    """One to six tables of one order <= 5: random magmas, associative or
    not, and up to order 4 corpus semigroups among them."""
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    if n <= 4:
        table = st.one_of(table, st.sampled_from(corpus.semigroup_stack(n).tolist()))
    return np.array(draw(st.lists(table, min_size=1, max_size=6)), dtype=np.uint8)


class TestBatchedBlockGroupTests:
    """block_group_tests agrees table by table with the per-table functions."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_corpus_table(self, n):
        stack = corpus.semigroup_stack(n)
        assert batched_block_group_tests(stack) == [
            per_table_block_group_tests(corpus.as_algebra(t)) for t in stack]

    def test_a02_constructed_algebras(self, workbench):
        algs = suite.block_group_algebras(workbench)
        assert len(algs) == 9
        for alg in algs:
            assert batched_block_group_tests(alg.mul[None]) == [
                per_table_block_group_tests(alg)]

    @given(magma_stacks())
    @settings(max_examples=150)
    # idempotents 0 and 2; the core {0, 1, 2, 3} takes two rounds of products
    @example(np.array([[[0, 0, 3, 3], [1, 0, 3, 1], [3, 3, 2, 3], [3, 3, 3, 1]]],
                      dtype=np.uint8))
    def test_random_magmas(self, stack):
        assert batched_block_group_tests(stack) == [
            per_table_block_group_tests(corpus.as_algebra(t)) for t in stack]
