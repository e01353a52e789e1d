import dataclasses
import gc
import weakref
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bglab import checker as K
from bglab import constructions as C
from bglab import core, corpus
from bglab import terms as T
from bglab.core import FiniteAlgebra, mult_reduct
from bglab.errors import LengthBudgetExceeded, MissingStar, TermSyntaxError


def names(word):
    return T.format_term(word)


class TestVFamily:
    def test_depth1_examples(self):
        assert names(T.v_word(1, 1, 1).flatten()) == "x1 x2 x1 x2"
        assert names(T.v_word(2, 1, 1).flatten()) == "x1 x2 x3 x4 x2 x1 x3 x4"

    def test_depth2_example(self):
        got = names(T.v_word(1, 1, 2).flatten())
        assert got == ("x1_1 x2_1 x1_1 x2_1 x1_2 x2_2 x1_2 x2_2 "
                       "x1_1 x2_1 x1_1 x2_1 x1_2 x2_2 x1_2 x2_2")

    @pytest.mark.parametrize("n,m,h", [(1, 1, 1), (2, 1, 1), (1, 2, 2),
                                       (2, 2, 2), (3, 1, 2), (1, 1, 4)])
    def test_flat_length_formula(self, n, m, h):
        assert len(T.v_word(n, m, h).flatten(10**6)) == (4 * n * m) ** h

    def test_length_budget_enforced(self):
        with pytest.raises(LengthBudgetExceeded,
                           match=r"^flat length 33554432 exceeds budget 1000$"):
            T.v_word(2, 4, 5).flatten(1000)
        with pytest.raises(LengthBudgetExceeded):
            T.v_word(2, 1, 40)  # too many block nodes
        with pytest.raises(LengthBudgetExceeded, match=(
                r"^\(2n\)\^h = 102400000 block nodes exceed budget 1048576$")):
            T.v_word(20, 1, 5)
        # 4^2000 has 1,205 digits, still printed in full
        with pytest.raises(LengthBudgetExceeded) as err:
            T.v_word(2, 1, 2000)
        assert str(err.value) == f"(2n)^h = {4**2000} block nodes exceed budget 1048576"

    def test_huge_heights_exceed_the_budget_without_the_power(self):
        # 4^10000 has 6,021 digits, more than str() converts; 4^(10^8) would
        # take seconds to build
        with pytest.raises(LengthBudgetExceeded, match=(
                r"^\(2n\)\^h = about 10\^6020 block nodes exceed budget 1048576$")):
            T.v_word(2, 1, 10**4)
        with pytest.raises(LengthBudgetExceeded, match=r"about 10\^60205999 block nodes"):
            T.v_word(2, 1, 10**8)
        # 4nm = 4 * 10^3000 at depth 2
        with pytest.raises(LengthBudgetExceeded,
                           match=r"^flat length about 10\^6001 exceeds budget 1000000$"):
            T.BlockWord(1, 10**3000, 2).flatten()

    def test_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            T.v_word(2, 1, 0)


def append_index(node, j):
    if isinstance(node, T.Variable):
        return T.Variable(node.indices + (j,))
    n, m, children = node
    return n, m, tuple(append_index(b, j) for b in children)


def bottom_up_v_word(n, m, h):
    """The oracle: v(n, m, h) as nested (n, m, children) tuples built level
    by level, each deeper level rebuilding 2n copies of the one below with
    an index appended."""
    indices = range(1, 2 * n + 1)
    word = (n, m, tuple(T.Variable((i,)) for i in indices))
    for _ in range(h - 1):
        word = (n, m, tuple(append_index(word, j) for j in indices))
    return word


def oracle_leaves(node):
    if isinstance(node, T.Variable):
        return [node]
    return [x for b in node[2] for x in oracle_leaves(b)]


def oracle_letters(node):
    """The flat word of an oracle node: its 2n blocks, then the middle
    group bn..b1 b(n+1)..b2n repeated 2m-1 times."""
    if isinstance(node, T.Variable):
        return [node]
    n, m, children = node
    parts = [oracle_letters(b) for b in children]
    middle = parts[n - 1 :: -1] + parts[n:]
    return [x for p in parts + middle * (2 * m - 1) for x in p]


def assert_same_tree(word, oracle):
    """A walk of word's .blocks against the oracle, node by node."""
    if isinstance(oracle, T.Variable):
        assert word == oracle
        return
    n, m, children = oracle
    assert isinstance(word, T.BlockWord) and (word.n, word.m) == (n, m)
    assert len(word.blocks) == len(children)
    for block, child in zip(word.blocks, children):
        assert_same_tree(block, child)


class TestVWordBuild:
    @pytest.mark.parametrize("n,m,h", list(product((1, 2, 3), (1, 2), (1, 2, 3, 4))))
    def test_matches_the_bottom_up_build(self, n, m, h):
        word, oracle = T.v_word(n, m, h), bottom_up_v_word(n, m, h)
        assert_same_tree(word, oracle)
        assert word.variables() == sorted(set(oracle_leaves(oracle)))
        assert word.flatten() == T.Word(tuple(oracle_letters(oracle)))

    def test_interned_while_held(self):
        oracle = bottom_up_v_word(2, 4, 5)
        word = T.v_word(2, 4, 5)
        assert T.v_word(2, 4, 5) is word
        assert T.PowerOf(T.v_word(2, 4, 5), 2).base is word
        held = weakref.ref(word)
        del word
        gc.collect()
        assert held() is None and (2, 4, 5) not in T._V_WORDS
        again = T.v_word(2, 4, 5)
        assert_same_tree(again, oracle)
        assert again.variables() == sorted(set(oracle_leaves(oracle)))

    def test_a_node_is_its_parameters(self):
        word = T.v_word(2, 4, 5)
        assert word == T.BlockWord(2, 4, 5) and hash(word) == hash(T.BlockWord(2, 4, 5))
        assert word != T.BlockWord(2, 4, 5, (1,))
        assert word.blocks[2] == T.BlockWord(2, 4, 4, (3,))
        assert word.blocks[2].blocks[0].blocks[1] == T.BlockWord(2, 4, 2, (2, 1, 3))

    def test_node_budget_is_refused_before_any_node_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(T.Variable, "__post_init__", lambda v: built.append(v))
        with pytest.raises(LengthBudgetExceeded) as word_err:
            T.v_word(2, 1, 40)
        with pytest.raises(LengthBudgetExceeded) as node_err:
            T.BlockWord(2, 1, 40)
        assert str(node_err.value) == str(word_err.value) == (
            f"(2n)^h = {4**40} block nodes exceed budget {T.DEFAULT_NODE_BUDGET}")
        assert not built and (2, 1, 40) not in T._V_WORDS

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_node_parameters_must_be_positive(self, args):
        with pytest.raises(ValueError, match="^n, m and depth must be positive$"):
            T.BlockWord(*args)

    def test_variables_returns_a_fresh_list(self):
        word = T.v_word(2, 1, 2)
        xs = word.variables()
        expected = list(xs)
        xs.reverse()
        xs.append(T.Variable((9,)))
        assert word.variables() == expected and word.variables() is not xs
        assert len(expected) == 16

    @given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), max_size=20))
    def test_keyed_sort_is_the_dataclass_order(self, specs):
        xs = [T.Variable(tuple(ix)) for ix in specs]
        assert sorted(xs, key=T.variable_key) == sorted(xs)

    @pytest.mark.parametrize("indices,message", [
        ((), "depth must be at least 1"),
        ((0,), r"indices \(0,\) must be positive"),
        ((1, 0, 1), r"indices \(1, 0, 1\) must be positive"),
        ((2, -1), r"indices \(2, -1\) must be positive"),
    ], ids=["no-index", "zero", "zero-inside", "negative"])
    def test_variable_error_messages(self, indices, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            T.Variable(indices)


class TestUFamily:
    def test_examples(self):
        assert names(T.u_word(0, 2, 1)) == "x1 x2 x1 x2"
        assert names(T.u_word(2, 1, 1)) == "x1 x2 x3 x2 x1 x3"
        assert names(T.u_word(2, 0, 1)) == "x1 x2 x2 x1"

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_u_nn_equals_flat_v(self, n, m):
        assert T.u_word(n, n, m) == T.v_word(n, m, 1).flatten()

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            T.u_word(0, 0, 1)

    def test_length_budget(self):
        # 2m(n + k) letters: 1,000,002 are refused before any is built
        with pytest.raises(LengthBudgetExceeded,
                           match=r"^length 1000002 exceeds budget 1000000$"):
            T.u_word(1, 0, 500_001)
        assert len(T.u_word(1, 0, 500_000)) == T.DEFAULT_LENGTH_BUDGET


class TestWFamily:
    def test_depth1_examples(self):
        assert names(T.w_word(2, 1)) == "x1 x2 x1' x2'"
        assert names(T.w_word(1, 1)) == "x1 x1'"

    def test_depth2_example(self):
        got = names(T.w_word(2, 2))
        assert got == ("x1_1 x2_1 x1_1' x2_1' x1_2 x2_2 x1_2' x2_2' "
                       "x2_1 x1_1 x2_1' x1_1' x2_2 x1_2 x2_2' x1_2'")

    @pytest.mark.parametrize("n,h", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_length_formula(self, n, h):
        assert len(T.w_word(n, h)) == (2 * n) ** h

    def test_huge_height_exceeds_the_budget(self):
        with pytest.raises(LengthBudgetExceeded, match=r"^length 64 exceeds budget 63$"):
            T.w_word(2, 3, 63)
        with pytest.raises(LengthBudgetExceeded,
                           match=r"^length about 10\^6020 exceeds budget 1000000$"):
            T.w_word(2, 10**4)

    def test_block_inverse_is_letterwise(self):
        w = T.w_word(2, 1)
        assert names(w.inverse()) == "x2 x1 x2' x1'"


def brandt_triple_product(x, y):
    # independent oracle for the 2-index Brandt product over the trivial group
    if x == "0" or y == "0":
        return "0"
    (l1, r1), (l2, r2) = x, y
    return (l1, r2) if r1 == l2 else "0"


class TestEvaluate:
    def test_u_word_values_match_triple_oracle_and_land_in_subgroups(self, b2):
        from bglab.analysis import subgroup_union
        word = T.u_word(2, 1, 1)
        allowed = subgroup_union(b2)
        pair_of = {"0": "0", "(1,e,1)": (1, 1), "(1,e,2)": (1, 2),
                   "(2,e,1)": (2, 1), "(2,e,2)": (2, 2)}
        label_of = {v: k for k, v in pair_of.items()}
        xs = sorted(word.variables())
        for t1 in range(5):
            for t2 in range(5):
                for t3 in range(5):
                    sub = dict(zip(xs, (t1, t2, t3)))
                    got = T.evaluate(word, sub, b2)
                    acc = pair_of[b2.labels[t1]]
                    for letter in word.letters[1:]:
                        nxt = pair_of[b2.labels[sub[letter]]]
                        acc = brandt_triple_product(acc, nxt)
                    assert b2.labels[got] == label_of[acc]
                    assert got in allowed

    def test_all_identity_substitution_in_group(self, s3):
        word = T.v_word(2, 3, 1)
        sub = {v: 0 for v in word.variables()}
        assert T.evaluate(word, sub, s3) == 0

    def test_block_and_flat_agree_on_seeded_substitutions(self, b21_mul):
        block = T.v_word(2, 2, 2)
        flat = block.flatten()
        rng = np.random.default_rng(7)
        for _ in range(100):
            sub = {v: int(rng.integers(6)) for v in block.variables()}
            assert T.evaluate(block, sub, b21_mul) == T.evaluate(flat, sub, b21_mul)

    def test_group_value_reduces_to_first_half_times_inverses(self, s3):
        # with exponent dividing m the value is a1..an a1^-1..an^-1,
        # independent of the second half; exhaustive over all 6^4 substitutions
        from bglab.constructions import ensure_group
        inv = ensure_group(s3)[1]
        word = T.v_word(2, 6, 1)
        xs = sorted(word.variables())
        for tup in product(range(6), repeat=4):
            sub = dict(zip(xs, tup))
            got = T.evaluate(word, sub, s3)
            a1, a2 = tup[0], tup[1]
            want = s3.mul[s3.mul[s3.mul[a1, a2], inv[a1]], inv[a2]]
            assert got == want

    def test_inverse_letters_need_star(self, ips3, ps3_mul):
        w = T.w_word(2, 1)
        sub = {v: 3 for v in w.variables()}
        assert T.evaluate(w, sub, ips3) >= 0
        with pytest.raises(MissingStar):
            T.evaluate(w, sub, ps3_mul)

    def test_power_of_matches_repetition(self, b21_mul):
        x = T.parse_term("x1")
        for e in (1, 2, 3, 7, 12):
            expanded = T.parse_term(f"x1^{e}")
            for val in range(6):
                sub = {x.letters[0]: val}
                assert (T.evaluate(T.PowerOf(x, e), sub, b21_mul)
                        == T.evaluate(expanded, sub, b21_mul))

    def test_element_power_handles_huge_exponents(self, s3):
        # order divides 6, so exponents congruent mod 6 agree
        e = 6 * (2**80) + 5
        power = T.flat_kernel(s3).power
        carrier = np.arange(6)
        assert np.array_equal(power(carrier, e), power(carrier, 5))

    def test_evaluate_batch_matches_scalar(self, b21_mul):
        word = T.v_word(2, 1, 1)
        xs = sorted(word.variables())
        rng = np.random.default_rng(3)
        cols = {v: rng.integers(0, 6, size=40) for v in xs}
        batch = T.evaluate_batch(word, cols, b21_mul)
        for i in range(40):
            sub = {v: int(cols[v][i]) for v in xs}
            assert batch[i] == T.evaluate(word, sub, b21_mul)


@st.composite
def star_terms(draw):
    """A Word, an InvTerm with starred letters, or a PowerOf either."""
    letters = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                            min_size=1, max_size=8))
    if draw(st.booleans()):
        base = T.Word(tuple(T.Variable((i,)) for i, _ in letters))
    else:
        base = T.InvTerm(tuple((T.Variable((i,)), e) for i, e in letters))
    exponent = draw(st.integers(0, 9))
    return T.PowerOf(base, exponent) if exponent else base


class TestFlatKernel:
    @given(star_terms(), st.integers(0, 10**9))
    @settings(max_examples=80)
    def test_evaluate_batch_matches_scalar_evaluate(self, ips3, term, seed):
        xs = sorted(term.variables())
        rng = np.random.default_rng(seed)
        cols = {v: rng.integers(0, ips3.size, size=25) for v in xs}
        batch = T.evaluate_batch(term, cols, ips3)
        for i in range(25):
            sub = {v: int(cols[v][i]) for v in xs}
            assert batch[i] == T.evaluate(term, sub, ips3)


BLOCK_GRID = list(product((1, 2, 3), (1, 2, 4), (1, 2)))


@cache
def v_word_and_variables(nmh):
    word = T.v_word(*nmh)
    return word, word.variables()


def agrees_with_scalar(alg, nmh, samples, seed):
    """evaluate_batch of v(n, m, h) on a seeded batch equals scalar evaluate."""
    word, xs = v_word_and_variables(nmh)
    draws = np.random.default_rng(seed).integers(0, alg.size, (len(xs), samples),
                                                 dtype=np.uint8)
    batch = T.evaluate_batch(word, dict(zip(xs, draws)), alg)
    return batch.tolist() == [T.evaluate(word, dict(zip(xs, sub)), alg)
                              for sub in draws.T.tolist()]


def fresh(alg):
    """The same algebra as a new object, whose record starts empty, so that
    its kernel is built anew and a patched cap or spy reaches it."""
    return dataclasses.replace(alg)


@pytest.fixture
def carriers(b21_mul, ps3_mul, kad21, hall2):
    return [fresh(b21_mul), fresh(ps3_mul), fresh(kad21), mult_reduct(fresh(hall2))]


def magma(rows):
    return FiniteAlgebra("semigroup", tuple(map(str, range(len(rows)))), rows)


SMALL_TABLES = [t for n in range(1, 4) for t in corpus.semigroup_tables(n)]
MAGMA_ROWS = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))


class TestBlockTables:
    def test_every_order_4_semigroup(self):
        # every n on every table; (m, h) cycles, so each grid point meets
        # about 580 tables
        for i, table in enumerate(corpus.semigroup_stack(4)):
            alg = corpus.as_algebra(table)
            m, h = BLOCK_GRID[i % 6][1:]
            for n in (1, 2, 3):
                assert agrees_with_scalar(alg, (n, m, h), 2, i)
            assert T.flat_kernel(alg).block(3, m) is not None

    @pytest.mark.parametrize("cap", ["default", "fold only", "n = 1 only"])
    def test_named_carriers(self, carriers, monkeypatch, cap):
        for alg in carriers:
            if cap != "default":
                # n = 1 needs size^2 cells, n = 2 more than that
                monkeypatch.setattr(T, "_BLOCK_TABLE_CELLS",
                                    0 if cap == "fold only" else alg.size ** 2)
            for nmh in BLOCK_GRID:
                assert agrees_with_scalar(alg, nmh, 16, sum(nmh))
            block = T.flat_kernel(alg).block
            assert (block(1, 4) is not None) == (cap != "fold only")
            assert (block(3, 4) is not None) == (cap == "default")

    def test_non_associative_tables_fold(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tables built for a non-associative table")

        monkeypatch.setattr(T, "_block_tables", refuse)
        # x y = y + 1 mod 3: (x y) z = z + 1 but x (y z) = z + 2
        alg = magma([[1, 2, 0]] * 3)
        for nmh in BLOCK_GRID:
            assert agrees_with_scalar(alg, nmh, 16, sum(nmh))
        assert T.flat_kernel(alg).block(2, 1) is None

    def test_scalar_evaluate_never_reaches_the_tables(self, b21_mul, monkeypatch):
        def refuse(*args):
            raise AssertionError("scalar evaluate reached the tables")

        monkeypatch.setattr(T, "_block_tables", refuse)
        word = T.v_word(2, 4, 2)
        assert T.evaluate(word, {v: 1 for v in word.variables()}, b21_mul) in range(6)

    def test_tables_are_built_once_per_node_shape(self, ps3_mul, monkeypatch):
        built, decided = [], []
        block_tables, associativity = T._block_tables, core._associativity
        monkeypatch.setattr(T, "_block_tables",
                            lambda *a: built.append(a[-1]) or block_tables(*a))
        monkeypatch.setattr(core, "_associativity",
                            lambda *a: decided.append(1) or associativity(*a))
        alg = fresh(ps3_mul)
        for nmh in [(2, 4, 1), (2, 4, 2), (1, 4, 2), (2, 1, 1), (2, 4, 3)] * 2:
            assert agrees_with_scalar(alg, nmh, 8, 0)
        assert sorted(built) == [1, 2, 2] and decided == [1]

    def test_tables_are_bounded_before_they_are_gathered(self, hall3, monkeypatch):
        # hall(3)'s reduct needs 2.1 M cells at n = 2 and more at n = 3; the
        # refusal of n = 3 comes before its last, largest gather
        gathered = []
        step = T._step

        def counted(pair, size, states, *args):
            gathered.append(states.size * size)
            return step(pair, size, states, *args)

        monkeypatch.setattr(T, "_step", counted)
        block = T.flat_kernel(mult_reduct(fresh(hall3))).block
        assert block(2, 1) is not None
        assert sum(gathered) <= T._BLOCK_TABLE_CELLS
        gathered.clear()
        assert block(3, 1) is None
        assert sum(gathered) <= T._BLOCK_TABLE_CELLS


def sample_block(alg, word, seed, start, count, domains=None):
    xs = word.variables()
    return K.sample_assignments(xs, K._domain_lists(xs, alg, domains), seed, start, count)


def agrees_on_a_sample_block(alg, word, seed, start=0, count=200, domains=None):
    """evaluate_batch of word on a sample block equals it on a dict of the
    same draws materialised, and scalar evaluate on three of the samples;
    returns the values."""
    draws = sample_block(alg, word, seed, start, count, domains)
    got = T.evaluate_batch(word, draws, alg)
    want = T.evaluate_batch(word, {v: draws[v] for v in draws}, alg)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    for s in (0, count // 2, count - 1):
        assert got[s] == T.evaluate(word, draws.substitution(s), alg)
    return got


def left_zero_only(alg):
    """alg with a zero adjoined at 0, then x 0 = x for x > 0, so that 0 is
    a left zero and nothing is a zero."""
    table = np.array(C.adjoin_zero(alg).mul)
    table[1:, 0] = np.arange(1, len(table))
    return magma(table.tolist())


SHAPES = st.sampled_from([(1, 1, 2), (1, 2, 3), (2, 1, 2), (2, 2, 3), (3, 1, 2), (2, 4, 3)])
SEEDS = st.integers(0, 2**64 - 1)


class TestZeroAbsorbing:
    """On a table with a zero, a sample block stops each sample at the zero
    (terms._absorbing); its values are those of the plain evaluation."""

    @pytest.fixture
    def narrowed(self, monkeypatch):
        calls = []
        narrow = K._Draws.narrow
        monkeypatch.setattr(K._Draws, "narrow",
                            lambda self, kept: calls.append(kept.size) or narrow(self, kept))
        return calls

    @given(SHAPES, SEEDS)
    @settings(max_examples=30)
    def test_v_words_on_the_suite_carriers(self, b21_mul, ps3_mul, b2, nmh, seed):
        for alg in (b21_mul, ps3_mul, b2):
            agrees_on_a_sample_block(alg, T.v_word(*nmh), seed)

    @given(st.sampled_from(SMALL_TABLES), SHAPES, SEEDS)
    @settings(max_examples=40)
    def test_corpus_tables_with_a_zero_adjoined(self, table, nmh, seed):
        alg = C.adjoin_zero(corpus.as_algebra(table))
        assert T.flat_kernel(alg).zero == 0
        agrees_on_a_sample_block(alg, T.v_word(*nmh), seed)

    @given(SHAPES, SEEDS)
    @settings(max_examples=20)
    def test_s3_with_a_zero_adjoined(self, s3, nmh, seed):
        agrees_on_a_sample_block(C.adjoin_zero(s3), T.v_word(*nmh), seed)

    @given(MAGMA_ROWS, SHAPES, SEEDS)
    @settings(max_examples=40)
    @example([[1, 2, 0]] * 3, (2, 2, 3), 1)
    def test_magmas_with_a_zero_adjoined_fold(self, rows, nmh, seed):
        # a zero factor makes every bracketing the zero
        alg = C.adjoin_zero(magma(rows))
        if core.validate(alg) is not None:
            assert T.flat_kernel(alg).block(nmh[0], nmh[1]) is None
        agrees_on_a_sample_block(alg, T.v_word(*nmh), seed)

    @given(SHAPES, SEEDS)
    @settings(max_examples=20)
    def test_a_left_zero_is_no_zero(self, s3, b21_mul, nmh, seed):
        for alg in (left_zero_only(s3), left_zero_only(b21_mul)):
            assert T.flat_kernel(alg).zero is None
            agrees_on_a_sample_block(alg, T.v_word(*nmh), seed)

    def test_samples_are_dropped_in_a_partial_last_chunk(self, b21_mul, narrowed):
        got = agrees_on_a_sample_block(b21_mul, T.v_word(2, 2, 3), 5, start=K._CHUNK,
                                       count=777)
        assert len(got) == 777 and narrowed and max(narrowed) < 777

    def test_a_chunk_in_which_every_sample_dies(self, ps3_mul, narrowed):
        # the first variable bound to the zero puts every sample's first
        # depth-1 node at the zero
        word = T.v_word(2, 4, 3)
        zero = T.flat_kernel(ps3_mul).zero
        got = agrees_on_a_sample_block(ps3_mul, word, 9, count=300,
                                       domains={word.variables()[0]: [zero]})
        assert got.dtype == ps3_mul.mul.dtype and (got == zero).all()
        assert narrowed == []  # the depth-2 node stopped before narrowing

    def test_scalar_evaluate_and_dicts_never_narrow(self, b21_mul, narrowed):
        word = T.v_word(2, 4, 3)
        draws = sample_block(b21_mul, word, 3, 0, 50)
        T.evaluate_batch(word, dict(draws.items()), b21_mul)
        T.evaluate(word, draws.substitution(0), b21_mul)
        assert narrowed == []
        T.evaluate_batch(word, draws, b21_mul)
        assert narrowed


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32))
@settings(max_examples=40)
def test_advance_finds_the_reachable_states(size, n, seed):
    """_advance gives the states reached, and np.unique of them."""
    rng = np.random.default_rng(seed)
    pair = T.flat_kernel(magma(rng.integers(0, size, (size, size)).tolist())).pair
    states = np.unique(rng.integers(0, size * size, 5))
    vals = np.unique(rng.integers(0, size, 3))
    for i in range(2, 2 * n + 1):
        after, reached = T._advance(pair, size, states, vals, i, n)
        assert np.array_equal(after, T._step(pair, size, states[:, None], vals[None, :], i, n))
        assert np.array_equal(reached, np.unique(after))
        states = reached


class TestParser:
    def test_plain_word(self):
        w = T.parse_term("x1 x2 x1 x2")
        assert isinstance(w, T.Word) and len(w) == 4

    def test_involution_term(self):
        t = T.parse_term("x1 x2 x1' x2'")
        assert isinstance(t, T.InvTerm)
        assert [e for _, e in t.letters] == [1, 1, -1, -1]

    def test_grouping_and_power(self):
        w = T.parse_term("x1 (x2 x1)^3")
        assert names(w) == "x1 x2 x1 x2 x1 x2 x1"

    def test_group_inverse_reverses_and_flips(self):
        t = T.parse_term("(x1 x2)'")
        assert names(t) == "x2' x1'"
        t = T.parse_term("(x1 x2')'")
        assert names(t) == "x2 x1'"

    def test_tuple_indices(self):
        w = T.parse_term("x1_2 x2_1")
        assert w.letters[0].indices == (1, 2)
        assert w.depth == 2

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(TermSyntaxError) as err:
            T.parse_term("x1 &")
        assert err.value.position == 3
        with pytest.raises(TermSyntaxError):
            T.parse_term("x1 (x2")
        with pytest.raises(TermSyntaxError):
            T.parse_term("x1^0")
        with pytest.raises(TermSyntaxError):
            T.parse_term("")
        with pytest.raises(TermSyntaxError):
            T.parse_term("x1 x1_2")  # mixed depths

    def test_parse_identity(self):
        lhs, rhs = T.parse_identity("x1 x2 = x2 x1")
        assert names(lhs) == "x1 x2" and names(rhs) == "x2 x1"
        with pytest.raises(TermSyntaxError):
            T.parse_identity("x1 x2")

    def test_identity_sides_share_one_alphabet(self):
        lhs, rhs = T.parse_identity("x1 x2 x1 = x1")
        assert rhs.letters[0] == lhs.letters[0]
        assert set(rhs.variables()) < set(lhs.variables())

    def test_a_variable_is_its_indices(self, s3):
        # x1 of "x1" and x1 of v(1, 1, 1) once differed in an alphabet width
        # (1 against 2n = 2), so a substitution keyed by one missed the other
        x1, x2 = T.parse_term("x1").letters[0], T.parse_term("x2").letters[0]
        v = T.v_word(1, 1, 1)
        assert v.variables() == [x1, x2] and hash(v.variables()[0]) == hash(x1)
        flat = T.parse_term("x1 x2 x1 x2")
        for a, b in product(range(s3.size), repeat=2):
            # keyed by the parsed variables, then by the v-word's own
            for sub in ({x1: a, x2: b}, dict(zip(v.variables(), (a, b)))):
                assert T.evaluate(v, sub, s3) == T.evaluate(flat, sub, s3)

    @pytest.mark.parametrize("mk", [
        lambda: T.v_word(2, 2, 2).flatten(),
        lambda: T.u_word(2, 1, 2),
        lambda: T.w_word(2, 2),
        lambda: T.w_word(3, 1),
    ])
    def test_round_trip_on_family_words(self, mk):
        t = mk()
        assert T.parse_term(T.format_term(t)) == t

    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])),
                    min_size=1, max_size=12))
    @settings(max_examples=120)
    def test_round_trip_on_random_terms(self, letters):
        if all(e > 0 for _, e in letters):
            t = T.Word(tuple(T.Variable((i,)) for i, _ in letters))
        else:
            t = T.InvTerm(tuple((T.Variable((i,)), e) for i, e in letters))
        assert T.parse_term(T.format_term(t)) == t

    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
           st.integers(0, 10**9))
    @settings(max_examples=60)
    def test_block_flat_agreement_property(self, n, m, h, seed):
        import bglab.constructions as C
        alg = C.brandt_monoid_b21()
        block = T.v_word(n, m, h)
        flat = block.flatten()
        rng = np.random.default_rng(seed)
        sub = {v: int(rng.integers(6)) for v in block.variables()}
        assert T.evaluate(block, sub, alg) == T.evaluate(flat, sub, alg)
