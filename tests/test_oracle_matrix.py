"""The oracle matrix: engines that decide the same question must agree.

The block-value image check and the exhaustive scan both decide
v(n, m, h) = v^2.  They are compared on every semigroup table of order at
most 3 and every 9th one of order 4, at the seven shapes whose words have
at most four variables, so the scan reads at most 256 substitutions.  Each
image witness must re-evaluate through scalar terms.evaluate: v gives the
bad value, and v^2 does not.

The sampled search (seed 1, 64 samples) is compared with the exhaustive
scan on the same slice: a sampled counterexample is a real one, so the
scan finds one too, and its witness re-evaluates through scalar
terms.evaluate; where the scan says "holds", sampling finds nothing.  Both
engines read the word's lazily built nodes, the image check does not.

The generator-first search, with the table's idempotents (never none in a
finite semigroup) as generators, is compared with the plain scan on the
same slice and shapes: the statuses agree, and each of its witnesses
re-evaluates through scalar terms.evaluate to two different values.  And
on every table of the slice the image check holds at the (q, r) of the
table's own principal series, the sufficiency a06 claims for b21 and
power(S3).
"""

import pytest

from bglab import analysis
from bglab import checker as K
from bglab import corpus
from bglab import terms as T

TABLES = [t for n in (1, 2, 3) for t in corpus.semigroup_stack(n).tolist()]
TABLES += corpus.semigroup_stack(4)[::9].tolist()


SHAPES = pytest.mark.parametrize("nmh", [(1, 1, 1), (1, 2, 1), (1, 1, 2), (1, 3, 2),
                                         (2, 1, 1), (2, 2, 1), (2, 3, 1)], ids=str)


@SHAPES
def test_image_check_agrees_with_the_exhaustive_scan(nmh):
    v = T.v_word(*nmh)
    square = T.PowerOf(v, 2)
    for table in TABLES:
        alg = corpus.as_algebra(table)
        image = K.check_v_square_image(alg, *nmh)
        assert image.status == K.check_identity_exhaustive(alg, v, square).status, table
        if image.status == K.COUNTEREXAMPLE:
            assert T.evaluate(v, image.witness, alg) == image.bad_value, table
            assert T.evaluate(square, image.witness, alg) != image.bad_value, table


@SHAPES
def test_sampled_search_agrees_with_the_exhaustive_scan(nmh):
    v = T.v_word(*nmh)
    square = T.PowerOf(v, 2)
    for table in TABLES:
        alg = corpus.as_algebra(table)
        sampled = K.check_identity_sampled(alg, v, square, samples=64, seed=1)
        exhaustive = K.check_identity_exhaustive(alg, v, square).status
        if sampled.status == K.COUNTEREXAMPLE:
            assert exhaustive == K.COUNTEREXAMPLE, table
            assert T.evaluate(v, sampled.witness, alg) != T.evaluate(
                square, sampled.witness, alg), table
        else:  # so where the scan says "holds", sampling found nothing
            assert sampled.status == K.NO_COUNTEREXAMPLE, table


def test_image_check_holds_at_each_tables_own_series_parameters():
    # the sufficiency a06 claims for b21 and power(S3): v(2, q, r) = v^2
    # at the (q, r) of the table's own principal series
    for table in TABLES:
        alg = corpus.as_algebra(table)
        series = analysis.principal_series(alg)
        assert K.check_v_square_image(alg, 2, series.q, series.r).status == K.HOLDS, table


@SHAPES
def test_generator_first_search_agrees_with_the_exhaustive_scan(nmh):
    v = T.v_word(*nmh)
    square = T.PowerOf(v, 2)
    for table in TABLES:
        alg = corpus.as_algebra(table)
        biased = K.find_identity_violation(alg, v, square, analysis.idempotents(alg))
        assert biased.status == K.check_identity_exhaustive(alg, v, square).status, table
        if biased.status == K.COUNTEREXAMPLE:
            assert T.evaluate(v, biased.witness, alg) != T.evaluate(
                square, biased.witness, alg), table
