"""Property tests: the fast decoders against the enumeration oracles on
score matrices drawn by hypothesis, with tied and large-magnitude values."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cip
from cip.core import is_tree

from oracles import projective_tree_table, tree_table

VALUES = st.one_of(
    st.integers(-2, 2).map(float),  # ties everywhere
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def score_matrices(draw):
    n = draw(st.integers(1, 6))
    flat = draw(st.lists(VALUES, min_size=n * (n + 1), max_size=n * (n + 1)))
    return cip.ScoreMatrix(np.array(flat).reshape(n + 1, n))


def root_children(heads):
    return sum(1 for h in heads if h == 0)


def check_against_oracle(decode, matrix, table, single_root):
    tree = decode(matrix, single_root=single_root)
    assert is_tree(tree.heads)
    assert decode(matrix, single_root=single_root).heads == tree.heads
    if single_root:
        assert root_children(tree.heads) == 1
        table = table[(table == 0).sum(axis=1) == 1]
    best = matrix.scores[table, np.arange(matrix.n)].sum(axis=1).max()
    # Tolerance for float rounding at the scale of the largest score.
    scale = np.abs(matrix.scores[np.isfinite(matrix.scores)]).max()
    assert matrix.tree_score(tree.heads) == pytest.approx(
        best, rel=1e-12, abs=1e-12 * matrix.n * max(scale, 1.0)
    )
    return tree


@pytest.mark.parametrize("single_root", [False, True])
@settings(max_examples=80, deadline=None)
@given(matrix=score_matrices())
def test_mst_decode_matches_oracle(matrix, single_root):
    check_against_oracle(cip.mst_decode, matrix, tree_table(matrix.n), single_root)


@pytest.mark.parametrize("single_root", [False, True])
@settings(max_examples=80, deadline=None)
@given(matrix=score_matrices())
def test_projective_decode_matches_oracle(matrix, single_root):
    tree = check_against_oracle(
        cip.projective_decode, matrix, projective_tree_table(matrix.n), single_root
    )
    assert cip.is_projective(tree.heads)


@settings(max_examples=80, deadline=None)
@given(matrix=score_matrices())
# A reference that lowered the root arcs by 1 + range rounded this gap of
# 4.7e-37 away and picked (0, 1), at score 0, over the decoder's (2, 0).
@example(matrix=cip.ScoreMatrix(np.array([[0.0, 4.72917711e-37], [-np.inf, 0.0], [0.0, -np.inf]])))
def test_single_root_mst_keeps_a_single_root_optimum(matrix):
    # The multi-root tree when it has one root child, ties included;
    # otherwise a tree with one root child that scores the enumerated
    # single-root optimum.
    tree = cip.mst_decode(matrix, single_root=True)
    free = cip.mst_decode(matrix)
    if root_children(free.heads) == 1:
        assert tree.heads == free.heads
    else:
        assert is_tree(tree.heads) and root_children(tree.heads) == 1
        table = tree_table(matrix.n)
        check_exact_optimum(matrix, tree, table[(table == 0).sum(axis=1) == 1])


# Magnitudes log-uniform over [1, 1e308], either sign, or zero.  A matrix
# draws at most three, so that its entries tie, and hypothesis favours the
# bounds, so that 1e308 - (-1e308) overflows.
MAGNITUDES = st.floats(0, 308).map(lambda e: 10.0**e)


@st.composite
def extreme_matrices(draw):
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(MAGNITUDES, min_size=1, max_size=3))
    signed = st.sampled_from(pool)
    values = st.one_of(st.just(0.0), signed, signed.map(lambda v: -v))
    flat = draw(st.lists(values, min_size=n * (n + 1), max_size=n * (n + 1)))
    return cip.ScoreMatrix(np.array(flat).reshape(n + 1, n))


def exact_scores(matrix, table):
    """The score of every tree of ``table``, summed exactly: ints in units of
    2**-1074, the least subnormal, of which every float is a multiple."""
    units = [
        [int(Fraction(v) * 2**1074) if np.isfinite(v) else 0 for v in row]
        for row in matrix.scores.tolist()
    ]
    return [sum(units[h][d] for d, h in enumerate(heads)) for heads in table.tolist()]


def check_exact_optimum(matrix, tree, table):
    """``tree`` scores the best of ``table``, summed exactly, up to float
    rounding at the scale of the largest score."""
    best = max(exact_scores(matrix, table))
    got = exact_scores(matrix, np.array([tree.heads]))[0]
    scale = max(np.abs(matrix.scores[np.isfinite(matrix.scores)]).max(), 1.0)
    slack = max(Fraction(1, 10**12) * abs(best), Fraction(1e-12 * matrix.n * scale) * 2**1074)
    assert best - got <= slack


@pytest.mark.parametrize("single_root", [False, True])
@pytest.mark.parametrize(
    "decode, trees, rule",
    [
        (cip.mst_decode, tree_table, "spanning-tree"),
        (cip.projective_decode, projective_tree_table, "projective"),
    ],
    ids=["mst", "eisner"],
)
@settings(max_examples=300, deadline=None)
@given(matrix=extreme_matrices())
# Chu-Liu/Edmonds once returned two root children for the first, a tree
# 5e307 below the optimum for the second, and refused the first and the
# third under the single-root rule.
@example(matrix=cip.ScoreMatrix(np.array([[0.0, 0.0], [0.0, -1e16], [-1e16, 0.0]])))
@example(matrix=cip.ScoreMatrix(np.array([[-1.7e308, -1.7e308], [0.0, 5e307], [1e308, 0.0]])))
@example(matrix=cip.ScoreMatrix(np.array([[1.5e308, 0.0], [0.0, -1.5e308], [0.0, 0.0]])))
def test_extreme_ranges_decode_an_optimum_or_raise(decode, trees, rule, single_root, matrix):
    # Each decode either refuses the range with its own rule's message or
    # returns a tree under the root rule whose exact score is the best one,
    # up to float rounding at the scale of the largest score.
    try:
        tree = decode(matrix, single_root=single_root)
    except ValueError as exc:
        assert str(exc) == f"score range too large for {rule} decoding"
        return
    assert is_tree(tree.heads)
    table = trees(matrix.n)
    if single_root:
        assert root_children(tree.heads) == 1
        table = table[(table == 0).sum(axis=1) == 1]
    check_exact_optimum(matrix, tree, table)
