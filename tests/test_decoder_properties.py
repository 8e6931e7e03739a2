"""Property tests: the fast decoders against the enumeration oracles on
score matrices drawn by hypothesis, with tied and large-magnitude values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cip
from cip.core import is_tree
from cip.decoder import _max_arborescence, _square, projective_tree_table, tree_table

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
def test_single_root_mst_keeps_a_single_root_optimum(matrix):
    # The multi-root tree when it has one root child, ties included;
    # otherwise Chu-Liu/Edmonds on the root-penalised weights.
    tree = cip.mst_decode(matrix, single_root=True)
    free = cip.mst_decode(matrix)
    if root_children(free.heads) == 1:
        assert tree.heads == free.heads
    else:
        finite = matrix.scores[np.isfinite(matrix.scores)]
        weights = _square(matrix.scores)
        weights[0, 1:] -= 1.0 + (finite.max() - finite.min())
        assert tree.heads == tuple(_max_arborescence(weights)[1:].tolist())
