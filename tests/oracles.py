"""Exact enumeration oracles: the ground truth the decoder and inference
tests compare against.

``tree_table`` lists every head assignment of a short sentence that forms
a tree, and ``projective_tree_table`` the non-crossing subset.
``brute_force_decode`` is the exact per-sentence optimum over that list,
and ``brute_force_constrained`` the exact optimum of the corpus objective
under every constraint's ratio band, over the Cartesian product of the
per-sentence lists.  Both run on tiny inputs only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from cip.constraints import Constraint, class_matrix
from cip.core import NEG_INF, Corpus, ParseTree, ScoreMatrix, is_tree
from cip.decoder import is_projective


class InfeasibleError(RuntimeError):
    """No joint tree assignment satisfies all constraints."""


_TABLE_MAX_N = 6
# Most joint assignments that ``brute_force_constrained`` enumerates.
_GUARD = 10**6


@lru_cache(maxsize=None)
def tree_table(n: int) -> np.ndarray:
    """All head assignments over n tokens that form trees, in lexicographic
    order, as a (T, n) int array."""
    if n > _TABLE_MAX_N:
        raise ValueError(f"tree table limited to n <= {_TABLE_MAX_N}, got {n}")
    choices = [[h for h in range(n + 1) if h != d] for d in range(1, n + 1)]
    rows = [heads for heads in product(*choices) if is_tree(heads)]
    return np.asarray(rows, dtype=int)


@lru_cache(maxsize=None)
def projective_tree_table(n: int) -> np.ndarray:
    """Subset of ``tree_table(n)`` without crossing arcs."""
    table = tree_table(n)
    keep = [i for i, heads in enumerate(table) if is_projective(heads)]
    return table[keep]


def brute_force_decode(matrix: ScoreMatrix) -> tuple[ParseTree, float]:
    """Exact optimum by enumeration of ``tree_table``, which guards against
    n > 6."""
    n = matrix.n
    table = tree_table(n)
    totals = matrix.scores[table, np.arange(n)].sum(axis=1)
    heads = tuple(int(h) for h in table[int(np.argmax(totals))])
    return ParseTree(heads), matrix.tree_score(heads)


def brute_force_constrained(
    corpus: Corpus,
    constraints: Sequence[Constraint],
    *,
    projective: bool = False,
    root_counts_left: bool = False,
) -> tuple[list[ParseTree], float]:
    """Exact maximizer of the corpus objective subject to every constraint's
    ratio band, by enumerating the Cartesian product of per-sentence trees.

    Raises InfeasibleError when no joint assignment satisfies all
    constraints, and ValueError when the product exceeds ``_GUARD``.
    """
    tables = []
    total = 1
    for sentence, matrix in corpus:
        table = projective_tree_table(matrix.n) if projective else tree_table(matrix.n)
        total *= len(table)
        if total > _GUARD:
            raise ValueError(f"search space exceeds guard of {_GUARD} joint assignments")
        tables.append(table)

    shape = tuple(len(t) for t in tables)
    score_total = np.zeros(shape)
    plus_total = [np.zeros(shape) for _ in constraints]
    minus_total = [np.zeros(shape) for _ in constraints]
    for k, ((sentence, matrix), table) in enumerate(zip(corpus, tables)):
        cols = np.arange(matrix.n)
        axis = [1] * len(shape)
        axis[k] = shape[k]
        scores_k = matrix.scores[table, cols].sum(axis=1).reshape(axis)
        score_total = score_total + scores_k
        for c, constraint in enumerate(constraints):
            classes = class_matrix(constraint, sentence, root_counts_left=root_counts_left)
            picked = classes[table, cols]
            plus_total[c] = plus_total[c] + (picked == 1).sum(axis=1).reshape(axis)
            minus_total[c] = minus_total[c] + (picked == -1).sum(axis=1).reshape(axis)

    feasible = np.ones(shape, dtype=bool)
    for c, constraint in enumerate(constraints):
        denom = plus_total[c] + minus_total[c]
        with np.errstate(invalid="ignore"):
            ratio = np.where(denom > 0, plus_total[c] / np.maximum(denom, 1), np.nan)
        ok = (denom == 0) | (
            (ratio >= constraint.lower - 1e-12) & (ratio <= constraint.upper + 1e-12)
        )
        feasible &= ok
    if not feasible.any():
        raise InfeasibleError("no joint tree assignment satisfies all constraints")

    masked = np.where(feasible, score_total, NEG_INF)
    flat_best = int(np.argmax(masked))
    picks = np.unravel_index(flat_best, shape) if shape else ()
    trees = [
        ParseTree(tuple(int(h) for h in tables[k][pick]))
        for k, pick in enumerate(picks)
    ]
    objective = sum(
        matrix.tree_score(tree.heads) for (_, matrix), tree in zip(corpus, trees)
    )
    return trees, float(objective)
