"""Per-sentence tree decoding and exact enumeration oracles.

``mst_decode`` runs Chu-Liu/Edmonds over all directed spanning trees;
``projective_decode`` runs the Eisner dynamic program over non-crossing
trees.  The brute-force functions enumerate candidate trees outright and
exist as independent references for verifying the fast decoders and for
solving the corpus-level constrained problem exactly on tiny inputs.

Decoding is deterministic.  Multi-root ties go to the lower head index:
every argmax, including those over cycle members during contraction, takes
the first maximum.  ``mst_decode(single_root=True)`` first decodes over all
trees and keeps that tree when it has exactly one root child, so it then
returns what the multi-root decode returns.  Otherwise it runs the same
Chu-Liu/Edmonds again on scores whose root arcs carry a penalty, and among
tied single-root optima it returns the tree that decode selects, which is
not always the one with the lowest root child.  ``projective_decode`` takes
the first best split point in each span, and with ``single_root`` the
lowest best root child.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .constraints import Constraint, class_matrix
from .core import NEG_INF, Corpus, ParseTree, ScoreMatrix, is_tree


class InfeasibleError(RuntimeError):
    """No joint tree assignment satisfies all constraints."""


# ---------------------------------------------------------------------------
# Chu-Liu/Edmonds maximum spanning arborescence
# ---------------------------------------------------------------------------

def _find_cycle(parent: Sequence[int], m: int) -> list[int] | None:
    color = [0] * m  # 0 unvisited, 1 on current path, 2 finished
    color[0] = 2
    for start in range(1, m):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = parent[v]
        if color[v] == 1:
            return path[path.index(v):]
        for u in path:
            color[u] = 2
    return None


def _max_arborescence(weights: np.ndarray) -> np.ndarray:
    """Greedy selection plus cycle contraction on an m x m weight matrix.

    Node 0 is the root (column 0 must be -inf).  Returns the parent of every
    node; entry 0 is unused.
    """
    m = weights.shape[0]
    parent = weights.argmax(axis=0)
    cycle = _find_cycle(parent.tolist(), m)
    if cycle is None:
        return parent

    # Cycle members and the other nodes both in ascending order, so every
    # argmax below keeps the lowest-index tie-break.  The root is rest[0].
    in_cycle = np.zeros(m, dtype=bool)
    in_cycle[cycle] = True
    members = in_cycle.nonzero()[0]
    rest = (~in_cycle).nonzero()[0]
    c_id = len(rest)
    from_rest = weights.take(rest, axis=0)
    from_members = weights.take(members, axis=0)
    contracted = np.empty((c_id + 1, c_id + 1))
    contracted[c_id, c_id] = NEG_INF
    contracted[:c_id, :c_id] = from_rest.take(rest, axis=1)
    # Arcs leaving the cycle: the best member head of every outside node.
    out_arcs = from_members.take(rest, axis=1)
    leaving = members[out_arcs.argmax(axis=0)]
    contracted[c_id, :c_id] = out_arcs.max(axis=0)
    # Arcs entering the cycle: the best gain over the member's greedy parent.
    gains = from_rest.take(members, axis=1) - weights[parent[members], members]
    entering = members[gains.argmax(axis=1)]
    contracted[:c_id, c_id] = gains.max(axis=1)

    sub_parent = _max_arborescence(contracted)
    result = parent.copy()
    # An outside node headed by the contracted node takes its best member
    # head; the clip only keeps rest.take in range for those nodes.
    inner = sub_parent[1:c_id]
    result[rest[1:]] = np.where(
        inner == c_id, leaving[1:], rest.take(inner, mode="clip")
    )
    head = int(sub_parent[c_id])
    result[entering[head]] = rest[head]
    return result


def _square(scores: np.ndarray) -> np.ndarray:
    """The ``(n+1) x (n+1)`` weights of an ``(n+1) x n`` score array: column
    0 (arcs into the root) is -inf."""
    n = scores.shape[1]
    weights = np.full((n + 1, n + 1), NEG_INF)
    weights[:, 1:] = scores
    return weights


def _mst_heads(scores: np.ndarray, single_root: bool = False) -> np.ndarray:
    """Heads of the best spanning tree over an ``(n+1) x n`` score array
    whose off-diagonal entries are finite (see ``mst_decode``)."""
    n = scores.shape[1]
    if n == 1:
        return np.zeros(1, dtype=int)
    weights = _square(scores)
    parent = _max_arborescence(weights)
    if not single_root or np.count_nonzero(parent[1:] == 0) == 1:
        # An optimum over all trees that is single-rooted is also optimal
        # among the single-root trees, which are a subset.
        return parent[1:]
    # Subtract one penalty C from every root arc.  A tree with k > 1 root
    # children becomes a single-root tree by moving k - 1 of them under the
    # first, which loses at most (k - 1) * (max - min) over the finite
    # scores; with C above max - min each extra root child costs more than
    # that, so the optimum has exactly one root child.  Every single-root
    # tree moves by the same C, so they rank as under the raw scores.
    finite = scores[np.isfinite(scores)]
    with np.errstate(over="ignore"):
        penalty = 1.0 + (finite.max() - finite.min())
    if not np.isfinite(penalty):
        raise ValueError("score range too large for single-root decoding")
    weights[0, 1:] -= penalty
    return _max_arborescence(weights)[1:]


def mst_decode(matrix: ScoreMatrix, *, single_root: bool = False) -> ParseTree:
    """Highest-scoring directed spanning tree over all head assignments.

    ``single_root`` restricts the root to exactly one child (off by
    default; multi-root trees are legal).  When the best tree over all trees
    has one root child, that tree is returned, at the cost of the
    unrestricted decode.  Otherwise a second Chu-Liu/Edmonds runs with a
    penalty on every root arc, so that a second root child never pays;
    among tied single-root optima it returns the tree that Chu-Liu/Edmonds
    selects on the penalised scores, which is deterministic but not always
    the one with the lowest root child.  That second decode raises
    ``ValueError`` when the range of the finite scores overflows.
    """
    return ParseTree(tuple(_mst_heads(matrix.scores, single_root).tolist()))


# ---------------------------------------------------------------------------
# Eisner projective decoding
# ---------------------------------------------------------------------------

# The rows of the three chart sums (see ``_eisner_chart``): _LEFT builds the
# complete spans headed at their right end, _RIGHT those headed at their
# left end, _INCOMP the incomplete spans.
_LEFT, _INCOMP, _RIGHT = 0, 1, 2
_PAIR = np.array([[0], [1]])  # the first axis of the two complete sums


@lru_cache(maxsize=None)
def _arc_index(size: int) -> np.ndarray:
    """Flat indices into a ``size x size`` weight matrix of both arcs of
    every span [i, i + w]: ``[w, 0, i]`` of the arc from i + w to i,
    ``[w, 1, i]`` of the arc from i to i + w.  Spans that end past the
    last node index entry 0, which the chart never reads."""
    i = np.arange(size)
    w = i[:, None]
    index = np.stack((i * (size + 1) + w * size, i * (size + 1) + w), axis=1)
    index = np.where((i + w < size)[:, None], index, 0)
    index.flags.writeable = False
    return index


def _eisner_chart(weights: np.ndarray, lo: int, hi: int):
    """Fill the Eisner charts over the node range [lo, hi], one step per width.

    Every span [i, j] of width w is a left half that starts at i plus a
    right half that ends at j, at each split point k.  Row r of ``left``
    holds the left halves by start i at column w, and row r of ``right``
    the right halves by end j at column ``hi - w``, for the three sums:

    - ``_LEFT`` (complete, head j): complete [i, k] with head k plus
      incomplete [k, j] with head j, k = i .. j - 1;
    - ``_INCOMP`` (incomplete, either head): complete [i, k] with head i
      plus complete [k + 1, j] with head j, k = i .. j - 1;
    - ``_RIGHT`` (complete, head i): incomplete [i, k] with head i plus
      complete [k, j] with head k, k = i + 1 .. j.

    Incomplete spans are never of width 0 and sit at width - 1, so the w
    split points of all spans of width w are ``left[r, starts, :w] +
    right[r, ends, hi - w + 1:]``: two forward slices and one numpy sum
    over every start position.  The incomplete sum goes, plus each arc, to
    ``right[_LEFT]`` (head j) and ``left[_RIGHT]`` (head i); the two
    complete sums (rows ``::2``) go to ``left[:_RIGHT]`` and
    ``right[_INCOMP:]``, where the wider spans read them as halves.  Each
    best value is read at its ``argmax``, the first maximum, so
    ``split[r, i, w]`` is the lowest best split of span [i, i + w], counted
    from its first: ``k - i`` for ``_LEFT`` and ``_INCOMP``, ``k - i - 1``
    for ``_RIGHT``.  Returns ``(left, right, split)``.
    """
    size = hi + 1
    left, right = np.full((2, 3, size, size), NEG_INF)
    left[:_RIGHT, lo:, 0] = right[_INCOMP:, lo:, hi] = 0.0
    split = np.zeros((3, size, size), dtype=int)
    arcs = weights.take(_arc_index(size))
    rows = np.arange(size - lo)
    for w in range(1, size - lo):
        i, j, c = slice(lo, size - w), slice(lo + w, size), hi - w
        starts = rows[: size - lo - w]
        halves = left[_INCOMP, i, :w] + right[_INCOMP, j, c + 1:]
        k = halves.argmax(axis=1)
        split[_INCOMP, i, w] = k
        incomplete = halves[starts, k] + arcs[w, :, i]
        right[_LEFT, j, c + 1] = incomplete[0]
        left[_RIGHT, i, w - 1] = incomplete[1]
        halves = left[::2, i, :w] + right[::2, j, c + 1:]
        k = halves.argmax(axis=2)
        split[::2, i, w] = k
        best = halves[_PAIR, starts, k]
        left[:_RIGHT, i, w] = right[_INCOMP:, j, c] = best
    return left, right, split


def _eisner_backtrack(split: np.ndarray, i: int, j: int, direction: int,
                      complete: bool, heads: list[int]) -> None:
    if i == j:
        return
    if complete:
        k = i + int(split[direction, i, j - i])
        if direction == _LEFT:
            _eisner_backtrack(split, i, k, _LEFT, True, heads)
            _eisner_backtrack(split, k, j, _LEFT, False, heads)
        else:
            _eisner_backtrack(split, i, k + 1, _RIGHT, False, heads)
            _eisner_backtrack(split, k + 1, j, _RIGHT, True, heads)
    else:
        k = i + int(split[_INCOMP, i, j - i])
        if direction == _LEFT:
            heads[i - 1] = j
        else:
            heads[j - 1] = i
        _eisner_backtrack(split, i, k, _RIGHT, True, heads)
        _eisner_backtrack(split, k + 1, j, _LEFT, True, heads)


def _projective_heads(scores: np.ndarray, single_root: bool = False) -> list[int]:
    """Heads of the best projective tree over an ``(n+1) x n`` score array
    whose off-diagonal entries are finite (see ``projective_decode``)."""
    n = scores.shape[1]
    if n == 1:
        return [0]
    with np.errstate(over="ignore"):
        bound = n * np.abs(scores[np.isfinite(scores)]).max()
    if not np.isfinite(bound):
        raise ValueError("score range too large for projective decoding")
    weights = _square(scores)
    heads = [0] * n
    if not single_root:
        _, _, split = _eisner_chart(weights, 0, n)
        _eisner_backtrack(split, 0, n, _RIGHT, True, heads)
    else:
        left, right, split = _eisner_chart(weights, 1, n)
        # Root child m = 1 .. n heads the spans [1, m] and [m, n].
        value = weights[0, 1:] + left[_LEFT, 1, :n] + right[_RIGHT, n, 1:]
        best_m = 1 + int(np.argmax(value))
        heads[best_m - 1] = 0
        _eisner_backtrack(split, 1, best_m, _LEFT, True, heads)
        _eisner_backtrack(split, best_m, n, _RIGHT, True, heads)
    return heads


def projective_decode(matrix: ScoreMatrix, *, single_root: bool = False) -> ParseTree:
    """Highest-scoring projective tree (no crossing arcs).

    Raises ``ValueError`` when ``n * max|score|`` over the finite scores
    overflows: a chart cell sums at most ``n`` arc scores, so below that
    bound no sum is infinite or NaN and the first best split is exact.
    """
    return ParseTree(tuple(_projective_heads(matrix.scores, single_root)))


def is_projective(heads: Sequence[int]) -> bool:
    """True iff no two arcs (i, j), (k, l) interleave as i < k < j < l."""
    spans = [tuple(sorted((head, dep))) for dep, head in enumerate(heads, start=1)]
    for a in range(len(spans)):
        i, j = spans[a]
        for b in range(a + 1, len(spans)):
            k, l = spans[b]
            if i < k < j < l or k < i < l < j:
                return False
    return True


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

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


def decode_corpus(
    corpus: Corpus,
    *,
    projective: bool = False,
    single_root: bool = False,
) -> list[ParseTree]:
    """Per-sentence unconstrained decode of a whole corpus."""
    decode = projective_decode if projective else mst_decode
    return [decode(matrix, single_root=single_root) for _, matrix in corpus]
