"""Per-sentence tree decoding and exact enumeration oracles.

``mst_decode`` runs Chu-Liu/Edmonds over all directed spanning trees;
``projective_decode`` runs the Eisner dynamic program over non-crossing
trees.  The brute-force functions enumerate candidate trees outright and
exist as independent references for verifying the fast decoders and for
solving the corpus-level constrained problem exactly on tiny inputs.

Both fast decoders take a length bucket: ``_bucket_mst_heads`` and
``_bucket_projective_heads`` decode a ``(B, n+1, n)`` stack of score arrays,
which is what ``CorpusView.decode`` hands them, and the public decoders are
their B = 1 case.  Chu-Liu/Edmonds works on dependent-major weights,
``dm[d, h]`` for the arc h -> d, so the greedy step is one ``argmax`` along
contiguous rows for the whole bucket, and only sentences whose greedy
parents form a cycle are contracted.  Each contraction makes one permuted
copy, the other nodes then the cycle members, and reads the best arcs
leaving and entering the cycle from its slices; the levels are descended
in a loop and expanded in reverse, so no depth of contraction recurses.
Eisner takes the overflow bound once per bucket and fills one chart per
sentence, one numpy step per span width.  Each width reads its two arcs
of every span in place, as two diagonals of the sentence's score array,
keeps its two ``argmax`` results as its split rows and reads its best
sums with one flat ``take`` at row offsets cached per node count; the
backtrack walks those rows with an explicit stack.

Decoding is deterministic.  Multi-root ties go to the lower head index:
every argmax, including those over cycle members during contraction, takes
the first maximum.  ``mst_decode(single_root=True)`` first decodes over all
trees and keeps that tree when it has exactly one root child, so it then
returns what the multi-root decode returns.  Otherwise it runs the same
Chu-Liu/Edmonds loop again with the root child chosen last: greedy parents
and cycle gains skip the root until one node is left, which takes it.
Among tied single-root optima that is not always the tree with the lowest
root child.  ``projective_decode`` takes the first best split point in
each span, and with ``single_root`` the lowest best root child.
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
    """A cycle of the parent pointers over nodes 1 .. m - 1, or None.  Each
    walk from an unvisited node marks the nodes it reaches with its start;
    a walk that reaches its own mark has closed a cycle."""
    mark = [0] * m
    mark[0] = -1
    for start in range(1, m):
        if mark[start]:
            continue
        v = start
        while not mark[v]:
            mark[v] = start
            v = parent[v]
        if mark[v] == start:
            cycle = [v]
            u = parent[v]
            while u != v:
                cycle.append(u)
                u = parent[u]
            return cycle
    return None


def _arborescence(
    dm: np.ndarray, parent: list[int] | None = None, root_last: bool = False
) -> list[int]:
    """Greedy selection plus cycle contraction on an m x m dependent-major
    weight matrix: ``dm[d, h]`` is the weight of the arc h -> d.

    Node 0 is the root (row 0 must be -inf).  ``parent``, when given, is
    the greedy parent of every node, ``dm.argmax(axis=1)``.  Returns the
    parent of every node; entry 0 is unused.  Each contraction level is
    kept on a list on the way down and expanded on the way back up, so the
    depth of the contraction is not bound by the stack.

    With ``root_last``, the tree has exactly one root child.  While more
    than one non-root node is left, each node's greedy parent is its best
    non-root head, and each cycle member's gain is taken against that
    head's weight; the last node left takes the root.  This is the decode
    with an infinite penalty on every root arc: each arc weighs (minus its
    number of root arcs, its score), compared lexicographically, and no
    other comparison mixes arcs with different numbers of root arcs.
    """
    skip = int(root_last)

    def greedy(dm: np.ndarray) -> list[int]:
        if root_last and len(dm) > 2:
            return (dm[:, 1:].argmax(axis=1) + 1).tolist()
        return dm.argmax(axis=1).tolist()

    if parent is None:
        parent = greedy(dm)
    levels = []
    while (cycle := _find_cycle(parent, len(parent))) is not None:
        # The other nodes, then the cycle members, both in ascending order,
        # so every argmax below keeps the lowest-index tie-break.  The root
        # is rest[0], and the contracted cycle takes index c_id, after the
        # rest.
        members = sorted(cycle)
        in_cycle = set(cycle)
        rest = [v for v in range(len(parent)) if v not in in_cycle]
        c_id = len(rest)
        order = np.array(rest + members)
        perm = dm.take(order, axis=0).take(order, axis=1)
        # Arcs leaving the cycle: the best member head of every outside node.
        out_arcs = perm[:c_id, c_id:]
        leaving = out_arcs.argmax(axis=1).tolist()
        out_best = np.maximum.reduce(out_arcs, axis=1)
        # Arcs entering the cycle: the best gain over the member's greedy
        # parent, whose weight is the maximum of the member's row (without
        # the root column under ``root_last``).
        into = perm[c_id:]
        gains = into[:, :c_id] - np.maximum.reduce(into[:, skip:], axis=1)[:, None]
        # The contracted matrix is the leading c_id + 1 block of perm: the
        # cycle node takes the first member's row and column.
        perm[:c_id, c_id] = out_best
        perm[c_id, :c_id] = np.maximum.reduce(gains)
        perm[c_id, c_id] = NEG_INF
        levels.append((parent, rest, members, leaving, gains))
        dm = perm[: c_id + 1, : c_id + 1]
        parent = greedy(dm)
    for above, rest, members, leaving, gains in reversed(levels):
        # An outside node headed by the cycle takes its best member head,
        # and the cycle's head enters it at the member of the best gain.
        result = above[:]
        c_id = len(rest)
        for v, head, leave in zip(rest, parent, leaving):
            result[v] = members[leave] if head == c_id else rest[head]
        head = parent[c_id]
        result[members[int(gains[:, head].argmax())]] = rest[head]
        parent = result
    return parent


def _bucket_mst_heads(x: np.ndarray, single_root: bool = False) -> np.ndarray:
    """Heads of the best spanning tree of every sentence of a ``(B, n+1, n)``
    stack of score arrays whose off-diagonal entries are finite, as a
    ``(B, n)`` array (see ``mst_decode``)."""
    size, _, n = x.shape
    # dm[b, d, h] = x[b, h, d - 1]: the weight of h -> d, row 0 -inf.
    dm = np.full((size, n + 1, n + 1), NEG_INF)
    dm[:, 1:] = x.transpose(0, 2, 1)
    heads = []
    # A contraction subtracts weights; where that overflows, its argmax
    # would compare infinities, so the decode raises instead.
    with np.errstate(over="raise"):
        for b, parent in enumerate(dm.argmax(axis=2).tolist()):
            try:
                tree = _arborescence(dm[b], parent)[1:]
                if single_root and tree.count(0) != 1:
                    # An optimum over all trees that is single-rooted is
                    # also optimal among the single-root trees, which are a
                    # subset; otherwise the root child is chosen last.
                    tree = _arborescence(dm[b], root_last=True)[1:]
            except FloatingPointError:
                raise ValueError("score range too large for spanning-tree decoding") from None
            heads.append(tree)
    return np.array(heads)


def mst_decode(matrix: ScoreMatrix, *, single_root: bool = False) -> ParseTree:
    """Highest-scoring directed spanning tree over all head assignments.

    ``single_root`` restricts the root to exactly one child (off by
    default; multi-root trees are legal).  When the best tree over all trees
    has one root child, that tree is returned, at the cost of the
    unrestricted decode.  Otherwise a second Chu-Liu/Edmonds runs that
    chooses the root child last, as if every root arc carried an infinite
    penalty; among tied single-root optima its tree is deterministic but not
    always the one with the lowest root child.  Either decode raises
    ``ValueError`` when a contraction overflows.
    """
    heads = _bucket_mst_heads(matrix.scores[None], single_root)[0]
    return ParseTree(tuple(heads.tolist()))


# ---------------------------------------------------------------------------
# Eisner projective decoding
# ---------------------------------------------------------------------------

# The rows of the three chart sums (see ``_eisner_chart``): _LEFT builds the
# complete spans headed at their right end, _RIGHT those headed at their
# left end, _INCOMP the incomplete spans.
_LEFT, _INCOMP, _RIGHT = 0, 1, 2


@lru_cache(maxsize=None)
def _row_starts(count: int) -> tuple:
    """The row offsets of every width's split sums in a chart over
    ``count`` nodes: entry w is ``(2, count - w)``, and ``[r, t]`` is the
    flat index at which row t of sum r starts in a ``(2, count - w, w)``
    array.  Its row 0 serves a ``(count - w, w)`` array too.  Entry 0 is
    unused."""
    starts = [None]
    for w in range(1, count):
        offsets = np.arange(0, 2 * (count - w) * w, w).reshape(2, count - w)
        offsets.flags.writeable = False
        starts.append(offsets)
    return tuple(starts)


def _eisner_chart(scores: np.ndarray, single_root: bool = False):
    """Fill the Eisner charts of an ``(n+1, n)`` score array over the node
    range [0, n], one step per width.

    Every span [i, j] of width w is a left half that starts at i plus a
    right half that ends at j, at each split point k.  Row r of ``left``
    holds the left halves by start i at column w, and row r of ``right``
    the right halves by end j at column ``n - w``, for the three sums:

    - ``_LEFT`` (complete, head j): complete [i, k] with head k plus
      incomplete [k, j] with head j, k = i .. j - 1;
    - ``_INCOMP`` (incomplete, either head): complete [i, k] with head i
      plus complete [k + 1, j] with head j, k = i .. j - 1;
    - ``_RIGHT`` (complete, head i): incomplete [i, k] with head i plus
      complete [k, j] with head k, k = i + 1 .. j.

    Incomplete spans are never of width 0 and sit at width - 1, so the w
    split points of all spans of width w are ``left[r, i, :w] + right[r, j,
    n - w + 1:]`` over the starts i and ends j: two forward slices and one
    numpy sum over every start position.  Each best value is read at its
    ``argmax``, the first maximum, with one flat ``take`` at the width's
    row offsets (``_row_starts``).  The incomplete sum is added to each arc
    straight into ``right[_LEFT]`` (head j) and ``left[_RIGHT]`` (head i).
    The arcs of width w are two diagonals of ``scores``, read in place
    (``scores[h, d - 1]`` is the arc h -> d): ``diagonal(w - 1)`` holds i
    -> i + w from i = 0, and ``diagonal(-w - 1)`` holds i + w -> i from i =
    1.  No arc enters the root, so span [0, w] headed at w keeps its -inf.
    The two complete sums (rows ``::2``) go to ``left[:_RIGHT]`` and
    ``right[_INCOMP:]``, where the wider spans read them as halves.

    With ``single_root``, the complete root span [0, w] is set to -inf as
    the left half of an incomplete span once width w is filled, for every
    w >= 1.  An incomplete span headed at the root is then [0, 0] plus a
    complete [1, m] headed at m, so the root has exactly one child m, and
    the complete span [0, n] takes the first best m.  Cells of spans that
    start at i >= 1 are those of the multi-root chart.

    Returns ``(left, right, splits)``.  ``splits[w]`` holds the width's two
    ``argmax`` results, its split rows: ``(k_incomp, k_complete)``, indexed
    by the start i, with ``k_complete`` rows 0 (``_LEFT``) and 1
    (``_RIGHT``).  Each is the lowest best split of span [i, i + w],
    counted from its first: ``k - i`` for ``_LEFT`` and ``_INCOMP``, ``k -
    i - 1`` for ``_RIGHT``.  Entry 0 is unused.
    """
    n = scores.shape[1]
    size = n + 1
    left, right = np.full((2, 3, size, size), NEG_INF)
    left[:_RIGHT, :, 0] = right[_INCOMP:, :, n] = 0.0
    offsets = _row_starts(size)
    splits = [None]
    for w in range(1, size):
        i, j, c = slice(0, size - w), slice(w, size), n - w
        rows = offsets[w]
        halves = left[_INCOMP, i, :w] + right[_INCOMP, j, c + 1:]
        k_incomp = halves.argmax(axis=1)
        best = halves.take(k_incomp + rows[0])
        np.add(best[1:], scores.diagonal(-w - 1), out=right[_LEFT, w + 1:, c + 1])
        np.add(best, scores.diagonal(w - 1), out=left[_RIGHT, i, w - 1])
        halves = left[::2, i, :w] + right[::2, j, c + 1:]
        k_complete = halves.argmax(axis=2)
        left[:_RIGHT, i, w] = right[_INCOMP:, j, c] = halves.take(k_complete + rows)
        if single_root:
            left[_INCOMP, 0, w] = NEG_INF
        splits.append((k_incomp, k_complete))
    return left, right, splits


def _eisner_backtrack(splits: list, n: int) -> list[int]:
    """The heads along the best derivation of the complete span [0, n]
    headed at the root, read from the split rows of ``_eisner_chart``.  A
    span is ``(i, j, direction, complete)``, direction ``_LEFT`` with its
    head at j; the walk keeps the spans still to expand on a stack."""
    heads = [0] * n
    stack = [(0, n, _RIGHT, True)]
    while stack:
        i, j, direction, complete = stack.pop()
        if i == j:
            continue
        k_incomp, k_complete = splits[j - i]
        if complete:
            if direction == _LEFT:
                k = i + int(k_complete[0, i])
                stack.append((i, k, _LEFT, True))
                stack.append((k, j, _LEFT, False))
            else:
                k = i + 1 + int(k_complete[1, i])
                stack.append((i, k, _RIGHT, False))
                stack.append((k, j, _RIGHT, True))
        else:
            if direction == _LEFT:
                heads[i - 1] = j
            else:
                heads[j - 1] = i
            k = i + int(k_incomp[i])
            stack.append((i, k, _RIGHT, True))
            stack.append((k + 1, j, _LEFT, True))
    return heads


def _bucket_projective_heads(x: np.ndarray, single_root: bool = False) -> np.ndarray:
    """Heads of the best projective tree of every sentence of a ``(B, n+1,
    n)`` stack of score arrays whose off-diagonal entries are finite, as a
    ``(B, n)`` array (see ``projective_decode``)."""
    n = x.shape[2]
    with np.errstate(over="ignore"):
        bound = n * np.abs(x[np.isfinite(x)]).max()
    if not np.isfinite(bound):
        raise ValueError("score range too large for projective decoding")
    return np.array(
        [_eisner_backtrack(_eisner_chart(scores, single_root)[2], n) for scores in x]
    )


def projective_decode(matrix: ScoreMatrix, *, single_root: bool = False) -> ParseTree:
    """Highest-scoring projective tree (no crossing arcs).

    Raises ``ValueError`` when ``n * max|score|`` over the finite scores
    overflows: a chart cell sums at most ``n`` arc scores, so below that
    bound no sum is infinite or NaN and the first best split is exact.
    """
    heads = _bucket_projective_heads(matrix.scores[None], single_root)[0]
    return ParseTree(tuple(heads.tolist()))


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
