"""Decoders against brute-force enumeration."""

import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import cip
from cip import decoder
from cip.core import NEG_INF
from cip.decoder import (
    _INCOMP,
    _LEFT,
    _RIGHT,
    _arborescence,
    _bucket_mst_heads,
    _bucket_projective_heads,
    _eisner_chart,
    _find_cycle,
)

from conftest import _square, make_sentence
from oracles import (
    InfeasibleError,
    brute_force_constrained,
    brute_force_decode,
    projective_tree_table,
    tree_table,
)


def best_in_table(matrix, table):
    return max(matrix.tree_score(tuple(int(h) for h in row)) for row in table)


def loop_max_arborescence(weights):
    """Chu-Liu/Edmonds on head-major weights (``weights[h, d]`` is the arc
    h -> d) with the contraction written arc by arc: the reference that
    ``_arborescence`` must match on the transposed weights, ties included."""
    m = weights.shape[0]
    parent = np.zeros(m, dtype=int)
    for d in range(1, m):
        parent[d] = int(np.argmax(weights[:, d]))
    cycle = _find_cycle(parent, m)
    if cycle is None:
        return parent
    rest = [v for v in range(m) if v not in cycle]
    index = {v: i for i, v in enumerate(rest)}
    c_id = len(rest)
    contracted = np.full((c_id + 1, c_id + 1), NEG_INF)
    entering, leaving = {}, {}
    for h in range(m):
        for d in range(1, m):
            w = weights[h, d]
            if w == NEG_INF or (h in cycle and d in cycle):
                continue
            if h in cycle:
                if w > contracted[c_id, index[d]]:
                    contracted[c_id, index[d]] = w
                    leaving[index[d]] = h
            elif d in cycle:
                gain = w - weights[parent[d], d]
                if gain > contracted[index[h], c_id]:
                    contracted[index[h], c_id] = gain
                    entering[index[h]] = (h, d)
            else:
                contracted[index[h], index[d]] = w
    sub_parent = loop_max_arborescence(contracted)
    result = parent.copy()
    for v in rest[1:]:
        p = int(sub_parent[index[v]])
        result[v] = leaving[index[v]] if p == c_id else rest[p]
    head, dep = entering[int(sub_parent[c_id])]
    result[dep] = head
    return result


def loop_mst_heads(scores, single_root):
    """The heads of one ``(n+1) x n`` score array from
    ``loop_max_arborescence``; with ``single_root``, a tree with several
    root children is decoded again with a penalty of ``1 + (max - min)`` on
    every root arc, the independent reference of
    ``test_single_root_mst_keeps_a_single_root_optimum``."""
    weights = _square(scores)
    heads = loop_max_arborescence(weights)[1:]
    if single_root and np.count_nonzero(heads == 0) != 1:
        finite = scores[np.isfinite(scores)]
        weights[0, 1:] -= 1.0 + (finite.max() - finite.min())
        heads = loop_max_arborescence(weights)[1:]
    return heads.tolist()


def loop_eisner_chart(weights, lo, hi):
    """The Eisner charts filled span by span and split by split: the
    reference that ``_eisner_chart`` must match, ties included.  Charts are
    indexed ``[i, j, direction]``, direction 0 with the head at j."""
    size = hi + 1
    comp = np.full((size, size, 2), NEG_INF)
    incomp = np.full((size, size, 2), NEG_INF)
    comp_bp = np.zeros((size, size, 2), dtype=int)
    incomp_bp = np.zeros((size, size, 2), dtype=int)
    for i in range(lo, hi + 1):
        comp[i, i, :] = 0.0
    for span in range(1, hi - lo + 1):
        for i in range(lo, hi - span + 1):
            j = i + span
            split_best, split_k = NEG_INF, i
            for k in range(i, j):
                value = comp[i, k, 1] + comp[k + 1, j, 0]
                if value > split_best:
                    split_best, split_k = value, k
            incomp[i, j, 0] = split_best + weights[j, i]
            incomp[i, j, 1] = split_best + weights[i, j]
            incomp_bp[i, j, :] = split_k
            best, best_k = NEG_INF, i
            for k in range(i, j):
                value = comp[i, k, 0] + incomp[k, j, 0]
                if value > best:
                    best, best_k = value, k
            comp[i, j, 0], comp_bp[i, j, 0] = best, best_k
            best, best_k = NEG_INF, i + 1
            for k in range(i + 1, j + 1):
                value = incomp[i, k, 1] + comp[k, j, 1]
                if value > best:
                    best, best_k = value, k
            comp[i, j, 1], comp_bp[i, j, 1] = best, best_k
    return comp, incomp, comp_bp, incomp_bp


def chart_by_span(scores, single_root):
    """``_eisner_chart`` laid out as ``loop_eisner_chart``'s four charts."""
    left, right, splits = _eisner_chart(scores, single_root)
    hi = scores.shape[1]
    size = hi + 1
    i, j = np.triu_indices(size)
    # Complete spans are kept twice: by start and width in ``left``, by end
    # and ``hi - width`` in ``right``.  A single-root chart blocks the root
    # spans [0, j], j >= 1, as left halves of incomplete spans.
    comp_l, comp_r = right[_INCOMP, j, hi - (j - i)], right[_RIGHT, j, hi - (j - i)]
    blocked = single_root & (i == 0) & (j > 0)
    assert np.array_equal(comp_l, left[_LEFT, i, j - i], equal_nan=True)
    as_half = left[_INCOMP, i, j - i]
    assert np.array_equal(comp_r[~blocked], as_half[~blocked], equal_nan=True)
    assert (as_half[blocked] == NEG_INF).all()
    comp = np.full((size, size, 2), NEG_INF)
    comp[i, j, 0], comp[i, j, 1] = comp_l, comp_r
    # Spans of width 0 have no split.  Each wider one has its width's split
    # rows, indexed by start, which count the split from the span's first
    # node: k - i, or k - i - 1 for a complete span headed at i.
    comp_bp = np.zeros((size, size, 2), dtype=int)
    incomp_bp = np.zeros((size, size, 2), dtype=int)
    assert splits[0] is None and len(splits) == size
    for w, (k_incomp, k_complete) in enumerate(splits[1:], start=1):
        assert k_incomp.shape == (size - w,)
        assert k_complete.shape == (2, size - w)
        i = np.arange(size - w)
        comp_bp[i, i + w, 0] = i + k_complete[0]
        comp_bp[i, i + w, 1] = i + 1 + k_complete[1]
        incomp_bp[i, i + w, 0] = incomp_bp[i, i + w, 1] = i + k_incomp
    # Incomplete spans sit at width - 1: head j by end, head i by start.
    i, j = np.triu_indices(size, 1)
    incomp = np.full((size, size, 2), NEG_INF)
    incomp[i, j, 0] = right[_LEFT, j, hi - (j - i - 1)]
    incomp[i, j, 1] = left[_RIGHT, i, j - i - 1]
    return comp, incomp, comp_bp, incomp_bp


def loop_projective_heads(weights, chart, single_root):
    """Heads backtracked along the pointers of ``chart``, a
    ``loop_eisner_chart`` over [1, n] when ``single_root`` is set (root
    child chosen by a strict ``>`` loop) and over [0, n] otherwise."""
    comp, _, comp_bp, incomp_bp = chart
    n = comp.shape[0] - 1
    heads = [0] * n
    # A span is (i, j, direction, complete), direction 0 with its head at j.
    if not single_root:
        stack = [(0, n, 1, True)]
    else:
        best, best_m = NEG_INF, 1
        for m in range(1, n + 1):
            value = weights[0, m] + comp[1, m, 0] + comp[m, n, 1]
            if value > best:
                best, best_m = value, m
        stack = [(1, best_m, 0, True), (best_m, n, 1, True)]
    while stack:
        i, j, direction, complete = stack.pop()
        if i == j:
            continue
        if complete:
            k = int(comp_bp[i, j, direction])
            if direction == 0:
                stack += [(i, k, 0, True), (k, j, 0, False)]
            else:
                stack += [(i, k, 1, False), (k, j, 1, True)]
        else:
            if direction == 0:
                heads[i - 1] = j
            else:
                heads[j - 1] = i
            k = int(incomp_bp[i, j, direction])
            stack += [(i, k, 1, True), (k + 1, j, 0, True)]
    return tuple(heads)


def stack_depth():
    """The number of frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestMstDecode:
    def test_single_token(self):
        assert cip.mst_decode(cip.ScoreMatrix(np.array([[1.0], [0.0]]))).heads == (0,)

    def test_three_token_optimum(self):
        matrix = cip.ScoreMatrix(
            np.array([[10.0, 0, 0], [0, 8, 2], [3, 0, 9], [1, 4, 0]])
        )
        tree = cip.mst_decode(matrix)
        assert tree.heads == (0, 1, 2)
        assert matrix.tree_score(tree.heads) == 27.0

    def test_breaks_greedy_cycle(self):
        # Per-dependent argmax picks 2->1 and 1->2; the decoder must break
        # the cycle and return the true optimum (2, 0).
        matrix = cip.ScoreMatrix(np.array([[0.0, 0.0], [0.0, 4.0], [5.0, 0.0]]))
        tree = cip.mst_decode(matrix)
        brute, objective = brute_force_decode(matrix)
        assert tree.heads == brute.heads == (2, 0)
        assert matrix.tree_score(tree.heads) == objective == 5.0

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
            tree = cip.mst_decode(matrix)
            _, objective = brute_force_decode(matrix)
            assert matrix.tree_score(tree.heads) == objective

    def test_contraction_matches_loop_reference(self):
        # Integer scores tie often, so equal parents check the tie-breaks
        # of every contraction, with and without a root penalty.  The
        # root-last rule must match the penalised reference, ties included.
        rng = np.random.default_rng(17)
        for trial in range(300):
            n = int(rng.integers(2, 21))
            scores = rng.integers(-2, 3, (n + 1, n)).astype(float)
            if trial % 2:
                scores = scores + rng.normal(0, 1, scores.shape)
            weights = _square(cip.ScoreMatrix(scores).scores)
            root_last = _arborescence(weights.T.copy(), root_last=True)[1:]
            for penalty in (0.0, 5.0):
                weights[0, 1:] -= penalty
                assert _arborescence(weights.T.copy()) == loop_max_arborescence(
                    weights
                ).tolist()
            finite = weights[np.isfinite(weights)]
            weights[0, 1:] -= 1.0 + (finite.max() - finite.min())
            assert root_last == loop_max_arborescence(weights)[1:].tolist()

    @pytest.mark.parametrize("single_root", [False, True])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, shape: rng.integers(-2, 3, shape).astype(float),
            lambda rng, shape: rng.integers(-2, 3, shape) + rng.normal(0, 1, shape),
            lambda rng, shape: rng.normal(0, 900, shape),
        ],
        ids=["int-ties", "ties-noise", "scale900"],
    )
    def test_bucket_matches_sentence_decode(self, draw, single_root):
        # Every sentence of a stack decodes as it does on its own, ties
        # and the root penalty included, and to an optimum for n <= 6.
        rng = np.random.default_rng(23)
        for _ in range(60):
            n, size = int(rng.integers(1, 13)), int(rng.integers(1, 7))
            x = np.stack([cip.ScoreMatrix(draw(rng, (n + 1, n))).scores for _ in range(size)])
            heads = _bucket_mst_heads(x, single_root)
            assert heads.shape == (size, n)
            table = tree_table(n) if n <= 6 else None
            if table is not None and single_root:
                table = table[(table == 0).sum(axis=1) == 1]
            for scores, row in zip(x, heads.tolist()):
                assert row == loop_mst_heads(scores, single_root)
                if table is not None:
                    best = scores[table, np.arange(n)].sum(axis=1).max()
                    assert scores[row, np.arange(n)].sum() == pytest.approx(
                        best, rel=1e-12, abs=1e-9
                    )

    def test_bucket_single_root_near_the_float_limit(self):
        one_root = [[5.0, 0.0], [0.0, 5.0], [0.0, 0.0]]
        # A range near the float limit, whose best tree over all trees has
        # one root child in the second sentence and two in the third.
        keeps = [[1.5e308, -1.5e308], [0.0, 0.0], [0.0, 0.0]]
        huge = [[1.5e308, 0.0], [0.0, -1.5e308], [0.0, 0.0]]
        x = np.stack([cip.ScoreMatrix(np.array(s)).scores for s in (one_root, keeps, huge)])
        assert _bucket_mst_heads(x).tolist() == [[0, 1], [0, 1], [0, 0]]
        # The root-last decode of the third ties (0, 1) with (2, 0), at 0.
        assert _bucket_mst_heads(x, single_root=True).tolist() == [[0, 1], [0, 1], [0, 1]]

    def test_single_root_contraction_overflow_raises(self):
        # Two root children over all trees; the root-last greedy parents
        # form the cycle 1 <-> 2, and each gain of entering it from the
        # root, 1e308 - (-1e308), overflows.
        matrix = cip.ScoreMatrix(np.array([[1e308, 1e308], [0.0, -1e308], [-1e308, 0.0]]))
        assert cip.mst_decode(matrix).heads == (0, 0)
        with pytest.raises(
            ValueError, match="^score range too large for spanning-tree decoding$"
        ):
            cip.mst_decode(matrix, single_root=True)

    def test_column_shift_leaves_tree_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            base = rng.normal(0, 3, (n + 1, n))
            shift = rng.normal(0, 10, n)
            a = cip.mst_decode(cip.ScoreMatrix(base))
            b = cip.mst_decode(cip.ScoreMatrix(base + shift))
            assert a.heads == b.heads

    def test_tie_break_prefers_lower_head(self):
        for n in (2, 3, 4):
            matrix = cip.ScoreMatrix(np.zeros((n + 1, n)))
            assert cip.mst_decode(matrix).heads == (0,) * n
            assert brute_force_decode(matrix)[0].heads == (0,) * n

    def test_contraction_ties_prefer_lower_index(self):
        # Greedy picks the cycle 2->1, 1->2.  Both members tie as the entry
        # point from the root and as the head of token 3; the lower member,
        # 1, wins both.
        matrix = cip.ScoreMatrix(
            np.array([[0.0, 0.0, 0.0], [0, 5, 4], [5, 0, 4], [0, 0, 0]])
        )
        assert cip.mst_decode(matrix).heads == (0, 1, 1)
        assert brute_force_decode(matrix)[0].heads == (0, 1, 1)

    def test_single_root_flag(self):
        # Two strong root arcs: multi-root decode takes both, single-root
        # must keep exactly one root child.
        matrix = cip.ScoreMatrix(np.array([[5.0, 5.0], [0.0, 0.0], [0.0, 0.0]]))
        multi = cip.mst_decode(matrix)
        assert multi.heads == (0, 0)
        single = cip.mst_decode(matrix, single_root=True)
        assert sum(1 for h in single.heads if h == 0) == 1
        table = [
            row for row in tree_table(2) if sum(1 for h in row if h == 0) == 1
        ]
        assert matrix.tree_score(single.heads) == best_in_table(matrix, table)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, shape: rng.normal(0, 3, shape),
            lambda rng, shape: rng.normal(0, 900, shape),
            lambda rng, shape: rng.integers(-2, 3, shape).astype(float),
        ],
        ids=["scale3", "scale900", "int-ties"],
    )
    def test_single_root_matches_enumeration(self, draw):
        rng = np.random.default_rng(16)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            matrix = cip.ScoreMatrix(draw(rng, (n + 1, n)))
            tree = cip.mst_decode(matrix, single_root=True)
            assert sum(1 for h in tree.heads if h == 0) == 1
            table = tree_table(n)
            table = table[(table == 0).sum(axis=1) == 1]
            best = matrix.scores[table, np.arange(n)].sum(axis=1).max()
            assert matrix.tree_score(tree.heads) == pytest.approx(best, rel=1e-12)
            assert cip.mst_decode(matrix, single_root=True).heads == tree.heads

    def test_single_root_extreme_scores(self):
        # A range of 2e300: (2, 0) scores 1e300, (0, 1) 0.
        matrix = cip.ScoreMatrix(np.array([[1e300, 1e300], [0.0, -1e300], [0.0, 0.0]]))
        assert cip.mst_decode(matrix, single_root=True).heads == (2, 0)
        # A range near the float limit: (0, 1) and (2, 0) tie at 0.
        huge = cip.ScoreMatrix(np.array([[1.5e308, 0.0], [0.0, -1.5e308], [0.0, 0.0]]))
        assert cip.mst_decode(huge, single_root=True).heads == (0, 1)

    def test_single_root_huge_range_keeps_single_root_optimum(self):
        # The best tree over all trees already has one root child, so it
        # is returned without a second decode.
        matrix = cip.ScoreMatrix(np.array([[1.5e308, -1.5e308], [0.0, 0.0], [0.0, 0.0]]))
        assert cip.mst_decode(matrix, single_root=True).heads == (0, 1)

    @pytest.mark.parametrize("decode", [cip.mst_decode, cip.projective_decode])
    def test_single_root_range_below_2_53_keeps_one_root_child(self, decode):
        matrix = cip.ScoreMatrix(np.array([[0.0, 0.0], [0.0, -1e15], [-1e15, 0.0]]))
        assert decode(matrix, single_root=True).heads == (0, 1)

    @pytest.mark.parametrize("decode", [cip.mst_decode, cip.projective_decode])
    def test_single_root_range_from_2_53_keeps_one_root_child(self, decode):
        # From 2**53 on, a root penalty of 1 + (max - min) would round to
        # the range and let a second root child tie; no penalty is taken.
        matrix = cip.ScoreMatrix(np.array([[0.0, 0.0], [0.0, -1e16], [-1e16, 0.0]]))
        assert decode(matrix, single_root=True).heads == (0, 1)

    def test_contraction_overflow_raises(self):
        # The greedy parents 2 -> 1 -> 2 form a cycle, and both gains of
        # entering it from the root overflow to -inf, where the tie went to
        # (0, 1), which scores 5e307 below (2, 0).
        matrix = cip.ScoreMatrix(np.array([[-1.7e308, -1.7e308], [0.0, 5e307], [1e308, 0.0]]))
        with pytest.raises(
            ValueError, match="^score range too large for spanning-tree decoding$"
        ):
            cip.mst_decode(matrix)

    def test_single_root_optimum_costs_one_arborescence(self, monkeypatch):
        calls, levels = [], []
        real, find = decoder._arborescence, decoder._find_cycle
        monkeypatch.setattr(
            decoder,
            "_arborescence",
            lambda dm, parent=None, root_last=False: calls.append(1)
            or real(dm, parent, root_last),
        )
        monkeypatch.setattr(
            decoder, "_find_cycle", lambda parent, m: levels.append(1) or find(parent, m)
        )
        one_root = cip.ScoreMatrix(np.array([[5.0, 0.0], [0.0, 5.0], [0.0, 0.0]]))
        assert cip.mst_decode(one_root, single_root=True).heads == (0, 1)
        assert len(calls) == len(levels) == 1
        # Two root children: the root-last decode runs as well, and its
        # greedy heads form the cycle 1 <-> 2, contracted once, so that
        # decode looks for a cycle on two levels.
        two_roots = cip.ScoreMatrix(np.array([[5.0, 5.0], [0.0, 0.0], [0.0, 0.0]]))
        assert cip.mst_decode(two_roots, single_root=True).heads == (0, 1)
        assert len(calls) == 1 + 1 + 1
        assert len(levels) == 1 + 1 + 2

    def test_long_contraction_chain_needs_no_recursion(self):
        # Greedy parents close the cycle 1 <-> 2, and each contracted cycle
        # then forms a new one with the next token, which prefers its left
        # neighbour by 1e-4: n - 1 contraction levels, kept on a list.
        n = 120
        scores = np.full((n + 1, n), -100.0)
        scores[0] = 0.0
        scores[2, 0] = scores[1, 1] = 10.0
        d = np.arange(3, n + 1)
        scores[d - 1, d - 1] = 10.0
        scores[d, d - 2] = 10.0 - 1e-4
        matrix = cip.ScoreMatrix(scores)
        with recursion_limit(stack_depth() + 60):
            heads = cip.mst_decode(matrix).heads
        assert heads == tuple(range(n))
        assert heads == tuple(loop_max_arborescence(_square(matrix.scores))[1:])


class TestProjectiveDecode:
    def test_single_token(self):
        assert cip.projective_decode(cip.ScoreMatrix(np.array([[1.0], [0.0]]))).heads == (0,)

    def test_never_beats_unconstrained(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
            proj = cip.projective_decode(matrix)
            free = cip.mst_decode(matrix)
            assert matrix.tree_score(proj.heads) <= matrix.tree_score(free.heads) + 1e-12

    def test_output_has_no_crossing_arcs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
            assert cip.is_projective(cip.projective_decode(matrix).heads)

    def test_crossing_optimum_forced_projective(self):
        # Arcs 1->3 and 2->4 (crossing) dominate the unconstrained optimum.
        scores = np.zeros((5, 4))
        scores[0, 0] = 8.0  # root -> 1
        scores[3, 1] = 8.0  # 3 -> 2
        scores[1, 2] = 8.0  # 1 -> 3
        scores[2, 3] = 8.0  # 2 -> 4
        matrix = cip.ScoreMatrix(scores)
        free = cip.mst_decode(matrix)
        assert free.heads == (0, 3, 1, 2)
        assert not cip.is_projective(free.heads)
        proj = cip.projective_decode(matrix)
        assert cip.is_projective(proj.heads)
        assert matrix.tree_score(proj.heads) == best_in_table(
            matrix, projective_tree_table(4)
        )

    def test_matches_projective_enumeration_randomized(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
            proj = cip.projective_decode(matrix)
            assert matrix.tree_score(proj.heads) == best_in_table(
                matrix, projective_tree_table(n)
            )

    def test_single_root_flag(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
            tree = cip.projective_decode(matrix, single_root=True)
            assert sum(1 for h in tree.heads if h == 0) == 1
            assert cip.is_projective(tree.heads)
            table = [
                row
                for row in projective_tree_table(n)
                if sum(1 for h in row if h == 0) == 1
            ]
            assert matrix.tree_score(tree.heads) == pytest.approx(
                best_in_table(matrix, table), abs=1e-12
            )


    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, shape: rng.normal(0, 3, shape),
            lambda rng, shape: rng.normal(0, 900, shape),
            lambda rng, shape: rng.integers(-2, 3, shape).astype(float),
        ],
        ids=["scale3", "scale900", "int-ties"],
    )
    def test_single_root_matches_enumeration(self, draw):
        rng = np.random.default_rng(18)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            matrix = cip.ScoreMatrix(draw(rng, (n + 1, n)))
            tree = cip.projective_decode(matrix, single_root=True)
            assert sum(1 for h in tree.heads if h == 0) == 1
            assert cip.is_projective(tree.heads)
            table = projective_tree_table(n)
            table = table[(table == 0).sum(axis=1) == 1]
            best = matrix.scores[table, np.arange(n)].sum(axis=1).max()
            assert matrix.tree_score(tree.heads) == pytest.approx(best, rel=1e-12)
            assert cip.projective_decode(matrix, single_root=True).heads == tree.heads

    @pytest.mark.parametrize("single_root", [False, True])
    def test_extreme_scores(self, single_root):
        # Scores up to 1e300 leave every chart sum finite: still optimal.
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            matrix = cip.ScoreMatrix(rng.uniform(-1e300, 1e300, (n + 1, n)))
            tree = cip.projective_decode(matrix, single_root=single_root)
            table = projective_tree_table(n)
            if single_root:
                table = table[(table == 0).sum(axis=1) == 1]
            best = matrix.scores[table, np.arange(n)].sum(axis=1).max()
            assert matrix.tree_score(tree.heads) == pytest.approx(
                best, rel=1e-12, abs=1e-12 * n * 1e300
            )
        # Near the float limit a sum of n scores overflows; the decoder says so.
        huge = np.zeros((4, 3))
        huge[0, 0], huge[2, 1] = 1.5e308, -1.5e308
        with pytest.raises(ValueError, match="score range"):
            cip.projective_decode(cip.ScoreMatrix(huge), single_root=single_root)

    def test_chart_matches_loop_reference(self):
        # Integer scores tie often, so equal split points check the
        # tie-break of every span; cells that stay -inf have no tree.
        rng = np.random.default_rng(20)
        draws = [
            lambda shape: rng.integers(-2, 3, shape).astype(float),
            lambda shape: rng.normal(0, 3, shape),
            lambda shape: rng.normal(0, 900, shape),
        ]
        cases = [(int(rng.integers(1, 26)), draws[t % 3]) for t in range(300)]
        cases.append((80, draws[1]))
        cases += [(n, draws[t % 3]) for t, n in enumerate((2, 3, 4, 5, 6) * 3)]
        cases.append((70, draws[0]))
        for n, draw in cases:
            matrix = cip.ScoreMatrix(draw((n + 1, n)))
            weights = _square(matrix.scores)
            for single_root in (False, True):
                # The single-root chart is checked on the spans that start
                # at i >= 1, against the reference over [1, n].
                lo = 1 if single_root else 0
                ref = loop_eisner_chart(weights, lo, n)
                got = chart_by_span(matrix.scores, single_root)
                for values, pointers in ((0, 2), (1, 3)):
                    assert np.array_equal(got[values][lo:], ref[values][lo:])
                    finite = np.isfinite(ref[values][lo:])
                    assert np.array_equal(
                        got[pointers][lo:][finite], ref[pointers][lo:][finite]
                    )
                # The single-root span [0, j] headed at the root has one
                # root child m, the first best of the arc, [1, m] and [m, j].
                for j in range(1, n + 1 if single_root else 1):
                    m = np.arange(1, j + 1)
                    value = weights[0, m] + ref[0][1, m, 0] + ref[0][m, j, 1]
                    assert got[0][0, j, 1] == value.max()
                    assert got[2][0, j, 1] == 1 + value.argmax()
                assert cip.projective_decode(
                    matrix, single_root=single_root
                ).heads == loop_projective_heads(weights, ref, single_root)

    @pytest.mark.parametrize("single_root", [False, True])
    def test_bucket_matches_loop_reference(self, single_root):
        # Every sentence of a stack decodes as the loop chart decodes it on
        # its own, and one sentence whose chart sums could overflow fails
        # the whole stack.
        rng = np.random.default_rng(24)
        lo = 1 if single_root else 0
        for _ in range(60):
            n, size = int(rng.integers(1, 10)), int(rng.integers(1, 7))
            draw = rng.integers(-2, 3, (size, n + 1, n)).astype(float)
            x = np.stack([cip.ScoreMatrix(scores).scores for scores in draw])
            heads = _bucket_projective_heads(x, single_root)
            assert heads.shape == (size, n)
            for weights, row in zip(_square(x), heads.tolist()):
                chart = loop_eisner_chart(weights, lo, n)
                assert tuple(row) == loop_projective_heads(weights, chart, single_root)
        x = np.zeros((3, 4, 3))
        x[2, 0, 0], x[2, 2, 1] = 1.5e308, -1.5e308
        x = np.stack([cip.ScoreMatrix(scores).scores for scores in x])
        assert _bucket_projective_heads(x[:2], single_root).shape == (2, 3)
        with pytest.raises(ValueError, match="^score range too large for projective decoding$"):
            _bucket_projective_heads(x, single_root)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    def test_single_root_chart_ignores_root_row_and_column(self, n):
        # A span that starts at i >= 1 reads no arc out of node 0, so the
        # single-root chart, even with the root's row poisoned with NaN,
        # has the multi-root chart's cells and split rows there.  The score
        # array has no column of arcs into node 0.
        rng = np.random.default_rng(21 + n)
        scores = rng.integers(-2, 3, (n + 1, n)).astype(float)
        poisoned = scores.copy()
        poisoned[0, :] = np.nan
        # The last two charts are the split rows, as split points.
        got, want = chart_by_span(poisoned, True), chart_by_span(scores, False)
        for got_cells, want_cells in zip(got, want):
            assert np.array_equal(got_cells[1:], want_cells[1:])

    def test_long_decode_keeps_no_square_index_table(self):
        # Only the split rows' offsets stay cached per node count: 2 * (302
        # - w) int64 per width w, about 0.73 MB over the 302 nodes here.  A
        # square index table of the arcs would keep 2 * 302**2 int64 more
        # (1.46 MB).  No other test decodes 301 tokens, so neither is cached.
        n = 301
        matrix = cip.ScoreMatrix(np.random.default_rng(30).normal(0, 1, (n + 1, n)))
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cip.projective_decode(matrix)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held < 1.2e6

    @pytest.mark.parametrize("single_root", [False, True])
    def test_long_right_branching_chain_needs_no_recursion(self, single_root):
        # Every token heads the next, so the derivation nests about 2n spans
        # deep; the backtrack walks it with a stack, not the call stack.
        n = 150
        scores = np.full((n + 1, n), -5.0)
        scores[np.arange(n), np.arange(n)] = 1.0
        matrix = cip.ScoreMatrix(scores)
        with recursion_limit(stack_depth() + 60):
            heads = cip.projective_decode(matrix, single_root=single_root).heads
        assert heads == tuple(range(n))


class TestBruteForce:
    def test_single_token(self):
        tree, objective = brute_force_decode(cip.ScoreMatrix(np.array([[2.0], [0.0]])))
        assert tree.heads == (0,)
        assert objective == 2.0

    def test_objective_is_arc_sum(self):
        rng = np.random.default_rng(16)
        matrix = cip.ScoreMatrix(rng.normal(0, 1, (5, 4)))
        tree, objective = brute_force_decode(matrix)
        manual = sum(matrix.scores[h, d - 1] for h, d in tree.arcs())
        assert objective == pytest.approx(manual, abs=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError, match="^tree table limited to n <= 6, got 7$"):
            brute_force_decode(cip.ScoreMatrix(np.zeros((8, 7))))
        with pytest.raises(ValueError, match="^tree table limited to n <= 6, got 7$"):
            tree_table(7)

    def test_tree_counts(self):
        # Cayley: (n+1)^(n-1) spanning trees over n tokens plus the root.
        for n in range(1, 6):
            assert len(tree_table(n)) == (n + 1) ** (n - 1)


class TestBruteForceConstrained:
    def test_no_constraints_decouples(self):
        rng = np.random.default_rng(17)
        entries = []
        for _ in range(3):
            n = int(rng.integers(2, 5))
            upos = tuple(str(rng.choice(["NOUN", "DET"])) for _ in range(n))
            entries.append(
                (make_sentence(upos), cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n))))
            )
        corpus = cip.Corpus(tuple(entries))
        trees, objective = brute_force_constrained(corpus, [])
        expected = 0.0
        for (_, matrix), tree in zip(corpus, trees):
            single, best = brute_force_decode(matrix)
            assert tree.heads == single.heads
            expected += best
        assert objective == pytest.approx(expected, abs=1e-12)

    def test_unary_forces_left_head(self):
        # The noun's best head sits on its right; a noun-left constraint at
        # r=1 rules that out, and a cheap root escape (which would leave the
        # ratio undefined) scores worse than the left attachment.
        sentence = make_sentence(("DET", "NOUN", "VERB"))
        scores = np.zeros((4, 3))
        scores[0, 0] = 1.0
        scores[0, 2] = 1.0
        scores[3, 1] = 5.0  # verb -> noun: best but right-headed
        scores[1, 1] = 1.0  # det -> noun: best left-headed option
        corpus = cip.Corpus(((sentence, cip.ScoreMatrix(scores)),))
        constraint = cip.Constraint(id="c", kind="unary", pos="NOUN", r=1.0, theta=0.01)
        free, _ = brute_force_constrained(corpus, [])
        assert free[0].heads == (0, 3, 0)
        trees, _ = brute_force_constrained(corpus, [constraint])
        assert trees[0].heads == (0, 1, 0)

    def test_infeasible(self):
        # Under root_counts_left every assignment has a defined ratio of 0 or
        # 1, so a band pinned at 0.5 is unsatisfiable.
        sentence = make_sentence(("DET", "NOUN", "VERB"))
        scores = np.zeros((4, 3))
        corpus = cip.Corpus(((sentence, cip.ScoreMatrix(scores)),))
        constraint = cip.Constraint(id="c", kind="unary", pos="NOUN", r=0.5, theta=0.0)
        with pytest.raises(InfeasibleError):
            brute_force_constrained(corpus, [constraint], root_counts_left=True)

    def test_constrained_never_beats_unconstrained(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            entries = []
            for _ in range(2):
                n = int(rng.integers(2, 4))
                upos = tuple(str(rng.choice(["NOUN", "DET"])) for _ in range(n))
                entries.append(
                    (make_sentence(upos), cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n))))
                )
            corpus = cip.Corpus(tuple(entries))
            constraint = cip.Constraint(
                id="c", kind="unary", pos="NOUN", r=0.5, theta=0.5
            )
            free, free_obj = brute_force_constrained(corpus, [])
            try:
                _, constrained_obj = brute_force_constrained(corpus, [constraint])
            except InfeasibleError:
                continue
            assert constrained_obj <= free_obj + 1e-12

    def test_search_space_guard(self):
        entries = []
        for _ in range(3):
            entries.append(
                (make_sentence(("NOUN",) * 5), cip.ScoreMatrix(np.zeros((6, 5))))
            )
        corpus = cip.Corpus(tuple(entries))
        with pytest.raises(ValueError, match="guard"):
            brute_force_constrained(corpus, [])
