"""Arc classification, ratio statistics, features, and the ratio gap."""

import io

import numpy as np
import pytest

import cip
from cip.constraints import _arc_classes, class_matrix

from conftest import (
    ArcClass,
    classify_arc,
    make_sentence,
    phi,
    phi_grid,
    random_corpus,
    to_distribution,
)


UNARY = cip.Constraint(id="c1", kind="unary", pos="NOUN", r=0.5, theta=0.1)
BINARY = cip.Constraint(
    id="c2", kind="binary", pos="NOUN", pos2="ADP", r=0.875, theta=0.125
)


class TestConstraintType:
    def test_band_clamping(self):
        c = cip.Constraint(id="x", kind="unary", pos="N", r=0.95, theta=0.125)
        assert c.lower == pytest.approx(0.825)
        assert c.upper == 1.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            cip.Constraint(id="x", kind="unary", pos="N", r=1.2, theta=0.1)
        with pytest.raises(ValueError):
            cip.Constraint(id="x", kind="unary", pos="N", r=0.5, theta=0.6)
        with pytest.raises(ValueError):
            cip.Constraint(id="x", kind="binary", pos="N", pos2="N", r=0.5, theta=0.1)
        with pytest.raises(ValueError):
            cip.Constraint(id="x", kind="binary", pos="N", r=0.5, theta=0.1)
        with pytest.raises(ValueError, match="^unknown constraint kind 'ternary'$"):
            cip.Constraint(id="x", kind="ternary", pos="N", r=0.5, theta=0.1)
        with pytest.raises(ValueError, match="^unary constraint must not carry pos2$"):
            cip.Constraint(id="x", kind="unary", pos="N", pos2="V", r=0.5, theta=0.1)


class TestClassifyArc:
    def test_unary_left_head(self):
        s = make_sentence(("DET", "NOUN"))
        assert classify_arc(UNARY, s, 1, 2) is ArcClass.PLUS

    def test_unary_right_head(self):
        s = make_sentence(("NOUN", "VERB"))
        assert classify_arc(UNARY, s, 2, 1) is ArcClass.MINUS

    def test_unary_other_pos(self):
        s = make_sentence(("DET", "NOUN"))
        assert classify_arc(UNARY, s, 2, 1) is ArcClass.NEITHER

    def test_root_policy_default(self):
        s = make_sentence(("DET", "NOUN"))
        assert classify_arc(UNARY, s, 0, 2) is ArcClass.NEITHER

    def test_root_policy_literal(self):
        s = make_sentence(("DET", "NOUN"))
        assert classify_arc(UNARY, s, 0, 2, root_counts_left=True) is ArcClass.PLUS

    def test_binary_either_role(self):
        # Postposition pattern NOUN ADP: the noun precedes the adposition,
        # whichever endpoint is the head.
        s = make_sentence(("NOUN", "ADP"))
        assert classify_arc(BINARY, s, 1, 2) is ArcClass.PLUS
        assert classify_arc(BINARY, s, 2, 1) is ArcClass.PLUS

    def test_binary_reversed_order(self):
        s = make_sentence(("ADP", "NOUN"))
        assert classify_arc(BINARY, s, 1, 2) is ArcClass.MINUS
        assert classify_arc(BINARY, s, 2, 1) is ArcClass.MINUS

    def test_binary_unmatched(self):
        s = make_sentence(("NOUN", "NOUN"))
        assert classify_arc(BINARY, s, 1, 2) is ArcClass.NEITHER

    def test_binary_root_is_neither(self):
        s = make_sentence(("NOUN", "ADP"))
        assert classify_arc(BINARY, s, 0, 1) is ArcClass.NEITHER

    def test_invalid_arc(self):
        s = make_sentence(("NOUN",))
        with pytest.raises(ValueError):
            classify_arc(UNARY, s, 1, 1)

    def test_binary_symmetry_randomized(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            upos = tuple(str(rng.choice(["NOUN", "ADP", "DET"])) for _ in range(n))
            s = make_sentence(upos)
            head, dep = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            a = classify_arc(BINARY, s, int(head), int(dep))
            b = classify_arc(BINARY, s, int(dep), int(head))
            assert a is b


def loop_class_matrix(constraint, sentence, root_counts_left):
    """The class grid built arc by arc with ``classify_arc``: the reference
    that the vectorized ``class_matrix`` must match."""
    n = len(sentence)
    grid = np.zeros((n + 1, n), dtype=np.int8)
    for dep in range(1, n + 1):
        for head in range(n + 1):
            if head != dep:
                cls = classify_arc(
                    constraint, sentence, head, dep, root_counts_left=root_counts_left
                )
                grid[head, dep - 1] = cls.value
    return grid


class TestClassMatrix:
    def test_matches_classify_arc(self):
        # "X" is in no sentence, so those constraints match no arc.
        cons = [
            UNARY,
            BINARY,
            cip.Constraint(id="rev", kind="binary", pos="ADP", pos2="NOUN", r=0.5, theta=0.1),
            cip.Constraint(id="none", kind="unary", pos="X", r=0.5, theta=0.1),
            cip.Constraint(id="none2", kind="binary", pos="X", pos2="NOUN", r=0.5, theta=0.1),
        ]
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, 60, [1, 1, 2, 3, 5, 8, 13], ("NOUN", "ADP", "VERB"))
        for sentence, _ in corpus:
            for c in cons:
                for root_counts_left in (False, True):
                    got = class_matrix(c, sentence, root_counts_left=root_counts_left)
                    want = loop_class_matrix(c, sentence, root_counts_left)
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
        # Stacked sentences of one length give the stacked grids.
        for n in (1, 5, 13):
            group = [s for s, _ in corpus if len(s) == n]
            upos = np.array([s.upos for s in group])
            for c in cons:
                np.testing.assert_array_equal(
                    _arc_classes(c, upos, True),
                    np.stack([loop_class_matrix(c, s, True) for s in group]),
                )

    def test_ratio_and_coverage_match_classify_arc(self):
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 40, [1, 2, 4, 7, 9], ("NOUN", "ADP", "VERB"))
        view = cip.CorpusView.of(corpus, [])
        trees = view.trees(view.decode())
        for c in (UNARY, BINARY):
            for root_counts_left in (False, True):
                classes = [
                    classify_arc(c, s, h, d, root_counts_left=root_counts_left)
                    for (s, _), t in zip(corpus, trees)
                    for h, d in t.arcs()
                ]
                plus = classes.count(ArcClass.PLUS)
                minus = classes.count(ArcClass.MINUS)
                kw = dict(root_counts_left=root_counts_left)
                assert cip.ratio(c, corpus, trees, **kw) == plus / (plus + minus)
                assert cip.coverage(c, corpus, trees, **kw) == (plus + minus) / len(classes)


class TestRatio:
    def test_all_left(self):
        s = make_sentence(("DET", "NOUN"))
        corpus = cip.Corpus(((s, cip.ScoreMatrix(np.zeros((3, 2)))),))
        assert cip.ratio(UNARY, corpus, [cip.ParseTree((0, 1))]) == 1.0

    def test_three_to_one(self):
        s = make_sentence(("NOUN", "NOUN", "NOUN", "NOUN", "VERB"))
        corpus = cip.Corpus(((s, cip.ScoreMatrix(np.zeros((6, 5)))),))
        # Heads: noun1 <- 5 (minus), nouns 2..4 left-headed (plus).
        tree = cip.ParseTree((5, 1, 2, 3, 0))
        assert cip.ratio(UNARY, corpus, [tree]) == 0.75

    def test_undefined_without_matches(self):
        s = make_sentence(("DET", "VERB"))
        corpus = cip.Corpus(((s, cip.ScoreMatrix(np.zeros((3, 2)))),))
        assert cip.ratio(UNARY, corpus, [cip.ParseTree((0, 1))]) is None

    def test_complement_counts(self):
        rng = np.random.default_rng(21)
        corpus = random_corpus(rng, 5, [2, 3, 4])
        trees = [cip.mst_decode(m) for _, m in corpus]
        plus = minus = 0
        for (s, _), t in zip(corpus, trees):
            picked = class_matrix(UNARY, s)[list(t.heads), np.arange(len(s))]
            plus += int((picked == 1).sum())
            minus += int((picked == -1).sum())
        measured = cip.ratio(UNARY, corpus, trees)
        if plus + minus:
            assert measured == pytest.approx(plus / (plus + minus))
            assert 1 - measured == pytest.approx(minus / (plus + minus))
            assert 0.0 <= measured <= 1.0


class TestExpectedRatio:
    def test_degenerate_distribution_matches_trees(self):
        rng = np.random.default_rng(22)
        corpus = random_corpus(rng, 4, [2, 3])
        trees = [cip.mst_decode(m) for _, m in corpus]
        dists = []
        for (s, _), t in zip(corpus, trees):
            n = len(s)
            probs = np.zeros((n + 1, n))
            for head, dep in t.arcs():
                probs[head, dep - 1] = 1.0
            dists.append(probs)
        assert cip.expected_ratio(UNARY, corpus, dists) == cip.ratio(UNARY, corpus, trees)

    def test_uniform_two_token(self):
        s = make_sentence(("DET", "NOUN"))
        m = cip.ScoreMatrix(np.zeros((3, 2)))
        corpus = cip.Corpus(((s, m),))
        dist = to_distribution(m)
        # Matched mass: only the det->noun arc (the root arc does not count).
        assert cip.expected_ratio(UNARY, corpus, [dist]) == 1.0

    def test_undefined(self):
        s = make_sentence(("DET", "VERB"))
        m = cip.ScoreMatrix(np.zeros((3, 2)))
        corpus = cip.Corpus(((s, m),))
        assert cip.expected_ratio(UNARY, corpus, [to_distribution(m)]) is None

    def test_rejects_misshapen_probabilities(self):
        s = make_sentence(("DET", "NOUN"))
        corpus = cip.Corpus(((s, cip.ScoreMatrix(np.zeros((3, 2)))),))
        with pytest.raises(ValueError, match="3 x 2"):
            cip.expected_ratio(UNARY, corpus, [np.full((2, 3), 0.5)])


class TestPhi:
    def test_plain_upper(self):
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.5, theta=0.0)
        s = make_sentence(("DET", "NOUN"))
        assert phi(c, "upper", s, 1, 2) == 0.5
        s2 = make_sentence(("NOUN", "VERB"))
        assert phi(c, "upper", s2, 2, 1) == -0.5

    def test_vacuous_upper_bound(self):
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.875, theta=0.125)
        s = make_sentence(("DET", "NOUN"))
        assert phi(c, "upper", s, 1, 2) == 0.0

    def test_neither_is_zero(self):
        s = make_sentence(("DET", "VERB"))
        for direction in ("upper", "lower"):
            assert phi(UNARY, direction, s, 1, 2) == 0.0

    def test_lower_signs(self):
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.6, theta=0.1)
        s = make_sentence(("DET", "NOUN"))
        assert phi(c, "lower", s, 1, 2) == pytest.approx(-0.5)
        s2 = make_sentence(("NOUN", "VERB"))
        assert phi(c, "lower", s2, 2, 1) == pytest.approx(0.5)

    def test_expectation_sign_encodes_bound(self):
        # The sign of the expected upper feature row must agree with the
        # expected ratio's position relative to the effective upper bound.
        rng = np.random.default_rng(23)
        for _ in range(50):
            corpus = random_corpus(rng, 3, [2, 3, 4])
            dists = [to_distribution(m) for _, m in corpus]
            c = cip.Constraint(
                id="x", kind="unary", pos="NOUN",
                r=float(rng.uniform(0.1, 0.9)), theta=float(rng.uniform(0, 0.1)),
            )
            measured = cip.expected_ratio(c, corpus, dists)
            if measured is None:
                continue
            upper = sum(
                float(np.sum(phi_grid(c, "upper", s) * d))
                for (s, _), d in zip(corpus, dists)
            )
            assert (upper <= 1e-12) == (measured <= c.upper + 1e-12)
            lower = sum(
                float(np.sum(phi_grid(c, "lower", s) * d))
                for (s, _), d in zip(corpus, dists)
            )
            assert (lower <= 1e-12) == (measured >= c.lower - 1e-12)


class TestIsSatisfied:
    def test_inside(self):
        c = cip.Constraint(id="x", kind="unary", pos="N", r=0.5, theta=0.25)
        assert cip.is_satisfied(c, 0.6)

    def test_outside(self):
        c = cip.Constraint(id="x", kind="unary", pos="N", r=0.875, theta=0.125)
        assert not cip.is_satisfied(c, 0.7)

    def test_undefined_is_vacuous(self):
        assert cip.is_satisfied(UNARY, None)

    @pytest.mark.parametrize(
        "r, theta, measured, satisfied",
        [
            (0.5, 0.25, 0.25, True),  # the band's edges
            (0.5, 0.25, 0.75, True),
            (0.5, 0.25, 0.75 + 1e-13, True),  # within the slack
            (0.5, 0.25, 0.25 - 1e-9, False),
            (0.5, 0.25, 0.75 + 1e-9, False),
            (0.5, 0.0, 0.5, True),
            (0.0, 0.1, 0.0, True),  # r = 0: the band is [0, 0.1]
            (0.0, 0.1, 0.1, True),
            (0.0, 0.1, 0.2, False),
            (0.0, 0.1, -0.5, False),
            (1.0, 0.1, 1.0, True),  # r = 1: the band is [0.9, 1]
            (1.0, 0.1, 0.9, True),
            (1.0, 0.1, 0.8, False),
            (1.0, 0.5, 1.5, False),  # clamped: r + theta = 1.5 lies outside [0, 1]
        ],
    )
    def test_band_edges(self, r, theta, measured, satisfied):
        c = cip.Constraint(id="x", kind="unary", pos="N", r=r, theta=theta)
        assert cip.is_satisfied(c, measured) == satisfied

    @pytest.mark.parametrize("measured", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, None])
    def test_violation_is_the_distance_to_the_band(self, measured):
        c = cip.Constraint(id="x", kind="unary", pos="N", r=0.5, theta=0.25)
        if measured is None:
            assert c.violation(measured) == 0.0
        elif c.lower <= measured <= c.upper:
            assert c.violation(measured) <= 0.0
        else:
            distance = min(abs(measured - c.lower), abs(measured - c.upper))
            assert c.violation(measured) == pytest.approx(distance)


class TestRatioGap:
    def test_identical(self):
        assert cip.ratio_gap([UNARY], [0.4], [0.4], [0.2]) == 0.0

    def test_single(self):
        assert cip.ratio_gap([UNARY], [0.5], [0.8], [0.24]) == pytest.approx(0.3)

    def test_weighted_mean(self):
        gap = cip.ratio_gap([UNARY, BINARY], [0.5, 0.2], [0.8, 0.8], [0.2, 0.1])
        assert gap == pytest.approx(0.4)

    def test_scaling_invariance(self):
        a = cip.ratio_gap([UNARY, BINARY], [0.5, 0.2], [0.8, 0.8], [0.2, 0.1])
        b = cip.ratio_gap([UNARY, BINARY], [0.5, 0.2], [0.8, 0.8], [2.0, 1.0])
        assert a == pytest.approx(b)

    def test_zero_coverage(self):
        with pytest.raises(ValueError, match="zero"):
            cip.ratio_gap([UNARY], [0.5], [0.8], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cip.ratio_gap([UNARY], [0.5, 0.6], [0.8], [0.1])

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_negative_coverage(self, value):
        with pytest.raises(ValueError, match="^coverages must be nonnegative$"):
            cip.ratio_gap([UNARY, BINARY], [0.5, 0.2], [0.8, 0.8], [0.2, value])

    def test_nan_ratio(self):
        with pytest.raises(ValueError, match="^ratios must be finite$"):
            cip.ratio_gap([UNARY, BINARY], [0.5, float("nan")], [0.8, 0.8], [0.2, 0.1])


class TestCoverage:
    def test_counts_matched_fraction(self):
        s = make_sentence(("DET", "NOUN", "VERB"))
        corpus = cip.Corpus(((s, cip.ScoreMatrix(np.zeros((4, 3)))),))
        tree = cip.ParseTree((2, 0, 2))  # noun at root: no matched arc
        assert cip.coverage(UNARY, corpus, [tree]) == 0.0
        tree = cip.ParseTree((0, 1, 2))  # det->noun arc matches
        assert cip.coverage(UNARY, corpus, [tree]) == pytest.approx(1 / 3)


class TestInputLengths:
    """The ratio statistics reject inputs that do not line up with the
    corpus, rather than counting over a truncated zip."""

    CORPUS = cip.Corpus(
        tuple(
            (make_sentence(upos), cip.ScoreMatrix(np.zeros((len(upos) + 1, len(upos)))))
            for upos in (("DET", "NOUN"), ("NOUN", "VERB", "DET"))
        )
    )
    TREES = [cip.ParseTree((0, 1)), cip.ParseTree((0, 1, 1))]

    @pytest.mark.parametrize("statistic", [cip.ratio, cip.coverage])
    @pytest.mark.parametrize("count", [1, 3])
    def test_tree_count(self, statistic, count):
        trees = (self.TREES * 2)[:count]
        with pytest.raises(ValueError, match="^trees and corpus differ in length$"):
            statistic(UNARY, self.CORPUS, trees)

    @pytest.mark.parametrize("statistic", [cip.ratio, cip.coverage])
    def test_tree_length(self, statistic):
        trees = [self.TREES[0], cip.ParseTree((0, 1))]
        with pytest.raises(ValueError, match="^tree and sentence lengths differ$"):
            statistic(UNARY, self.CORPUS, trees)

    @pytest.mark.parametrize("count", [1, 3])
    def test_distribution_count(self, count):
        probs = [to_distribution(m) for m in self.CORPUS.matrices]
        probs = (probs * 2)[:count]
        with pytest.raises(ValueError, match="^distributions and corpus differ in length$"):
            cip.expected_ratio(UNARY, self.CORPUS, probs)


class TestConstraintFile:
    def test_round_trip_is_byte_stable(self):
        constraints = [UNARY, BINARY]
        first = io.StringIO()
        cip.save_constraints(constraints, first)
        reloaded = cip.load_constraints(io.StringIO(first.getvalue()))
        assert reloaded == constraints
        second = io.StringIO()
        cip.save_constraints(reloaded, second)
        assert first.getvalue() == second.getvalue()

    def test_rejects_non_array(self):
        with pytest.raises(ValueError, match="array"):
            cip.load_constraints(io.StringIO('{"id": "x"}'))
