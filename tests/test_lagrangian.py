"""Multiplier-augmented decoding: updates, convergence, duality."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cip
from cip.constraints import class_matrix
from cip.core import NEG_INF
from cip.decoder import projective_tree_table
from cip.constraints import _class_row
from cip.lagrangian import IterationRecord
from cip.view import InferenceResult, _lookup

from conftest import make_sentence, noun_toy_entry, random_corpus

NOUN_LEFT = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=1.0, theta=0.01)


def augment_scores(matrix, sentence, constraints, lambdas, *, root_counts_left=False):
    """Add every constraint's multiplier-weighted coefficients, ``lambda *
    (1 - r)`` on positive arcs and ``-lambda * r`` on negative ones, to one
    sentence's scores: the per-sentence reference of LR's bucket lookup."""
    if len(constraints) != len(lambdas):
        raise ValueError("constraints and lambdas differ in length")
    adjust = 0.0
    for c, lam in zip(constraints, lambdas):
        if lam != 0.0:
            grid = class_matrix(c, sentence, root_counts_left=root_counts_left)
            adjust = adjust + lam * ((grid == 1) - c.r * (grid != 0))
    return cip.ScoreMatrix(matrix.scores + adjust, sent_id=matrix.sent_id)


def lookup_scores(matrix, sentence, constraints, lambdas):
    """The same sum from the offset table that ``lr_decode`` passes the view."""
    grids = [class_matrix(c, sentence) for c in constraints]
    offsets = np.array([lam * _class_row(c.r) for c, lam in zip(constraints, lambdas)])
    return matrix.scores + _lookup(offsets, grids)


def loop_lr_decode(
    corpus,
    constraints,
    params=cip.LrParams(),
    *,
    projective=False,
    single_root=False,
    root_counts_left=False,
):
    """``lr_decode`` on ``CorpusView.of(corpus, constraints, ...)`` written
    sentence by sentence, with a ``ScoreMatrix`` and a public decode per
    sentence and iteration: the reference that the length-bucketed loop
    must match, floats included."""
    decode = cip.projective_decode if projective else cip.mst_decode
    n_constraints = len(constraints)
    labels = tuple(c.id for c in constraints)
    classes = [
        [cip.constraints.class_matrix(c, s, root_counts_left=root_counts_left) for c in constraints]
        for s, _ in corpus
    ]
    coefs = [
        [(grid == 1) - c.r * (grid != 0) for c, grid in zip(constraints, grids)]
        for grids in classes
    ]
    lambdas = np.zeros(n_constraints)
    alpha = params.alpha0
    trace = []
    best = None
    for iteration in range(1, params.max_iter + 1):
        trees = []
        objective = 0.0
        dual_value = 0.0
        plus = np.zeros(n_constraints)
        minus = np.zeros(n_constraints)
        for k, (sentence, matrix) in enumerate(corpus):
            if n_constraints and np.any(lambdas != 0.0):
                adjust = sum(
                    lam * coef for lam, coef in zip(lambdas, coefs[k]) if lam != 0.0
                )
                augmented = cip.ScoreMatrix(matrix.scores + adjust)
            else:
                augmented = matrix
            tree = decode(augmented, single_root=single_root)
            trees.append(tree)
            objective += matrix.tree_score(tree.heads)
            dual_value += augmented.tree_score(tree.heads)
            cols = np.arange(matrix.n)
            for c in range(n_constraints):
                picked = classes[k][c][list(tree.heads), cols]
                plus[c] += int((picked == 1).sum())
                minus[c] += int((picked == -1).sum())
        ratios = []
        violation = 0.0
        errors = np.zeros(n_constraints)
        for c, constraint in enumerate(constraints):
            denom = plus[c] + minus[c]
            if denom == 0:
                ratios.append(None)
                continue
            measured = plus[c] / denom
            ratios.append(measured)
            errors[c] = constraint.r - measured
            violation = max(violation, abs(errors[c]) - constraint.theta)
        trace.append(
            IterationRecord(
                iteration=iteration,
                alpha=alpha,
                lambdas=tuple(float(v) for v in lambdas),
                ratios=tuple(ratios),
                objective=objective,
                dual_value=dual_value,
            )
        )
        if violation <= 1e-12:
            return InferenceResult(trees, lambdas, labels, trace, True)
        if best is None or (violation, -objective) < (best[0], best[1]):
            best = (violation, -objective, trees, lambdas)
        lambdas = lambdas + alpha * errors
        alpha *= params.eta
    return InferenceResult(best[2], best[3], labels, trace, False)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            cip.LrParams(alpha0=0)
        with pytest.raises(ValueError):
            cip.LrParams(eta=0)
        with pytest.raises(ValueError):
            cip.LrParams(max_iter=0)
        with pytest.raises(TypeError):
            cip.LrParams(batch="minibatch")


class TestAugmentScores:
    def test_zero_lambda_is_identity(self):
        sentence, matrix = noun_toy_entry(0.5)
        out = augment_scores(matrix, sentence, [NOUN_LEFT], [0.0])
        np.testing.assert_array_equal(out.scores, matrix.scores)
        np.testing.assert_array_equal(
            lookup_scores(matrix, sentence, [NOUN_LEFT], [0.0]), matrix.scores
        )

    def test_coefficients(self):
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.25, theta=0.0)
        sentence = make_sentence(("DET", "NOUN", "VERB"))
        matrix = cip.ScoreMatrix(np.zeros((4, 3)))
        out = augment_scores(matrix, sentence, [c], [2.0])
        np.testing.assert_array_equal(lookup_scores(matrix, sentence, [c], [2.0]), out.scores)
        assert out.scores[1, 1] == pytest.approx(1.5)  # plus arc: +lambda*(1-r)
        assert out.scores[3, 1] == pytest.approx(-0.5)  # minus arc: -lambda*r
        assert out.scores[0, 0] == 0.0  # unmatched arc untouched
        assert out.scores[2, 1] == NEG_INF  # self arc stays -inf

    def test_overlapping_constraints_add(self):
        c1 = cip.Constraint(id="a", kind="unary", pos="NOUN", r=0.25, theta=0.0)
        c2 = cip.Constraint(id="b", kind="unary", pos="NOUN", r=0.5, theta=0.0)
        sentence = make_sentence(("DET", "NOUN"))
        matrix = cip.ScoreMatrix(np.zeros((3, 2)))
        out = augment_scores(matrix, sentence, [c1, c2], [2.0, 1.0])
        np.testing.assert_array_equal(
            lookup_scores(matrix, sentence, [c1, c2], [2.0, 1.0]), out.scores
        )
        assert out.scores[1, 1] == pytest.approx(2 * 0.75 + 1 * 0.5)


class TestLrInfer:
    def test_already_satisfied_returns_baseline(self, noun_toy_corpus):
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=1 / 3, theta=0.01)
        view = cip.CorpusView.of(noun_toy_corpus, [c])
        baseline = view.trees(view.decode())
        result = cip.lr_decode(view)
        assert result.converged
        assert len(result.trace) == 1
        assert result.trace[0].lambdas == (0.0,)
        assert [t.heads for t in result.trees] == [t.heads for t in baseline]

    def test_empty_constraints_match_mst(self, noun_toy_corpus):
        baseline = [cip.mst_decode(m) for _, m in noun_toy_corpus]
        result = cip.lr_decode(cip.CorpusView.of(noun_toy_corpus, []))
        assert result.converged
        assert [t.heads for t in result.trees] == [t.heads for t in baseline]

    def test_toy_corpus_converges_to_all_left(self, noun_toy_corpus):
        view = cip.CorpusView.of(noun_toy_corpus, [NOUN_LEFT])
        baseline = view.trees(view.decode())
        assert cip.ratio(NOUN_LEFT, noun_toy_corpus, baseline) == pytest.approx(1 / 3)
        result = cip.lr_decode(view)
        assert result.converged
        assert cip.ratio(NOUN_LEFT, noun_toy_corpus, result.trees) == 1.0

        reference, best = cip.brute_force_constrained(noun_toy_corpus, [NOUN_LEFT])
        objective = sum(
            m.tree_score(t.heads) for (_, m), t in zip(noun_toy_corpus, result.trees)
        )
        assert objective <= best + 1e-9
        for record in result.trace:
            assert record.dual_value >= best - 1e-9

    def test_single_update_reduces_lambda_and_plus_arcs(self):
        # Measured ratio above target: one update must lower lambda, which
        # weakly lowers the number of positive arcs at the next decode.
        entries = tuple(noun_toy_entry(-0.2 - 0.1 * i) for i in range(5))
        corpus = cip.Corpus(entries)
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.0, theta=0.0)
        trace = cip.lr_decode(cip.CorpusView.of(corpus, [c]), cip.LrParams(max_iter=2)).trace
        first, second = trace[0], trace[1]
        assert first.ratios[0] > c.r
        assert second.lambdas[0] < first.lambdas[0]

        def plus_count(record_trees):
            return sum(
                int((class_matrix(c, s)[list(t.heads), np.arange(len(s))] == 1).sum())
                for (s, _), t in zip(corpus, record_trees)
            )

        lam0 = np.array(first.lambdas)
        lam1 = np.array(second.lambdas)
        decode = lambda lam: [
            cip.mst_decode(augment_scores(m, s, [c], lam))
            for s, m in corpus
        ]
        assert plus_count(decode(lam1)) <= plus_count(decode(lam0))

    def test_decoupled_decode_is_exact_per_sentence(self):
        # With fixed multipliers the augmented decode must equal the
        # brute-force optimum of the augmented matrix, sentence by sentence.
        rng = np.random.default_rng(30)
        for _ in range(20):
            corpus = random_corpus(rng, 3, [2, 3, 4, 5])
            lambdas = rng.normal(0, 3, 2)
            cons = [
                cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.7, theta=0.0),
                cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.3, theta=0.0),
            ]
            for sentence, matrix in corpus:
                augmented = augment_scores(matrix, sentence, cons, lambdas)
                fast = cip.mst_decode(augmented)
                _, best = cip.brute_force_decode(augmented)
                assert augmented.tree_score(fast.heads) == best

    def test_deterministic(self, noun_toy_corpus):
        a = cip.lr_decode(cip.CorpusView.of(noun_toy_corpus, [NOUN_LEFT]))
        b = cip.lr_decode(cip.CorpusView.of(noun_toy_corpus, [NOUN_LEFT]))
        assert a.trace == b.trace
        assert [t.heads for t in a.trees] == [t.heads for t in b.trees]

    def test_cap_returns_least_violating(self):
        # Oscillation-prone setup: a tight infeasible band never converges,
        # and the returned trees must carry the smallest excess violation
        # seen across iterations.
        entries = tuple(noun_toy_entry(0.3) for _ in range(2))
        corpus = cip.Corpus(entries)
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.5, theta=0.0)
        result = cip.lr_decode(cip.CorpusView.of(corpus, [c]), cip.LrParams(max_iter=8))
        assert not result.converged
        measured = cip.ratio(c, corpus, result.trees)
        best_excess = min(
            abs(c.r - r.ratios[0]) - c.theta
            for r in result.trace
            if r.ratios[0] is not None
        )
        assert abs(c.r - measured) - c.theta == pytest.approx(best_excess)

    def test_cap_returns_multipliers_of_returned_trees(self):
        # Five iterations are too few for this band, so the loop stops at
        # the cap; the returned multipliers must be the ones the returned
        # trees were decoded under, not the update after the last iteration.
        rng = np.random.default_rng(42)
        corpus = random_corpus(rng, 12, [3, 5, 8])
        cons = [
            cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.95, theta=0.01),
            cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.05, theta=0.01),
        ]
        result = cip.lr_decode(cip.CorpusView.of(corpus, cons), cip.LrParams(max_iter=5))
        assert not result.converged and len(result.trace) == 5

        def rank(record):
            violation = max(
                [0.0]
                + [abs(c.r - m) - c.theta for c, m in zip(cons, record.ratios) if m is not None]
            )
            return violation, -record.objective

        # min() keeps the first of equal ranks, as the loop does.
        returned = min(result.trace, key=rank)
        assert returned.ratios == tuple(cip.ratio(c, corpus, result.trees) for c in cons)
        assert tuple(result.lambdas) == returned.lambdas
        assert returned is not result.trace[-1]
        redecoded = [
            cip.mst_decode(augment_scores(matrix, sentence, cons, result.lambdas))
            for sentence, matrix in corpus
        ]
        assert [t.heads for t in redecoded] == [t.heads for t in result.trees]

    @pytest.mark.parametrize("projective", [False, True])
    def test_converged_iff_every_final_ratio_is_satisfied(self, projective):
        # LR stops on the band test of ``is_satisfied``, so ``converged``
        # holds exactly when every final ratio lies in its band.  Every
        # third draw puts the edge of the unary band just off the baseline
        # ratio and stops after the baseline decode, so a slack in either
        # test shows; both outcomes occur, and each must agree.
        rng = np.random.default_rng(8)
        outcomes = []
        for draw in range(45):
            corpus = random_corpus(rng, int(rng.integers(1, 6)), [1, 2, 3, 5])
            r, theta = float(rng.choice([0.0, 1.0, rng.uniform()])), float(rng.uniform(0, 0.2))
            max_iter = int(rng.integers(1, 10))
            view = cip.CorpusView.of(corpus, [], projective=projective)
            plain = view.trees(view.decode())
            baseline = cip.ratio(cip.Constraint("u", "unary", "NOUN", 0.5, 0.0), corpus, plain)
            if draw % 3 == 0 and baseline is not None:
                step = float(rng.choice([0.0, 1e-13, 1e-10, 1e-6, 1e-3, 0.01]))
                r, theta, max_iter = baseline - step if baseline >= 0.5 else baseline + step, 0.0, 1
            cons = [
                cip.Constraint(id="u", kind="unary", pos="NOUN", r=r, theta=theta),
                cip.Constraint(
                    id="b", kind="binary", pos="NOUN", pos2="DET",
                    r=float(rng.uniform()), theta=0.5 if max_iter == 1 else 0.05,
                ),
            ]
            view = cip.CorpusView.of(corpus, cons, projective=projective)
            result = cip.lr_decode(view, cip.LrParams(max_iter=max_iter))
            satisfied = all(cip.is_satisfied(c, cip.ratio(c, corpus, result.trees)) for c in cons)
            assert result.converged == satisfied
            outcomes.append(satisfied)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("single_root", [False, True])
    def test_matches_sentence_loop(self, projective, single_root):
        # Mixed lengths, length-1 sentences, and an ADJ constraint that
        # matches no arc of these ADJ-free corpora.  Equal traces compare
        # every float with ==.
        cons = [
            cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.8, theta=0.02),
            cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.3, theta=0.02),
            cip.Constraint(id="none", kind="unary", pos="ADJ", r=0.5, theta=0.0),
        ]
        rng = np.random.default_rng(41)
        outcomes = set()
        for trial in range(6):
            corpus = random_corpus(rng, 12, [1, 2, 3, 5, 8, 12])
            params = cip.LrParams(alpha0=float(rng.choice([2.0, 20.0])), max_iter=12)
            root_counts_left = bool(trial % 2)
            rule = dict(projective=projective, single_root=single_root)
            view = cip.CorpusView.of(corpus, cons, root_counts_left, **rule)
            result = cip.lr_decode(view, params)
            reference = loop_lr_decode(
                corpus, cons, params, root_counts_left=root_counts_left, **rule
            )
            assert [t.heads for t in result.trees] == [t.heads for t in reference.trees]
            assert result.trace == reference.trace
            assert np.array_equal(result.lambdas, reference.lambdas)
            assert result.labels == reference.labels
            assert result.converged == reference.converged
            assert all(r.ratios[2] is None for r in result.trace)
            outcomes.add(result.converged)
        # A loose band converges at once; check both outcomes are covered.
        loose = [cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.5, theta=0.5)]
        result = cip.lr_decode(cip.CorpusView.of(corpus, loose, root_counts_left, **rule))
        reference = loop_lr_decode(corpus, loose, root_counts_left=root_counts_left, **rule)
        assert result.converged
        assert (result.trees, result.trace) == (reference.trees, reference.trace)
        outcomes.add(result.converged)
        assert outcomes == {True, False}

    def test_overflowing_augmentation_raises(self):
        # The NOUN heads right, so the first update sets lambda to 1e308;
        # with coefficient -1 on minus arcs, the -1.5e308 score of the other
        # minus arc overflows.
        sentence = make_sentence(("DET", "NOUN", "VERB", "ADV"))
        scores = np.zeros((5, 4))
        scores[3, 1] = 2.0
        scores[4, 1] = -1.5e308
        corpus = cip.Corpus(((sentence, cip.ScoreMatrix(scores)),) * 3)
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=1.0, theta=0.0)
        params = cip.LrParams(alpha0=1e308)
        with pytest.raises(ValueError, match="non-finite score"):
            cip.lr_decode(cip.CorpusView.of(corpus, [c]), params)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite score"):
            loop_lr_decode(corpus, [c], params)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="corpus is empty"):
            cip.CorpusView.of(cip.Corpus(()), [])


# Tags and constraint templates of the projective weak-duality properties:
# three tags, so that most tiny corpora match every template.
DUALITY_TAGS = ("NOUN", "VERB", "DET")
DUALITY_TEMPLATES = (
    ("unary", "NOUN", None),
    ("unary", "VERB", None),
    ("binary", "NOUN", "DET"),
    ("binary", "VERB", "NOUN"),
)
DUALITY_SCORES = st.one_of(st.integers(-2, 2).map(float), st.floats(-5, 5))


@st.composite
def projective_problems(draw):
    """One to three sentences of one to four tokens with drawn tags and
    scores, and one projective tree per sentence drawn from
    ``projective_tree_table``."""
    entries, trees = [], []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        upos = draw(st.lists(st.sampled_from(DUALITY_TAGS), min_size=n, max_size=n))
        flat = draw(st.lists(DUALITY_SCORES, min_size=n * (n + 1), max_size=n * (n + 1)))
        entries.append((make_sentence(upos), cip.ScoreMatrix(np.array(flat).reshape(n + 1, n))))
        table = projective_tree_table(n)
        heads = table[draw(st.integers(0, len(table) - 1))]
        trees.append(cip.ParseTree(tuple(int(h) for h in heads)))
    return cip.Corpus(tuple(entries)), trees


@pytest.mark.parametrize("root_counts_left", [False, True])
@settings(max_examples=60, deadline=None)
@given(problem=projective_problems())
def test_projective_weak_duality(problem, root_counts_left):
    # Every template that matches an arc of the drawn projective trees
    # gets their ratio and theta = 0, so those trees are feasible and every
    # Lagrangian value bounds the constrained optimum from above.
    corpus, trees = problem
    constraints = []
    for i, (kind, pos, pos2) in enumerate(DUALITY_TEMPLATES):
        probe = cip.Constraint(id=f"c{i}", kind=kind, pos=pos, pos2=pos2, r=0.5, theta=0.0)
        measured = cip.ratio(probe, corpus, trees, root_counts_left=root_counts_left)
        if measured is not None:
            constraints.append(
                cip.Constraint(id=f"c{i}", kind=kind, pos=pos, pos2=pos2, r=measured, theta=0.0)
            )
    assume(constraints)
    _, optimum = cip.brute_force_constrained(
        corpus, constraints, projective=True, root_counts_left=root_counts_left
    )
    view = cip.CorpusView.of(corpus, constraints, root_counts_left, projective=True)
    result = cip.lr_decode(view, cip.LrParams(max_iter=20))
    for record in result.trace:
        assert record.dual_value >= optimum - 1e-9
    if result.converged:
        # The certificate: a feasible iterate at theta = 0 is optimal.
        assert result.trace[-1].objective == pytest.approx(optimum, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    problem=projective_problems(),
    bands=st.lists(
        st.tuples(
            st.sampled_from(DUALITY_TEMPLATES),
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            st.sampled_from([0.0, 0.1]),
        ),
        min_size=1,
        max_size=2,
        unique_by=lambda band: band[0],
    ),
)
def test_projective_infeasible_bands_never_converge(problem, bands):
    # Root arcs count, since otherwise attaching every token to the root
    # matches no arc, which satisfies any band.
    corpus, _ = problem
    constraints = [
        cip.Constraint(id=f"c{i}", kind=kind, pos=pos, pos2=pos2, r=r, theta=theta)
        for i, ((kind, pos, pos2), r, theta) in enumerate(bands)
    ]
    try:
        cip.brute_force_constrained(corpus, constraints, projective=True, root_counts_left=True)
    except cip.InfeasibleError:
        view = cip.CorpusView.of(corpus, constraints, True, projective=True)
        result = cip.lr_decode(view, cip.LrParams(max_iter=20))
        assert not result.converged
