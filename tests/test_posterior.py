"""Partition function, dual ascent, and posterior decoding."""

import warnings
from itertools import product

import numpy as np
import pytest

import cip
from cip.posterior import PackedColumns, pack_columns, pr_decode
from cip.view import CorpusView

from conftest import (
    make_sentence,
    noun_toy_entry,
    phi,
    phi_grid,
    random_corpus,
    to_distribution,
)

NOUN_LEFT = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=1.0, theta=0.01)


def enum_log_partition(corpus, dists, constraints, lambdas):
    """Independent oracle: enumerate every head assignment outright."""
    total = 1.0
    for k, (sentence, _) in enumerate(corpus):
        n = len(sentence)
        sentence_sum = 0.0
        candidates = [[h for h in range(n + 1) if h != d] for d in range(1, n + 1)]
        for assignment in product(*candidates):
            weight = 1.0
            for dep, head in enumerate(assignment, start=1):
                exponent = 0.0
                for i, c in enumerate(constraints):
                    exponent += lambdas[2 * i] * phi(c, "upper", sentence, head, dep)
                    exponent += lambdas[2 * i + 1] * phi(c, "lower", sentence, head, dep)
                weight *= dists[k][head, dep - 1] * np.exp(-exponent)
            sentence_sum += weight
        total *= sentence_sum
    return float(np.log(total))


def corpus_sums(packed, lambdas):
    """log Z and its gradient at ``lambdas`` from one ``packed.sums``
    pass."""
    log_z, expected, _ = packed.sums(np.asarray(lambdas, dtype=float))
    return log_z, -expected


def small_problem(rng, constraints=None, n_sentences=2, lengths=(2, 3, 4)):
    """A random corpus, its head distributions (the enumeration oracle's
    input), its constraints and its corpus view."""
    corpus = random_corpus(rng, n_sentences, list(lengths))
    dists = [to_distribution(m) for _, m in corpus]
    cons = constraints or [
        cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.7, theta=0.05),
        cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.3, theta=0.1),
    ]
    return corpus, dists, cons, CorpusView.of(corpus, cons)


def log_probs(p):
    out = np.full_like(p, -np.inf)
    np.log(p, out=out, where=p > 0)
    return out


def loop_pack_columns(corpus, constraints, root_counts_left=False):
    """``pack_columns`` sentence by sentence, from each sentence's
    ``to_distribution`` and ``phi_grid`` grids: the reference that the
    class-mass packer must match.  Packed column ``t`` keeps ``log p`` over
    all ``n_max + 1`` head slots, padded with ``-inf``, and ``phi[f, t]``
    the values of feature row ``f`` on the same slots, 0 on padding.
    Returns ``log_p``, ``phi``, ``sentence`` and ``column``."""
    rows = [(c, direction) for c in constraints for direction, _ in FEATURE_ROWS]
    width = max(matrix.n for _, matrix in corpus) + 1
    none = np.empty(0, dtype=int)
    sentence, column = [none], [none]
    log_p = [np.empty((0, width))]
    phi = [np.empty((len(rows), 0, width))]
    for k, (s, matrix) in enumerate(corpus):
        values = np.array(
            [phi_grid(c, d, s, root_counts_left=root_counts_left) for c, d in rows]
        ).reshape(len(rows), matrix.n + 1, matrix.n)
        touched = np.flatnonzero(values.any(axis=(0, 1)))
        if touched.size == 0:
            continue
        slots = matrix.n + 1
        packed_log_p = np.full((touched.size, width), -np.inf)
        packed_log_p[:, :slots] = log_probs(to_distribution(matrix))[:, touched].T
        packed_phi = np.zeros((len(rows), touched.size, width))
        packed_phi[:, :, :slots] = values[:, :, touched].transpose(0, 2, 1)
        sentence.append(np.full(touched.size, k))
        column.append(touched)
        log_p.append(packed_log_p)
        phi.append(packed_phi)
    return (
        np.concatenate(log_p),
        np.concatenate(phi, axis=1),
        np.concatenate(sentence),
        np.concatenate(column),
    )


def loop_columns(log_p, phi, lambdas):
    """``PackedColumns.columns`` head slot by head slot, over the padded
    arrays of ``loop_pack_columns``: each packed column's share of log Z
    and its expected feature rows under ``q``."""
    logw = log_p - np.tensordot(lambdas, phi, axes=1)
    top = logw.max(axis=1, keepdims=True)
    weights = np.exp(logw - top)
    mass = weights.sum(axis=1, keepdims=True)
    q = weights / mass
    return np.hstack((top + np.log(mass), np.einsum("fth,th->tf", phi, q)))


def loop_sums(columns, batch=None):
    """What ``PackedColumns.sums`` returns, summed from the per-column
    values of ``loop_columns``: log Z, the expected feature rows over every
    column, and over the columns of the mask ``batch`` (default: all)."""
    chosen = columns if batch is None else columns[batch]
    return columns[:, 0].sum(), columns[:, 1:].sum(axis=0), chosen[:, 1:].sum(axis=0)


class LoopPacked:
    """What ``solve_dual`` reads of a ``PackedColumns``, with ``sums``
    taken by ``loop_sums`` over the log-space columns of ``loop_columns``
    on the arrays of ``loop_pack_columns``."""

    def __init__(self, corpus, constraints, labels):
        self.log_p, self.phi, self.sentence, _ = loop_pack_columns(corpus, constraints)
        self.labels = labels
        self.n_sentences = len(corpus)

    def sums(self, lambdas, batch=None):
        columns = loop_columns(self.log_p, self.phi, np.asarray(lambdas, dtype=float))
        return loop_sums(columns, batch)


def kl_divergence(q, p):
    """Arc-factored KL(q || p) summed over all dependents."""
    total = 0.0
    for qd, pd in zip(q, p):
        mask = qd > 0
        total += float(np.sum(qd[mask] * (np.log(qd[mask]) - np.log(pd[mask]))))
    return total


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            cip.PrParams(lr0=0)
        with pytest.raises(ValueError):
            cip.PrParams(decay=1.5)
        with pytest.raises(ValueError):
            cip.PrParams(batch_size=0)
        with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
            cip.PrParams(max_iter=0)
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            cip.PrParams(seed=-1)
        with pytest.raises(ValueError, match="^grad_tol must be nonnegative$"):
            cip.PrParams(grad_tol=-1.0)
        assert cip.PrParams(grad_tol=0.0).grad_tol == 0.0
        with pytest.raises(TypeError):
            cip.PrParams(optimizer="plain_sgd")


def every_arc(n):
    """(head, dep) of every arc over n tokens, dependents 1-based."""
    return [(head, dep) for dep in range(1, n + 1) for head in range(n + 1) if head != dep]


FEATURE_ROWS = (("upper", 0), ("lower", 1))


class TestFeatureIndex:
    def test_labels_and_pointwise_values(self):
        rng = np.random.default_rng(40)
        corpus, _, cons, view = small_problem(rng)
        packed = pack_columns(view)
        assert packed.labels == ("u:upper", "u:lower", "b:upper", "b:lower")
        assert packed.table.shape == (4, 3)
        for bucket in view.buckets:
            for b, k in enumerate(bucket.index):
                sentence = corpus[k][0]
                for i, c in enumerate(cons):
                    for direction, offset in FEATURE_ROWS:
                        f = 2 * i + offset
                        for head, dep in every_arc(len(sentence)):
                            value = packed.table[f, bucket.classes[i, b, head, dep - 1]]
                            assert value == phi(c, direction, sentence, head, dep)


PACK_CONSTRAINTS = {
    "mixed": [
        cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.7, theta=0.05),
        cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.3, theta=0.1),
        cip.Constraint(id="none", kind="unary", pos="PRON", r=0.5, theta=0.1),
    ],
    "unmatched": [cip.Constraint(id="none", kind="unary", pos="PRON", r=0.5, theta=0.1)],
    "no-constraints": [],
    # Both rows are 0 on +1 arcs, so a sentence-final NOUN, whose heads all
    # lie to its left, is matched but stays unpacked.
    "r1-theta0": [cip.Constraint(id="u", kind="unary", pos="NOUN", r=1.0, theta=0.0)],
}


@pytest.mark.parametrize("root_counts_left", [False, True])
@pytest.mark.parametrize("name", sorted(PACK_CONSTRAINTS))
def test_pack_columns_matches_sentence_loop(name, root_counts_left):
    # Mixed lengths with length-1 sentences; scale 900 underflows p to 0.
    constraints = PACK_CONSTRAINTS[name]
    rng = np.random.default_rng(63)
    lambda_rng = np.random.default_rng(66)
    for scale in (0.1, 3.0, 900.0):
        corpus = random_corpus(rng, 20, [1, 2, 3, 5, 8, 13])
        corpus = cip.Corpus(
            tuple((s, cip.ScoreMatrix(m.scores * scale)) for s, m in corpus)
        )
        packed = pack_columns(CorpusView.of(corpus, constraints, root_counts_left))
        log_p, phi_values, sentence, column = loop_pack_columns(
            corpus, constraints, root_counts_left
        )
        # Every other sentence's columns: a batch for the third output.
        batch = packed.sentence % 2 == 0
        for _ in range(3):
            lam = lambda_rng.uniform(0, 3, len(packed.labels))
            columns = loop_columns(log_p, phi_values, lam)
            np.testing.assert_allclose(packed.columns(lam), columns, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                np.hstack(packed.sums(lam, batch)),
                np.hstack(loop_sums(columns, batch)),
                rtol=0,
                atol=1e-12,
            )
            total_log_z, total_grad = corpus_sums(packed, lam)
        assert np.array_equal(packed.sentence, sentence)
        assert np.array_equal(packed.column, column)
        assert packed.n_sentences == len(corpus)
        if name in ("unmatched", "no-constraints"):
            assert packed.sentence.size == 0
            assert total_log_z == 0.0
            np.testing.assert_array_equal(total_grad, 0.0)
        if name == "r1-theta0":
            packed_pairs = set(zip(packed.sentence.tolist(), packed.column.tolist()))
            last_nouns = [
                (k, len(s) - 1) for k, (s, _) in enumerate(corpus) if s.upos[-1] == "NOUN"
            ]
            assert last_nouns and not packed_pairs & set(last_nouns)
            assert packed_pairs


def test_pack_columns_with_41_constraints_matches_sentence_loop():
    # 41 unary constraints on distinct tags: the joint class key
    # sum_c (class_c mod 3) * 3**c passes the int64 range from c = 40 on,
    # where keys that wrapped would collide and decode to wrong classes.
    tags = [f"T{c}" for c in range(41)]
    constraints = [
        cip.Constraint(id=f"c{c}", kind="unary", pos=tag, r=0.5, theta=0.1)
        for c, tag in enumerate(tags)
    ]
    rng = np.random.default_rng(67)
    corpus = random_corpus(rng, 30, [2, 3, 5, 8], pos_pool=tags)
    assert {"T39", "T40"} <= {tag for s, _ in corpus for tag in s.upos}
    packed = pack_columns(CorpusView.of(corpus, constraints))
    log_p, phi_values, _, _ = loop_pack_columns(corpus, constraints)
    for lam in (np.zeros(82), rng.uniform(0, 3, 82)):
        np.testing.assert_allclose(
            np.hstack(packed.sums(lam)),
            np.hstack(loop_sums(loop_columns(log_p, phi_values, lam))),
            rtol=0,
            atol=1e-12,
        )


class TestLogPartition:
    def test_zero_lambda_is_zero(self):
        rng = np.random.default_rng(41)
        _, _, _, view = small_problem(rng)
        log_z, _ = corpus_sums(pack_columns(view), np.zeros(4))
        assert log_z == pytest.approx(0.0, abs=1e-12)

    def test_no_matching_arcs(self):
        # No packed column, so no joint class either (K = 0): every sum is 0.
        sentence = make_sentence(("DET", "VERB"))
        matrix = cip.ScoreMatrix(np.random.default_rng(0).normal(0, 1, (3, 2)))
        corpus = cip.Corpus(((sentence, matrix),))
        packed = pack_columns(CorpusView.of(corpus, [NOUN_LEFT]))
        assert packed.mass.shape == (0, 0)
        for lam in (0.0, 1.0, 7.0):
            assert corpus_sums(packed, np.array([lam, lam]))[0] == 0.0
            for batch in (None, np.zeros(0, dtype=bool)):
                log_z, expected, step = packed.sums(np.array([lam, lam]), batch)
                assert log_z == 0.0
                np.testing.assert_array_equal(expected, [0.0, 0.0])
                np.testing.assert_array_equal(step, [0.0, 0.0])

    def test_two_token_hand_case(self):
        sentence = make_sentence(("DET", "NOUN"))
        scores = np.array([[0.3, 1.2], [0.0, -0.4], [0.7, 0.0]])
        matrix = cip.ScoreMatrix(scores)
        corpus = cip.Corpus(((sentence, matrix),))
        dists = [to_distribution(matrix)]
        cons = [cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.6, theta=0.1)]
        packed = pack_columns(CorpusView.of(corpus, cons))
        lam = np.array([0.9, 0.0])
        value, _ = corpus_sums(packed, lam)
        oracle = enum_log_partition(corpus, dists, cons, lam)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            corpus, dists, cons, view = small_problem(rng, lengths=(2, 3, 4))
            lam = rng.uniform(0, 2, 4)
            value, _ = corpus_sums(pack_columns(view), lam)
            oracle = enum_log_partition(corpus, dists, cons, lam)
            assert value == pytest.approx(oracle, abs=1e-9)


def ragged_problem(rng, upos_rows, constraints):
    entries = []
    for upos in upos_rows:
        n = len(upos)
        entries.append((make_sentence(upos), cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n)))))
    corpus = cip.Corpus(tuple(entries))
    dists = [to_distribution(m) for _, m in corpus]
    return corpus, dists, pack_columns(CorpusView.of(corpus, constraints))


RAGGED_CONSTRAINTS = [
    cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.7, theta=0.05),
    cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.3, theta=0.1),
]
RAGGED_CORPORA = {
    # Lengths 1-6; the length-1 NOUN matches only through its root arc,
    # which the default policy does not count, and DET VERB matches nothing.
    "mixed": [
        ("NOUN", "ADP", "VERB"),
        ("NOUN",),
        ("DET", "VERB"),
        ("ADP", "NOUN", "DET", "NOUN", "VERB", "ADP"),
        ("VERB", "NOUN", "ADP", "NOUN"),
        ("ADP", "DET", "NOUN", "VERB", "DET"),
    ],
    "unmatched": [("DET",), ("VERB", "DET", "VERB"), ("DET", "VERB")],
}


class TestRaggedCorpus:
    """The packed evaluator on sentences of mixed lengths, against the
    enumeration oracle and central differences."""

    @pytest.mark.parametrize("name", sorted(RAGGED_CORPORA))
    def test_log_partition_and_gradient(self, name):
        rng = np.random.default_rng(60)
        corpus, dists, packed = ragged_problem(rng, RAGGED_CORPORA[name], RAGGED_CONSTRAINTS)
        # One enumeration: the 6-token sentence alone has 6^6 assignments.
        lam = rng.uniform(0.1, 2, 4)
        value, _ = corpus_sums(packed, lam)
        oracle = enum_log_partition(corpus, dists, RAGGED_CONSTRAINTS, lam)
        assert value == pytest.approx(oracle, abs=1e-9)
        if name == "unmatched":
            assert value == 0.0
        for _ in range(3):
            lam = rng.uniform(0.1, 2, 4)
            _, grad = corpus_sums(packed, lam)
            step = 1e-6
            for i in range(4):
                up, down = lam.copy(), lam.copy()
                up[i] += step
                down[i] -= step
                fd = (corpus_sums(packed, up)[0] - corpus_sums(packed, down)[0]) / (2 * step)
                assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
            if name == "unmatched":
                np.testing.assert_array_equal(grad, 0.0)

    def test_log_partition_random_constraints(self):
        # One to three unary and binary constraints over five tags, on
        # sentences of at most four tokens so that every draw enumerates
        # quickly.
        rng = np.random.default_rng(64)
        rows = [("NOUN", "ADP", "VERB"), ("ADJ",), ("DET", "NOUN"), ("ADP", "NOUN", "ADJ", "NOUN")]
        tags = ["NOUN", "ADP", "VERB", "DET", "ADJ"]
        kinds = set()
        for _ in range(12):
            constraints = []
            for i in range(int(rng.integers(1, 4))):
                kind = str(rng.choice(["unary", "binary"]))
                pos, pos2 = (str(tag) for tag in rng.choice(tags, 2, replace=False))
                constraints.append(
                    cip.Constraint(
                        id=f"c{i}",
                        kind=kind,
                        pos=pos,
                        pos2=pos2 if kind == "binary" else None,
                        r=float(rng.uniform(0, 1)),
                        theta=float(rng.uniform(0, 0.2)),
                    )
                )
                kinds.add(kind)
            corpus, dists, packed = ragged_problem(rng, rows, constraints)
            lam = rng.uniform(0, 2, len(packed.labels))
            value, _ = corpus_sums(packed, lam)
            oracle = enum_log_partition(corpus, dists, constraints, lam)
            assert value == pytest.approx(oracle, abs=1e-9)
        assert kinds == {"unary", "binary"}

    @pytest.mark.parametrize("batch_size", [4, len(RAGGED_CORPORA["mixed"]), 128])
    def test_each_step_takes_one_columns_pass(self, batch_size, monkeypatch):
        rng = np.random.default_rng(61)
        corpus, _, packed = ragged_problem(rng, RAGGED_CORPORA["mixed"], RAGGED_CONSTRAINTS)
        passes = []
        sums = PackedColumns.sums

        def counted(self, lambdas, batch=None):
            passes.append(1)
            return sums(self, lambdas, batch)

        monkeypatch.setattr(PackedColumns, "sums", counted)
        params = cip.PrParams(batch_size=batch_size, max_iter=12, grad_tol=0.0, seed=3)
        lam, trace = cip.solve_dual(packed, params)
        assert len(passes) == len(trace) == params.max_iter + 1
        monkeypatch.undo()

        # Replay the Adam steps on the log-space reference: each follows the
        # full gradient at the traced multipliers when the batch holds every
        # sentence, and otherwise the rescaled gradient of the sampler's
        # batch.
        loop = LoopPacked(corpus, RAGGED_CONSTRAINTS, packed.labels)
        size = len(corpus)
        batch = min(batch_size, size)
        sampler = np.random.default_rng(params.seed)
        order = sampler.permutation(size)
        cursor = 0
        in_batch = None
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        moment1 = moment2 = np.zeros(len(packed.labels))
        for before, after in zip(trace, trace[1:]):
            if batch < size:
                if cursor + batch > size:
                    order = sampler.permutation(size)
                    cursor = 0
                in_batch = np.isin(loop.sentence, order[cursor:cursor + batch])
                cursor += batch
            current = np.array(before.lambdas)
            log_z, _, ascent = loop.sums(current, in_batch)
            gradient = ascent * size / batch
            moment1 = beta1 * moment1 + (1 - beta1) * gradient
            moment2 = beta2 * moment2 + (1 - beta2) * gradient**2
            steps = before.iteration + 1
            unbiased1 = moment1 / (1 - beta1**steps)
            unbiased2 = moment2 / (1 - beta2**steps)
            rate = params.lr0 * params.decay**before.iteration
            expected = np.maximum(current + rate * unbiased1 / (np.sqrt(unbiased2) + eps), 0.0)
            np.testing.assert_allclose(after.lambdas, expected, rtol=0, atol=1e-12)
            assert before.neg_log_z == -corpus_sums(packed, current)[0]
            assert before.neg_log_z == pytest.approx(-log_z, abs=1e-12)
        np.testing.assert_array_equal(lam, trace[-1].lambdas)


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry per log-space pass that ``PackedColumns.sums`` falls back
    to."""
    calls = []
    columns = PackedColumns.columns

    def counted(self, lambdas):
        calls.append(1)
        return columns(self, lambdas)

    monkeypatch.setattr(PackedColumns, "columns", counted)
    return calls


WIDE = cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.7, theta=0.05)
# Two NOUNs at most per sentence, so that the enumeration's weights stay
# finite at a span of 720; the first NOUN of each has no head on its left.
WIDE_ROWS = [("NOUN", "VERB"), ("DET", "NOUN", "ADP"), ("NOUN", "ADP", "NOUN")]


class TestWideOffsets:
    """``PackedColumns.sums`` where the class offsets ``phi @ lambda`` span
    hundreds of nats.  At ``lambda = (0, L)`` the lower row of ``WIDE``
    gives classes 0, +1 and -1 the offsets 0, -0.35 L and 0.65 L: a span of
    L.  A NOUN with no head on its left keeps its mass on classes 0 and -1,
    so its linear-space sum ``mass @ exp(min(a) - a)`` is at most
    ``exp(-0.35 L)``, which is 0 in floating point beyond L = 2,130."""

    @pytest.mark.parametrize("span", [590.0, 720.0, 2500.0, 1e5])
    def test_sums_match_log_space_reference(self, span, fallbacks):
        rng = np.random.default_rng(67)
        corpus, dists, packed = ragged_problem(rng, WIDE_ROWS, [WIDE])
        lam = np.array([0.0, span])
        offsets = packed.phi @ lam
        assert offsets.max() - offsets.min() == pytest.approx(span)
        linear = packed.mass @ np.exp(offsets.min() - offsets)
        assert np.any(linear == 0.0) == (span > 2130)

        batch = packed.sentence != 1
        values = np.hstack(packed.sums(lam, batch))
        # Linear space up to a span of 600 nats, log space beyond.
        assert len(fallbacks) == (span > 600)
        assert np.all(np.isfinite(values))
        log_p, phi_values, _, _ = loop_pack_columns(corpus, [WIDE])
        reference = np.hstack(loop_sums(loop_columns(log_p, phi_values, lam), batch))
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=1e-12)
        if span < 745:
            oracle = enum_log_partition(corpus, dists, [WIDE], lam)
            assert values[0] == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize(
    "params",
    [
        cip.PrParams(max_iter=40, grad_tol=0.0),
        cip.PrParams(max_iter=40, batch_size=4, grad_tol=0.0, seed=5),
    ],
    ids=["adaptive_moments", "batch_below_corpus"],
)
def test_solve_dual_matches_loop_evaluate(params):
    rng = np.random.default_rng(65)
    corpus, _, packed = ragged_problem(rng, RAGGED_CORPORA["mixed"] * 2, RAGGED_CONSTRAINTS)
    lam, trace = cip.solve_dual(packed, params)
    loop_lam, loop_trace = cip.solve_dual(
        LoopPacked(corpus, RAGGED_CONSTRAINTS, packed.labels), params
    )
    assert len(trace) == len(loop_trace) == params.max_iter + 1
    for record, reference in zip(trace, loop_trace):
        assert record.iteration == reference.iteration
        np.testing.assert_allclose(
            [record.grad_norm, record.neg_log_z, *record.lambdas],
            [reference.grad_norm, reference.neg_log_z, *reference.lambdas],
            rtol=0,
            atol=1e-12,
        )
    np.testing.assert_allclose(lam, loop_lam, rtol=0, atol=1e-12)
    assert np.any(lam > 0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            _, _, _, view = small_problem(rng)
            packed = pack_columns(view)
            lam = rng.uniform(0.1, 2, 4)
            _, grad = corpus_sums(packed, lam)
            step = 1e-6
            for i in range(4):
                up, down = lam.copy(), lam.copy()
                up[i] += step
                down[i] -= step
                fd = (corpus_sums(packed, up)[0] - corpus_sums(packed, down)[0]) / (2 * step)
                assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_zero_features_zero_gradient(self):
        sentence = make_sentence(("DET", "VERB"))
        matrix = cip.ScoreMatrix(np.zeros((3, 2)))
        corpus = cip.Corpus(((sentence, matrix),))
        packed = pack_columns(CorpusView.of(corpus, [NOUN_LEFT]))
        np.testing.assert_array_equal(corpus_sums(packed, np.array([1.0, 2.0]))[1], 0.0)

    def test_at_zero_equals_negative_feature_expectation(self):
        rng = np.random.default_rng(44)
        corpus, dists, cons, view = small_problem(rng)
        _, grad = corpus_sums(pack_columns(view), np.zeros(4))
        expected = np.zeros(4)
        for k, (sentence, _) in enumerate(corpus):
            for i, c in enumerate(cons):
                for direction, offset in FEATURE_ROWS:
                    for head, dep in every_arc(len(sentence)):
                        value = phi(c, direction, sentence, head, dep)
                        expected[2 * i + offset] -= value * dists[k][head, dep - 1]
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_neg_log_partition_concave_along_segments(self):
        rng = np.random.default_rng(45)
        _, _, _, view = small_problem(rng)
        packed = pack_columns(view)
        for _ in range(10):
            a = rng.uniform(0, 2, 4)
            b = rng.uniform(0, 2, 4)
            values = [-corpus_sums(packed, a + t * (b - a))[0] for t in np.linspace(0, 1, 9)]
            second = np.diff(values, 2)
            assert np.all(second <= 1e-9)


class TestSolveDual:
    def test_satisfied_baseline_keeps_lambda_zero(self):
        # Baseline noun ratio is 1/3; a band centered there is satisfied in
        # expectation, so the ascent never leaves the origin.
        corpus = cip.Corpus((noun_toy_entry(0.5), noun_toy_entry(0.7), noun_toy_entry(-0.4)))
        dists = [to_distribution(m) for _, m in corpus]
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.5, theta=0.45)
        assert cip.expected_ratio(c, corpus, dists) <= c.upper
        assert cip.expected_ratio(c, corpus, dists) >= c.lower
        packed = pack_columns(CorpusView.of(corpus, [c]))
        lam, trace = cip.solve_dual(packed, cip.PrParams())
        np.testing.assert_array_equal(lam, 0.0)
        assert trace[-1].grad_norm < cip.PrParams().grad_tol

    def test_vacuous_upper_feature(self):
        corpus = cip.Corpus((noun_toy_entry(0.5),))
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.875, theta=0.125)
        packed = pack_columns(CorpusView.of(corpus, [c]))
        lam, _ = cip.solve_dual(packed, cip.PrParams(max_iter=20))
        assert lam[0] == 0.0  # effective upper ratio 1.0 never binds

    def test_infeasible_band_stays_finite(self, fallbacks):
        # With the root arc counted left, every head of a sentence-final
        # NOUN is on its left, so no q meets the upper bound 0: the dual is
        # unbounded and steps that never decay drive lambda far past the
        # span that linear space covers.
        rng = np.random.default_rng(68)
        rows = [("DET", "NOUN"), ("NOUN", "VERB", "NOUN"), ("VERB", "DET")]
        corpus = ragged_problem(rng, rows, [])[0]
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.0, theta=0.0)
        packed = pack_columns(CorpusView.of(corpus, [c], root_counts_left=True))
        params = cip.PrParams(lr0=50.0, decay=1.0, max_iter=200, grad_tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, trace = cip.solve_dual(packed, params)
        assert fallbacks
        assert lam[0] > 1000
        values = [[r.grad_norm, r.neg_log_z, *r.lambdas] for r in trace]
        assert np.all(np.isfinite(values))
        # Two sentence-final NOUNs, each adding lambda_upper to -log Z.
        assert trace[-1].neg_log_z >= 2 * lam[0] - 1e-6

    def test_no_features(self):
        corpus = cip.Corpus((noun_toy_entry(0.5),))
        packed = pack_columns(CorpusView.of(corpus, []))
        lam, trace = cip.solve_dual(packed, cip.PrParams())
        assert lam.size == 0 and trace == []

    def test_random_probe_optimality(self):
        rng = np.random.default_rng(46)
        cons = [cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.2, theta=0.0)]
        _, _, _, view = small_problem(rng, constraints=cons, n_sentences=3)
        packed = pack_columns(view)
        params = cip.PrParams(max_iter=3000, decay=1.0, lr0=0.05, grad_tol=1e-10)
        lam, _ = cip.solve_dual(packed, params)
        best = -corpus_sums(packed, lam)[0]
        for _ in range(1000):
            probe = rng.uniform(0, 4, len(packed.labels))
            assert best >= -corpus_sums(packed, probe)[0] - 1e-6


class TestPosteriorArcProbs:
    def test_zero_lambda_is_identity(self):
        rng = np.random.default_rng(47)
        _, dists, _, view = small_problem(rng)
        out = cip.posterior_arc_probs(view, np.zeros(4))
        for q, p in zip(out, dists):
            np.testing.assert_allclose(q, p, atol=1e-12)

    def test_columns_normalized(self):
        rng = np.random.default_rng(48)
        _, _, _, view = small_problem(rng)
        out = cip.posterior_arc_probs(view, np.array([0.5, 1.5, 0.2, 3.0]))
        for q in out:
            np.testing.assert_allclose(q.sum(axis=0), 1.0, atol=1e-9)

    def test_monotone_steering(self):
        corpus = cip.Corpus(tuple(noun_toy_entry(b) for b in (0.5, 0.2, -0.3, 0.8)))
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.3, theta=0.1)
        view = CorpusView.of(corpus, [c])
        previous = None
        for lam in np.linspace(0, 4, 20):
            q = cip.posterior_arc_probs(view, np.array([lam, 0.0]))
            measured = cip.expected_ratio(c, corpus, q)
            if previous is not None:
                assert measured <= previous
            previous = measured

    def test_column_spanning_the_float_range(self):
        # The score of head 2 minus the column maximum overflows to -inf,
        # which is a probability of 0, without a warning.
        scores = np.array([[1e308, 0.0], [0.0, 0.0], [-1e308, 0.0]])
        corpus = cip.Corpus(((make_sentence(("NOUN", "VERB")), cip.ScoreMatrix(scores)),))
        view = CorpusView.of(corpus, [NOUN_LEFT])
        (q,) = cip.posterior_arc_probs(view, np.zeros(2))
        np.testing.assert_array_equal(q, [[1.0, 0.5], [0.0, 0.5], [0.0, 0.0]])
        packed = pack_columns(view)
        np.testing.assert_array_equal(packed.mass.sum(axis=1), 1.0)

    def test_kl_zero_at_identity_nonnegative_elsewhere(self):
        rng = np.random.default_rng(49)
        _, dists, _, view = small_problem(rng)
        same = cip.posterior_arc_probs(view, np.zeros(4))
        assert kl_divergence(same, dists) == pytest.approx(0.0, abs=1e-12)
        moved = cip.posterior_arc_probs(view, np.array([1.0, 0.0, 2.0, 0.5]))
        assert kl_divergence(moved, dists) >= 0.0


class TestPrInfer:
    def test_empty_constraints_identity(self):
        # With nothing to satisfy, both methods decode the baseline and
        # report convergence.
        rng = np.random.default_rng(50)
        corpus = random_corpus(rng, 5, [2, 3, 4, 5])
        view = CorpusView.of(corpus, [])
        baseline = view.trees(view.decode())
        for decode in (cip.lr_decode, pr_decode):
            result = decode(view)
            assert result.lambdas.size == 0
            assert [t.heads for t in result.trees] == [t.heads for t in baseline]
            assert result.converged

    def test_map_decode_invariant_to_normalization(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            matrix = cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n)))
            via_q = cip.mst_decode(cip.ScoreMatrix(log_probs(to_distribution(matrix))))
            direct = cip.mst_decode(matrix)
            assert via_q.heads == direct.heads

    def test_directional_improvement(self, noun_toy_corpus):
        c = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.9, theta=0.05)
        view = CorpusView.of(noun_toy_corpus, [c])
        base_ratio = cip.ratio(c, noun_toy_corpus, view.trees(view.decode()))
        trees = pr_decode(view).trees
        new_ratio = cip.ratio(c, noun_toy_corpus, trees)

        def distance(value):
            return max(c.lower - value, value - c.upper, 0.0)

        assert distance(new_ratio) < distance(base_ratio)

    def test_agrees_with_lagrangian_on_toy(self, noun_toy_corpus):
        view = CorpusView.of(noun_toy_corpus, [NOUN_LEFT])
        lr = cip.lr_decode(view)
        pr = pr_decode(view)
        assert lr.converged
        assert cip.is_satisfied(
            NOUN_LEFT, cip.ratio(NOUN_LEFT, noun_toy_corpus, lr.trees)
        )
        assert cip.is_satisfied(
            NOUN_LEFT, cip.ratio(NOUN_LEFT, noun_toy_corpus, pr.trees)
        )

    @pytest.mark.parametrize("projective", [False, True])
    def test_large_score_gap(self, projective):
        # exp(-900) underflows to 0, so log q is -inf at the losing heads;
        # decoding from scores - lambda . phi keeps every score finite.
        sentence = make_sentence(("DET", "NOUN", "VERB"))
        scores = np.zeros((4, 3))
        scores[0, 1] = 900.0
        corpus = cip.Corpus(((sentence, cip.ScoreMatrix(scores)),))
        result = pr_decode(CorpusView.of(corpus, [NOUN_LEFT], projective=projective))
        (tree,) = result.trees
        assert np.all(np.isfinite(result.lambdas))
        assert len(tree) == 3 and tree.heads[1] == 0

    def test_projective_flag(self, noun_toy_corpus):
        trees = pr_decode(CorpusView.of(noun_toy_corpus, [NOUN_LEFT], projective=True)).trees
        assert all(cip.is_projective(t.heads) for t in trees)


def loop_pr_trees(corpus, constraints, lambdas, *, projective, single_root):
    """PR's final decode sentence by sentence: a ``ScoreMatrix`` of
    ``scores - sum_f lambda_f * phi_grid`` (feature rows in order,
    skipping lambda_f = 0), then the public decoder."""
    decode = cip.projective_decode if projective else cip.mst_decode
    rows = [(c, direction) for c in constraints for direction, _ in FEATURE_ROWS]
    trees = []
    for sentence, matrix in corpus:
        exponent = np.zeros(matrix.scores.shape)
        for lam, (c, direction) in zip(lambdas, rows):
            if lam != 0.0:
                exponent = exponent + lam * phi_grid(c, direction, sentence)
        reweighted = cip.ScoreMatrix(matrix.scores - exponent)
        trees.append(decode(reweighted, single_root=single_root))
    return trees


@pytest.mark.parametrize("single_root", [False, True])
@pytest.mark.parametrize("projective", [False, True])
def test_pr_decode_matches_per_sentence_reference(projective, single_root):
    # Mixed lengths with a length-1 sentence, a unary + binary pair whose
    # bands bind, and a constraint that matches no arc.
    rng = np.random.default_rng(62)
    constraints = [
        cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.95, theta=0.01),
        cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.05, theta=0.01),
        cip.Constraint(id="none", kind="unary", pos="PRON", r=0.5, theta=0.1),
    ]
    corpus, _, _ = ragged_problem(rng, RAGGED_CORPORA["mixed"] * 3, constraints)
    view = CorpusView.of(corpus, constraints, projective=projective, single_root=single_root)
    result = pr_decode(view, cip.PrParams(max_iter=30))
    assert np.all(result.lambdas[:4] > 0)
    np.testing.assert_array_equal(result.lambdas[4:], 0.0)
    reference = loop_pr_trees(
        corpus, constraints, result.lambdas, projective=projective, single_root=single_root
    )
    assert [t.heads for t in result.trees] == [t.heads for t in reference]
