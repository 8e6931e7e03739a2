"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance and runtime budget:

1. decoder oracle equivalence (exact, >= 500 random matrices, < 30 s)
2. weak duality on >= 50 tiny corpora with feasible constraints (< 60 s)
3. partition function vs enumeration (1e-9) and gradient vs central
   finite differences (1e-5 relative, floor 1) on 100 probes (< 30 s)
4. posterior identity at zero multipliers (exact tree equality)
5. monotone steering over a 20-point multiplier grid (weak, no tolerance)
6. synthetic transfer: UAS >= baseline + 5 points on >= 8 of 10 specs with
   ratio gap >= 0.3 under oracle constraints, theta = 0.01 (< 5 min)
7. typology compilation values and byte-stable constraint files
8. positive correlation (> 0.5) between ratio gap and UAS improvement
9. shipped defaults: LR 50 / 0.9 / 60, PR 1 / 0.98 / 100 / 128
"""

import io
import time

import numpy as np
import pytest

import cip

from conftest import make_sentence
from oracles import (
    brute_force_constrained,
    brute_force_decode,
    projective_tree_table,
    tree_table,
)
from cip.posterior import pack_columns
from cip.view import CorpusView

from test_posterior import corpus_sums, enum_log_partition, small_problem


def _verdict(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_1_decoder_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    mst_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 7))
        matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
        tree = cip.mst_decode(matrix)
        _, objective = brute_force_decode(matrix)
        mst_ok &= matrix.tree_score(tree.heads) == objective
    proj_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 6))
        matrix = cip.ScoreMatrix(rng.normal(0, 3, (n + 1, n)))
        tree = cip.projective_decode(matrix)
        best = max(
            matrix.tree_score(tuple(int(h) for h in row))
            for row in projective_tree_table(n)
        )
        proj_ok &= matrix.tree_score(tree.heads) == best
    elapsed = time.monotonic() - start
    _verdict(
        f"criterion 1: decoder oracle equivalence ({elapsed:.1f}s)",
        mst_ok and proj_ok and elapsed < 30,
    )


def _tiny_corpus(rng):
    while True:
        count = int(rng.integers(1, 4))
        lengths = [int(rng.integers(2, 6)) for _ in range(count)]
        size = 1
        for n in lengths:
            size *= len(tree_table(n))
        if size <= 200_000:
            break
    entries = []
    for n in lengths:
        upos = tuple(str(rng.choice(["NOUN", "VERB", "DET", "ADP"])) for _ in range(n))
        entries.append(
            (make_sentence(upos), cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n))))
        )
    return cip.Corpus(tuple(entries))


def _feasible_constraints(rng, corpus):
    """1-2 constraints whose ratios are achieved exactly by some joint tree
    assignment, with theta = 0, so the feasible set is provably nonempty and
    the equality-form dual bound is exact."""
    trees = []
    for sentence, _ in corpus:
        table = tree_table(len(sentence))
        row = table[int(rng.integers(0, len(table)))]
        trees.append(cip.ParseTree(tuple(int(h) for h in row)))
    templates = [
        ("unary", "NOUN", None),
        ("unary", "VERB", None),
        ("binary", "NOUN", "ADP"),
    ]
    picks = rng.choice(len(templates), size=int(rng.integers(1, 3)), replace=False)
    constraints = []
    for index in picks:
        kind, pos, pos2 = templates[int(index)]
        probe = cip.Constraint(id=f"c{index}", kind=kind, pos=pos, pos2=pos2, r=0.5, theta=0.0)
        measured = cip.ratio(probe, corpus, trees)
        if measured is None:
            continue
        constraints.append(
            cip.Constraint(id=f"c{index}", kind=kind, pos=pos, pos2=pos2,
                           r=measured, theta=0.0)
        )
    return constraints


def test_criterion_2_weak_duality():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    checked = 0
    duality_ok = True
    converged_ok = True
    while checked < 50:
        corpus = _tiny_corpus(rng)
        constraints = _feasible_constraints(rng, corpus)
        if not constraints:
            continue
        checked += 1
        _, optimum = brute_force_constrained(corpus, constraints)
        result = cip.lr_decode(CorpusView.of(corpus, constraints))
        for record in result.trace:
            duality_ok &= record.dual_value >= optimum - 1e-9
        ratios = [cip.ratio(c, corpus, result.trees) for c in constraints]
        satisfied = all(map(cip.is_satisfied, constraints, ratios))
        converged_ok &= result.converged == satisfied
    elapsed = time.monotonic() - start
    _verdict(
        f"criterion 2: weak duality on {checked} corpora ({elapsed:.1f}s)",
        duality_ok and converged_ok and elapsed < 60,
    )


def test_criterion_3_partition_function_and_gradient():
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    partition_ok = True
    for _ in range(30):
        corpus, dists, cons, view = small_problem(
            rng, n_sentences=int(rng.integers(1, 3)), lengths=(2, 3, 4)
        )
        packed = pack_columns(view)
        lam = rng.uniform(0, 2, len(packed.labels))
        value, _ = corpus_sums(packed, lam)
        oracle = enum_log_partition(corpus, dists, cons, lam)
        partition_ok &= abs(value - oracle) <= 1e-9
    gradient_ok = True
    probes = 0
    while probes < 100:
        _, _, _, view = small_problem(rng, n_sentences=2, lengths=(2, 3, 4))
        packed = pack_columns(view)
        lam = rng.uniform(0.1, 2, len(packed.labels))
        _, grad = corpus_sums(packed, lam)
        step = 1e-6
        for i in range(len(packed.labels)):
            up, down = lam.copy(), lam.copy()
            up[i] += step
            down[i] -= step
            fd = (corpus_sums(packed, up)[0] - corpus_sums(packed, down)[0]) / (2 * step)
            gradient_ok &= abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))
        probes += 1
    elapsed = time.monotonic() - start
    _verdict(
        f"criterion 3: partition function and gradient ({elapsed:.1f}s)",
        partition_ok and gradient_ok and elapsed < 30,
    )


def test_criterion_4_posterior_identity():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        upos = tuple(str(rng.choice(["NOUN", "VERB", "DET"])) for _ in range(n))
        corpus = cip.Corpus(
            ((make_sentence(upos), cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n)))),)
        )
        baseline = [cip.mst_decode(m) for _, m in corpus]
        empty = cip.pr_decode(CorpusView.of(corpus, []))
        ok &= empty.lambdas.size == 0
        ok &= [t.heads for t in empty.trees] == [t.heads for t in baseline]
        # A slack band around the baseline expectation keeps lambda* at 0.
        loose = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.5, theta=0.5)
        result = cip.pr_decode(CorpusView.of(corpus, [loose]))
        ok &= np.all(result.lambdas == 0.0)
        ok &= [t.heads for t in result.trees] == [t.heads for t in baseline]
    _verdict("criterion 4: posterior identity at lambda = 0", bool(ok))


def test_criterion_5_monotone_steering():
    spec = cip.SyntheticSpec(
        n_sentences=25,
        min_len=3,
        max_len=7,
        pos_weights=(("NOUN", 0.35), ("VERB", 0.35), ("DET", 0.3)),
        planted=(
            cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.5, theta=0.0),
        ),
        sigma=0.5,
        seed=1005,
    )
    corpus, _ = cip.generate_synthetic(spec)
    constraint = cip.Constraint(id="x", kind="unary", pos="NOUN", r=0.3, theta=0.1)
    view = CorpusView.of(corpus, [constraint])
    ok = True
    previous = None
    for lam in np.linspace(0.0, 5.0, 20):
        posteriors = cip.posterior_arc_probs(view, np.array([lam, 0.0]))
        measured = cip.expected_ratio(constraint, corpus, posteriors)
        if previous is not None:
            ok &= measured <= previous
        previous = measured
    _verdict("criterion 5: monotone steering over the multiplier grid", bool(ok))


POS_WEIGHTS = (("NOUN", 0.3), ("VERB", 0.25), ("DET", 0.25), ("ADJ", 0.2))
FLIP_LEVELS = [
    (0.80, 0.5), (0.85, 0.5), (0.90, 0.5), (0.95, 0.5), (1.00, 0.5),
    (0.80, 1.0), (0.85, 1.0), (0.90, 1.0), (0.95, 1.0), (1.00, 1.0),
]


@pytest.fixture(scope="module")
def transfer_suite():
    """Ten corrupted synthetic corpora decoded with oracle constraints, and
    the seconds the generation and decoding took."""
    start = time.monotonic()
    rows = []
    for index, (flip_prob, flip_boost) in enumerate(FLIP_LEVELS):
        spec = cip.SyntheticSpec(
            n_sentences=120,
            min_len=4,
            max_len=10,
            pos_weights=POS_WEIGHTS,
            planted=(
                cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.9, theta=0.0),
            ),
            sigma=0.1,
            margin=1.0,
            flip_prob=flip_prob,
            flip_boost=flip_boost,
            seed=300 + index,
        )
        corpus, true_ratios = cip.generate_synthetic(spec)
        oracle = cip.Constraint(
            id="noun-left", kind="unary", pos="NOUN",
            r=true_ratios["noun-left"], theta=0.01,
        )
        view = CorpusView.of(corpus, [oracle])
        baseline = view.trees(view.decode())
        base_uas = cip.uas(baseline, corpus.sentences)
        base_ratio = cip.ratio(oracle, corpus, baseline)
        cov = cip.coverage(oracle, corpus, baseline)
        gap = cip.ratio_gap([oracle], [base_ratio], [oracle.r], [cov])
        lr_trees = cip.lr_decode(view).trees
        pr_trees = cip.pr_decode(view).trees
        rows.append(
            {
                "gap": gap,
                "baseline": base_uas,
                "lr": cip.uas(lr_trees, corpus.sentences),
                "pr": cip.uas(pr_trees, corpus.sentences),
            }
        )
    return {"rows": rows, "seconds": time.monotonic() - start}


def test_criterion_6_synthetic_transfer(transfer_suite):
    rows = transfer_suite["rows"]
    elapsed = transfer_suite["seconds"]
    gaps = np.array([row["gap"] for row in rows])
    lr_gain = np.array([row["lr"] - row["baseline"] for row in rows])
    pr_gain = np.array([row["pr"] - row["baseline"] for row in rows])
    wins = int(np.sum((lr_gain >= 0.05) & (pr_gain >= 0.05)))
    _verdict(
        f"criterion 6: transfer improvement on {wins}/10 specs, "
        f"min gap {gaps.min():.2f} ({elapsed:.1f}s)",
        bool(np.all(gaps >= 0.3) and wins >= 8 and elapsed < 300),
    )


def test_criterion_7_typology_compilation():
    orientations = {"A": "pos1_first", "B": "pos2_first", "C": "no_dominant"}
    values_ok = (
        cip.compile_binary("A", orientations) == (0.875, 0.125)
        and cip.compile_binary("B", orientations) == (0.125, 0.125)
        and cip.compile_binary("C", orientations) == (0.5, 0.25)
        and cip.compile_binary(None, orientations) == (0.5, 0.25)
    )
    constraints = [
        cip.Constraint(id="C1", kind="unary", pos="NOUN", r=0.66, theta=0.125),
        cip.Constraint(id="C2", kind="binary", pos="NOUN", pos2="ADP", r=0.875, theta=0.125),
    ]
    first = io.StringIO()
    cip.save_constraints(constraints, first)
    second = io.StringIO()
    cip.save_constraints(cip.load_constraints(io.StringIO(first.getvalue())), second)
    _verdict(
        "criterion 7: typology compilation and byte-stable files",
        values_ok and first.getvalue() == second.getvalue(),
    )


def test_criterion_8_ratio_gap_correlation(transfer_suite):
    rows = transfer_suite["rows"]
    gaps = np.array([row["gap"] for row in rows])
    gains = np.array([(row["lr"] + row["pr"]) / 2 - row["baseline"] for row in rows])
    pearson = float(np.corrcoef(gaps, gains)[0, 1])
    _verdict(
        f"criterion 8: ratio gap vs improvement, pearson {pearson:.3f}",
        pearson > 0.5,
    )


def test_criterion_9_defaults_fidelity():
    lr = cip.LrParams()
    pr = cip.PrParams()
    config = cip.InferenceConfig()
    ok = (
        (lr.alpha0, lr.eta, lr.max_iter) == (50.0, 0.9, 60)
        and (pr.lr0, pr.decay, pr.max_iter, pr.batch_size) == (1.0, 0.98, 100, 128)
        and config.lr == lr
        and config.pr == pr
        and config.root_counts_left is False
        and config.single_root is False
    )
    _verdict("criterion 9: shipped defaults match the reference table", ok)
