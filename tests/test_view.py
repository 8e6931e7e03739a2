"""The corpus view: what it keeps of the corpus it is built from."""

import gc
import io
import weakref

import numpy as np
import orjson
import pytest

import cip
from cip.constraints import class_matrix
from cip.lagrangian import IterationRecord
from cip.view import CorpusView, InferenceResult, write_trace

from conftest import make_sentence, random_corpus

CONSTRAINTS = (
    cip.Constraint(id="u", kind="unary", pos="NOUN", r=0.7, theta=0.05),
    cip.Constraint(id="b", kind="binary", pos="NOUN", pos2="ADP", r=0.3, theta=0.1),
)
# Row c: the offset of an arc of class 0, +1 and -1 under constraint c.
OFFSETS = np.array([[0.0, 1.5, -0.75], [0.25, -2.0, 0.5]])
DECODERS = [(False, False), (False, True), (True, False), (True, True)]


def test_view_does_not_keep_the_score_matrices():
    # The view stacks its own copy of the scores, so a score matrix dies
    # once the caller drops the corpus, and the view still decodes.
    rng = np.random.default_rng(3)
    entries = [
        (make_sentence(("NOUN", "VERB", "DET")[:n]), cip.ScoreMatrix(rng.normal(0, 1, (n + 1, n))))
        for n in (1, 2, 3, 3)
    ]
    want = [cip.mst_decode(matrix).heads for _, matrix in entries]
    corpus = cip.Corpus(tuple(entries))
    ref = weakref.ref(entries[2][1])
    view = CorpusView.of(corpus, [])
    del corpus, entries
    gc.collect()
    assert ref() is None
    assert [tree.heads for tree in view.trees(view.decode())] == want
    assert len(view.sentences) == 4


def _lr_result(labels, objective=1.5):
    record = IterationRecord(1, 50.0, (0.0, 2.0), (0.5, None), objective, 3.5)
    return InferenceResult([], np.zeros(2), labels, [record], False)


def test_trace_line_is_strict_json_even_for_non_finite_values():
    out = io.StringIO()
    write_trace(_lr_result(("a", "b"), objective=float("inf")), out)
    assert orjson.loads(out.getvalue()) == {
        "iteration": 1, "alpha": 50.0, "lambdas": {"a": 0.0, "b": 2.0},
        "ratios": {"a": 0.5, "b": None}, "objective": None, "dual_value": 3.5,
    }


def test_trace_rejects_labels_it_cannot_key_by():
    # Two constraints with one id would share one key, and one value would
    # be lost from every line.
    with pytest.raises(ValueError, match="not distinct: a, a"):
        write_trace(_lr_result(("a", "a")), io.StringIO())


def _corpus_and_view(seed):
    corpus = random_corpus(np.random.default_rng(seed), 12, [1, 2, 3, 5])
    return corpus, CorpusView.of(corpus, CONSTRAINTS)


@pytest.mark.parametrize("projective, single_root", DECODERS)
def test_zero_offsets_return_the_cached_plain_decode(projective, single_root):
    # PR's offsets at zero duals are -0.0: all-zero as well.
    _, view = _corpus_and_view(5)
    decode = {"projective": projective, "single_root": single_root}
    plain = view.decode(**decode)
    for zeros in (np.zeros((2, 3)), -np.zeros((2, 3))):
        heads = view.decode(zeros, **decode)
        assert len(heads) == len(plain)
        assert all(got is want for got, want in zip(heads, plain))


@pytest.mark.parametrize("projective, single_root", DECODERS)
def test_offsets_shift_every_arc_by_its_class(projective, single_root):
    corpus, view = _corpus_and_view(7)
    decode = cip.projective_decode if projective else cip.mst_decode
    want = []
    for sentence, matrix in corpus:
        grids = [class_matrix(c, sentence) for c in CONSTRAINTS]
        shifted = matrix.scores + sum(row[grid] for row, grid in zip(OFFSETS, grids))
        want.append(decode(cip.ScoreMatrix(shifted), single_root=single_root).heads)
    heads = view.decode(OFFSETS, projective=projective, single_root=single_root)
    assert [tree.heads for tree in view.trees(heads)] == want
    plain = view.decode(projective=projective, single_root=single_root)
    assert want != [tree.heads for tree in view.trees(plain)]


def test_gather_adds_the_picked_offsets_to_the_objective():
    corpus, view = _corpus_and_view(9)
    heads = view.decode(OFFSETS)
    trees = view.trees(heads)
    objective, dual_value, ratios = view.gather(heads, OFFSETS)
    want_objective = picked = 0.0
    for (sentence, matrix), tree in zip(corpus, trees):
        for dep, head in enumerate(tree.heads, start=1):
            want_objective += matrix.scores[head, dep - 1]
            for c, row in zip(CONSTRAINTS, OFFSETS):
                picked += row[class_matrix(c, sentence)[head, dep - 1]]
    assert picked != 0.0
    assert objective == pytest.approx(want_objective)
    assert dual_value == pytest.approx(objective + picked)
    assert ratios == [cip.ratio(c, corpus, trees) for c in CONSTRAINTS]
    assert view.gather(heads) == (objective, objective, ratios)
