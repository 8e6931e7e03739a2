"""The corpus view: what it keeps of the corpus it is built from."""

import gc
import io
import weakref

import numpy as np
import orjson
import pytest

import cip
from cip.lagrangian import IterationRecord
from cip.view import CorpusView, InferenceResult, write_trace

from conftest import make_sentence


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
