"""The corpus view: what it keeps of the corpus it is built from."""

import gc
import weakref

import numpy as np

import cip
from cip.view import CorpusView

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
