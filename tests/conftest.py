"""Shared corpus builders and scalar references for the test suite."""

from enum import Enum

import numpy as np
import pytest

import cip


def make_sentence(upos, gold_heads=None, sent_id=""):
    forms = tuple(f"w{i + 1}" for i in range(len(upos)))
    return cip.Sentence(
        forms=forms,
        upos=tuple(upos),
        sent_id=sent_id,
        gold_heads=tuple(gold_heads) if gold_heads is not None else None,
    )


def random_corpus(rng, n_sentences, lengths, pos_pool=("NOUN", "VERB", "DET", "ADP")):
    entries = []
    for _ in range(n_sentences):
        n = int(rng.choice(lengths))
        upos = tuple(str(rng.choice(pos_pool)) for _ in range(n))
        sentence = make_sentence(upos)
        matrix = cip.ScoreMatrix(rng.normal(0, 2, (n + 1, n)))
        entries.append((sentence, matrix))
    return cip.Corpus(tuple(entries))


def noun_toy_entry(noun_head_bias):
    """Sentence DET NOUN VERB whose NOUN picks head 1 (left) or head 3
    (right) depending on the bias; the other tokens attach firmly to root."""
    sentence = make_sentence(("DET", "NOUN", "VERB"))
    scores = np.zeros((4, 3))
    scores[0, 0] = 5.0
    scores[1, 0] = -1.0
    scores[0, 2] = 5.0
    scores[1, 1] = 1.0
    scores[3, 1] = 1.0 + noun_head_bias
    return sentence, cip.ScoreMatrix(scores)


@pytest.fixture
def noun_toy_corpus():
    """Three sentences; the baseline decode puts 2 of 3 noun heads on the
    right (ratio 1/3)."""
    return cip.Corpus((noun_toy_entry(0.5), noun_toy_entry(0.7), noun_toy_entry(-0.4)))


class ArcClass(Enum):
    PLUS = 1
    MINUS = -1
    NEITHER = 0


def classify_arc(constraint, sentence, head, dep, *, root_counts_left=False):
    """Class of the arc head -> dep under the constraint, one arc at a time:
    the reference of ``class_matrix``.

    Exactly one class is returned; binary classification is symmetric in the
    head/dependent roles.
    """
    n = len(sentence)
    if not 0 <= head <= n or not 1 <= dep <= n or head == dep:
        raise ValueError(f"invalid arc ({head}, {dep}) for a {n}-token sentence")
    if constraint.kind == "unary":
        if sentence.upos[dep - 1] != constraint.pos:
            return ArcClass.NEITHER
        if head == 0:
            return ArcClass.PLUS if root_counts_left else ArcClass.NEITHER
        return ArcClass.PLUS if head < dep else ArcClass.MINUS
    if head == 0:
        return ArcClass.NEITHER  # the root carries no POS tag
    pos_head = sentence.upos[head - 1]
    pos_dep = sentence.upos[dep - 1]
    if pos_head == constraint.pos and pos_dep == constraint.pos2:
        first = head
    elif pos_head == constraint.pos2 and pos_dep == constraint.pos:
        first = dep
    else:
        return ArcClass.NEITHER
    return ArcClass.PLUS if first == min(head, dep) else ArcClass.MINUS


def phi(constraint, direction, sentence, head, dep, *, root_counts_left=False):
    """Per-arc feature whose expectation's sign encodes one side of the band,
    one arc at a time: the reference of the PR feature table.

    The margin is folded into an effective ratio: the UPPER row uses
    ``min(1, r + theta)`` with values (1 - r_eff, -r_eff, 0) for positive /
    negative / unmatched arcs; the LOWER row uses ``max(0, r - theta)`` with
    the signs flipped.
    """
    cls = classify_arc(constraint, sentence, head, dep, root_counts_left=root_counts_left)
    if cls is ArcClass.NEITHER:
        return 0.0
    if direction == "upper":
        eff = constraint.upper
        return 1.0 - eff if cls is ArcClass.PLUS else -eff
    eff = constraint.lower
    return -(1.0 - eff) if cls is ArcClass.PLUS else eff


def phi_grid(constraint, direction, sentence, *, root_counts_left=False):
    """(n+1) x n grid of ``phi`` values, 0 on the self positions."""
    n = len(sentence)
    grid = np.zeros((n + 1, n))
    for dep in range(1, n + 1):
        for head in range(n + 1):
            if head != dep:
                grid[head, dep - 1] = phi(
                    constraint, direction, sentence, head, dep, root_counts_left=root_counts_left
                )
    return grid


def to_distribution(matrix):
    """Per-dependent softmax over candidate heads of one score matrix: the
    reference of ``posterior._head_probs``, an ``(n+1, n)`` array whose
    self positions are 0.

    Adding a constant to a whole column of the score matrix leaves the
    result unchanged (the per-dependent normalizer absorbs it).
    """
    s = matrix.scores
    shifted = s - s.max(axis=0)
    e = np.exp(shifted)
    return e / e.sum(axis=0)
