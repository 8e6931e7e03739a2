"""Corpus-statistics constraints over word order.

A constraint bounds, over all decoded trees of a corpus, the fraction of
"positive" arcs among the arcs it matches:

* unary(POS): matches arcs whose dependent carries POS; positive means the
  head is to the left of the dependent.
* binary(POS1, POS2): matches arcs whose two endpoints carry POS1 and POS2
  (in either head/dependent role); positive means the POS1 endpoint precedes
  the POS2 endpoint.

The admissible band is ``[r - theta, r + theta]`` clamped to [0, 1].  Arcs
headed by the artificial root are not counted by default because the root
has no surface position; ``root_counts_left`` restores the literal reading
in which position 0 is to the left of everything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterator, Sequence

import numpy as np

from .core import HALF, NONNEGATIVE, UNIT, Corpus, ParseTree, Sentence, _check_ranges, _read_each


@dataclass(frozen=True)
class Constraint:
    id: str
    kind: str  # "unary" | "binary"
    pos: str
    r: float = field(metadata={"range": UNIT})
    theta: float = field(metadata={"range": HALF})
    pos2: str | None = None

    def __post_init__(self) -> None:
        _check_ranges(self)
        if self.kind not in ("unary", "binary"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "binary":
            if not self.pos2:
                raise ValueError("binary constraint requires pos2")
            if self.pos2 == self.pos:
                raise ValueError("binary constraint requires two distinct POS tags")
        elif self.pos2 is not None:
            raise ValueError("unary constraint must not carry pos2")

    @property
    def lower(self) -> float:
        return max(0.0, self.r - self.theta)

    @property
    def upper(self) -> float:
        return min(1.0, self.r + self.theta)

    def violation(self, measured: float | None) -> float:
        """How far ``measured`` lies outside the band (<= 0 inside); 0 if undefined."""
        if measured is None:
            return 0.0
        return max(self.lower - measured, measured - self.upper)


def class_matrix(
    constraint: Constraint,
    sentence: Sentence,
    *,
    root_counts_left: bool = False,
) -> np.ndarray:
    """(n+1) x n int8 grid of arc classes, self positions 0.

    ``grid[head, dep - 1]`` is +1 if the arc head -> dep is positive, -1 if
    it is negative and 0 if the constraint does not match it (see the module
    docstring); binary classes are symmetric in the head/dependent roles.
    """
    return _arc_classes(constraint, np.asarray(sentence.upos), root_counts_left)


def _arc_classes(
    constraint: Constraint, upos: np.ndarray, root_counts_left: bool
) -> np.ndarray:
    """Class grids of tag arrays of shape ``(..., n)``: one ``class_matrix``
    grid per row of ``upos``, in an int8 array of shape ``(..., n+1, n)``."""
    n = upos.shape[-1]
    # +1 where the head precedes the dependent, -1 where it follows, 0 on
    # the self positions; the root (row 0) precedes every token.
    order = np.sign(np.arange(1, n + 1) - np.arange(n + 1)[:, None]).astype(np.int8)
    if constraint.kind == "unary":
        grid = order * (upos == constraint.pos)[..., None, :]
        if not root_counts_left:
            grid[..., 0, :] = 0
        return grid
    # Tag masks over the head positions; the root carries no tag.
    root = np.zeros(upos.shape[:-1] + (1,), dtype=bool)
    first = np.concatenate((root, upos == constraint.pos), axis=-1)
    second = np.concatenate((root, upos == constraint.pos2), axis=-1)
    # A POS head over a POS2 dependent is positive when the head precedes;
    # a POS2 head over a POS dependent when the dependent precedes.
    return order * (first[..., :, None] & second[..., None, 1:]) - order * (
        second[..., :, None] & first[..., None, 1:]
    )


def _grids(
    constraints: Sequence[Constraint], sentences: Sequence[Sentence], root_counts_left: bool
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Per sentence length, in order of first appearance: the ascending positions
    of its sentences and their ``(C, B, n+1, n)`` int8 class grids."""
    groups: dict[int, list[int]] = {}
    for k, sentence in enumerate(sentences):
        groups.setdefault(len(sentence), []).append(k)
    for n, index in groups.items():
        upos = np.array([sentences[k].upos for k in index])
        grids = [_arc_classes(c, upos, root_counts_left) for c in constraints]
        yield index, np.array(grids, dtype=np.int8).reshape(len(grids), len(index), n + 1, n)


def _ratio(plus: float, minus: float) -> float | None:
    """The fraction of positive arcs among matched arcs; None if none match."""
    return plus / (plus + minus) if plus + minus else None


def _tree_counts(
    constraint: Constraint,
    sentences: Sequence[Sentence],
    heads: Sequence[Sequence[int]],
    root_counts_left: bool,
) -> tuple[int, int]:
    """(positive, negative) arc counts over the trees ``heads`` of
    ``sentences``, from one stack of class grids per sentence length."""
    if len(heads) != len(sentences):
        raise ValueError("trees and corpus differ in length")
    for sentence, row in zip(sentences, heads):
        if len(row) != len(sentence):
            raise ValueError("tree and sentence lengths differ")
    plus = minus = 0
    for index, classes in _grids([constraint], sentences, root_counts_left):
        rows = np.array([heads[k] for k in index])
        picked = classes[0, np.arange(len(index))[:, None], rows, np.arange(rows.shape[1])]
        plus += int((picked == 1).sum())
        minus += int((picked == -1).sum())
    return plus, minus


def ratio(
    constraint: Constraint,
    corpus: Corpus,
    trees: Sequence[ParseTree],
    *,
    root_counts_left: bool = False,
) -> float | None:
    """Corpus-wide fraction of positive arcs among matched arcs, or None
    when the constraint matches no arc."""
    heads = [tree.heads for tree in trees]
    return _ratio(*_tree_counts(constraint, corpus.sentences, heads, root_counts_left))


def expected_ratio(
    constraint: Constraint,
    corpus: Corpus,
    probs: Sequence[np.ndarray],
    *,
    root_counts_left: bool = False,
) -> float | None:
    """Ratio with tree indicators replaced by arc marginal probabilities:
    ``probs[k][head, dep - 1]`` is the probability that the head of
    dependent ``dep`` of sentence ``k`` is ``head``."""
    if len(probs) != len(corpus):
        raise ValueError("distributions and corpus differ in length")
    plus = minus = 0.0
    for (sentence, _), p in zip(corpus, probs):
        p = np.asarray(p)
        n = len(sentence)
        if p.shape != (n + 1, n):
            raise ValueError(f"expected {n + 1} x {n} probabilities, got {p.shape}")
        classes = class_matrix(constraint, sentence, root_counts_left=root_counts_left)
        plus += float(p[classes == 1].sum())
        minus += float(p[classes == -1].sum())
    return _ratio(plus, minus)


def coverage(
    constraint: Constraint,
    corpus: Corpus,
    trees: Sequence[ParseTree],
    *,
    root_counts_left: bool = False,
) -> float:
    """Fraction of arcs the constraint matches among all arcs of the trees."""
    heads = [tree.heads for tree in trees]
    plus, minus = _tree_counts(constraint, corpus.sentences, heads, root_counts_left)
    total = sum(len(sentence) for sentence, _ in corpus)
    return (plus + minus) / total if total else 0.0


def _class_row(bound: float) -> np.ndarray:
    """Values of ``1[positive] - bound * 1[matched]`` on arcs of class 0, +1
    and -1 (the last), so a class grid indexes it directly.  Its corpus sum
    is nonpositive iff the ratio is at most ``bound``: LR weights the row of
    ``r``, PR's feature rows are those of the band's ends."""
    return np.array([0.0, 1.0 - bound, -bound])


def is_satisfied(constraint: Constraint, measured: float | None) -> bool:
    """True iff the measured ratio lies in the band; an undefined ratio is
    vacuously satisfied."""
    return constraint.violation(measured) <= 1e-12


def ratio_gap(
    constraints: Sequence[Constraint],
    source_ratios: Sequence[float],
    target_ratios: Sequence[float],
    coverages: Sequence[float],
) -> float:
    """Coverage-weighted mean absolute difference between two ratio vectors.

    Each coverage must be finite and nonnegative, not all zero, and each
    ratio finite; otherwise ``ValueError`` is raised."""
    if not (len(constraints) == len(source_ratios) == len(target_ratios) == len(coverages)):
        raise ValueError("ratio_gap inputs differ in length")
    weights = np.asarray(coverages, dtype=float)
    if not all(map(NONNEGATIVE.holds, weights)):
        raise ValueError("coverages must be nonnegative")
    ratios = np.asarray([source_ratios, target_ratios], dtype=float)
    if not np.isfinite(ratios).all():
        raise ValueError("ratios must be finite")
    total = weights.sum()
    if total == 0:
        raise ValueError("all coverages are zero")
    return float((weights * np.abs(ratios[0] - ratios[1])).sum() / total)


# ---------------------------------------------------------------------------
# Constraint files
# ---------------------------------------------------------------------------

def load_constraints(stream: IO[str]) -> list[Constraint]:
    """Read a JSON array of constraint objects."""
    data = json.load(stream)
    if not isinstance(data, list):
        raise ValueError("constraint file must contain a JSON array")
    return _read_each(Constraint, data, "constraint")


def save_constraints(constraints: Sequence[Constraint], stream: IO[str]) -> None:
    """Write constraints in the canonical form read by ``load_constraints``.

    The output is deterministic, so a load/save round trip is byte-stable.
    """
    payload = []
    for c in constraints:
        obj: dict[str, object] = {"id": c.id, "kind": c.kind, "pos": c.pos}
        if c.kind == "binary":
            obj["pos2"] = c.pos2
        obj["r"] = c.r
        obj["theta"] = c.theta
        payload.append(obj)
    json.dump(payload, stream, indent=2)
    stream.write("\n")
