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
from dataclasses import dataclass
from enum import Enum
from typing import IO, Any, Sequence

import numpy as np

from .core import Corpus, ParseTree, Sentence, _field


class Direction(Enum):
    """Which side of the ratio band a feature row encodes."""

    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class Constraint:
    id: str
    kind: str  # "unary" | "binary"
    pos: str
    r: float
    theta: float
    pos2: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("unary", "binary"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "binary":
            if not self.pos2:
                raise ValueError("binary constraint requires pos2")
            if self.pos2 == self.pos:
                raise ValueError("binary constraint requires two distinct POS tags")
        elif self.pos2 is not None:
            raise ValueError("unary constraint must not carry pos2")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"ratio r={self.r} outside [0, 1]")
        if not 0.0 <= self.theta <= 0.5:
            raise ValueError(f"margin theta={self.theta} outside [0, 0.5]")

    @property
    def lower(self) -> float:
        return max(0.0, self.r - self.theta)

    @property
    def upper(self) -> float:
        return min(1.0, self.r + self.theta)


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


def _by_length(lengths: Sequence[int]) -> dict[int, list[int]]:
    """Positions grouped by length, each group in ascending order."""
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(lengths):
        groups.setdefault(n, []).append(k)
    return groups


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
    for n, index in _by_length([len(row) for row in heads]).items():
        upos = np.array([sentences[k].upos for k in index])
        grids = _arc_classes(constraint, upos, root_counts_left)
        rows = np.array([heads[k] for k in index])
        picked = grids[np.arange(len(index))[:, None], rows, np.arange(n)]
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
    plus, minus = _tree_counts(constraint, corpus.sentences, heads, root_counts_left)
    if plus + minus == 0:
        return None
    return plus / (plus + minus)


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
    if plus + minus == 0.0:
        return None
    return plus / (plus + minus)


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


def _phi_table(constraint: Constraint, direction: Direction) -> np.ndarray:
    """Values of one feature row on arcs of class 0, +1 and -1 (the last),
    so a class grid indexes it directly.  The UPPER row is (0, 1 - r_eff,
    -r_eff) with ``r_eff = min(1, r + theta)``; the LOWER row flips the
    signs, with ``r_eff = max(0, r - theta)``.  A nonpositive expectation of
    the row means that its bound holds."""
    if direction is Direction.UPPER:
        eff = constraint.upper
        return np.array([0.0, 1.0 - eff, -eff])
    eff = constraint.lower
    return np.array([0.0, -(1.0 - eff), eff])


def is_satisfied(constraint: Constraint, measured: float | None) -> bool:
    """True iff the measured ratio lies in the band; an undefined ratio is
    vacuously satisfied."""
    if measured is None:
        return True
    return constraint.lower - 1e-12 <= measured <= constraint.upper + 1e-12


def ratio_gap(
    constraints: Sequence[Constraint],
    source_ratios: Sequence[float],
    target_ratios: Sequence[float],
    coverages: Sequence[float],
) -> float:
    """Coverage-weighted mean absolute difference between two ratio vectors."""
    if not (len(constraints) == len(source_ratios) == len(target_ratios) == len(coverages)):
        raise ValueError("ratio_gap inputs differ in length")
    weights = np.asarray(coverages, dtype=float)
    if np.any(weights < 0):
        raise ValueError("coverages must be nonnegative")
    total = weights.sum()
    if total == 0:
        raise ValueError("all coverages are zero")
    diffs = np.abs(np.asarray(source_ratios, dtype=float) - np.asarray(target_ratios, dtype=float))
    return float((weights * diffs).sum() / total)


# ---------------------------------------------------------------------------
# Constraint files
# ---------------------------------------------------------------------------

def read_constraint(obj: Any, where: str, **defaults: Any) -> Constraint:
    """The constraint of one JSON object, with ``defaults`` for its absent
    keys.  A malformed object raises ``ValueError`` naming ``where``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {obj!r}")
    obj = {**defaults, **obj}
    fields = [("id", str), ("kind", str), ("pos", str), ("r", float), ("theta", float)]
    values = {key: _field(obj, key, convert, where) for key, convert in fields}
    pos2 = obj.get("pos2")
    try:
        return Constraint(**values, pos2=None if pos2 is None else str(pos2))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_constraints(stream: IO[str]) -> list[Constraint]:
    """Read a JSON array of constraint objects."""
    data = json.load(stream)
    if not isinstance(data, list):
        raise ValueError("constraint file must contain a JSON array")
    return [read_constraint(obj, f"constraint {k}") for k, obj in enumerate(data)]


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
