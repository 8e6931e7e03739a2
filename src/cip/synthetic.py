"""Deterministic synthetic corpora with planted word-order statistics.

Gold trees are sampled first (projective by default); POS tags are then
assigned so that each planted constraint's gold ratio hits its target: the
planted POS is placed on left-headed vs right-headed tokens (unary) or on
arc endpoints in the chosen order (binary) in the exact proportion.  Scores
separate the gold arc by ``margin`` plus Gaussian noise; optional
order-flipping corruption boosts a head candidate on the opposite side of
each matched arc, biasing the baseline decode against the planted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .constraints import Constraint, class_matrix, ratio
from .core import (
    AT_LEAST_1, FINITE, NONNEGATIVE, POSITIVE, UNIT, Corpus, ParseTree, ScoreMatrix, Sentence,
    _array, _check_ranges, _number, _object, _read, _read_each,
)


def _pos_weights(value: Any) -> tuple[tuple[str, float], ...]:
    return tuple((pos, _number(weight)) for pos, weight in _object(value).items())


def _planted(value: Any) -> tuple[Constraint, ...]:
    """Planted constraints; an absent ``theta`` is 0."""
    return tuple(_read_each(Constraint, _array(value), "constraint", theta=0.0))


@dataclass(frozen=True)
class SyntheticSpec:
    n_sentences: int = field(metadata={"range": AT_LEAST_1})
    min_len: int
    max_len: int = field(metadata={"range": AT_LEAST_1})
    pos_weights: tuple[tuple[str, float], ...] = field(metadata={"convert": _pos_weights})
    planted: tuple[Constraint, ...] = field(default=(), metadata={"convert": _planted})
    sigma: float = field(default=0.0, metadata={"range": NONNEGATIVE})
    margin: float = field(default=1.0, metadata={"range": POSITIVE})
    flip_prob: float = field(default=0.0, metadata={"range": UNIT})
    flip_boost: float = field(default=0.5, metadata={"range": FINITE})
    allow_nonprojective: bool = False
    seed: int = field(default=0, metadata={"range": NONNEGATIVE})

    def __post_init__(self) -> None:
        _check_ranges(self)
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        seen = set()
        for pos, weight in self.pos_weights:
            POSITIVE.check(f"POS weight for {pos!r}", weight)
            if pos in seen:
                raise ValueError(f"duplicate POS {pos!r} in inventory")
            seen.add(pos)
        for constraint in self.planted:
            if constraint.pos not in seen:
                raise ValueError(f"planted POS {constraint.pos!r} not in inventory")
            if constraint.kind == "binary" and constraint.pos2 not in seen:
                raise ValueError(f"planted POS {constraint.pos2!r} not in inventory")

    @classmethod
    def from_dict(cls, obj: Any) -> "SyntheticSpec":
        """The spec of a JSON object; a malformed one raises ``ValueError``."""
        return _read(cls, obj, "spec")


def _random_projective_heads(length: int, rng: np.random.Generator) -> list[int]:
    heads = [0] * length

    def fill(lo: int, hi: int, head: int) -> None:
        if lo > hi:
            return
        m = int(rng.integers(lo, hi + 1))
        heads[m - 1] = head
        fill(lo, m - 1, m)
        fill(m + 1, hi, m)

    root_child = int(rng.integers(1, length + 1))
    heads[root_child - 1] = 0
    fill(1, root_child - 1, root_child)
    fill(root_child + 1, length, root_child)
    return heads


def _random_tree_heads(length: int, rng: np.random.Generator) -> list[int]:
    heads = [0] * length
    connected = [0]
    for pos in rng.permutation(length) + 1:
        heads[int(pos) - 1] = connected[int(rng.integers(0, len(connected)))]
        connected.append(int(pos))
    return heads


def _plant_unary(
    constraint: Constraint,
    count: int,
    slots: dict[tuple[int, int], str],
    tags: list[list[str | None]],
    rng: np.random.Generator,
) -> None:
    n_plus = round(constraint.r * count)
    n_minus = count - n_plus
    left = [key for key, side in slots.items() if side == "L" and tags[key[0]][key[1] - 1] is None]
    right = [key for key, side in slots.items() if side == "R" and tags[key[0]][key[1] - 1] is None]
    if len(left) < n_plus or len(right) < n_minus:
        raise ValueError(
            f"planted ratio {constraint.r} for {constraint.id} is infeasible: "
            f"need {n_plus} left-headed and {n_minus} right-headed tokens, "
            f"have {len(left)} and {len(right)}"
        )
    for pool, take in ((left, n_plus), (right, n_minus)):
        chosen = rng.choice(len(pool), size=take, replace=False) if take else []
        for i in chosen:
            k, j = pool[int(i)]
            tags[k][j - 1] = constraint.pos


def _plant_binary(
    constraint: Constraint,
    count: int,
    arcs: list[tuple[int, int, int]],
    tags: list[list[str | None]],
    rng: np.random.Generator,
) -> None:
    n_plus = round(constraint.r * count)
    neighbours: dict[tuple[int, int], list[int]] = {}
    for k, head, dep in arcs:
        neighbours.setdefault((k, head), []).append(dep)
        neighbours.setdefault((k, dep), []).append(head)
    partner = {constraint.pos: constraint.pos2, constraint.pos2: constraint.pos}

    def joins_another(k: int, token: int, pos: str, other: int) -> bool:
        # Tagging ``token`` with ``pos`` would make a second gold arc match.
        return any(
            tags[k][x - 1] == partner[pos] for x in neighbours[(k, token)] if x != other
        )

    order = rng.permutation(len(arcs))
    placed_plus = placed_minus = 0
    for i in order:
        if placed_plus + placed_minus == count:
            break
        k, head, dep = arcs[int(i)]
        if tags[k][head - 1] is not None or tags[k][dep - 1] is not None:
            continue
        left, right = min(head, dep), max(head, dep)
        plus = placed_plus < n_plus
        first, second = (
            (constraint.pos, constraint.pos2) if plus else (constraint.pos2, constraint.pos)
        )
        if joins_another(k, left, first, right) or joins_another(k, right, second, left):
            continue
        tags[k][left - 1] = first
        tags[k][right - 1] = second
        if plus:
            placed_plus += 1
        else:
            placed_minus += 1
    if placed_plus + placed_minus < count:
        raise ValueError(
            f"planted ratio {constraint.r} for {constraint.id} is infeasible: "
            f"only {placed_plus + placed_minus} of {count} arcs available"
        )


def generate_synthetic(spec: SyntheticSpec) -> tuple[Corpus, dict[str, float | None]]:
    """Build a corpus with planted gold trees; returns it with the measured
    gold ratio of every planted constraint."""
    rng = np.random.default_rng(spec.seed)
    lengths = [int(v) for v in rng.integers(spec.min_len, spec.max_len + 1, spec.n_sentences)]
    make_tree = _random_tree_heads if spec.allow_nonprojective else _random_projective_heads
    all_heads = [make_tree(length, rng) for length in lengths]

    total_tokens = sum(lengths)
    tags: list[list[str | None]] = [[None] * length for length in lengths]
    slots: dict[tuple[int, int], str] = {}
    gold_arcs: list[tuple[int, int, int]] = []
    for k, heads in enumerate(all_heads):
        for dep, head in enumerate(heads, start=1):
            if head == 0:
                slots[(k, dep)] = "root"
            else:
                slots[(k, dep)] = "L" if head < dep else "R"
                gold_arcs.append((k, head, dep))

    weights = dict(spec.pos_weights)
    for constraint in spec.planted:
        # A share above 1 asks for more tokens than there are, which is
        # infeasible either way; capping it keeps the count finite.
        if constraint.kind == "unary":
            count = round(min(weights[constraint.pos], 1.0) * total_tokens)
            _plant_unary(constraint, count, slots, tags, rng)
        else:
            share = min(weights[constraint.pos], weights[constraint.pos2 or ""], 1.0)
            _plant_binary(constraint, round(share * total_tokens), gold_arcs, tags, rng)

    planted_pos = {c.pos for c in spec.planted} | {
        c.pos2 for c in spec.planted if c.pos2 is not None
    }
    filler = [(pos, w) for pos, w in spec.pos_weights if pos not in planted_pos]
    untagged = [
        (k, j) for k, row in enumerate(tags) for j in range(1, len(row) + 1)
        if row[j - 1] is None
    ]
    if untagged and not filler:
        raise ValueError("no POS left for filler tokens; extend the inventory")
    if untagged:
        names = [pos for pos, _ in filler]
        probs = np.asarray([w for _, w in filler], dtype=float)
        with np.errstate(over="ignore"):
            total = probs.sum()
        if not np.isfinite(total):
            raise ValueError("filler POS weights sum past the largest float")
        draws = rng.choice(len(names), size=len(untagged), p=probs / total)
        for (k, j), pick in zip(untagged, draws):
            tags[k][j - 1] = names[int(pick)]

    sentences = []
    for k, (length, heads) in enumerate(zip(lengths, all_heads)):
        upos = tuple(tags[k][j] or "X" for j in range(length))
        forms = tuple(f"{pos.lower()}{j + 1}" for j, pos in enumerate(upos))
        sentences.append(
            Sentence(
                forms=forms,
                upos=upos,
                sent_id=f"synth-{k}",
                gold_heads=tuple(heads),
                gold_labels=("dep",) * length,
            )
        )

    matrices = []
    for k, (sentence, heads) in enumerate(zip(sentences, all_heads)):
        length = len(sentence)
        scores = (
            rng.normal(0.0, spec.sigma, size=(length + 1, length))
            if spec.sigma > 0
            else np.zeros((length + 1, length))
        )
        for dep, head in enumerate(heads, start=1):
            scores[head, dep - 1] += spec.margin
        for constraint in spec.planted:
            if spec.flip_prob == 0.0:
                continue
            classes = class_matrix(constraint, sentence)
            for dep, head in enumerate(heads, start=1):
                if head == 0:
                    continue
                if classes[head, dep - 1] == 0 or rng.random() >= spec.flip_prob:
                    continue
                # Mirror the gold head across the dependent, clipped to the
                # sentence; for a binary constraint the class does not say
                # which side the head is on, so the side is read off the arc.
                if head < dep:
                    if dep == length:
                        continue
                    competitor = min(2 * dep - head, length)
                else:
                    if dep == 1:
                        continue
                    competitor = max(2 * dep - head, 1)
                scores[competitor, dep - 1] += spec.margin + spec.flip_boost
        matrices.append(ScoreMatrix(scores, sent_id=sentence.sent_id))

    corpus = Corpus(tuple(zip(sentences, matrices)))
    gold_trees = [ParseTree(tuple(heads)) for heads in all_heads]
    true_ratios = {
        constraint.id: ratio(constraint, corpus, gold_trees)
        for constraint in spec.planted
    }
    return corpus, true_ratios
