"""Compiling constraints from word-order typology data.

Typology tables map language codes to categorical feature values (the seven
noun-related order features 82A, 83A, 85A, 86A, 87A, 88A, 89A are the usual
subset).  Binary constraints come straight from a feature's dominant-order
value; unary ratios are predicted by ordinary least squares over one-hot
encoded feature vectors of other languages whose ratios were estimated from
small annotated samples.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .constraints import Constraint, _ratio, _tree_counts
from .core import Sentence

logger = logging.getLogger(__name__)

NOUN_ORDER_FEATURES = ("82A", "83A", "85A", "86A", "87A", "88A", "89A")

MISSING = "<missing>"

DOMINANT_RATIO = 0.875
DOMINANT_THETA = 0.125
NO_DOMINANT_RATIO = 0.5
NO_DOMINANT_THETA = 0.25


class Orientation(Enum):
    POS1_FIRST = "pos1_first"
    POS2_FIRST = "pos2_first"
    NO_DOMINANT = "no_dominant"


@dataclass(frozen=True)
class TypologyTable:
    """language code -> feature code -> categorical value."""

    rows: Mapping[str, Mapping[str, str]]

    @classmethod
    def from_csv(cls, stream: IO[str] | Iterable[str]) -> "TypologyTable":
        """Read a ``lang,feature,value`` CSV (header required)."""
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["lang", "feature", "value"]:
            raise ValueError("typology CSV must start with header 'lang,feature,value'")
        rows: dict[str, dict[str, str]] = {}
        for record in reader:
            if not record or not any(field.strip() for field in record):
                continue
            if len(record) < 3:
                got = f"got {len(record)} fields"
                raise ValueError(f"line {reader.line_num}: expected lang,feature,value, {got}")
            lang, feature, value = (field.strip() for field in record[:3])
            rows.setdefault(lang, {})[feature] = value
        return cls(rows={lang: dict(feats) for lang, feats in rows.items()})

    def value(self, lang: str, feature: str) -> str | None:
        return self.rows.get(lang, {}).get(feature)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.rows))


def compile_binary(
    feature_value: str | None,
    value_orientations: Mapping[str, Orientation | str],
) -> tuple[float, float]:
    """(r, theta) for a binary constraint given a feature value.

    A dominant POS1-first order yields (0.875, 0.125), the reverse order the
    complement (0.125, 0.125), and no dominant order or a missing feature
    (0.5, 0.25).
    """
    if feature_value is None:
        return NO_DOMINANT_RATIO, NO_DOMINANT_THETA
    try:
        orientation = value_orientations[feature_value]
    except KeyError:
        raise ValueError(
            f"no orientation configured for feature value {feature_value!r}"
        ) from None
    orientation = Orientation(orientation)
    if orientation is Orientation.POS1_FIRST:
        return DOMINANT_RATIO, DOMINANT_THETA
    if orientation is Orientation.POS2_FIRST:
        return 1.0 - DOMINANT_RATIO, DOMINANT_THETA
    return NO_DOMINANT_RATIO, NO_DOMINANT_THETA


def build_feature_vocab(
    table: TypologyTable, features: Sequence[str] = NOUN_ORDER_FEATURES
) -> tuple[tuple[str, str], ...]:
    """(feature, value) levels for one-hot encoding, with an explicit
    missing level per feature."""
    vocab: list[tuple[str, str]] = []
    for feature in features:
        values = sorted(
            {feats[feature] for feats in table.rows.values() if feature in feats}
        )
        for value in values:
            vocab.append((feature, value))
        vocab.append((feature, MISSING))
    return tuple(vocab)


def feature_vector(
    table: TypologyTable, lang: str, vocab: Sequence[tuple[str, str]]
) -> np.ndarray:
    """One-hot encoding of a language's feature values over ``vocab``."""
    vector = np.zeros(len(vocab))
    features = {feature for feature, _ in vocab}
    for feature in features:
        value = table.value(lang, feature)
        key = (feature, value if value is not None else MISSING)
        if key not in vocab:
            key = (feature, MISSING)
        vector[vocab.index(key)] = 1.0
    return vector


def fit_unary_ratio(
    train: Sequence[tuple[np.ndarray, float]], target: np.ndarray
) -> float:
    """Least-squares prediction of a unary ratio, clamped to [0, 1].

    The caller enforces the leave-one-out protocol (the target language must
    not appear in ``train``).  A degenerate design matrix falls back to the
    mean training ratio.
    """
    if len(train) < 2:
        raise ValueError("need at least 2 training languages")
    design = np.asarray([vec for vec, _ in train], dtype=float)
    targets = np.asarray([r for _, r in train], dtype=float)
    fallback = False
    if np.linalg.matrix_rank(design) == 0:
        fallback = True
    else:
        coef, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
        if not np.all(np.isfinite(coef)):
            fallback = True
    if fallback:
        logger.warning("degenerate design matrix; falling back to mean training ratio")
        prediction = float(targets.mean())
    else:
        prediction = float(np.asarray(target, dtype=float) @ coef)
    return min(1.0, max(0.0, prediction))


def sample_sentences(
    sentences: Sequence[Sentence], sample_size: int | None = None, seed: int = 0
) -> list[Sentence]:
    """A uniform without-replacement sample of ``sample_size`` sentences
    (seeded), in corpus order; every sentence when ``sample_size`` is None."""
    if sample_size is None:
        return list(sentences)
    if sample_size > len(sentences):
        raise ValueError("sample_size exceeds corpus size")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(sentences), size=sample_size, replace=False)
    return [sentences[int(i)] for i in sorted(picked)]


def estimate_ratio(
    sentences: Sequence[Sentence],
    constraint: Constraint,
    sample_size: int | None = None,
    seed: int = 0,
    *,
    root_counts_left: bool = False,
) -> tuple[float | None, int]:
    """Ratio of positive arcs in gold trees, with the matched-arc count.

    ``sample_size`` restricts the estimate to a uniform without-replacement
    sample of sentences (seeded).  Returns (None, 0) when no arc matches.
    """
    chosen = sample_sentences(sentences, sample_size, seed)
    for sentence in chosen:
        if sentence.gold_heads is None:
            raise ValueError(f"sentence {sentence.sent_id!r} has no gold heads")
    heads = [sentence.gold_heads for sentence in chosen]
    plus, minus = _tree_counts(constraint, chosen, heads, root_counts_left)
    return _ratio(plus, minus), plus + minus
