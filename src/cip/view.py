"""The corpus stacked by sentence length, shared by LR, PR and the report.

LR and PR decode the same way: each constraint gives every arc a +1/-1/0
class, the arc's score gains the entries that its classes pick from a
``(C, 3)`` offset table, one row per constraint, and an ordinary decoder
runs on the sum.  ``CorpusView`` groups the sentences by length once per
job and holds the job's decode rule, so LR and PR hand it offsets only.
Each bucket stacks its scores into a ``(B, n+1, n)`` array and its class
grids into a ``(C, B, n+1, n)`` int8 array, so the table lookup, the
finite check and the gather of the decoded arcs take a few array steps per
bucket, and each decoder takes the whole stack (see ``decoder``).
Per-sentence sums are added in corpus order, so totals are the same as a
sentence-by-sentence loop gives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .constraints import Constraint, _grids, _ratio
from .core import Corpus, ParseTree, Sentence
from .decoder import _bucket_mst_heads, _bucket_projective_heads


@dataclass(frozen=True)
class InferenceResult:
    """Trees decoded under the final multipliers, with the per-iteration
    trace: ``IterationRecord``s for LR, ``DualTraceRecord``s for PR.
    ``labels`` names the entries of ``lambdas``."""

    trees: list[ParseTree]
    lambdas: np.ndarray
    labels: tuple[str, ...]
    trace: list
    converged: bool


def write_trace(result: InferenceResult, stream: IO[str]) -> None:
    """One JSON line per record of ``result.trace``: its dataclass fields in
    order, with ``lambdas`` (and LR's ``ratios``) keyed by ``result.labels``.
    orjson writes non-finite floats as ``null``, so each line is RFC 8259."""
    if len(set(result.labels)) < len(result.labels):
        raise ValueError(f"trace labels are not distinct: {', '.join(result.labels)}")
    for record in result.trace:
        row = asdict(record)
        for key in ("lambdas", "ratios"):
            if key in row:
                row[key] = dict(zip(result.labels, row[key]))
        stream.write(orjson.dumps(row, option=orjson.OPT_APPEND_NEWLINE).decode())


@dataclass(frozen=True, eq=False)
class _Bucket:
    """The corpus sentences of one length n, stacked in corpus order.

    ``index`` holds their corpus positions, ``scores`` is ``(B, n+1, n)``
    and ``classes`` is ``(C, B, n+1, n)``: constraint first.
    """

    index: list[int]
    scores: np.ndarray
    classes: np.ndarray


@dataclass(frozen=True, eq=False)
class CorpusView:
    """A corpus with its scores and class grids stacked per sentence length,
    decoded by one rule: Eisner when ``projective``, else Chu-Liu/Edmonds,
    each restricted to one root child when ``single_root``.

    The view keeps the sentences and the stacked scores, not the corpus, so
    the scores are held once when the caller drops the corpus.  Heads travel
    as one ``(B, n)`` array per bucket.
    """

    sentences: tuple[Sentence, ...]
    constraints: tuple[Constraint, ...]
    buckets: tuple[_Bucket, ...]
    projective: bool = False
    single_root: bool = False

    @classmethod
    def of(
        cls, corpus: Corpus, constraints: Sequence[Constraint], root_counts_left: bool = False,
        *, projective: bool = False, single_root: bool = False,
    ) -> CorpusView:
        if len(corpus) == 0:
            raise ValueError("corpus is empty")
        buckets = [
            _Bucket(index, np.stack([corpus[k][1].scores for k in index]), classes)
            for index, classes in _grids(constraints, corpus.sentences, root_counts_left)
        ]
        return cls(corpus.sentences, tuple(constraints), tuple(buckets), projective, single_root)

    def decode(self, offsets: np.ndarray | None = None) -> list[np.ndarray]:
        """Heads of every bucket, decoded from ``shifted(offsets)``.  With no
        offsets, or all-zero ones, that is the bucket scores (``x + 0.0 ==
        x``, -inf included): those are decoded once, and later such calls
        return the same arrays, which callers must not modify.  Raises
        ``ValueError`` for a non-finite score at a non-self position, as
        ``ScoreMatrix`` does, and when the decoder's sums would overflow."""
        if offsets is None or not offsets.any():
            return self._plain
        # An augmented score that overflows fails the finite check.
        with np.errstate(over="ignore"):
            return self._heads(self.shifted(offsets))

    @cached_property
    def _plain(self) -> list[np.ndarray]:
        return self._heads(b.scores for b in self.buckets)

    def _heads(self, stacks: Iterable[np.ndarray]) -> list[np.ndarray]:
        decode = _bucket_projective_heads if self.projective else _bucket_mst_heads
        heads = []
        for x in stacks:
            # The n self positions of each sentence are -inf or NaN, so
            # every other entry is finite iff B * n * n entries are.
            size, _, n = x.shape
            if np.count_nonzero(np.isfinite(x)) != size * n * n:
                raise ValueError("non-finite score at a non-self position")
            heads.append(decode(x, self.single_root))
        return heads

    def shifted(self, offsets: np.ndarray) -> Iterator[np.ndarray]:
        """Each bucket's scores plus ``_lookup(offsets, classes)``: every arc
        gains the offset of its class under each constraint."""
        for bucket in self.buckets:
            yield bucket.scores + _lookup(offsets, bucket.classes)

    def gather(
        self, heads: Sequence[np.ndarray], offsets: np.ndarray | None = None
    ) -> tuple[float, float, list[float | None]]:
        """What ``heads`` pick: the picked scores and the picked scores plus
        ``_lookup(offsets, classes)``, each summed sentence by sentence in
        corpus order (the lookup is elementwise, so no shifted array need
        be kept), and per constraint the fraction of +1 arcs among its
        picked matched arcs (None when it matches none)."""
        sums = np.zeros((2, len(self.sentences)))
        counts = np.zeros((2, len(self.constraints)))  # +1 arcs, -1 arcs
        for bucket, rows in zip(self.buckets, heads):
            arcs = (np.arange(len(rows))[:, None], rows, np.arange(rows.shape[1]))
            picked = bucket.classes[(slice(None), *arcs)]
            scores = bucket.scores[arcs]
            sums[0, bucket.index] = scores.sum(axis=1)
            sums[1, bucket.index] = (scores + _lookup(offsets, picked)).sum(axis=1)
            counts += [(picked == 1).sum(axis=(1, 2)), (picked == -1).sum(axis=(1, 2))]
        totals = [0.0, 0.0]
        for i, row in enumerate(sums):
            for value in row.tolist():
                totals[i] += value
        ratios = [_ratio(p, m) for p, m in zip(*counts.tolist())]
        return totals[0], totals[1], ratios

    def trees(self, heads: Sequence[np.ndarray]) -> list[ParseTree]:
        """The trees of ``heads``, in corpus order."""
        order = [k for bucket in self.buckets for k in bucket.index]
        rows = [row for block in heads for row in block.tolist()]
        return [ParseTree(tuple(row)) for _, row in sorted(zip(order, rows))]

    def stack(self, trees: Sequence[ParseTree]) -> list[np.ndarray]:
        """Corpus-order ``trees`` as heads."""
        return [np.array([trees[k].heads for k in b.index]) for b in self.buckets]


def _lookup(offsets: np.ndarray | None, grids: Sequence[np.ndarray]) -> np.ndarray | float:
    """``0.0 + sum(row[grid])`` over the rows of ``offsets`` and the grids
    of their constraints, in order; 0.0 when there are none.

    ``offsets`` is a ``(C, 3)`` table: row c holds the offset of an arc of
    class 0, +1 and -1 (the last) under constraint c, so grid c indexes it
    directly.  A grid may stack the class grids of any number of sentences
    of one length.
    """
    total: np.ndarray | float = 0.0
    for row, grid in zip(() if offsets is None else offsets, grids):
        total = total + row.take(grid)
    return total
