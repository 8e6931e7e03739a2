"""Posterior reweighting of arc distributions under expectation constraints.

The model's per-dependent head distributions are projected (in KL) onto the
set of distributions whose expected constraint features are nonpositive.
The projection has the closed form ``q(arc) ~ p(arc) * exp(-lambda . phi(arc))``
with nonnegative duals ``lambda`` maximizing ``-log Z(lambda)``.  Under the
arc-independence assumption the log-partition function factorizes per
dependent:

    log Z(lambda) = sum_k sum_dep log sum_head p(head|dep) exp(-lambda . phi)

which sums over all head assignments, not only trees; the final MAP decode
restores the tree constraint.  ``-log Z`` is concave, so projected
(stochastic) gradient ascent finds the optimum; each constraint contributes
an upper and a lower feature row, the class row of the band's top and the
negated class row of its bottom (see ``_feature_rows``).

A feature row is a function of the arc class, so ``phi`` depends on an arc
only through its joint class across the constraints.  Grouping the heads of
a dependent by that class turns its sum over heads into a sum over the few
classes that occur: ``log Z`` and its gradient see a column only through
``p``'s mass on each joint class.  ``pack_columns`` computes those masses
once per solve, straight from the ``CorpusView`` buckets, for the columns
some feature row touches (``PackedColumns``).  ``lambda`` reweights a joint
class by one factor for every column, so every dual step is one pass in
linear space: the class weights ``exp(-lambda . phi)``, scaled so the
largest is 1, then two matrix-vector products with the ``(columns,
classes)`` masses, one for each column's normaliser and one for the class
totals of their inverses.  The trace takes that pass's corpus sums, and a
minibatch step the sums with the inverses of columns outside the batch's
sentences zeroed.  Where the weights span more than ``_LINEAR_SPAN`` nats
a normaliser could underflow, and the pass is taken in log space column by
column instead.  Trees are decoded from ``scores - lambda . phi``, which
has the same argmax as ``log q``: the view adds the ``(C, 3)`` offset
table of ``-lambda . phi``, each constraint's two weighted rows summed, to
the scores by class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constraints import Constraint, _class_row
from .core import Corpus
from .view import CorpusView, InferenceResult

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Widest spread of class offsets that ``PackedColumns.sums`` takes in linear
# space.  Some class holds at least 1/K of every column's mass, so each
# ``mass @ e`` is at least exp(-600) / K, far above the smallest normal float.
_LINEAR_SPAN = 600.0


@dataclass(frozen=True)
class PrParams:
    lr0: float = 1.0
    decay: float = 0.98
    max_iter: int = 100
    batch_size: int = 128
    grad_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must lie in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True, eq=False)
class PackedColumns:
    """The dependent columns that some feature row touches, as class masses.

    Packed column ``t`` is dependent ``column[t]`` (0-based) of sentence
    ``sentence[t]``, in corpus order.  An arc's joint class is its class
    under every constraint at once; the ``K`` joint classes that occur in
    the packed columns are numbered in the order of their keys
    ``sum_c (class_c mod 3) * 3**c``.  ``mass[t, k]`` is ``p``'s total mass
    on the heads of column ``t`` in joint class ``k`` (each row sums to 1),
    and ``phi[k, f]`` the value of feature row ``f`` on every arc of joint
    class ``k``.  Columns no row touches are left out: ``lambda`` does not
    reweight them, so their share of log Z is exactly ``log 1 = 0`` and of
    the gradient 0.

    Row ``2i`` is the upper-bound feature of constraint ``i`` and row
    ``2i + 1`` the lower-bound feature; ``labels`` names them.
    ``table[f]`` holds the value of row ``f`` on an arc of class 0, +1 and
    -1 (the last), so row ``f`` is ``table[f]`` indexed by the class grid
    of constraint ``f // 2``.

    ``sums`` is the one pass the dual makes per step.  It stays in linear
    space: ``lambda`` enters a column only through the ``K`` class offsets
    ``a = phi @ lambda``, so with ``e = exp(min(a) - a)`` column ``t``'s
    share of log Z is ``log (mass @ e)[t] - min(a)``, and the whole pass is
    two matrix-vector products with ``mass``.  When the offsets span more
    than ``_LINEAR_SPAN`` nats a column's ``mass @ e`` could underflow, and
    the pass falls back to ``columns``, the same values column by column in
    log space.
    """

    mass: np.ndarray
    phi: np.ndarray
    sentence: np.ndarray
    column: np.ndarray
    n_sentences: int
    labels: tuple[str, ...]
    table: np.ndarray

    def sums(
        self, lambdas: Sequence[float], batch: np.ndarray | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """log Z at ``lambdas``, the expected feature rows under ``q``
        summed over every packed column (the ascent direction of ``-log
        Z``), and the same sum over the columns where the boolean mask
        ``batch`` is true (over every column when ``batch`` is None)."""
        if not self.sentence.size:
            zeros = np.zeros(len(self.labels))
            return 0.0, zeros, zeros
        offsets = self.phi @ lambdas
        # Python's min and max beat numpy's reductions on so few values.
        values = offsets.tolist()
        low = min(values)
        if max(values) - low > _LINEAR_SPAN:
            columns = self.columns(lambdas)
            expected = columns[:, 1:].sum(axis=0)
            chosen = expected if batch is None else columns[batch, 1:].sum(axis=0)
            return float(columns[:, 0].sum()), expected, chosen
        weights = np.exp(low - offsets)
        z = self.mass @ weights
        inverse = 1.0 / z
        expected = (inverse @ self.mass * weights) @ self.phi
        if batch is None:
            chosen = expected
        else:
            chosen = (inverse * batch @ self.mass * weights) @ self.phi
        return float(np.log(z).sum() - z.size * low), expected, chosen

    def columns(self, lambdas: Sequence[float]) -> np.ndarray:
        """The log-sum-exp of every packed column at ``lambdas``: a
        ``(T, 1 + F)`` array whose column 0 is the column's share of log Z
        and whose others are its expected feature rows under ``q``, the
        negated gradient of that share."""
        if not self.sentence.size:
            return np.zeros((0, 1 + len(self.labels)))
        log_mass = np.full(self.mass.shape, -np.inf)
        np.log(self.mass, out=log_mass, where=self.mass > 0)
        logw = log_mass - self.phi @ lambdas
        top = logw.max(axis=1, keepdims=True)
        weights = np.exp(logw - top)
        mass = weights.sum(axis=1, keepdims=True)
        return np.hstack((top + np.log(mass), weights @ self.phi / mass))


def _feature_rows(constraints: Sequence[Constraint]) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels and ``(F, 3)`` value table of the feature rows (see
    PackedColumns); ``0.0 - row`` keeps the lower rows' class-0 entry +0.0."""
    labels = tuple(f"{c.id}:{side}" for c in constraints for side in ("upper", "lower"))
    rows = [row for c in constraints for row in (_class_row(c.upper), 0.0 - _class_row(c.lower))]
    return labels, np.array(rows).reshape(-1, 3)


def _offsets(table: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """The ``(C, 3)`` offset table of ``-lambda . phi``: each constraint's
    two feature rows, weighted and summed, negated."""
    return -(lambdas[:, None] * table).reshape(-1, 2, 3).sum(axis=1)


def _head_probs(scores: np.ndarray) -> np.ndarray:
    """Softmax of a ``(B, n+1, n)`` score stack over its head axis: each
    sentence's per-dependent head distributions, 0 on the self positions."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pack_columns(view: CorpusView) -> PackedColumns:
    """Pack the columns of ``view`` that some feature row touches into class
    masses (see PackedColumns), one length bucket at a time."""
    labels, table = _feature_rows(view.constraints)
    n_constraints = len(view.constraints)
    # Whether some row of constraint c is nonzero on an arc of class x.
    hot = table.reshape(n_constraints, 2, 3).any(axis=1)
    powers = 3 ** np.arange(n_constraints, dtype=np.int64)
    none = np.empty(0, dtype=int)
    # Each list starts with an empty block so that concatenation works when
    # nothing is touched.  probs, keys and rows hold one entry per head slot
    # of each packed column.
    sentence, column, rows = [none], [none], [none]
    probs, keys = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    packed = 0
    for bucket in view.buckets:
        size, slots, n = bucket.scores.shape
        touched = np.zeros((size, n), dtype=bool)
        key = np.zeros((size, slots, n), dtype=np.int64)
        for c, grid in enumerate(bucket.classes):
            touched |= hot[c].take(grid).any(axis=1)
            key += (grid % 3) * powers[c]
        b, j = np.nonzero(touched)
        if b.size == 0:
            continue
        probs.append(_head_probs(bucket.scores).transpose(0, 2, 1)[b, j].ravel())
        keys.append(key.transpose(0, 2, 1)[b, j].ravel())
        rows.append(np.repeat(np.arange(packed, packed + b.size), slots))
        sentence.append(np.asarray(bucket.index)[b])
        column.append(j)
        packed += b.size
    classes, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    width = len(classes)
    mass = np.bincount(
        np.concatenate(rows) * width + inverse, np.concatenate(probs), minlength=packed * width
    ).reshape(packed, width)
    features = np.arange(len(labels))
    digits = classes[:, None] // powers % 3  # (K, C): each constraint's class index
    # Buckets run by length; a stable sort by sentence restores corpus order
    # and keeps each sentence's columns ascending.
    order = np.argsort(np.concatenate(sentence), kind="stable")
    return PackedColumns(
        mass=mass[order],
        phi=table[features, digits[:, features // 2]],
        sentence=np.concatenate(sentence)[order],
        column=np.concatenate(column)[order],
        n_sentences=len(view.sentences),
        labels=labels,
        table=table,
    )


@dataclass(frozen=True)
class DualTraceRecord:
    """The full-corpus dual state after ``iteration`` steps: record 0 is
    the state before the first step, at ``lambda = 0``."""

    iteration: int
    grad_norm: float
    neg_log_z: float
    lambdas: tuple[float, ...]


def solve_dual(
    packed: PackedColumns, params: PrParams = PrParams()
) -> tuple[np.ndarray, list[DualTraceRecord]]:
    """Projected stochastic ascent on ``-log Z`` over the nonnegative orthant,
    by Adam steps (bias-corrected moment estimates) with a decaying rate.

    Batches are sampled without replacement per epoch and the batch gradient
    is rescaled to full-corpus magnitude.  The loop stops at the iteration
    cap or when the full-corpus gradient norm, restricted to coordinates not
    pinned at the boundary, falls below ``grad_tol``.  Each step makes one
    ``sums`` pass at the current ``lambda``.  Its corpus sums go to the
    trace record; the step follows them when the batch holds every
    sentence, and otherwise the sums over the columns of the batch's
    sentences.  The 2C multipliers and the optimizer state are Python
    floats: for so few values, a numpy call per operation would cost more
    than the arithmetic.
    """
    d = len(packed.labels)
    trace: list[DualTraceRecord] = []
    if d == 0:
        return np.zeros(0), trace

    size = packed.n_sentences
    batch = min(params.batch_size, size)
    scale = size / batch
    if batch < size:
        rng = np.random.default_rng(params.seed)
        order = rng.permutation(size)
        cursor = 0
    lambdas = [0.0] * d
    moment1 = [0.0] * d
    moment2 = [0.0] * d

    def record(iteration: int, in_batch: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """Trace the full-corpus state at ``lambdas``; return the projected
        gradient norm and the ascent direction summed over the columns of
        ``in_batch`` (a mask over the packed columns; None: all of them)."""
        log_z, ascent, direction = packed.sums(lambdas, in_batch)
        norm = math.hypot(
            *(a if lam > 0 else max(a, 0.0) for lam, a in zip(lambdas, ascent.tolist()))
        )
        trace.append(
            DualTraceRecord(
                iteration=iteration,
                grad_norm=norm,
                neg_log_z=-log_z,
                lambdas=tuple(lambdas),
            )
        )
        return norm, direction

    for iteration in range(params.max_iter):
        in_batch = None
        if batch < size:
            if cursor + batch > size:
                order = rng.permutation(size)
                cursor = 0
            chosen = np.zeros(size, dtype=bool)
            chosen[order[cursor:cursor + batch]] = True
            in_batch = chosen[packed.sentence]
            cursor += batch
        norm, direction = record(iteration, in_batch)
        if norm < params.grad_tol:
            return np.array(lambdas), trace
        rate = params.lr0 * params.decay**iteration
        bias1 = 1 - _ADAM_BETA1 ** (iteration + 1)
        bias2 = 1 - _ADAM_BETA2 ** (iteration + 1)
        for i, g in enumerate((direction * scale).tolist()):
            moment1[i] = _ADAM_BETA1 * moment1[i] + (1 - _ADAM_BETA1) * g
            moment2[i] = _ADAM_BETA2 * moment2[i] + (1 - _ADAM_BETA2) * (g * g)
            step = rate * (moment1[i] / bias1) / (math.sqrt(moment2[i] / bias2) + _ADAM_EPS)
            lambdas[i] = max(lambdas[i] + step, 0.0)

    record(params.max_iter)
    return np.array(lambdas), trace


def posterior_arc_probs(view: CorpusView, lambdas: np.ndarray) -> list[np.ndarray]:
    """The reweighted head distributions ``q ~ p * exp(-lambda . phi)`` of
    every sentence, in corpus order, as ``(n+1, n)`` arrays indexed like the
    scores: the per-dependent softmax of ``scores - lambda . phi``, since
    ``p`` is the softmax of the scores."""
    _, table = _feature_rows(view.constraints)
    probs: list[np.ndarray] = [None] * len(view.sentences)  # type: ignore[list-item]
    for bucket, scores in zip(view.buckets, view.shifted(_offsets(table, lambdas))):
        for k, q in zip(bucket.index, _head_probs(scores)):
            probs[k] = q
    return probs


def pr_decode(
    view: CorpusView,
    params: PrParams = PrParams(),
    *,
    projective: bool = False,
    single_root: bool = False,
) -> InferenceResult:
    """Full pipeline on ``view``: pack the touched columns, solve the dual,
    decode.

    Trees are decoded from ``scores - lambda . phi``.  That differs from
    ``log q`` by a constant per dependent column, which shifts every tree's
    score equally, so the argmax is the MAP tree of the reweighted
    distributions; the scores stay finite where ``q`` underflows.
    """
    packed = pack_columns(view)
    lambdas, trace = solve_dual(packed, params)
    offsets = _offsets(packed.table, lambdas)
    heads = view.decode(offsets, projective=projective, single_root=single_root)
    # The trace is empty only without feature rows: nothing to solve.
    converged = not trace or trace[-1].grad_norm < params.grad_tol
    return InferenceResult(view.trees(heads), lambdas, packed.labels, trace, converged)


def pr_infer(
    corpus: Corpus,
    constraints: Sequence[Constraint],
    params: PrParams = PrParams(),
    *,
    projective: bool = False,
    single_root: bool = False,
    root_counts_left: bool = False,
) -> InferenceResult:
    """``pr_decode`` on a view of ``corpus``."""
    view = CorpusView.of(corpus, constraints, root_counts_left)
    return pr_decode(view, params, projective=projective, single_root=single_root)

