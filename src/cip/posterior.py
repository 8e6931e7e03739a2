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
an upper and a lower feature row (margins folded into effective ratios).

A feature row is a function of the arc class, so ``phi`` is a lookup in a
three-entry table per row, indexed by the constraint's class grid in the
``CorpusView`` buckets.  The dual works in log space on the columns some
feature row touches, packed once per solve straight from the buckets into
padded arrays (``PackedColumns``): one vectorized pass per step gives every
sentence's log Z and gradient.  Trees are decoded from
``scores - lambda . phi``, which has the same argmax as ``log q``, with the
same table lookups on the buckets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .constraints import Constraint, Direction, _phi_table
from .core import ArcDistribution, Corpus
from .view import CorpusView, InferenceResult, _lookup

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PrParams:
    lr0: float = 1.0
    decay: float = 0.98
    max_iter: int = 100
    batch_size: int = 128
    optimizer: str = "adaptive_moments"  # or "plain_sgd"
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
        if self.optimizer not in ("adaptive_moments", "plain_sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True, eq=False)
class PackedColumns:
    """The dependent columns that some feature row touches, packed once.

    Packed column ``t`` is dependent ``column[t]`` (0-based) of sentence
    ``sentence[t]``, in corpus order.  ``log_p[t]`` holds its
    ``log p(head | dep)`` over ``n_max + 1`` head slots, padded with
    ``-inf``, and ``phi[f, t]`` the values of feature row ``f`` on the same
    slots, 0 on padding.  Columns no row touches are left out: ``lambda``
    does not reweight them, so their share of log Z is exactly
    ``log 1 = 0`` and of the gradient 0.

    Row ``2i`` is the upper-bound feature of constraint ``i`` and row
    ``2i + 1`` the lower-bound feature; ``labels`` names them.
    ``table[f]`` holds the value of row ``f`` on an arc of class 0, +1 and
    -1 (the last), so row ``f`` is ``table[f]`` indexed by the class grid
    of constraint ``f // 2``.
    """

    log_p: np.ndarray
    phi: np.ndarray
    sentence: np.ndarray
    column: np.ndarray
    n_sentences: int
    labels: tuple[str, ...]
    table: np.ndarray

    def evaluate(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass over all packed columns at ``lambdas``.

        Returns the per-sentence log Z (shape ``(K,)``), the per-sentence
        gradient of log Z (``(K, F)``), and the reweighted head
        distributions of the packed columns (``(T, n_max + 1)``).
        """
        logw = self.log_p - np.tensordot(lambdas, self.phi, axes=1)
        top = logw.max(axis=1, keepdims=True)
        weights = np.exp(logw - top)
        mass = weights.sum(axis=1, keepdims=True)
        q = weights / mass
        k = self.n_sentences
        log_z = np.bincount(self.sentence, top[:, 0] + np.log(mass[:, 0]), minlength=k)
        expected = np.einsum("fth,th->ft", self.phi, q)
        grads = np.empty((k, len(lambdas)))
        for f, row in enumerate(expected):
            grads[:, f] = -np.bincount(self.sentence, row, minlength=k)
        return log_z, grads, q


def _feature_rows(constraints: Sequence[Constraint]) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels and ``(F, 3)`` value table of the feature rows (see
    PackedColumns)."""
    rows = [(c, d) for c in constraints for d in (Direction.UPPER, Direction.LOWER)]
    labels = tuple(f"{c.id}:{d.value}" for c, d in rows)
    return labels, np.array([_phi_table(c, d) for c, d in rows]).reshape(-1, 3)


def _head_probs(scores: np.ndarray) -> np.ndarray:
    """Softmax of a ``(B, n+1, n)`` score stack over its head axis, in the
    steps of ``core.to_distribution``, so each sentence's slice equals its
    ``ArcDistribution`` bit for bit."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pack_columns(view: CorpusView) -> PackedColumns:
    """Pack the columns of ``view`` that some feature row touches (see
    PackedColumns), one length bucket at a time."""
    labels, table = _feature_rows(view.constraints)
    features = np.arange(len(labels))
    width = max(bucket.scores.shape[2] for bucket in view.buckets) + 1
    none = np.empty(0, dtype=int)
    # Each list starts with an empty block so that concatenation works when
    # nothing is touched.
    sentence, column = [none], [none]
    log_p = [np.empty((0, width))]
    phi = [np.empty((len(labels), 0, width))]
    for bucket in view.buckets:
        values = table[features[:, None, None, None], bucket.classes[features // 2]]
        b, j = np.nonzero(values.any(axis=(0, 2)))
        if b.size == 0:
            continue
        slots = bucket.scores.shape[1]
        probs = _head_probs(bucket.scores).transpose(0, 2, 1)[b, j]
        packed_log_p = np.full((b.size, width), -np.inf)
        np.log(probs, out=packed_log_p[:, :slots], where=probs > 0)
        packed_phi = np.zeros((len(labels), b.size, width))
        packed_phi[:, :, :slots] = values.transpose(0, 1, 3, 2)[:, b, j]
        sentence.append(np.asarray(bucket.index)[b])
        column.append(j)
        log_p.append(packed_log_p)
        phi.append(packed_phi)
    # Buckets run by length; a stable sort by sentence restores corpus order
    # and keeps each sentence's columns ascending.
    order = np.argsort(np.concatenate(sentence), kind="stable")
    phi = np.concatenate(phi, axis=1)  # frees the blocks before the sorted copy
    return PackedColumns(
        log_p=np.concatenate(log_p)[order],
        phi=phi[:, order],
        sentence=np.concatenate(sentence)[order],
        column=np.concatenate(column)[order],
        n_sentences=len(view.corpus),
        labels=labels,
        table=table,
    )


@dataclass(frozen=True)
class DualTraceRecord:
    iteration: int
    grad_norm: float
    neg_log_z: float
    lambdas: tuple[float, ...]


def solve_dual(
    packed: PackedColumns, params: PrParams = PrParams()
) -> tuple[np.ndarray, list[DualTraceRecord]]:
    """Projected stochastic ascent on ``-log Z`` over the nonnegative orthant.

    Batches are sampled without replacement per epoch and the batch gradient
    is rescaled to full-corpus magnitude.  The loop stops at the iteration
    cap or when the full-corpus gradient norm, restricted to coordinates not
    pinned at the boundary, falls below ``grad_tol``.  Each step makes one
    pass over the packed columns: the trace record takes the full sums, the
    batch step the sums over its sentences, both at the same ``lambda``.
    """
    d = len(packed.labels)
    lambdas = np.zeros(d)
    trace: list[DualTraceRecord] = []
    if d == 0:
        return lambdas, trace

    size = packed.n_sentences
    batch = min(params.batch_size, size)
    rng = np.random.default_rng(params.seed)
    order = rng.permutation(size)
    cursor = 0
    moment1 = np.zeros(d)
    moment2 = np.zeros(d)
    steps = 0

    def record(iteration: int) -> tuple[float, np.ndarray]:
        """Trace the full-corpus state at ``lambdas``; return the projected
        gradient norm and the per-sentence gradients of log Z."""
        log_z, grads, _ = packed.evaluate(lambdas)
        ascent = -grads.sum(axis=0)
        projected = np.where(lambdas > 0, ascent, np.maximum(ascent, 0.0))
        norm = float(np.linalg.norm(projected))
        trace.append(
            DualTraceRecord(
                iteration=iteration,
                grad_norm=norm,
                neg_log_z=-float(log_z.sum()),
                lambdas=tuple(float(v) for v in lambdas),
            )
        )
        return norm, grads

    for iteration in range(params.max_iter):
        norm, grads = record(iteration)
        if norm < params.grad_tol:
            return lambdas, trace
        if cursor + batch > size:
            order = rng.permutation(size)
            cursor = 0
        subset = order[cursor:cursor + batch]
        cursor += batch
        gradient = -grads[subset].sum(axis=0)
        gradient *= size / batch
        rate = params.lr0 * params.decay**iteration
        if params.optimizer == "adaptive_moments":
            steps += 1
            moment1 = _ADAM_BETA1 * moment1 + (1 - _ADAM_BETA1) * gradient
            moment2 = _ADAM_BETA2 * moment2 + (1 - _ADAM_BETA2) * gradient**2
            m_hat = moment1 / (1 - _ADAM_BETA1**steps)
            v_hat = moment2 / (1 - _ADAM_BETA2**steps)
            step = rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        else:
            step = rate * gradient
        lambdas = np.maximum(lambdas + step, 0.0)

    record(params.max_iter)
    return lambdas, trace


def _reweighted(view: CorpusView, lambdas: np.ndarray, table: np.ndarray) -> Iterator[np.ndarray]:
    """``scores - lambda . phi`` per bucket: one term per feature row, in row
    order; row f reads the grid of constraint f // 2."""
    for bucket in view.buckets:
        grids = [bucket.classes[f // 2] for f in range(len(lambdas))]
        yield bucket.scores - _lookup(lambdas, table, grids)


def posterior_arc_probs(view: CorpusView, lambdas: np.ndarray) -> list[ArcDistribution]:
    """The reweighted head distributions ``q ~ p * exp(-lambda . phi)`` of
    every sentence, in corpus order: the per-dependent softmax of
    ``scores - lambda . phi``, since ``p`` is the softmax of the scores."""
    _, table = _feature_rows(view.constraints)
    probs: list[ArcDistribution] = [None] * len(view.corpus)  # type: ignore[list-item]
    for bucket, scores in zip(view.buckets, _reweighted(view, lambdas, table)):
        for k, q in zip(bucket.index, _head_probs(scores)):
            probs[k] = ArcDistribution(q)
    return probs


def kl_divergence(
    q: Sequence[ArcDistribution], p: Sequence[ArcDistribution]
) -> float:
    """Arc-factored KL(q || p) summed over all dependents."""
    total = 0.0
    for qd, pd in zip(q, p):
        mask = qd.probs > 0
        total += float(
            np.sum(qd.probs[mask] * (np.log(qd.probs[mask]) - np.log(pd.probs[mask])))
        )
    return total


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
    # With every dual 0 the scores are unchanged, and the view decodes them
    # once per job.
    reweighted = _reweighted(view, lambdas, packed.table) if lambdas.any() else None
    heads = view.decode(reweighted, projective=projective, single_root=single_root)
    converged = bool(trace) and trace[-1].grad_norm < params.grad_tol
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


def write_pr_trace(
    trace: Sequence[DualTraceRecord], labels: Sequence[str], stream: IO[str]
) -> None:
    """CSV dual trace: iteration, gradient norm, -log Z, multiplier values."""
    writer = csv.writer(stream)
    writer.writerow(["iter", "grad_norm", "neg_log_Z", *[f"lambda_{l}" for l in labels]])
    for record in trace:
        writer.writerow(
            [record.iteration, record.grad_norm, record.neg_log_z, *record.lambdas]
        )
