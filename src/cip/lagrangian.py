"""Constraint-augmented decoding with Lagrange multipliers.

Each constraint contributes a multiplier-weighted linear term to the arc
scores: positive arcs gain ``lambda * (1 - r)``, negative arcs gain
``-lambda * r``.  Because the term is arc-linear, the corpus-level augmented
problem decouples and each sentence is decoded independently per iteration.
Multipliers move by the measured-ratio error, ``lambda += alpha * (r - r_hat)``,
with a geometrically decaying step size; the loop stops early once every
measured ratio sits within its margin.

``lr_infer`` groups the sentences by length once per call.  Each bucket
stacks its scores into a ``(B, n+1, n)`` array and its class grids into a
``(C, B, n+1, n)`` array, so every iteration augments, checks, scores and
counts a bucket in a few array steps and decodes its sentences from raw
arrays.  Per-sentence sums are added in corpus order, so the trace is the
same as a sentence-by-sentence loop would give.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .constraints import Constraint, _arc_classes, _by_length, class_matrix
from .core import Corpus, ParseTree, ScoreMatrix, Sentence
from .decoder import _mst_heads, _projective_heads


@dataclass(frozen=True)
class LrParams:
    alpha0: float = 50.0
    eta: float = 0.9
    max_iter: int = 60
    batch: str = "full"

    def __post_init__(self) -> None:
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.batch != "full":
            raise ValueError("only full-batch updates are supported")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: the multipliers used for the decode, the step size,
    the measured ratios, and the raw / augmented objectives."""

    iteration: int
    alpha: float
    lambdas: tuple[float, ...]
    ratios: tuple[float | None, ...]
    objective: float
    dual_value: float


@dataclass
class DualState:
    lambdas: np.ndarray
    trace: list[IterationRecord] = field(default_factory=list)


def _adjustment(
    constraints: Sequence[Constraint], lambdas: Sequence[float], classes: Sequence[np.ndarray]
) -> np.ndarray | float:
    """``0.0 + sum(lambda * coef)`` over the nonzero multipliers, in
    constraint order; 0.0 when every multiplier is 0.

    The coefficient of an arc is ``1 - r`` on class +1, ``-r`` on -1 and 0
    otherwise, so ``lambda * coef`` is looked up in the three products
    ``lambda * (0, 1 - r, -r)``, indexed by the class (-1 is the last).
    ``classes[c]`` may stack the grids of any number of sentences of one
    length.  Each term is added in place; float addition commutes, so
    ``term += total`` equals ``total + term``.
    """
    total: np.ndarray | float = 0.0
    for c, lam, grid in zip(constraints, lambdas, classes):
        if lam != 0.0:
            term = (lam * np.array([0.0, 1.0 - c.r, -c.r])).take(grid)
            term += total
            total = term
    return total


def augment_scores(
    matrix: ScoreMatrix,
    sentence: Sentence,
    constraints: Sequence[Constraint],
    lambdas: Sequence[float],
    *,
    root_counts_left: bool = False,
) -> ScoreMatrix:
    """Add every constraint's multiplier-weighted coefficients to the scores."""
    if len(constraints) != len(lambdas):
        raise ValueError("constraints and lambdas differ in length")
    classes = [class_matrix(c, sentence, root_counts_left=root_counts_left) for c in constraints]
    adjust = _adjustment(constraints, lambdas, classes)
    return ScoreMatrix(matrix.scores + adjust, sent_id=matrix.sent_id)


@dataclass(frozen=True, eq=False)
class _Bucket:
    """The corpus sentences of one length n, stacked in corpus order.

    ``index`` holds their corpus positions, ``scores`` is ``(B, n+1, n)``
    and ``classes`` is ``(C, B, n+1, n)``: constraint first.
    """

    index: list[int]
    scores: np.ndarray
    classes: np.ndarray


def _buckets(
    corpus: Corpus, constraints: Sequence[Constraint], root_counts_left: bool
) -> list[_Bucket]:
    buckets = []
    for n, index in _by_length([matrix.n for matrix in corpus.matrices]).items():
        upos = np.array([corpus[k][0].upos for k in index])
        classes = np.zeros((len(constraints), len(index), n + 1, n), dtype=np.int8)
        for c, constraint in enumerate(constraints):
            classes[c] = _arc_classes(constraint, upos, root_counts_left)
        scores = np.stack([corpus[k][1].scores for k in index])
        buckets.append(_Bucket(index, scores, classes))
    return buckets


def lr_infer(
    corpus: Corpus,
    constraints: Sequence[Constraint],
    params: LrParams = LrParams(),
    *,
    projective: bool = False,
    single_root: bool = False,
    root_counts_left: bool = False,
    update_rule: str = "accumulate",
) -> tuple[list[ParseTree], DualState, bool]:
    """Iterate augmented decoding until all ratio constraints hold.

    Returns the decoded trees, the multiplier state with its per-iteration
    trace, and whether the loop converged.  At the iteration cap the
    least-violating iterate is returned (ties broken by higher objective).

    ``update_rule`` selects between the accumulating update
    ``lambda += alpha * (r - r_hat)`` (default) and a non-accumulating
    variant ``lambda = alpha * (r_hat - r)`` kept for comparison runs.

    Raises ``ValueError`` when an augmented score overflows, as
    ``ScoreMatrix`` does for a non-finite score.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    if update_rule not in ("accumulate", "reset"):
        raise ValueError(f"unknown update rule {update_rule!r}")
    decode = _projective_heads if projective else _mst_heads

    n_constraints = len(constraints)
    buckets = _buckets(corpus, constraints, root_counts_left)

    lambdas = np.zeros(n_constraints)
    alpha = params.alpha0
    state = DualState(lambdas=lambdas)
    best: tuple[float, float, list[ParseTree]] | None = None  # (violation, -objective, trees)

    for iteration in range(1, params.max_iter + 1):
        all_heads: list[list[int]] = [[]] * len(corpus)
        objectives = np.zeros(len(corpus))
        duals = np.zeros(len(corpus))
        plus = np.zeros(n_constraints)
        minus = np.zeros(n_constraints)
        active = bool(np.any(lambdas != 0.0))
        for bucket in buckets:
            augmented = bucket.scores
            if active:
                augmented = _adjustment(constraints, lambdas, bucket.classes)
                augmented += bucket.scores
                # The n self positions of each sentence are -inf or NaN, so
                # every other entry is finite iff B * n * n entries are.
                size, _, n = augmented.shape
                if np.count_nonzero(np.isfinite(augmented)) != size * n * n:
                    raise ValueError("non-finite score at a non-self position")
            heads = np.array([decode(x, single_root) for x in augmented])
            arcs = (np.arange(len(heads))[:, None], heads, np.arange(heads.shape[1]))
            objectives[bucket.index] = bucket.scores[arcs].sum(axis=1)
            duals[bucket.index] = augmented[arcs].sum(axis=1)
            picked = bucket.classes[(slice(None), *arcs)]
            plus += (picked == 1).sum(axis=(1, 2))
            minus += (picked == -1).sum(axis=(1, 2))
            for k, row in zip(bucket.index, heads.tolist()):
                all_heads[k] = row
        trees = [ParseTree(tuple(row)) for row in all_heads]
        # Sentence by sentence in corpus order, as the sums were first defined.
        objective = 0.0
        dual_value = 0.0
        for value, dual in zip(objectives.tolist(), duals.tolist()):
            objective += value
            dual_value += dual

        ratios: list[float | None] = []
        violation = 0.0
        errors = np.zeros(n_constraints)
        for c, constraint in enumerate(constraints):
            denom = plus[c] + minus[c]
            if denom == 0:
                ratios.append(None)
                continue
            measured = plus[c] / denom
            ratios.append(measured)
            errors[c] = constraint.r - measured
            violation = max(violation, abs(errors[c]) - constraint.theta)

        state.trace.append(
            IterationRecord(
                iteration=iteration,
                alpha=alpha,
                lambdas=tuple(float(v) for v in lambdas),
                ratios=tuple(ratios),
                objective=objective,
                dual_value=dual_value,
            )
        )

        if violation <= 1e-12:
            state.lambdas = lambdas
            return trees, state, True

        if best is None or (violation, -objective) < (best[0], best[1]):
            best = (violation, -objective, trees)

        if update_rule == "accumulate":
            lambdas = lambdas + alpha * errors
        else:
            lambdas = alpha * -errors
        alpha *= params.eta

    assert best is not None
    state.lambdas = lambdas
    return best[2], state, False


def write_lr_trace(
    state: DualState, constraints: Sequence[Constraint], stream: IO[str]
) -> None:
    """One CSV row per (iteration, constraint)."""
    writer = csv.writer(stream)
    writer.writerow(
        ["iter", "constraint_id", "r_target", "r_measured", "lambda", "alpha", "objective"]
    )
    for record in state.trace:
        for c, constraint in enumerate(constraints):
            measured = record.ratios[c]
            writer.writerow(
                [
                    record.iteration,
                    constraint.id,
                    constraint.r,
                    "" if measured is None else measured,
                    record.lambdas[c],
                    record.alpha,
                    record.objective,
                ]
            )
