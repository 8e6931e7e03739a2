"""Constraint-augmented decoding with Lagrange multipliers.

Each constraint contributes a multiplier-weighted linear term to the arc
scores: positive arcs gain ``lambda * (1 - r)``, negative arcs gain
``-lambda * r``.  Because the term is arc-linear, the corpus-level augmented
problem decouples and each sentence is decoded independently per iteration.
Multipliers move by the measured-ratio error, ``lambda += alpha * (r - r_hat)``,
with a geometrically decaying step size; the loop stops early once every
measured ratio sits within its margin.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .constraints import Constraint, class_matrix
from .core import Corpus, ParseTree, ScoreMatrix, Sentence
from .decoder import mst_decode, projective_decode


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


def _coefficients(constraint: Constraint, classes: np.ndarray) -> np.ndarray:
    """Per-arc coefficients of a class grid: ``1 - r`` on +1, ``-r`` on -1."""
    return (classes == 1) - constraint.r * (classes != 0)


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
    adjust = np.zeros_like(matrix.scores)
    for constraint, lam in zip(constraints, lambdas):
        if lam == 0.0:
            continue
        classes = class_matrix(constraint, sentence, root_counts_left=root_counts_left)
        adjust += lam * _coefficients(constraint, classes)
    return ScoreMatrix(matrix.scores + adjust, sent_id=matrix.sent_id)


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
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    if update_rule not in ("accumulate", "reset"):
        raise ValueError(f"unknown update rule {update_rule!r}")
    decode = projective_decode if projective else mst_decode

    n_constraints = len(constraints)
    classes = [
        [
            class_matrix(c, sentence, root_counts_left=root_counts_left)
            for c in constraints
        ]
        for sentence, _ in corpus
    ]
    coefs = [
        [_coefficients(c, grid) for c, grid in zip(constraints, grids)]
        for grids in classes
    ]

    lambdas = np.zeros(n_constraints)
    alpha = params.alpha0
    state = DualState(lambdas=lambdas)
    best: tuple[float, float, list[ParseTree]] | None = None  # (violation, -objective, trees)

    for iteration in range(1, params.max_iter + 1):
        trees: list[ParseTree] = []
        objective = 0.0
        dual_value = 0.0
        plus = np.zeros(n_constraints)
        minus = np.zeros(n_constraints)
        for k, (sentence, matrix) in enumerate(corpus):
            if n_constraints and np.any(lambdas != 0.0):
                adjust = sum(
                    lam * coef for lam, coef in zip(lambdas, coefs[k]) if lam != 0.0
                )
                augmented = ScoreMatrix(matrix.scores + adjust)
            else:
                augmented = matrix
            tree = decode(augmented, single_root=single_root)
            trees.append(tree)
            objective += matrix.tree_score(tree.heads)
            dual_value += augmented.tree_score(tree.heads)
            cols = np.arange(matrix.n)
            for c in range(n_constraints):
                picked = classes[k][c][list(tree.heads), cols]
                plus[c] += int((picked == 1).sum())
                minus[c] += int((picked == -1).sum())

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
