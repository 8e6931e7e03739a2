"""Constraint-augmented decoding with Lagrange multipliers.

Each constraint contributes a multiplier-weighted linear term to the arc
scores, ``lambda * (1[positive] - r * 1[matched])``: positive arcs gain
``lambda * (1 - r)``, negative arcs ``-lambda * r``.  Because the term is
arc-linear, the corpus-level augmented problem decouples and each sentence
is decoded independently per iteration.  Multipliers move by the
measured-ratio error, ``lambda += alpha * (r - r_hat)``, with a
geometrically decaying step size; the loop stops early once every measured
ratio sits in its band, by the test of ``is_satisfied``.

``lr_decode`` runs on a ``CorpusView``: every iteration passes the view the
``(C, 3)`` offset table ``lambdas[:, None] * rows``, each row the class row
of its constraint's ``r``.  The view decodes each length bucket from raw
arrays and gathers the objective, the dual value and the ratio counts in a
few array steps per bucket.  Trees are built only for the returned iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constraints import Constraint, _class_row, is_satisfied
from .core import Corpus
from .view import CorpusView, InferenceResult


@dataclass(frozen=True)
class LrParams:
    alpha0: float = 50.0
    eta: float = 0.9
    max_iter: int = 60

    def __post_init__(self) -> None:
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One decode, numbered from 1: the multipliers used for it, the step
    size, the measured ratios, and the raw / augmented objectives."""

    iteration: int
    alpha: float
    lambdas: tuple[float, ...]
    ratios: tuple[float | None, ...]
    objective: float
    dual_value: float


def lr_decode(
    view: CorpusView,
    params: LrParams = LrParams(),
    *,
    projective: bool = False,
    single_root: bool = False,
) -> InferenceResult:
    """Iterate augmented decoding over ``view`` until all ratio constraints
    hold (see ``lr_infer``).  ``labels`` are the constraint ids."""
    constraints = view.constraints
    labels = tuple(c.id for c in constraints)
    rows = np.array([_class_row(c.r) for c in constraints]).reshape(-1, 3)
    lambdas = np.zeros(len(constraints))
    alpha = params.alpha0
    trace: list[IterationRecord] = []
    # (violation, -objective, heads, lambdas) of the least-violating iterate
    best: tuple[float, float, list[np.ndarray], np.ndarray] | None = None

    for iteration in range(1, params.max_iter + 1):
        offsets = lambdas[:, None] * rows
        heads = view.decode(offsets, projective=projective, single_root=single_root)
        objective, dual_value, ratios = view.gather(heads, offsets)
        trace.append(
            IterationRecord(
                iteration=iteration,
                alpha=alpha,
                lambdas=tuple(float(v) for v in lambdas),
                ratios=tuple(ratios),
                objective=objective,
                dual_value=dual_value,
            )
        )

        if all(map(is_satisfied, constraints, ratios)):
            return InferenceResult(view.trees(heads), lambdas, labels, trace, True)

        violation = max(map(Constraint.violation, constraints, ratios))
        if best is None or (violation, -objective) < (best[0], best[1]):
            best = (violation, -objective, heads, lambdas)

        errors = np.array([0.0 if m is None else c.r - m for c, m in zip(constraints, ratios)])
        lambdas = lambdas + alpha * errors
        alpha *= params.eta

    assert best is not None
    return InferenceResult(view.trees(best[2]), best[3], labels, trace, False)


def lr_infer(
    corpus: Corpus,
    constraints: Sequence[Constraint],
    params: LrParams = LrParams(),
    *,
    projective: bool = False,
    single_root: bool = False,
    root_counts_left: bool = False,
) -> InferenceResult:
    """Iterate augmented decoding until all ratio constraints hold.

    Returns an ``InferenceResult``: the decoded trees, the multipliers they
    were decoded under, the per-iteration trace, and whether the loop
    converged.  At the iteration cap the least-violating iterate's trees and
    multipliers are returned (ties broken by higher objective).

    Raises ``ValueError`` when an augmented score overflows, as
    ``ScoreMatrix`` does for a non-finite score.
    """
    view = CorpusView.of(corpus, constraints, root_counts_left)
    return lr_decode(view, params, projective=projective, single_root=single_root)

