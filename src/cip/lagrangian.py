"""Constraint-augmented decoding with Lagrange multipliers.

Each constraint contributes a multiplier-weighted linear term to the arc
scores, ``lambda * (1[positive] - r * 1[matched])``: positive arcs gain
``lambda * (1 - r)``, negative arcs ``-lambda * r``.  Because the term is
arc-linear, the corpus-level augmented problem decouples and each sentence
is decoded independently per iteration.  Multipliers move by the
measured-ratio error, ``lambda += alpha * (r - r_hat)``, with a
geometrically decaying step size; the loop stops early once every measured
ratio sits in its band, by the test of ``is_satisfied``.

``lr_decode`` runs on a ``CorpusView`` from ``CorpusView.of``, which holds
the decode rule: every iteration passes the view the ``(C, 3)`` offset
table ``lambdas[:, None] * rows``, each row the class row of its
constraint's ``r``.  The view decodes each length bucket from raw arrays
and gathers the objective, the dual value and the ratio counts in a few
array steps per bucket.  Trees are built only for the returned iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import Constraint, _class_row, is_satisfied
from .core import AT_LEAST_1, POSITIVE, STEP, _check_ranges
from .view import CorpusView, InferenceResult


@dataclass(frozen=True)
class LrParams:
    alpha0: float = field(default=50.0, metadata={"range": POSITIVE})
    eta: float = field(default=0.9, metadata={"range": STEP})
    max_iter: int = field(default=60, metadata={"range": AT_LEAST_1})

    __post_init__ = _check_ranges


@dataclass(frozen=True)
class IterationRecord:
    """One decode, numbered from 1: the multipliers used for it, the step
    size, the measured ratios, and the raw / augmented objectives.
    ``dual_value`` bounds only the equality problem ``ratio = r``, so when
    ``theta > 0`` ``dual_value - objective`` is no dual-primal gap."""

    iteration: int
    alpha: float
    lambdas: tuple[float, ...]
    ratios: tuple[float | None, ...]
    objective: float
    dual_value: float


def lr_decode(view: CorpusView, params: LrParams = LrParams()) -> InferenceResult:
    """Iterate augmented decoding over ``view`` until every constraint holds.

    Returns an ``InferenceResult``: the decoded trees, the multipliers they
    were decoded under, the constraint ids as ``labels``, the per-iteration
    trace, and whether the loop converged.  At the iteration cap the
    least-violating iterate's trees and multipliers are returned (ties
    broken by higher objective).  The loop keeps that iterate before its
    stop test and has one exit: a satisfied iterate violates by less than
    every earlier one, so it is the one kept.  Raises ``ValueError`` when
    an augmented score overflows, as ``ScoreMatrix`` does for a non-finite
    score, and when its range is too large for the decoder.
    """
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
        heads = view.decode(offsets)
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

        violation = max(map(Constraint.violation, constraints, ratios), default=0.0)
        if best is None or (violation, -objective) < best[:2]:
            best = (violation, -objective, heads, lambdas)
        converged = all(map(is_satisfied, constraints, ratios))
        if converged:
            break

        errors = np.array([0.0 if m is None else c.r - m for c, m in zip(constraints, ratios)])
        lambdas = lambdas + alpha * errors
        alpha *= params.eta

    return InferenceResult(view.trees(best[2]), best[3], labels, trace, converged)
