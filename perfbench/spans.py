"""Spans around calls into the cip layers, recorded from outside the program.

``Tracer.install`` replaces every public function of every ``cip`` module,
on every ``cip`` module that holds a reference to it, by a wrapper that
records one span: name, start, end, parent span and job id, plus a few
attributes read from the call (sentence length, ``single_root``, whether a
posterior call got a ``subset``).  ``cip.lagrangian.mst_decode`` is therefore
wrapped as well as ``cip.decoder.mst_decode``.  ``uninstall`` restores the
originals, so untraced jobs run the program unchanged.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LAYERS = ("core", "constraints", "decoder", "lagrangian", "posterior", "cli")

# Helpers called per arc or per sentence inside a traced function's inner
# loop (classify_arc runs n^2 times per class_matrix call).  A span each
# would cost more than the work it measures, so their time stays in the
# caller's span.
UNTRACED = frozenset({"classify_arc", "phi", "log_probs"})

BUCKETS = (("n1-10", 1, 10), ("n11-40", 11, 40), ("n41-80", 41, 80))


# Later refactors of cip may pass these arguments by keyword or change a
# return type; the attribute readers must not turn that into a failed job.
def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _decode_attrs(args, kwargs, result) -> dict:
    return {
        "n": _arg(args, kwargs, 0, "matrix").n,
        "single_root": bool(kwargs.get("single_root", False)),
    }


def _posterior_eval_attrs(args, kwargs, result) -> dict:
    subset = kwargs.get("subset")
    corpus = _arg(args, kwargs, 0, "corpus")
    return {"batch": subset is not None, "evals": len(corpus if subset is None else subset)}


# Attributes recorded per span, by span name, from (args, kwargs, result).
ATTRS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "decoder.mst_decode": _decode_attrs,
    "decoder.projective_decode": _decode_attrs,
    "posterior.grad_log_partition": _posterior_eval_attrs,
    "posterior.log_partition": _posterior_eval_attrs,
    # solve_dual's trace has one record per step plus the final one.
    "posterior.solve_dual": lambda a, kw, r: {"steps": max(len(r[1]) - 1, 0)},
    "lagrangian.lr_infer": lambda a, kw, r: {"iterations": len(r[1].trace)},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._wrappers: dict[Callable, Callable] = {}
        self._patches: list[tuple[object, str, Callable]] = []
        self._origin = time.perf_counter()

    def _wrap(self, fn: Callable) -> Callable:
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
        attrs = ATTRS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            try:
                extra = attrs(args, kwargs, result) if attrs else {}
            except Exception as exc:  # tracing must never fail the job
                extra = {"attr_error": repr(exc)}
            self.spans.append(
                Span(span_id, name, start - self._origin, end - self._origin,
                     parent, self.job, extra)
            )
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cip" or n.startswith("cip.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    not inspect.isfunction(value)
                    or attr.startswith("_")
                    or value.__name__ in UNTRACED
                    or not value.__module__.startswith("cip.")
                ):
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(value)
                setattr(module, attr, self._wrappers[value])
                self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                row = {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "job": s.job, **s.attrs}
                handle.write(json.dumps(row) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def layer_metrics(spans: list[Span], jobs: int, scores_mb: float) -> dict[str, float]:
    """Per-layer numbers from the spans of ``jobs`` traced jobs.

    Times (``_s``) and counts (``_calls``, ``iterations``, ``sentence_evals``)
    are per job; ``_ms_*`` are per call over all traced jobs.  A layer's self
    time is its spans' durations minus the time their direct children cover.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time: dict[str, float] = defaultdict(float)
    for s in spans:
        self_time[s.layer] += s.duration - child_time[s.id]

    def select(name: str, **want) -> list[Span]:
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in want.items())]

    def seconds(name: str, **want) -> float:
        return sum(s.duration for s in select(name, **want)) / jobs

    def calls(name: str, **want) -> float:
        return len(select(name, **want)) / jobs

    def ms(selected: list[Span]) -> list[float]:
        return [s.duration * 1e3 for s in selected]

    m: dict[str, float] = {}
    m["core.read_scores_s"] = seconds("core.read_scores")
    m["core.read_conllu_s"] = seconds("core.read_conllu")
    m["core.write_conllu_s"] = seconds("core.write_conllu")
    m["core.scores_mb_per_s"] = (
        scores_mb / m["core.read_scores_s"] if m["core.read_scores_s"] > 0 else 0.0
    )
    m["constraints.class_matrix_s"] = seconds("constraints.class_matrix")
    m["constraints.class_matrix_calls"] = calls("constraints.class_matrix")
    m["constraints.ratio_s"] = seconds("constraints.ratio")

    decoders = {
        "mst_decode": select("decoder.mst_decode", single_root=False),
        "mst_decode_sr": select("decoder.mst_decode", single_root=True),
        "projective_decode": select("decoder.projective_decode"),
    }
    for key, selected in decoders.items():
        m[f"decoder.{key}_s"] = sum(s.duration for s in selected) / jobs
        m[f"decoder.{key}_calls"] = len(selected) / jobs
        m[f"decoder.{key}_ms_p50"] = percentile(ms(selected), 0.50)
        if key != "mst_decode_sr":
            m[f"decoder.{key}_ms_p99"] = percentile(ms(selected), 0.99)
        for bucket, lo, hi in BUCKETS:
            m[f"decoder.{key}_ms_{bucket}"] = percentile(
                ms([s for s in selected if lo <= s.attrs.get("n", 0) <= hi]), 0.50
            )

    lr = select("lagrangian.lr_infer")
    iterations = sum(s.attrs.get("iterations", 0) for s in lr)
    lr_setup = sum(
        s.duration for s in spans
        if s.name == "constraints.class_matrix" and s.parent is not None
        and by_id[s.parent].name == "lagrangian.lr_infer"
    )
    m["lagrangian.lr_infer_s"] = seconds("lagrangian.lr_infer")
    m["lagrangian.iterations"] = iterations / jobs
    m["lagrangian.iteration_ms"] = (
        (sum(s.duration for s in lr) - lr_setup) * 1e3 / iterations if iterations else 0.0
    )

    evals = select("posterior.grad_log_partition") + select("posterior.log_partition")
    all_evals = sum(s.attrs.get("evals", 0) for s in evals)
    batch_evals = sum(s.attrs.get("evals", 0) for s in evals if s.attrs.get("batch"))
    m["posterior.solve_dual_s"] = seconds("posterior.solve_dual")
    m["posterior.iterations"] = (
        sum(s.attrs.get("steps", 0) for s in select("posterior.solve_dual")) / jobs
    )
    m["posterior.grad_full_calls"] = calls("posterior.grad_log_partition", batch=False)
    m["posterior.grad_batch_calls"] = calls("posterior.grad_log_partition", batch=True)
    m["posterior.log_partition_calls"] = calls("posterior.log_partition")
    m["posterior.sentence_evals"] = all_evals / jobs
    m["posterior.useful_eval_ratio"] = batch_evals / all_evals if all_evals else 0.0
    m["posterior.dual_eval_ms"] = percentile(
        ms(select("posterior.grad_log_partition", batch=False)), 0.50
    )
    m["posterior.build_feature_index_s"] = seconds("posterior.build_feature_index")
    m["posterior.posterior_arc_probs_s"] = seconds("posterior.posterior_arc_probs")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer] / jobs
    m["trace.spans"] = len(spans) / jobs
    return m
