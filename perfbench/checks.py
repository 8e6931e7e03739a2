"""Per-job output checks.

Every `cip decode` job is checked after it returns, outside its timed span.
A job fails when any check reports a problem.  UAS and ratios are recomputed
here from the written CoNLL-U, independently of ``cip.uas`` and
``cip.ratio``, so that a wrong report is caught rather than repeated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import cip
from cip.decoder import is_projective

from workloads import Inputs, Workload

Heads = tuple[int, ...]


@dataclass
class JobCheck:
    problems: list[str] = field(default_factory=list)
    uas: float | None = None
    ratios: dict[str, float | None] = field(default_factory=dict)
    band_violation: float | None = None


def attachment_score(trees: Sequence[Heads], gold: Sequence[cip.Sentence]) -> float:
    correct = sum(p == g for heads, s in zip(trees, gold) for p, g in zip(heads, s.gold_heads))
    return correct / sum(len(s) for s in gold)


def arc_ratio(
    constraint: cip.Constraint, sentences: Sequence[cip.Sentence], trees: Sequence[Heads]
) -> float | None:
    """Share of matched arcs in the constraint's positive order.  Root arcs
    never count: no workload config sets ``root_counts_left``."""
    plus = minus = 0
    for sentence, heads in zip(sentences, trees):
        for dep, head in enumerate(heads, start=1):
            if head == 0:
                continue
            pos_head, pos_dep = sentence.upos[head - 1], sentence.upos[dep - 1]
            if constraint.kind == "unary":
                if pos_dep != constraint.pos:
                    continue
                positive = head < dep
            elif (pos_head, pos_dep) == (constraint.pos, constraint.pos2):
                positive = head < dep
            elif (pos_head, pos_dep) == (constraint.pos2, constraint.pos):
                positive = dep < head
            else:
                continue
            plus += positive
            minus += not positive
    return None if plus + minus == 0 else plus / (plus + minus)


def band_violation(constraint: cip.Constraint, measured: float | None) -> float:
    """How far ``measured`` lies outside ``[r - theta, r + theta]``."""
    if measured is None:
        return 0.0
    return max(0.0, constraint.lower - measured, measured - constraint.upper)


def read_trees(out: Path, inputs: Inputs, result: JobCheck) -> list[Heads] | None:
    try:
        with open(out, encoding="utf-8") as handle:
            written = cip.read_conllu(handle)
    except (OSError, ValueError) as exc:
        result.problems.append(f"output does not re-read as valid trees: {exc}")
        return None
    if len(written) != len(inputs.sentences):
        result.problems.append(
            f"output has {len(written)} sentences, input has {len(inputs.sentences)}"
        )
        return None
    for k, (got, want) in enumerate(zip(written, inputs.sentences)):
        if got.forms != want.forms or got.upos != want.upos or got.gold_heads is None:
            result.problems.append(f"output sentence {k} does not match its input")
            return None
    return [s.gold_heads for s in written]


def check_job(
    workload: Workload, inputs: Inputs, exit_code: int, out: Path, report: Path
) -> JobCheck:
    result = JobCheck()
    if exit_code != 0:
        result.problems.append(f"cip decode exited with code {exit_code}")
        return result
    trees = read_trees(out, inputs, result)
    if trees is None:
        return result
    for k, heads in enumerate(trees):
        if workload.projective and not is_projective(heads):
            result.problems.append(f"tree {k} has crossing arcs on a --projective job")
        roots = sum(h == 0 for h in heads)
        if workload.single_root and roots != 1:
            result.problems.append(f"tree {k} has {roots} root children on a single_root job")

    result.uas = attachment_score(trees, inputs.sentences)
    result.ratios = {c.id: arc_ratio(c, inputs.sentences, trees) for c in inputs.constraints}
    result.band_violation = max(
        band_violation(c, result.ratios[c.id]) for c in inputs.constraints
    )
    _check_report(report, result)
    return result


def _same(reported: object, recomputed: float | None) -> bool:
    if recomputed is None or reported is None:
        return reported is None and recomputed is None
    return isinstance(reported, (int, float)) and math.isclose(
        reported, recomputed, rel_tol=0.0, abs_tol=1e-12
    )


def _check_report(report: Path, result: JobCheck) -> None:
    try:
        with open(report, encoding="utf-8") as handle:
            payload = json.load(handle)
        rows = {row["id"]: row["ratio_final"] for row in payload["constraints"]}
        reported_uas = payload["uas"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append(f"report is unreadable: {exc!r}")
        return
    if not _same(reported_uas, result.uas):
        result.problems.append(
            f"report uas {reported_uas} differs from the output's {result.uas}"
        )
    for cid, recomputed in result.ratios.items():
        if cid not in rows or not _same(rows[cid], recomputed):
            result.problems.append(
                f"report ratio_final of {cid} is {rows.get(cid)}, the output's is {recomputed}"
            )
