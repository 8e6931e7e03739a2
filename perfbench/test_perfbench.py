"""Self-tests of the benchmark on tiny inputs.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "pr-short": dict(lengths=(7,) * 8),
    "lr-mid": dict(lengths=(10,) * 6 + (16,) * 4),
    "lr-proj-long": dict(lengths=(12, 16)),
    "root-long": dict(lengths=(12, 16)),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_tiny_variants_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run.run(tiny(name), seed=0, seconds=0, trace=trace, probes=1,
                     work_root=tmp_path)["result"]
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)


def test_times_are_rescaled_by_the_median_of_the_nearest_yardstick_rounds():
    # One round caught in a burst (6.0) skews no job; a round of 2 x
    # REFERENCE_S halves a job's time.
    ref = run.REFERENCE_S
    rounds = [2 * ref, 2 * ref, 2 * ref, 6.0, 2 * ref, 2 * ref]
    walls = [1.0, 2.0, 1.0, 1.0, 1.0]
    assert run.at_reference_speed(walls, rounds) == pytest.approx([0.5, 1.0, 0.5, 0.5, 0.5])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    w = tiny("lr-proj-long")
    files = ("gold.conllu", "scores.jsonl", "constraints.json", "config.json")
    first = workloads.write_inputs(w, 7, tmp_path / "a")
    workloads.write_inputs(w, 7, tmp_path / "b")
    workloads.write_inputs(w, 8, tmp_path / "c")
    read = lambda d: [(tmp_path / d / f).read_bytes() for f in files]  # noqa: E731
    assert read("a") == read("b")
    assert read("a")[:2] != read("c")[:2]
    assert [c.id for c in first.constraints] == ["noun-left", "adj-noun"]


# --- output checks --------------------------------------------------------


@pytest.fixture(scope="module")
def long_job(tmp_path_factory):
    """A projective, single-root workload with its inputs; gold trees are
    projective with one root child, so they pass every check."""
    w = tiny("lr-proj-long")
    inputs = workloads.write_inputs(w, 0, tmp_path_factory.mktemp("inputs"))
    return w, inputs


def write_output(path: Path, inputs, trees, uas=1.0, ratios=None) -> tuple[Path, Path]:
    out, report = path / "out.conllu", path / "report.json"
    with open(out, "w", encoding="utf-8") as handle:
        for sentence, heads in zip(inputs.sentences, trees):
            handle.write(f"# sent_id = {sentence.sent_id}\n")
            for j, (form, pos) in enumerate(zip(sentence.forms, sentence.upos), start=1):
                handle.write(f"{j}\t{form}\t_\t{pos}\t_\t_\t{heads[j - 1]}\tdep\t_\t_\n")
            handle.write("\n")
    ratios = ratios or {c.id: c.r for c in inputs.constraints}
    payload = {"uas": uas, "constraints": [{"id": k, "ratio_final": v} for k, v in ratios.items()]}
    report.write_text(json.dumps(payload))
    return out, report


def problems_for(long_job, tmp_path, first_tree, **report):
    w, inputs = long_job
    trees = [s.gold_heads for s in inputs.sentences]
    if first_tree is not None:
        trees[0] = tuple(first_tree) + trees[0][len(first_tree):]
    out, rep = write_output(tmp_path, inputs, trees, **report)
    return checks.check_job(w, inputs, 0, out, rep).problems


def test_gold_output_passes_and_matches_the_oracle_ratios(long_job, tmp_path):
    assert problems_for(long_job, tmp_path, None) == []


def test_cycle_is_rejected(long_job, tmp_path):
    problems = problems_for(long_job, tmp_path, (2, 1))
    assert len(problems) == 1 and "does not re-read as valid trees" in problems[0]


def test_crossing_arc_is_rejected_on_projective_job(long_job, tmp_path):
    # arcs 1->3 and 2->4 cross; one root child
    problems = problems_for(long_job, tmp_path, (0, 1, 1, 2) + (1,) * 8)
    assert any("crossing arcs" in p for p in problems)
    assert not any("root children" in p for p in problems)


def test_two_root_children_are_rejected_on_single_root_job(long_job, tmp_path):
    # tokens 1 and 2 attach to the root; every other token to 2: no crossing
    problems = problems_for(long_job, tmp_path, (0, 0) + (2,) * 10)
    assert any("2 root children" in p for p in problems)
    assert not any("crossing arcs" in p for p in problems)


def test_report_that_disagrees_with_the_output_is_rejected(long_job, tmp_path):
    w, inputs = long_job
    wrong = {c.id: c.r + 0.25 for c in inputs.constraints}
    problems = problems_for(long_job, tmp_path, None, uas=0.5, ratios=wrong)
    assert any("report uas" in p for p in problems)
    assert sum("report ratio_final" in p for p in problems) == len(inputs.constraints)


def test_nonzero_exit_is_a_failure(long_job, tmp_path):
    w, inputs = long_job
    result = checks.check_job(w, inputs, 1, tmp_path / "none", tmp_path / "none")
    assert result.problems == ["cip decode exited with code 1"]
