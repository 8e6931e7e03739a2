"""End-to-end command-line workflows on temporary files."""

import dataclasses
import gc
import json
import os
import runpy
import stat
import subprocess
import sys
import weakref

import numpy as np
import orjson
import pytest

import cip
from cip import cli
from cip.cli import main
from cip.config import InferenceConfig
from cip.core import is_tree
from cip.lagrangian import lr_decode
from cip.posterior import pr_decode
from cip.view import CorpusView

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

SPEC = {
    "n_sentences": 30,
    "min_len": 3,
    "max_len": 7,
    "pos_weights": {"NOUN": 0.3, "VERB": 0.25, "DET": 0.25, "ADJ": 0.2},
    "planted": [{"id": "noun-left", "kind": "unary", "pos": "NOUN", "r": 0.9}],
    "sigma": 0.1,
    "flip_prob": 1.0,
    "flip_boost": 1.0,
    "seed": 42,
}


@pytest.fixture
def workspace(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    paths = {
        "spec": spec_path,
        "gold": tmp_path / "gold.conllu",
        "scores": tmp_path / "scores.jsonl",
        "constraints": tmp_path / "constraints.json",
        "out": tmp_path / "out.conllu",
        "report": tmp_path / "report.json",
        "trace": tmp_path / "trace.jsonl",
        "ratios": tmp_path / "ratios.json",
    }
    code = main(
        [
            "synth",
            "--spec", str(spec_path),
            "--out-conllu", str(paths["gold"]),
            "--out-scores", str(paths["scores"]),
            "--out-constraints", str(paths["constraints"]),
        ]
    )
    assert code == 0
    return paths


def test_synth_outputs_parse(workspace):
    with open(workspace["gold"], encoding="utf-8") as handle:
        sentences = cip.read_conllu(handle)
    with open(workspace["scores"], encoding="utf-8") as handle:
        matrices = cip.read_scores(handle)
    assert len(sentences) == len(matrices) == SPEC["n_sentences"]
    with open(workspace["constraints"], encoding="utf-8") as handle:
        (constraint,) = cip.load_constraints(handle)
    assert constraint.theta == 0.01
    assert 0.8 <= constraint.r <= 1.0


def test_decode_baseline_and_evaluate(workspace, capsys):
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
        ]
    )
    assert code == 0
    report = json.loads(workspace["report"].read_text())
    assert report["iterations"] == 0
    assert 0 <= report["uas"] <= 1

    code = main(
        [
            "evaluate",
            "--pred", str(workspace["out"]),
            "--gold", str(workspace["gold"]),
        ]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["uas"] == pytest.approx(report["uas"])


def test_evaluate_rejects_a_prediction_without_heads(workspace, tmp_path, capsys):
    pred = tmp_path / "pred.conllu"
    pred.write_text("1\tdog\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n")
    report = tmp_path / "uas.json"
    argv = ["evaluate", "--pred", str(pred), "--gold", str(workspace["gold"])]
    assert main([*argv, "--report", str(report)]) == 1
    assert capsys.readouterr() == ("", f"cip: {pred}: sentence 0 has no heads\n")
    assert not report.exists()


def test_evaluate_without_tokens_names_the_gold_file(tmp_path, capsys):
    pred, gold = tmp_path / "pred.conllu", tmp_path / "gold.conllu"
    pred.write_text("")
    gold.write_text("# no sentences\n")
    assert main(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == 1
    assert capsys.readouterr() == ("", f"cip: {gold}: no tokens to score\n")


def test_synth_report_holds_the_true_ratios(workspace, tmp_path):
    report = tmp_path / "synth.json"
    argv = ["synth", "--spec", str(workspace["spec"]), "--report", str(report)]
    outputs = ["--out-conllu", str(tmp_path / "g"), "--out-scores", str(tmp_path / "s")]
    assert main([*argv, *outputs]) == 0
    with open(workspace["constraints"], encoding="utf-8") as handle:
        (oracle,) = cip.load_constraints(handle)
    with open(workspace["gold"], encoding="utf-8") as handle:
        gold_ratio, _ = cip.estimate_ratio(cip.read_conllu(handle), oracle)
    assert json.loads(report.read_text()) == {"true_ratios": {"noun-left": gold_ratio}}


def test_failed_render_leaves_the_target_untouched(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old\n")

    def render(handle):
        handle.write("partial")
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        cli._atomic_write(str(target), render)
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("method", ["lr", "pr"])
def test_constrained_decode_improves_uas(workspace, method):
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--method", method,
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
            "--trace", str(workspace["trace"]),
        ]
    )
    assert code == 0
    report = json.loads(workspace["report"].read_text())
    (row,) = report["constraints"]
    if method == "lr" and report["converged"]:
        assert row["satisfied"]
    else:
        # PR constrains the expected ratio; the decoded ratio must at least
        # move toward the band.
        assert abs(row["ratio_final"] - row["r"]) < abs(row["ratio_baseline"] - row["r"])
    assert workspace["trace"].exists()
    baseline_out = workspace["out"].with_suffix(".baseline.conllu")
    main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--out", str(baseline_out),
            "--report", str(workspace["report"]),
        ]
    )
    baseline = json.loads(workspace["report"].read_text())
    assert report["uas"] > baseline["uas"]


@pytest.mark.parametrize("method", ["lr", "pr"])
def test_trace_lines_equal_the_records(workspace, tmp_path, method):
    # noun-left binds; pron-left matches no arc, so LR's ratio for it is null.
    with open(workspace["constraints"], encoding="utf-8") as handle:
        (noun_left,) = cip.load_constraints(handle)
    pron_left = cip.Constraint(id="pron-left", kind="unary", pos="PRON", r=0.5, theta=0.1)
    constraints = tmp_path / "two.json"
    with open(constraints, "w", encoding="utf-8") as handle:
        cip.save_constraints([noun_left, pron_left], handle)
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(constraints),
            "--method", method,
            "--out", str(workspace["out"]),
            "--trace", str(workspace["trace"]),
        ]
    )
    assert code == 0

    with open(workspace["gold"], encoding="utf-8") as conllu, open(
        workspace["scores"], encoding="utf-8"
    ) as scores:
        corpus = cip.pair_corpus(cip.read_conllu(conllu), cip.read_scores(scores))
    view = CorpusView.of(corpus, [noun_left, pron_left])
    records = (lr_decode if method == "lr" else pr_decode)(view).trace
    lines = workspace["trace"].read_bytes().splitlines()
    assert len(lines) == len(records) > 1
    # LR numbers its decodes from 1; PR's record 0 is the state before the
    # first step.
    first = 1 if method == "lr" else 0
    for number, (line, record) in enumerate(zip(lines, records), start=first):
        row = orjson.loads(line)
        if method == "lr":
            expected = {
                "iteration": number,
                "alpha": record.alpha,
                "lambdas": {"noun-left": record.lambdas[0], "pron-left": record.lambdas[1]},
                "ratios": {"noun-left": record.ratios[0], "pron-left": None},
                "objective": record.objective,
                "dual_value": record.dual_value,
            }
        else:
            labels = ("noun-left:upper", "noun-left:lower", "pron-left:upper", "pron-left:lower")
            expected = {
                "iteration": number,
                "grad_norm": record.grad_norm,
                "neg_log_z": record.neg_log_z,
                "lambdas": dict(zip(labels, record.lambdas, strict=True)),
            }
        assert record.iteration == number
        assert row == expected
        assert list(row) == list(expected)


def test_decode_requires_constraints_for_lr(workspace):
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--method", "lr",
            "--out", str(workspace["out"]),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("method", ["lr", "pr"])
def test_decode_names_an_empty_constraint_file(workspace, capsys, method):
    # The flag is given, so the fault is the file's content, not the usage.
    workspace["constraints"].write_text("[]\n")
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--method", method,
            "--out", str(workspace["out"]),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"cip: {workspace['constraints']}: no constraints for --method {method}\n"
    )
    assert not workspace["out"].exists()


def test_decode_rejects_trace_for_baseline(workspace, capsys):
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--out", str(workspace["out"]),
            "--trace", str(workspace["trace"]),
            "--report", str(workspace["report"]),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "decode: --trace requires --method lr or pr\n"
    for name in ("out", "trace", "report"):
        assert not workspace[name].exists()


@pytest.mark.parametrize(
    "method, trace, message",
    [
        ("lr", False, "decode: --method lr/pr requires --constraints\n"),
        ("pr", False, "decode: --method lr/pr requires --constraints\n"),
        ("baseline", True, "decode: --trace requires --method lr or pr\n"),
    ],
    ids=["lr-without-constraints", "pr-without-constraints", "trace-with-baseline"],
)
def test_decode_usage_error_comes_before_reading_any_file(
    tmp_path, capsys, method, trace, message
):
    # No input exists, so reading one first would exit 1 with a file error.
    missing = [tmp_path / name for name in ("nope.conllu", "nope.jsonl", "nope.json")]
    outputs = [tmp_path / name for name in ("out.conllu", "trace.jsonl", "report.json")]
    argv = [
        "decode",
        "--conllu", str(missing[0]),
        "--scores", str(missing[1]),
        "--config", str(missing[2]),
        "--method", method,
        "--out", str(outputs[0]),
        "--report", str(outputs[2]),
    ]
    if trace:
        argv += ["--constraints", str(missing[2]), "--trace", str(outputs[1])]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message)
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("report", [False, True], ids=["no-report", "report"])
@pytest.mark.parametrize("method", ["baseline", "lr", "pr"])
def test_empty_corpus_is_a_clean_error(tmp_path, capsys, method, report):
    gold = tmp_path / "empty.conllu"
    scores = tmp_path / "empty.jsonl"
    constraints = tmp_path / "constraints.json"
    out = tmp_path / "out.conllu"
    gold.write_text("")
    scores.write_text("")
    constraint = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.9, theta=0.01)
    with open(constraints, "w", encoding="utf-8") as handle:
        cip.save_constraints([constraint], handle)
    argv = [
        "decode",
        "--conllu", str(gold),
        "--scores", str(scores),
        "--constraints", str(constraints),
        "--method", method,
        "--out", str(out),
    ]
    if report:
        argv += ["--report", str(tmp_path / "report.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"cip: {gold}: corpus is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["baseline", "lr", "pr"])
def test_warning_names_exactly_the_unsatisfied_rows(workspace, tmp_path, capsys, method):
    with open(workspace["constraints"], encoding="utf-8") as handle:
        (oracle,) = cip.load_constraints(handle)
    constraints = [
        oracle,
        # Always satisfied: the widest band, and a tag that never occurs.
        cip.Constraint(id="verb-any", kind="unary", pos="VERB", r=0.5, theta=0.5),
        cip.Constraint(id="pron-none", kind="unary", pos="PRON", r=0.5, theta=0.0),
        # Not met by the corrupted baseline, which heads some DET tokens left.
        cip.Constraint(id="det-never-left", kind="unary", pos="DET", r=0.0, theta=0.0),
    ]
    path = tmp_path / "four.json"
    with open(path, "w", encoding="utf-8") as handle:
        cip.save_constraints(constraints, handle)
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(path),
            "--method", method,
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
        ]
    )
    assert code == 0
    rows = json.loads(workspace["report"].read_text())["constraints"]
    assert [row["id"] for row in rows] == [c.id for c in constraints]
    unsatisfied = [row["id"] for row in rows if not row["satisfied"]]
    assert not {"verb-any", "pron-none"} & set(unsatisfied)
    if method == "baseline":
        assert unsatisfied == ["noun-left", "det-never-left"]
    warning = f"warning: constraints not satisfied: {', '.join(unsatisfied)}\n"
    assert capsys.readouterr().err == (warning if unsatisfied else "")


def test_estimate_ratios_and_gap(workspace, tmp_path):
    target_report = tmp_path / "target_ratios.json"
    code = main(
        [
            "estimate-ratios",
            "--conllu", str(workspace["gold"]),
            "--constraints", str(workspace["constraints"]),
            "--out", str(target_report),
        ]
    )
    assert code == 0
    target = json.loads(target_report.read_text())
    (row,) = target["ratios"]
    assert row["count"] > 0
    assert 0 < row["coverage"] < 1

    # Source ratios from the baseline decode of this corpus (a crude stand-in
    # for another language's statistics).
    main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--out", str(workspace["out"]),
        ]
    )
    source_report = tmp_path / "source_ratios.json"
    code = main(
        [
            "estimate-ratios",
            "--conllu", str(workspace["out"]),
            "--constraints", str(workspace["constraints"]),
            "--out", str(source_report),
        ]
    )
    assert code == 0

    gap_report = tmp_path / "gap.json"
    code = main(
        [
            "ratio-gap",
            "--constraints", str(workspace["constraints"]),
            "--source", str(source_report),
            "--target", str(target_report),
            "--report", str(gap_report),
        ]
    )
    assert code == 0
    gap = json.loads(gap_report.read_text())["ratio_gap"]
    assert gap > 0.2  # the corruption shifted the decoded order statistics


def test_estimate_ratios_sampling(workspace, tmp_path):
    out = tmp_path / "sampled.json"
    code = main(
        [
            "estimate-ratios",
            "--conllu", str(workspace["gold"]),
            "--constraints", str(workspace["constraints"]),
            "--sample", "10",
            "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["ratios"][0]["count"] > 0


def test_estimate_ratios_rejects_a_negative_sample(workspace, capsys):
    argv = ["estimate-ratios", "--conllu", str(workspace["gold"]),
            "--constraints", str(workspace["constraints"]), "--sample", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --sample: must be positive, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sample", "x", "must be a positive integer, got 'x'"),
        ("--sample", "1.5", "must be a positive integer, got '1.5'"),
        ("--oracle-theta", "abc", "must be a number in [0, 0.5], got 'abc'"),
        ("--seed", "-1", "must be nonnegative, got -1"),
        ("--seed", "x", "must be a nonnegative integer, got 'x'"),
    ],
)
def test_estimate_ratios_names_a_malformed_number_plainly(workspace, capsys, flag, value, message):
    argv = ["estimate-ratios", "--conllu", str(workspace["gold"]),
            "--constraints", str(workspace["constraints"]), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


def test_estimate_ratios_rejects_an_empty_sample(workspace, tmp_path, capsys):
    # A sample of no sentences matches no arc, so every ratio would read null.
    out = tmp_path / "ratios.json"
    argv = ["estimate-ratios", "--conllu", str(workspace["gold"]),
            "--constraints", str(workspace["constraints"]), "--sample", "0", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --sample: must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.7", "-0.1", "7", "nan", "inf"])
@pytest.mark.parametrize("command", ["synth", "estimate-ratios"])
def test_oracle_theta_outside_its_range_is_a_usage_error(
    workspace, tmp_path, capsys, command, value
):
    # Checked by argparse, before any output file is written.
    outputs = [tmp_path / name for name in ("a.conllu", "b.jsonl", "c.json")]
    if command == "synth":
        argv = ["synth", "--spec", str(workspace["spec"]), "--out-conllu", str(outputs[0]),
                "--out-scores", str(outputs[1]), "--out-constraints", str(outputs[2])]
    else:
        argv = ["estimate-ratios", "--conllu", str(workspace["gold"]),
                "--constraints", str(workspace["constraints"]), "--out", str(outputs[0]),
                "--oracle-out", str(outputs[2])]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--oracle-theta", value])
    assert exc.value.code == 2
    expected = f"argument --oracle-theta: must lie in [0, 0.5], got {float(value)}"
    assert expected in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("value", ["0", "0.25", "0.5"])
@pytest.mark.parametrize("command", ["synth", "estimate-ratios"])
def test_oracle_theta_inside_its_range_sets_every_margin(
    workspace, tmp_path, command, value
):
    # Both bounds are inside the range.
    oracle = tmp_path / "oracle.json"
    if command == "synth":
        argv = ["synth", "--spec", str(workspace["spec"]),
                "--out-conllu", str(tmp_path / "a.conllu"),
                "--out-scores", str(tmp_path / "b.jsonl"), "--out-constraints", str(oracle)]
    else:
        argv = ["estimate-ratios", "--conllu", str(workspace["gold"]),
                "--constraints", str(workspace["constraints"]), "--oracle-out", str(oracle)]
    assert main(argv + ["--oracle-theta", value]) == 0
    with open(oracle, encoding="utf-8") as handle:
        written = cip.load_constraints(handle)
    assert written and all(c.theta == float(value) for c in written)


def test_estimate_ratios_names_the_corpus_a_sample_exceeds(workspace, capsys):
    argv = ["estimate-ratios", "--conllu", str(workspace["gold"]),
            "--constraints", str(workspace["constraints"]), "--sample", "31"]
    assert main(argv) == 1
    expected = f"cip: {workspace['gold']}: sample_size 31 exceeds corpus size 30\n"
    assert capsys.readouterr() == ("", expected)


def test_estimate_ratios_honours_root_counts_left(workspace, tmp_path):
    # VERB tokens attach to the root in most sentences, so counting root
    # arcs as left-headed moves the VERB ratio.
    constraints = tmp_path / "verb.json"
    constraints.write_text(
        json.dumps([{"id": "verb-left", "kind": "unary", "pos": "VERB", "r": 0.5, "theta": 0.1}])
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"root_counts_left": True}))
    oracles = {}
    for name, extra in (("default", []), ("root-left", ["--config", str(config)])):
        oracles[name] = tmp_path / f"oracle-{name}.json"
        code = main(
            [
                "estimate-ratios",
                "--conllu", str(workspace["gold"]),
                "--constraints", str(constraints),
                "--oracle-out", str(oracles[name]),
                *extra,
            ]
        )
        assert code == 0

    # Scores under which the gold trees are the unique best decode.
    with open(workspace["gold"], encoding="utf-8") as handle:
        sentences = cip.read_conllu(handle)
    gold_scores = tmp_path / "gold_scores.jsonl"
    with open(gold_scores, "w", encoding="utf-8") as handle:
        matrices = []
        for s in sentences:
            grid = np.zeros((len(s) + 1, len(s)))
            grid[list(s.gold_heads), np.arange(len(s))] = 10.0
            matrices.append(cip.ScoreMatrix(grid, sent_id=s.sent_id))
        cip.write_scores(matrices, handle)
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(gold_scores),
            "--constraints", str(oracles["root-left"]),
            "--config", str(config),
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
        ]
    )
    assert code == 0
    report = json.loads(workspace["report"].read_text())
    assert report["uas"] == 1.0
    (row,) = report["constraints"]
    ratios = {}
    for name, path in oracles.items():
        with open(path, encoding="utf-8") as handle:
            (constraint,) = cip.load_constraints(handle)
        ratios[name] = constraint.r
    assert ratios["root-left"] == row["ratio_final"]
    assert ratios["root-left"] > ratios["default"]


def test_pr_decode_survives_large_score_gap(tmp_path):
    # exp(-900) underflows: the losing heads of token 2 get q = 0.
    gold = tmp_path / "gold.conllu"
    scores = tmp_path / "scores.jsonl"
    constraints = tmp_path / "constraints.json"
    out = tmp_path / "out.conllu"
    sentence = cip.Sentence(
        forms=("the", "dog", "ran"), upos=("DET", "NOUN", "VERB"), sent_id="s1"
    )
    grid = np.zeros((4, 3))
    grid[0, 1] = 900.0
    with open(gold, "w", encoding="utf-8") as handle:
        cip.write_conllu([sentence], handle)
    with open(scores, "w", encoding="utf-8") as handle:
        cip.write_scores([cip.ScoreMatrix(grid, sent_id="s1")], handle)
    constraint = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=1.0, theta=0.01)
    with open(constraints, "w", encoding="utf-8") as handle:
        cip.save_constraints([constraint], handle)
    code = main(
        [
            "decode",
            "--conllu", str(gold),
            "--scores", str(scores),
            "--constraints", str(constraints),
            "--method", "pr",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        (decoded,) = cip.read_conllu(handle)
    assert cip.ParseTree(decoded.gold_heads).heads[1] == 0


def range_case(tmp_path, grid, single_root):
    """The paths of a one-sentence ``cip decode`` on score ``grid``, and its
    argument list for every method."""
    paths = {name: tmp_path / name for name in ("gold", "scores", "cons", "config", "out")}
    sentence = cip.Sentence(forms=("dogs", "ran"), upos=("NOUN", "VERB"))
    with open(paths["gold"], "w", encoding="utf-8") as handle:
        cip.write_conllu([sentence], handle)
    with open(paths["scores"], "w", encoding="utf-8") as handle:
        cip.write_scores([cip.ScoreMatrix(np.array(grid))], handle)
    constraint = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.5, theta=0.1)
    with open(paths["cons"], "w", encoding="utf-8") as handle:
        cip.save_constraints([constraint], handle)
    paths["config"].write_text(json.dumps({"single_root": single_root}))
    argv = [
        "decode",
        "--conllu", str(paths["gold"]),
        "--scores", str(paths["scores"]),
        "--constraints", str(paths["cons"]),
        "--config", str(paths["config"]),
        "--out", str(paths["out"]),
    ]
    return paths, argv


@pytest.mark.parametrize("method", ["baseline", "lr", "pr"])
def test_single_root_range_from_2_53_decodes(tmp_path, capsys, method):
    # A root penalty of 1 + (max - min) would round to the range here; the
    # root-last decode needs none and keeps one root child.
    grid = [[0.0, 0.0], [0.0, -1e16], [-1e16, 0.0]]
    paths, argv = range_case(tmp_path, grid, single_root=True)
    assert main([*argv, "--method", method]) == 0
    assert capsys.readouterr() == ("", "")
    with open(paths["out"], encoding="utf-8") as handle:
        (decoded,) = cip.read_conllu(handle)
    assert decoded.gold_heads == (0, 1)


@pytest.mark.parametrize(
    "grid, projective, rule",
    [
        # Entering the cycle 2 -> 1 -> 2 from the root overflows.
        ([[-1.7e308, -1.7e308], [0.0, 5e307], [1e308, 0.0]], False, "spanning-tree"),
        # A chart cell would sum two scores of 1.5e308.
        ([[1.5e308, 0.0], [0.0, 0.0], [1.5e308, 0.0]], True, "projective"),
    ],
    # The ids these cases had beside the single-root one, kept so that runs
    # of the suite stay comparable.
    ids=["grid1-False-False-spanning-tree", "grid2-True-False-projective"],
)
@pytest.mark.parametrize("method", ["baseline", "lr", "pr"])
def test_decoder_range_error_names_the_scores(tmp_path, capsys, grid, projective, rule, method):
    paths, argv = range_case(tmp_path, grid, single_root=False)
    assert main([*argv, "--method", method] + ["--projective"] * projective) == 1
    expected = f"cip: {paths['scores']}: score range too large for {rule} decoding\n"
    assert capsys.readouterr() == ("", expected)
    assert not paths["out"].exists()


def test_lr_score_overflow_names_the_scores(tmp_path, capsys):
    # The baseline tree heads the NOUN from its left, so LR's second
    # iteration shifts the left arcs by -1e308, and the 1 -> 3 arc overflows.
    paths = {name: tmp_path / name for name in ("gold", "scores", "cons", "config", "out")}
    sentence = cip.Sentence(forms=("ran", "big", "dogs"), upos=("VERB", "ADJ", "NOUN"))
    with open(paths["gold"], "w", encoding="utf-8") as handle:
        cip.write_conllu([sentence], handle)
    grid = np.zeros((4, 3))
    grid[2, 2], grid[1, 2] = 1.0, -1e308
    with open(paths["scores"], "w", encoding="utf-8") as handle:
        cip.write_scores([cip.ScoreMatrix(grid)], handle)
    constraint = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.0, theta=0.0)
    with open(paths["cons"], "w", encoding="utf-8") as handle:
        cip.save_constraints([constraint], handle)
    paths["config"].write_text(json.dumps({"lr": {"alpha0": 1e308, "max_iter": 3}}))
    argv = [
        "decode",
        "--conllu", str(paths["gold"]),
        "--scores", str(paths["scores"]),
        "--constraints", str(paths["cons"]),
        "--config", str(paths["config"]),
        "--method", "lr",
        "--out", str(paths["out"]),
    ]
    assert main(argv) == 1
    expected = f"cip: {paths['scores']}: non-finite score at a non-self position\n"
    assert capsys.readouterr() == ("", expected)


def test_compile_constraints(tmp_path):
    ratios = {"en": 0.35, "fr": 0.4, "ar": 0.45, "ta": 0.9, "ur": 0.88, "da": 0.4, "cy": 0.5}
    ratios_path = tmp_path / "unary.json"
    ratios_path.write_text(json.dumps(ratios))
    out = tmp_path / "compiled.json"
    code = main(
        [
            "compile-constraints",
            "--wals", os.path.join(DATA, "wals_fixture.csv"),
            "--templates", os.path.join(DATA, "templates.json"),
            "--target", "hi",
            "--unary-ratios", str(ratios_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        compiled = cip.load_constraints(handle)
    by_id = {c.id: c for c in compiled}
    # Hindi postpositions: dominant noun-before-adposition order.
    assert (by_id["C2"].r, by_id["C2"].theta) == (0.875, 0.125)
    # Hindi adjective-noun order: the noun-first ratio is the complement.
    assert (by_id["C3"].r, by_id["C3"].theta) == (0.125, 0.125)
    # The regression sees ur/ta (OV, postpositional) with high ratios.
    assert by_id["C1"].r > 0.5
    assert by_id["C1"].theta == 0.125


def test_compile_constraints_missing_feature(tmp_path):
    wals = tmp_path / "tiny.csv"
    wals.write_text("lang,feature,value\nen,85A,Prepositions\n")
    out = tmp_path / "compiled.json"
    templates = tmp_path / "templates.json"
    templates.write_text(
        json.dumps(
            [
                {
                    "id": "C2",
                    "kind": "binary",
                    "pos": "NOUN",
                    "pos2": "ADP",
                    "feature": "85A",
                    "orientations": {"Prepositions": "pos2_first"},
                }
            ]
        )
    )
    code = main(
        [
            "compile-constraints",
            "--wals", str(wals),
            "--templates", str(templates),
            "--target", "zz",
            "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        (constraint,) = cip.load_constraints(handle)
    assert (constraint.r, constraint.theta) == (0.5, 0.25)


def test_compile_constraints_names_a_repeated_row(tmp_path, capsys):
    wals = tmp_path / "tiny.csv"
    wals.write_text("lang,feature,value\nxx,85A,Postpositions\nxx,85A,Prepositions\n")
    out = tmp_path / "compiled.json"
    argv = [
        "compile-constraints",
        "--wals", str(wals),
        "--templates", os.path.join(DATA, "templates.json"),
        "--target", "xx",
        "--out", str(out),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"cip: {wals}: line 3: repeated feature '85A' for 'xx'\n"
    assert not out.exists()


with open(os.path.join(DATA, "templates.json"), encoding="utf-8") as _handle:
    UNARY_TEMPLATE, BINARY_TEMPLATE, _ = json.load(_handle)
UNARY_RATIOS = {"en": 0.35, "fr": 0.4, "ar": 0.45, "ta": 0.9}


def _without(template, key):
    return {k: v for k, v in template.items() if k != key}


@pytest.mark.parametrize(
    "templates, ratios, message",
    [
        ([_without(UNARY_TEMPLATE, "id")], UNARY_RATIOS, "{t}: template 0: missing key 'id'"),
        (
            [UNARY_TEMPLATE, _without(BINARY_TEMPLATE, "id")],
            UNARY_RATIOS,
            "{t}: template 1: missing key 'id'",
        ),
        (
            [_without(BINARY_TEMPLATE, "pos2")],
            UNARY_RATIOS,
            "{t}: template 0: binary constraint requires pos2",
        ),
        (
            [{**BINARY_TEMPLATE, "orientations": []}],
            UNARY_RATIOS,
            "{t}: template 0: orientations: expected a JSON object, got []",
        ),
        ([5], UNARY_RATIOS, "{t}: template 0: expected a JSON object, got 5"),
        (UNARY_TEMPLATE, UNARY_RATIOS, "{t}: expected a JSON array, got {{"),
        ([UNARY_TEMPLATE], [0.35, 0.4], "{r}: expected a JSON object, got [0.35, 0.4]"),
        ([UNARY_TEMPLATE], {**UNARY_RATIOS, "fr": None}, "{r}: fr: expected a number, got None"),
        (
            [UNARY_TEMPLATE, {**BINARY_TEMPLATE, "orientations": {"Prepositions": "pos2_first"}}],
            UNARY_RATIOS,
            "{t}: template 1: no orientation configured for feature value 'Postpositions'",
        ),
        (
            [UNARY_TEMPLATE, {**BINARY_TEMPLATE, "thetaa": 0.1}],
            UNARY_RATIOS,
            "{t}: template 1: unknown key 'thetaa'",
        ),
        (
            [{**UNARY_TEMPLATE, "feature": "85A"}],
            UNARY_RATIOS,
            "{t}: template 0: unknown key 'feature'",
        ),
        ([{**UNARY_TEMPLATE, "features": "85A"}], UNARY_RATIOS, "{t}: template 0: features: "),
        ([UNARY_TEMPLATE], {**UNARY_RATIOS, "ar": float("nan")}, "{r}: ar: expected a finite"),
        ([{**UNARY_TEMPLATE, "r": 0.01}], UNARY_RATIOS, "{t}: template 0: unknown key 'r'"),
        (
            [UNARY_TEMPLATE, {**BINARY_TEMPLATE, "theta": 0.3}],
            UNARY_RATIOS,
            "{t}: template 1: unknown key 'theta'",
        ),
        ([BINARY_TEMPLATE, BINARY_TEMPLATE], UNARY_RATIOS, "{t}: template 1: repeated id 'C2'"),
        ([_without(UNARY_TEMPLATE, "kind")], UNARY_RATIOS, "{t}: template 0: missing key 'kind'"),
        (
            [_without(BINARY_TEMPLATE, "feature")],
            UNARY_RATIOS,
            "{t}: template 0: missing key 'feature'",
        ),
        # The target's own ratio is left out of the regression.
        ([UNARY_TEMPLATE], {"hi": 0.5}, "{r}: need at least 2 training languages"),
        ([UNARY_TEMPLATE], {"hi": 0.5, "en": 0.3}, "{r}: need at least 2 training languages"),
        # An empty file is given, not missing.
        ([UNARY_TEMPLATE], {}, "{r}: need at least 2 training languages"),
        (
            [{**BINARY_TEMPLATE, "orientations": {"Postpositions": "pos1_first", "Prepositions": 5}}],
            UNARY_RATIOS,
            "{t}: template 0: orientation of feature value 'Prepositions': expected one of"
            " 'pos1_first', 'pos2_first', 'no_dominant', got 5",
        ),
        (
            [UNARY_TEMPLATE, {**BINARY_TEMPLATE, "kind": "ternary"}],
            UNARY_RATIOS,
            "{t}: template 1: kind: expected 'binary' or 'unary', got 'ternary'",
        ),
    ],
    ids=[
        "unary-without-id", "binary-without-id", "binary-without-pos2", "list-orientations",
        "template-not-an-object", "templates-not-an-array", "ratios-not-an-object",
        "null-ratio", "orientation-missing-target-value", "misspelt-theta", "unary-with-feature",
        "string-features", "nan-ratio", "unary-sets-r", "binary-sets-theta", "repeated-id",
        "without-kind", "binary-without-feature", "ratios-only-target", "ratios-one-other",
        "empty-ratios", "number-orientation", "unknown-kind",
    ],
)
def test_malformed_template_or_ratios_is_a_clean_error(
    tmp_path, capsys, templates, ratios, message
):
    paths = {"t": tmp_path / "templates.json", "r": tmp_path / "unary.json"}
    paths["t"].write_text(json.dumps(templates))
    paths["r"].write_text(json.dumps(ratios))
    out = tmp_path / "compiled.json"
    code = main(
        [
            "compile-constraints",
            "--wals", os.path.join(DATA, "wals_fixture.csv"),
            "--templates", str(paths["t"]),
            "--target", "hi",
            "--unary-ratios", str(paths["r"]),
            "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("cip: " + message.format(**paths)) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "templates, unary_ratios, message",
    [
        (
            [UNARY_TEMPLATE],
            False,
            "compile-constraints: unary templates require --unary-ratios\n",
        ),
    ],
    ids=["unary-without-ratios"],
)
def test_compile_constraints_usage_error_exits_2(
    tmp_path, capsys, templates, unary_ratios, message
):
    paths = {"t": tmp_path / "templates.json", "r": tmp_path / "unary.json"}
    paths["t"].write_text(json.dumps(templates))
    paths["r"].write_text(json.dumps(UNARY_RATIOS))
    out = tmp_path / "compiled.json"
    argv = [
        "compile-constraints",
        "--wals", os.path.join(DATA, "wals_fixture.csv"),
        "--templates", str(paths["t"]),
        "--target", "hi",
        "--out", str(out),
    ]
    assert main(argv + (["--unary-ratios", str(paths["r"])] if unary_ratios else [])) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_config_file_controls_inference(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lr": {"max_iter": 1, "alpha0": 1e-6}}))
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--method", "lr",
            "--config", str(config),
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
        ]
    )
    assert code == 0
    report = json.loads(workspace["report"].read_text())
    assert report["iterations"] == 1
    assert not report["converged"]


def test_missing_file_is_a_clean_error(tmp_path):
    code = main(
        [
            "decode",
            "--conllu", str(tmp_path / "nope.conllu"),
            "--scores", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "out.conllu"),
        ]
    )
    assert code == 1


BAD_CONLLU = "1\tdog\t_\tNOUN\t_\t_\tseven\t_\t_\t_\n\n"
BAD_JSON = '{"id": }'


# One malformed file for each input flag of each subcommand.
MALFORMED_INPUTS = [
    ("decode", "--conllu", BAD_CONLLU),
    ("decode", "--scores", '{"n": 1, "scores": [[0.5]]}\n'),
    ("decode", "--constraints", BAD_JSON),
    ("decode", "--config", BAD_JSON),
    ("evaluate", "--pred", BAD_CONLLU),
    ("evaluate", "--gold", b"\xff\n"),
    ("estimate-ratios", "--conllu", BAD_CONLLU),
    ("estimate-ratios", "--constraints", BAD_JSON),
    ("estimate-ratios", "--config", BAD_JSON),
    ("compile-constraints", "--wals", "lang,feature,value\nhi,85A\n"),
    ("compile-constraints", "--templates", BAD_JSON),
    ("compile-constraints", "--unary-ratios", BAD_JSON),
    ("synth", "--spec", BAD_JSON),
    ("ratio-gap", "--source", BAD_JSON),
    ("ratio-gap", "--target", b"\xff"),
    ("ratio-gap", "--constraints", BAD_JSON),
]


@pytest.mark.parametrize(
    "command, flag, content",
    MALFORMED_INPUTS,
    ids=[f"{command}{flag[1:]}" for command, flag, _ in MALFORMED_INPUTS],
)
def test_malformed_input_file_is_named(workspace, tmp_path, capsys, command, flag, content):
    """Malformed content in any input file exits 1 with one line naming that
    file, and writes no output."""
    report = tmp_path / "ratios.json"
    report.write_text(json.dumps({"ratios": [GOOD_ROW]}))
    config = tmp_path / "config.json"
    config.write_text("{}")
    out = tmp_path / "written"
    inputs = {
        "decode": {
            "--conllu": workspace["gold"], "--scores": workspace["scores"],
            "--constraints": workspace["constraints"], "--config": config,
            "--method": "lr", "--out": out,
        },
        "evaluate": {"--pred": workspace["gold"], "--gold": workspace["gold"], "--report": out},
        "estimate-ratios": {
            "--conllu": workspace["gold"], "--constraints": workspace["constraints"],
            "--config": config, "--out": out,
        },
        "compile-constraints": {
            "--wals": os.path.join(DATA, "wals_fixture.csv"),
            "--templates": os.path.join(DATA, "templates.json"),
            "--unary-ratios": os.path.join(DATA, "unary_ratios.json"),
            "--target": "hi", "--out": out,
        },
        "synth": {"--spec": workspace["spec"], "--out-conllu": out, "--out-scores": out},
        "ratio-gap": {
            "--constraints": workspace["constraints"], "--source": report, "--target": report,
            "--report": out,
        },
    }[command]
    bad = tmp_path / "bad"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    args = {**inputs, flag: bad}
    assert main([command, *(str(part) for item in args.items() for part in item)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cip: {bad}: ") and err.count("\n") == 1
    assert not out.exists()


def _mismatched(workspace, bad, case):
    """The argv of one input pair that does not line up, with ``bad`` as one
    of the two files, and the error line it must print."""
    gold, out = workspace["gold"], workspace["out"]
    with open(gold, encoding="utf-8") as handle:
        sentences = cip.read_conllu(handle)
    first, *rest = workspace["scores"].read_text().splitlines(keepends=True)
    first = json.loads(first)
    n = first["n"]
    decode = ["decode", "--conllu", gold, "--scores", bad, "--out", out]
    evaluate = ["evaluate", "--pred", bad, "--gold", gold, "--report", out]
    if case == "score-count":
        bad.write_text("".join(rest[:3]))
        return decode, f"{bad}: 3 score matrices but {gold}: 30 sentences"
    if case == "score-id":
        bad.write_text(json.dumps({**first, "sent_id": "x"}) + "\n" + "".join(rest))
        return decode, f"{bad}: entry 0: sent_id mismatch ('synth-0' vs 'x')"
    if case == "score-length":
        wide = {**first, "n": n + 1, "scores": [[0.0] * (n + 1)] * (n + 2)}
        bad.write_text(json.dumps(wide) + "\n" + "".join(rest))
        return decode, f"{bad}: entry 0: matrix is for {n + 1} tokens, sentence has {n}"
    if case == "pred-count":
        with open(bad, "w", encoding="utf-8") as handle:
            cip.write_conllu(sentences[:3], handle)
        return evaluate, f"{bad}: 3 sentences but {gold}: 30 sentences"
    if case == "pred-length":
        other = next(s for s in sentences if len(s) != n)
        with open(bad, "w", encoding="utf-8") as handle:
            cip.write_conllu([other, *sentences[1:]], handle)
        return evaluate, f"{gold}: sentence 0: tree and sentence lengths differ"
    assert case in ("gold-heads", "ratio-gold-heads")
    unannotated = dataclasses.replace(sentences[0], gold_heads=None, gold_labels=None)
    with open(bad, "w", encoding="utf-8") as handle:
        cip.write_conllu([unannotated, *sentences[1:]], handle)
    if case == "ratio-gold-heads":
        return (
            ["estimate-ratios", "--conllu", bad, "--constraints", workspace["constraints"],
             "--out", out],
            f"{bad}: sentence {unannotated.sent_id!r} has no gold heads",
        )
    return (
        ["evaluate", "--pred", gold, "--gold", bad, "--report", out],
        f"{bad}: sentence 0 has no gold heads",
    )


@pytest.mark.parametrize(
    "case",
    [
        "score-count", "score-id", "score-length", "pred-count", "pred-length", "gold-heads",
        "ratio-gold-heads",
    ],
)
def test_mismatched_input_files_are_named(workspace, tmp_path, capsys, case):
    """Two input files that do not line up exit 1 with one line that starts
    with the file at fault; a count mismatch names both files."""
    argv, message = _mismatched(workspace, tmp_path / "bad", case)
    assert main([str(part) for part in argv]) == 1
    assert capsys.readouterr().err == f"cip: {message}\n"
    assert not workspace["out"].exists()


def test_config_with_removed_optimizer_key_is_a_clean_error(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pr": {"optimizer": "adaptive_moments"}}))
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--config", str(config),
            "--out", str(workspace["out"]),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"cip: {config}: bad config: ")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"single_root": "false"}, "single_root: expected true or false, got 'false'"),
        ({"root_counts_left": 0}, "root_counts_left: expected true or false, got 0"),
        ({"lr": {"max_iter": 2.5}}, "lr: max_iter: expected an integer, got 2.5"),
        ({"pr": {"max_iter": 2.5}}, "pr: max_iter: expected an integer, got 2.5"),
        ({"pr": {"batch_size": 2.5}}, "pr: batch_size: expected an integer, got 2.5"),
        ({"pr": {"seed": True}}, "pr: seed: expected an integer, got True"),
        ({"lr": {"alpha0": "50"}}, "lr: alpha0: expected a number, got '50'"),
        ({"pr": {"grad_tol": False}}, "pr: grad_tol: expected a number, got False"),
        ({"lr": [60]}, "lr: expected a JSON object, got [60]"),
        ({"pr": {"optimizer": "adaptive_moments"}}, "pr: unknown key 'optimizer'"),
        ({"lr": {"eta": 0}}, "lr: eta must lie in (0, 1]"),
        ({"single-root": True}, "unknown key 'single-root'"),
        ({"lr": {"alpha0": float("nan")}}, "lr: alpha0: expected a finite number, got nan"),
        ({"pr": {"lr0": float("inf")}}, "pr: lr0: expected a finite number, got inf"),
        ({"pr": {"seed": -1}}, "pr: seed must be nonnegative"),
        ({"pr": {"grad_tol": -1.0}}, "pr: grad_tol must be nonnegative"),
    ],
    ids=[
        "string-single-root", "int-root-counts-left", "float-lr-max-iter", "float-pr-max-iter",
        "float-batch-size", "bool-seed", "string-alpha0", "bool-grad-tol", "list-section",
        "unknown-key", "eta-out-of-range", "unknown-top-level-key", "nan-alpha0", "inf-lr0",
        "negative-seed", "negative-grad-tol",
    ],
)
def test_config_value_of_wrong_type_is_a_clean_error(
    workspace, tmp_path, capsys, config, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--method", "lr",
            "--config", str(path),
            "--out", str(workspace["out"]),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"cip: {path}: bad config: {message}\n"
    assert not workspace["out"].exists()


def test_config_reads_json_numbers_and_booleans(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"lr": {"alpha0": 5, "max_iter": 3}, "pr": {"lr0": 2}, "single_root": True})
    )
    with open(path, encoding="utf-8") as handle:
        config = InferenceConfig.from_stream(handle)
    assert config == InferenceConfig(
        lr=cip.LrParams(alpha0=5.0, max_iter=3), pr=cip.PrParams(lr0=2.0), single_root=True
    )
    assert type(config.lr.alpha0) is float and type(config.lr.max_iter) is int


def test_output_files_get_the_mode_open_gives(workspace, tmp_path):
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--out", str(workspace["out"]),
        ]
    )
    assert code == 0
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as handle:
        handle.write("x\n")
    assert stat.S_IMODE(os.stat(workspace["out"]).st_mode) == stat.S_IMODE(
        os.stat(plain).st_mode
    )


def test_sampled_coverage_matches_full_coverage(tmp_path):
    # Every sentence is the same, so a sample's matched-arc share equals the
    # corpus's.
    sentence = cip.Sentence(
        forms=("a", "b", "c", "d"), upos=("DET", "NOUN", "VERB", "NOUN"), gold_heads=(2, 3, 0, 3)
    )
    gold = tmp_path / "gold.conllu"
    with open(gold, "w", encoding="utf-8") as handle:
        cip.write_conllu([sentence] * 20, handle)
    constraints = tmp_path / "constraints.json"
    constraints.write_text(
        json.dumps([{"id": "noun-left", "kind": "unary", "pos": "NOUN", "r": 0.5, "theta": 0.1}])
    )
    coverage = {}
    for name, extra in (("full", []), ("sampled", ["--sample", "5", "--seed", "3"])):
        out = tmp_path / f"{name}.json"
        argv = ["estimate-ratios", "--conllu", str(gold), "--constraints", str(constraints)]
        assert main([*argv, "--out", str(out), *extra]) == 0
        (row,) = json.loads(out.read_text())["ratios"]
        coverage[name] = row["coverage"]
    assert coverage["full"] == coverage["sampled"] == 0.5


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            [{"id": "x", "kind": "unary", "pos": "NOUN", "r": 0.5}],
            "constraint 0: missing key 'theta'",
        ),
        ([[1]], "constraint 0: expected a JSON object"),
        (
            [{"id": "x", "kind": "unary", "pos": "NOUN", "r": "high", "theta": 0.1}],
            "constraint 0: r: expected a number, got 'high'",
        ),
        (
            [{"id": "x", "kind": "unary", "pos": "NOUN", "r": True, "theta": 0.1}],
            "constraint 0: r: expected a number, got True",
        ),
        (
            [{"id": "x", "kind": "unary", "pos": "NOUN", "r": "0.9", "theta": 0.1}],
            "constraint 0: r: expected a number, got '0.9'",
        ),
        (
            [{"id": "x", "kind": "unary", "pos": ["NOUN"], "r": 0.9, "theta": 0.1}],
            "constraint 0: pos: expected a string, got ['NOUN']",
        ),
        (
            [{"id": "x", "kind": "unary", "pos": "NOUN", "r": 0.9, "theta": 0.1, "weight": 2}],
            "constraint 0: unknown key 'weight'",
        ),
        (
            [{"id": "x", "kind": "unary", "pos": pos, "r": 0.5, "theta": 0.1} for pos in "AB"],
            "constraint 1: repeated id 'x'",
        ),
    ],
    ids=["missing-theta", "not-an-object", "string-r", "bool-r", "numeric-string-r",
         "list-pos", "unknown-key", "repeated-id"],
)
def test_malformed_constraint_is_a_clean_error(workspace, tmp_path, capsys, entries, message):
    constraints = tmp_path / "bad.json"
    constraints.write_text(json.dumps(entries))
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(constraints),
            "--method", "lr",
            "--out", str(workspace["out"]),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cip: {constraints}: {message}") and err.count("\n") == 1


def test_spec_without_pos_weights_is_a_clean_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({k: v for k, v in SPEC.items() if k != "pos_weights"}))
    code = main(
        [
            "synth",
            "--spec", str(spec),
            "--out-conllu", str(tmp_path / "gold.conllu"),
            "--out-scores", str(tmp_path / "scores.jsonl"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"cip: {spec}: spec: missing key 'pos_weights'\n"


def test_ratio_gap_without_shared_ratios_names_the_reason(workspace, tmp_path, capsys):
    reports = {}
    for name, ratio in (("source", None), ("target", 0.9)):
        reports[name] = tmp_path / f"{name}.json"
        row = {"id": "noun-left", "ratio": ratio, "count": 3, "coverage": 0.2}
        reports[name].write_text(json.dumps({"ratios": [row]}))
    code = main(
        [
            "ratio-gap",
            "--constraints", str(workspace["constraints"]),
            "--source", str(reports["source"]),
            "--target", str(reports["target"]),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.endswith(
        f"cip: {reports['source']} and {reports['target']}: "
        "no constraint has a defined ratio in both reports\n"
    )


def test_ratio_gap_with_zero_coverage_names_both_reports(workspace, tmp_path, capsys):
    reports = {}
    for name, coverage in (("source", 0.2), ("target", 0.0)):
        reports[name] = tmp_path / f"{name}.json"
        row = {"id": "noun-left", "ratio": 0.9, "count": 3, "coverage": coverage}
        reports[name].write_text(json.dumps({"ratios": [row]}))
    code = main(
        [
            "ratio-gap",
            "--constraints", str(workspace["constraints"]),
            "--source", str(reports["source"]),
            "--target", str(reports["target"]),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"cip: {reports['source']} and {reports['target']}: all coverages are zero\n"
    )


GOOD_ROW = {"id": "noun-left", "ratio": 0.9, "count": 3, "coverage": 0.2}


@pytest.mark.parametrize(
    "report, message",
    [
        ({"rows": []}, "expected a JSON object with a 'ratios' list"),
        ([GOOD_ROW], "expected a JSON object with a 'ratios' list"),
        ({"ratios": ["x"]}, "ratios row 0: expected a JSON object, got 'x'"),
        ({"ratios": [{"id": "x"}]}, "ratios row 0: missing key 'ratio'"),
        (
            {"ratios": [GOOD_ROW, {k: v for k, v in GOOD_ROW.items() if k != "id"}]},
            "ratios row 1: missing key 'id'",
        ),
        (
            {"ratios": [{k: v for k, v in GOOD_ROW.items() if k != "coverage"}]},
            "ratios row 0: missing key 'coverage'",
        ),
        ({"ratios": [{**GOOD_ROW, "coverage": None}]}, "ratios row 0: coverage: "),
        ({"ratios": [{**GOOD_ROW, "ratio": [0.9]}]}, "ratios row 0: ratio: "),
        ({"ratios": [{**GOOD_ROW, "id": ["noun-left"]}]}, "ratios row 0: id: "),
        (
            {"ratios": [{**GOOD_ROW, "coverage": True}]},
            "ratios row 0: coverage: expected a number, got True",
        ),
        (
            {"ratios": [{**GOOD_ROW, "ratio": "0.5"}]},
            "ratios row 0: ratio: expected a number, got '0.5'",
        ),
        ({"ratios": [GOOD_ROW, GOOD_ROW]}, "ratios row 1: repeated id 'noun-left'"),
    ],
    ids=[
        "no-ratios", "not-an-object", "row-not-an-object", "row-without-ratio",
        "row-without-id", "row-without-coverage", "null-coverage", "list-ratio", "list-id",
        "bool-coverage", "numeric-string-ratio", "repeated-id",
    ],
)
def test_malformed_ratio_report_is_a_clean_error(workspace, tmp_path, capsys, report, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"ratios": [GOOD_ROW]}))
    bad.write_text(json.dumps(report))
    for source, target in ((bad, good), (good, bad)):
        code = main(
            [
                "ratio-gap",
                "--constraints", str(workspace["constraints"]),
                "--source", str(source),
                "--target", str(target),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"cip: {bad}: {message}")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("pos_weights", [["NOUN", 1.0]], "spec: pos_weights: expected a JSON object"),
        ("n_sentences", None, "spec: n_sentences: expected an integer, got None"),
        ("sigma", "wide", "spec: sigma: expected a number, got 'wide'"),
        ("planted", 5, "spec: planted: expected a JSON array"),
        ("allow_nonprojective", "no", "spec: allow_nonprojective: expected true or false"),
        ("n_sentences", 3.7, "spec: n_sentences: expected an integer, got 3.7"),
        ("sigma", "0.1", "spec: sigma: expected a number, got '0.1'"),
        ("pos_weights", {"NOUN": "1"}, "spec: pos_weights: expected a number, got '1'"),
        ("flip-prob", 1.0, "spec: unknown key 'flip-prob'"),
        ("sigm", 0.3, "spec: unknown key 'sigm'"),
        ("planted", SPEC["planted"] * 2, "spec: planted: constraint 1: repeated id 'noun-left'"),
        ("seed", -1, "spec: seed must be nonnegative"),
    ],
    ids=[
        "list-pos-weights", "null-n-sentences", "string-sigma", "int-planted", "string-flag",
        "float-n-sentences", "numeric-string-sigma", "string-pos-weight", "dashed-key",
        "misspelt-key", "repeated-planted-id", "negative-seed",
    ],
)
def test_spec_field_of_wrong_type_is_a_clean_error(tmp_path, capsys, key, value, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, key: value}))
    code = main(
        [
            "synth",
            "--spec", str(spec),
            "--out-conllu", str(tmp_path / "gold.conllu"),
            "--out-scores", str(tmp_path / "scores.jsonl"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cip: {spec}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "fields, message",
    [
        (
            # Length-2 sentences hold 30 right-headed tokens at most.
            {"min_len": 2, "max_len": 2, "pos_weights": {"NOUN": 0.9, "VERB": 0.1},
             "planted": [{"id": "noun-left", "kind": "unary", "pos": "NOUN", "r": 0.0}]},
            "planted ratio 0.0 for noun-left is infeasible: need 0 left-headed and 54",
        ),
        # Finite weights whose token count, or whose sum, overflows.
        ({"pos_weights": {"NOUN": 1e308, "VERB": 1.0}}, "planted ratio 0.9 for noun-left is"),
        (
            {"pos_weights": {"NOUN": 0.3, "VERB": 1e308, "DET": 1e308}},
            "filler POS weights sum past the largest float",
        ),
    ],
    ids=["infeasible", "huge-planted-weight", "huge-filler-weights"],
)
def test_synth_content_error_names_the_spec(tmp_path, capsys, fields, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, **fields}))
    outputs = [tmp_path / "gold.conllu", tmp_path / "scores.jsonl"]
    code = main(["synth", "--spec", str(spec),
                 "--out-conllu", str(outputs[0]), "--out-scores", str(outputs[1])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cip: {spec}: {message}") and err.count("\n") == 1
    assert not any(path.exists() for path in outputs)


def test_decode_holds_the_scores_once(workspace, monkeypatch):
    # Once the view is built, cmd_decode drops the corpus: its score
    # matrices are gone by the time the trees are written.
    refs, alive = [], []
    real_of, real_write = cli.CorpusView.of, cip.core.write_conllu

    def of(corpus, *args, **rule):
        refs.extend(weakref.ref(matrix) for matrix in corpus.matrices)
        return real_of(corpus, *args, **rule)

    def write_conllu(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return real_write(*args)

    monkeypatch.setattr(cli.CorpusView, "of", of)
    monkeypatch.setattr(cip.core, "write_conllu", write_conllu)
    argv = [
        "decode",
        "--conllu", str(workspace["gold"]),
        "--scores", str(workspace["scores"]),
        "--out", str(workspace["out"]),
        "--report", str(workspace["report"]),
    ]
    assert main(argv) == 0
    assert len(refs) == SPEC["n_sentences"] and alive == [0]
    report = json.loads(workspace["report"].read_text())
    assert report["uas"] is not None


def test_lr_decodes_each_sentence_once_per_iteration(workspace, tmp_path, monkeypatch):
    # The baseline decode also serves LR's first iteration, whose
    # multipliers are all 0.
    calls = []  # sentences per bucket call
    real = cip.view._bucket_mst_heads
    monkeypatch.setattr(
        cip.view,
        "_bucket_mst_heads",
        lambda x, single_root: calls.append(len(x)) or real(x, single_root),
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lr": {"max_iter": 3, "alpha0": 1e-6}}))
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--method", "lr",
            "--config", str(config),
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
        ]
    )
    assert code == 0
    iterations = json.loads(workspace["report"].read_text())["iterations"]
    assert iterations == 3
    with workspace["gold"].open() as handle:
        buckets = len({len(sentence) for sentence in cip.read_conllu(handle)})
    assert len(calls) == buckets * iterations
    assert sum(calls) == SPEC["n_sentences"] * iterations


@pytest.mark.parametrize("grad_tol, steps", [(0.0, 20), (2.0, 2)], ids=["cap", "grad-tol"])
def test_pr_report_counts_dual_steps(workspace, tmp_path, grad_tol, steps):
    """PR's report counts dual steps, as its last trace record does: the
    trace also holds record 0, the state at lambda = 0.  The workspace
    corpus meets ``grad_tol`` 2.0 after two steps."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pr": {"max_iter": 20, "grad_tol": grad_tol}}))
    code = main(
        [
            "decode",
            "--conllu", str(workspace["gold"]),
            "--scores", str(workspace["scores"]),
            "--constraints", str(workspace["constraints"]),
            "--method", "pr",
            "--config", str(config),
            "--out", str(workspace["out"]),
            "--report", str(workspace["report"]),
            "--trace", str(workspace["trace"]),
        ]
    )
    assert code == 0
    report = json.loads(workspace["report"].read_text())
    records = [json.loads(line) for line in workspace["trace"].read_text().splitlines()]
    assert report["iterations"] == records[-1]["iteration"] == len(records) - 1 == steps
    assert report["converged"] == (steps < 20)


def _extreme_case(name):
    """Sentences, score grids and constraints of one extreme input."""
    rng = np.random.default_rng(5)
    lengths = {"length-1": [1] * 6, "long": [80, 79]}.get(name, [4, 6, 7, 5])
    pool = ("NOUN", "VERB", "DET", "ADJ")
    sentences, grids = [], []
    for k, n in enumerate(lengths):
        upos = tuple(str(rng.choice(pool)) for _ in range(n))
        sentences.append(
            cip.Sentence(
                forms=tuple(f"w{i}" for i in range(n)),
                upos=upos,
                sent_id=f"s{k}",
                gold_heads=tuple(range(n)),  # a chain from the root
            )
        )
        grids.append(rng.normal(0, 1e6 if name == "scale-1e6" else 2, (n + 1, n)))
    constraints = [cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.9, theta=0.01)]
    if name == "no-match":
        constraints = [cip.Constraint(id="pron-left", kind="unary", pos="PRON", r=0.5, theta=0.0)]
    elif name == "infeasible":
        constraints = [
            cip.Constraint(id="noun-never-left", kind="unary", pos="NOUN", r=0.0, theta=0.0),
            cip.Constraint(id="noun-always-left", kind="unary", pos="NOUN", r=1.0, theta=0.0),
        ]
    return sentences, grids, constraints


@pytest.mark.parametrize("single_root", [False, True], ids=["multi-root", "single-root"])
@pytest.mark.parametrize("projective", [False, True], ids=["mst", "eisner"])
@pytest.mark.parametrize("method", ["baseline", "lr", "pr"])
@pytest.mark.parametrize(
    "case", ["length-1", "long", "no-match", "infeasible", "scale-1e6"]
)
def test_extreme_inputs_end_to_end(tmp_path, capsys, case, method, projective, single_root):
    sentences, grids, constraints = _extreme_case(case)
    paths = {name: tmp_path / name for name in ("gold", "scores", "cons", "config", "out")}
    with open(paths["gold"], "w", encoding="utf-8") as handle:
        cip.write_conllu(sentences, handle)
    with open(paths["scores"], "w", encoding="utf-8") as handle:
        cip.write_scores([cip.ScoreMatrix(grid) for grid in grids], handle)
    with open(paths["cons"], "w", encoding="utf-8") as handle:
        cip.save_constraints(constraints, handle)
    paths["config"].write_text(
        json.dumps({"single_root": single_root, "lr": {"max_iter": 4}, "pr": {"max_iter": 4}})
    )
    argv = [
        "decode",
        "--conllu", str(paths["gold"]),
        "--scores", str(paths["scores"]),
        "--constraints", str(paths["cons"]),
        "--config", str(paths["config"]),
        "--method", method,
        "--out", str(paths["out"]),
        "--report", str(tmp_path / "report.json"),
    ]
    if projective:
        argv.append("--projective")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("cip: ")
        return
    with open(paths["out"], encoding="utf-8") as handle:
        decoded = cip.read_conllu(handle)
    assert [len(s) for s in decoded] == [len(s) for s in sentences]
    for sentence in decoded:
        assert is_tree(sentence.gold_heads)
        if single_root:
            assert sentence.gold_heads.count(0) == 1
        if projective:
            assert cip.is_projective(sentence.gold_heads)


def _session_argvs(workspace, tmp_path):
    """A decode, an evaluate of its output, a projective PR decode with a
    trace, and a decode that exits 2; each writes its own files."""
    decode = ["decode", "--conllu", str(workspace["gold"]), "--scores", str(workspace["scores"])]
    return [
        [*decode, "--out", str(tmp_path / "a.conllu"), "--report", str(tmp_path / "a.json")],
        ["evaluate", "--pred", str(tmp_path / "a.conllu"), "--gold", str(workspace["gold"]),
         "--report", str(tmp_path / "b.json")],
        [*decode, "--constraints", str(workspace["constraints"]), "--method", "pr",
         "--projective", "--out", str(tmp_path / "c.conllu"), "--report", str(tmp_path / "c.json"),
         "--trace", str(tmp_path / "c.jsonl")],
        [*decode, "--method", "lr", "--out", str(tmp_path / "d.conllu")],
    ]


def test_commands_in_one_process_match_separate_processes(workspace, tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    separate, together = tmp_path / "separate", tmp_path / "together"
    outcomes = {}
    for directory in (separate, together):
        directory.mkdir()
        runs = []
        for argv in _session_argvs(workspace, directory):
            if directory is separate:
                proc = subprocess.run(
                    [sys.executable, "-m", "cip.cli", *argv],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                runs.append((proc.returncode, proc.stdout, proc.stderr))
            else:
                code = main(argv)
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        outcomes[directory.name] = runs, files
    runs, files = outcomes["together"]
    assert [code for code, _, _ in runs] == [0, 0, 0, 2]
    assert sorted(files) == ["a.conllu", "a.json", "b.json", "c.conllu", "c.json", "c.jsonl"]
    assert outcomes["together"] == outcomes["separate"]


def test_parser_is_built_once_per_process(workspace, tmp_path, capsys):
    cli.build_parser.cache_clear()
    argvs = _session_argvs(workspace, tmp_path)
    for argv in argvs:
        main(argv)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)


def test_replaced_command_runs_after_first_call(workspace, tmp_path, monkeypatch):
    argv = _session_argvs(workspace, tmp_path)[0]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_decode", lambda args: seen.append(args.command) or 7)
    assert main(argv) == 7
    assert seen == ["decode"]


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in (
        "decode", "evaluate", "estimate-ratios", "compile-constraints", "synth", "ratio-gap"
    ):
        assert command in out


@pytest.mark.parametrize("missing", [False, True], ids=["ok", "missing-file"])
def test_module_entry_point_matches_main(workspace, capsys, monkeypatch, missing):
    """``python -m cip.cli`` exits with ``main``'s code and prints its output.
    The module runs as ``__main__`` in this process, as ``python -m`` runs
    it; ``test_commands_in_one_process_match_separate_processes`` runs it
    in subprocesses."""
    pred = str(workspace["gold"]) + (".missing" if missing else "")
    argv = ["evaluate", "--pred", pred, "--gold", str(workspace["gold"])]
    code = main(argv)
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["cip", *argv])
    monkeypatch.delitem(sys.modules, "cip.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("cip.cli", run_name="__main__")
    assert exc.value.code == code == (1 if missing else 0)
    assert capsys.readouterr() == expected
