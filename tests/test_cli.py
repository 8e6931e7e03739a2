"""End-to-end command-line workflows on temporary files."""

import json
import os

import numpy as np
import pytest

import cip
from cip.cli import main
from cip.core import is_tree

DATA = os.path.join(os.path.dirname(__file__), "data")

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
        "trace": tmp_path / "trace.csv",
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
    assert capsys.readouterr().err == "cip: corpus is empty\n"
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


def test_lr_decodes_each_sentence_once_per_iteration(workspace, tmp_path, monkeypatch):
    # The baseline decode also serves LR's first iteration, whose
    # multipliers are all 0.
    calls = []
    real = cip.view._mst_heads
    monkeypatch.setattr(
        cip.view,
        "_mst_heads",
        lambda scores, single_root: calls.append(1) or real(scores, single_root),
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
    assert len(calls) == SPEC["n_sentences"] * iterations


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
