"""Command-line interface.

Subcommands cover the full pipeline: decoding (optionally under corpus
constraints), constraint compilation from typology data, ratio estimation
from gold treebanks, evaluation, synthetic corpus generation, and the
ratio-gap statistic.  Output files are written atomically (temp + rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
from typing import Any, Callable, Sequence

import numpy as np

from . import constraints as cns
from . import core, lagrangian, posterior, synthetic, typology
from .config import InferenceConfig
from .core import _field, _number, _object
from .view import CorpusView, InferenceResult, write_trace


def _atomic_write(path: str, render: Callable) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            render(handle)
        # mkstemp makes the file 0600; give it the mode that open() gives.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: object) -> None:
    _atomic_write(path, lambda h: (json.dump(payload, h, indent=2), h.write("\n")))


def _load_corpus(conllu_path: str, scores_path: str) -> core.Corpus:
    with open(conllu_path, encoding="utf-8") as handle:
        sentences = core.read_conllu(handle)
    with open(scores_path, encoding="utf-8") as handle:
        matrices = core.read_scores(handle)
    return core.pair_corpus(sentences, matrices)


def _load_config(path: str | None) -> InferenceConfig:
    if path is None:
        return InferenceConfig()
    with open(path, encoding="utf-8") as handle:
        return InferenceConfig.from_stream(handle)


def _load_json(path: str) -> Any:
    """The JSON value in ``path``; invalid JSON raises ``ValueError`` naming
    ``path``."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_constraints(path: str) -> list[cns.Constraint]:
    with open(path, encoding="utf-8") as handle:
        return cns.load_constraints(handle)


def cmd_decode(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.conllu, args.scores)
    config = _load_config(args.config)
    constraint_list = _load_constraints(args.constraints) if args.constraints else []
    if args.method in ("lr", "pr") and not constraint_list:
        print("decode: --method lr/pr requires --constraints", file=sys.stderr)
        return 2
    if args.trace and args.method == "baseline":
        print("decode: --trace requires --method lr or pr", file=sys.stderr)
        return 2

    view = CorpusView.of(corpus, constraint_list, config.root_counts_left)
    # From here on the view holds the scores: once, as its stacked copy.
    del corpus
    decode = {"projective": args.projective, "single_root": config.single_root}
    baseline = view.decode(**decode)
    if args.method == "lr":
        result = lagrangian.lr_decode(view, config.lr, **decode)
    elif args.method == "pr":
        result = posterior.pr_decode(view, config.pr, **decode)
    else:
        result = InferenceResult(view.trees(baseline), np.zeros(0), (), [], True)
    if args.trace:
        _atomic_write(args.trace, lambda h: write_trace(result, h))

    _atomic_write(args.out, lambda h: core.write_conllu(view.sentences, h, result.trees))

    _, _, ratios_before = view.gather(baseline)
    objective, _, ratios_after = view.gather(view.stack(result.trees))
    rows = [
        {
            "id": constraint.id,
            "r": constraint.r,
            "theta": constraint.theta,
            "ratio_baseline": before,
            "ratio_final": after,
            "satisfied": cns.is_satisfied(constraint, after),
        }
        for constraint, before, after in zip(constraint_list, ratios_before, ratios_after)
    ]
    if args.report:
        has_gold = all(s.gold_heads is not None for s in view.sentences)
        report = {
            "constraints": rows,
            "uas": core.uas(result.trees, view.sentences) if has_gold else None,
            "objective": objective,
            "iterations": len(result.trace),
            "converged": result.converged,
        }
        _write_json(args.report, report)

    unsatisfied = [row["id"] for row in rows if not row["satisfied"]]
    if unsatisfied:
        print(
            f"warning: constraints not satisfied: {', '.join(unsatisfied)}",
            file=sys.stderr,
        )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    with open(args.pred, encoding="utf-8") as handle:
        predicted = core.read_conllu(handle)
    with open(args.gold, encoding="utf-8") as handle:
        gold = core.read_conllu(handle)
    trees = []
    for k, sentence in enumerate(predicted):
        if sentence.gold_heads is None:
            print(f"evaluate: sentence {k} in {args.pred} has no heads", file=sys.stderr)
            return 2
        trees.append(core.ParseTree(sentence.gold_heads))
    score = core.uas(trees, gold)
    payload = {"uas": score}
    print(json.dumps(payload))
    if args.report:
        _write_json(args.report, payload)
    return 0


def cmd_estimate_ratios(args: argparse.Namespace) -> int:
    with open(args.conllu, encoding="utf-8") as handle:
        sentences = core.read_conllu(handle)
    constraint_list = _load_constraints(args.constraints)
    config = _load_config(args.config)
    chosen = typology.sample_sentences(sentences, args.sample, args.seed)
    total_arcs = sum(len(s) for s in chosen)
    rows = []
    oracle = []
    for constraint in constraint_list:
        measured, count = typology.estimate_ratio(
            chosen, constraint, root_counts_left=config.root_counts_left
        )
        rows.append(
            {
                "id": constraint.id,
                "ratio": measured,
                "count": count,
                "coverage": count / total_arcs if total_arcs else 0.0,
            }
        )
        if measured is not None:
            oracle.append(dataclasses.replace(constraint, r=measured, theta=args.oracle_theta))
    payload = {"ratios": rows}
    print(json.dumps(payload))
    if args.out:
        _write_json(args.out, payload)
    if args.oracle_out:
        _atomic_write(args.oracle_out, lambda h: cns.save_constraints(oracle, h))
    return 0


def cmd_compile_constraints(args: argparse.Namespace) -> int:
    with open(args.wals, encoding="utf-8") as handle:
        table = typology.TypologyTable.from_csv(handle)
    templates = _load_json(args.templates)
    if not isinstance(templates, list):
        raise ValueError(f"{args.templates}: expected a JSON array, got {templates!r}")
    ratios = _load_json(args.unary_ratios) if args.unary_ratios else {}
    if not isinstance(ratios, dict):
        raise ValueError(f"{args.unary_ratios}: expected a JSON object, got {ratios!r}")
    unary_ratios = {lang: _field(ratios, lang, _number, args.unary_ratios) for lang in ratios}

    compiled = []
    for k, template in enumerate(templates):
        where = f"{args.templates}: template {k}"
        if not isinstance(template, dict):
            raise ValueError(f"{where}: expected a JSON object, got {template!r}")
        kind = _field(template, "kind", str, where)
        if kind == "binary":
            value = table.value(args.target, _field(template, "feature", str, where))
            orientations = _field(template, "orientations", _object, where)
            fixed = dict(zip(("r", "theta"), typology.compile_binary(value, orientations)))
        elif kind == "unary":
            if not unary_ratios:
                print("compile-constraints: unary templates require --unary-ratios",
                      file=sys.stderr)
                return 2
            features = _field(template, "features", list, where, typology.NOUN_ORDER_FEATURES)
            vocab = typology.build_feature_vocab(table, features)
            train = [
                (typology.feature_vector(table, lang, vocab), ratio_value)
                for lang, ratio_value in sorted(unary_ratios.items())
                if lang != args.target
            ]
            target = typology.feature_vector(table, args.target, vocab)
            fixed = {"r": typology.fit_unary_ratio(train, target)}
        else:
            print(f"compile-constraints: unknown template kind {kind!r}", file=sys.stderr)
            return 2
        # A unary template may set its margin; a binary one takes the compiled one.
        compiled.append(cns.read_constraint({**template, **fixed}, where, theta=0.125))
    _atomic_write(args.out, lambda h: cns.save_constraints(compiled, h))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = synthetic.SyntheticSpec.from_dict(_load_json(args.spec))
    corpus, true_ratios = synthetic.generate_synthetic(spec)
    _atomic_write(args.out_conllu, lambda h: core.write_conllu(corpus.sentences, h))
    _atomic_write(args.out_scores, lambda h: core.write_scores(corpus.matrices, h))
    if args.out_constraints:
        oracle = [
            dataclasses.replace(c, r=true_ratios[c.id], theta=args.oracle_theta)
            for c in spec.planted
            if true_ratios[c.id] is not None
        ]
        _atomic_write(args.out_constraints, lambda h: cns.save_constraints(oracle, h))
    if args.report:
        _write_json(args.report, {"true_ratios": true_ratios})
    return 0


def _load_ratio_report(path: str) -> dict[str, tuple[float | None, float]]:
    """``(ratio, coverage)`` by constraint id from an ``estimate-ratios``
    report.  A malformed report raises ``ValueError`` naming ``path`` and,
    for a bad row, the row and the key."""
    report = _load_json(path)
    rows = report.get("ratios") if isinstance(report, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON object with a 'ratios' list")
    out = {}
    for k, row in enumerate(rows):
        where = f"{path}: ratios row {k}"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: expected a JSON object, got {row!r}")
        for key in ("id", "ratio", "coverage"):
            if key not in row:
                raise ValueError(f"{where}: missing key {key!r}")
        if not isinstance(row["id"], str):
            raise ValueError(f"{where}: 'id': expected a string, got {row['id']!r}")
        try:
            ratio = None if row["ratio"] is None else float(row["ratio"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: 'ratio': {exc}") from None
        try:
            coverage = float(row["coverage"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: 'coverage': {exc}") from None
        out[row["id"]] = (ratio, coverage)
    return out


def cmd_ratio_gap(args: argparse.Namespace) -> int:
    source = _load_ratio_report(args.source)
    target = _load_ratio_report(args.target)
    constraint_list = _load_constraints(args.constraints)
    kept, src, tgt, cov = [], [], [], []
    for constraint in constraint_list:
        s = source.get(constraint.id, (None, 0.0))[0]
        t, coverage = target.get(constraint.id, (None, 0.0))
        if s is None or t is None:
            print(f"warning: skipping {constraint.id} (undefined ratio)", file=sys.stderr)
            continue
        kept.append(constraint)
        src.append(s)
        tgt.append(t)
        cov.append(coverage)
    if not kept:
        raise ValueError("no constraint has a defined ratio in both reports")
    gap = cns.ratio_gap(kept, src, tgt, cov)
    payload = {"ratio_gap": gap}
    print(json.dumps(payload))
    if args.report:
        _write_json(args.report, payload)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cip`` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cip",
        description="Corpus-level constrained inference for dependency parsing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode trees, optionally under constraints")
    p.add_argument("--conllu", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--constraints")
    p.add_argument("--method", choices=("baseline", "lr", "pr"), default="baseline")
    p.add_argument("--projective", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--report")
    p.add_argument("--config")

    p = sub.add_parser("evaluate", help="UAS of a predicted CoNLL-U file")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--report")

    p = sub.add_parser("estimate-ratios", help="constraint ratios from gold trees")
    p.add_argument("--conllu", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--oracle-out", help="write constraints with measured ratios")
    p.add_argument("--oracle-theta", type=float, default=0.01)
    p.add_argument("--config", help="decode config; its root_counts_left applies")

    p = sub.add_parser("compile-constraints", help="constraints from typology data")
    p.add_argument("--wals", required=True, help="CSV with header lang,feature,value")
    p.add_argument("--templates", required=True, help="JSON template list")
    p.add_argument("--target", required=True, help="target language code")
    p.add_argument("--unary-ratios", help="JSON object mapping language to ratio")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-conllu", required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--out-constraints")
    p.add_argument("--oracle-theta", type=float, default=0.01)
    p.add_argument("--report")

    p = sub.add_parser("ratio-gap", help="coverage-weighted ratio difference")
    p.add_argument("--constraints", required=True)
    p.add_argument("--source", required=True, help="estimate-ratios report JSON")
    p.add_argument("--target", required=True, help="estimate-ratios report JSON")
    p.add_argument("--report")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so that a replaced ``cmd_*`` function is the
    # one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (OSError, ValueError, core.FormatError) as exc:
        print(f"cip: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
