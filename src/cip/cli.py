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
from typing import IO, Any, Callable, Sequence

import numpy as np

from . import constraints as cns
from . import core, lagrangian, posterior, synthetic, typology
from .config import InferenceConfig
from .core import _array, _field, _number, _object, _read_each, _string
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


def _named(path: str, call: Callable, *args: Any) -> Any:
    """``call(*args)``; a ``ValueError`` it raises names ``path``."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load(path: str, read: Callable = json.load) -> Any:
    """``read`` applied to ``path`` opened as text; malformed content (any
    ``ValueError``) raises ``ValueError`` naming ``path``."""
    with open(path, encoding="utf-8") as handle:
        return _named(path, read, handle)


def _same_count(path: str, items: Sequence, what: str, other: str, sentences: Sequence) -> None:
    """Raise ``ValueError`` naming both files unless the ``items`` read from
    ``path`` are as many as the ``sentences`` of ``other``."""
    if len(items) != len(sentences):
        raise ValueError(f"{path}: {len(items)} {what} but {other}: {len(sentences)} sentences")


def cmd_decode(args: argparse.Namespace) -> int:
    sentences = _load(args.conllu, core.read_conllu)
    matrices = _load(args.scores, core.read_scores)
    _same_count(args.scores, matrices, "score matrices", args.conllu, sentences)
    corpus = _named(args.scores, core.pair_corpus, sentences, matrices)
    config = _load(args.config, InferenceConfig.from_stream) if args.config else InferenceConfig()
    constraint_list = _load(args.constraints, cns.load_constraints) if args.constraints else []
    if args.method in ("lr", "pr") and not constraint_list:
        print("decode: --method lr/pr requires --constraints", file=sys.stderr)
        return 2
    if args.trace and args.method == "baseline":
        print("decode: --trace requires --method lr or pr", file=sys.stderr)
        return 2

    view = CorpusView.of(corpus, constraint_list, config.root_counts_left)
    # From here on the view holds the scores: once, as its stacked copy.
    del corpus, matrices
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
            "iterations": result.trace[-1].iteration if result.trace else 0,
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
    predicted = _load(args.pred, core.read_conllu)
    gold = _load(args.gold, core.read_conllu)
    trees = []
    for k, sentence in enumerate(predicted):
        if sentence.gold_heads is None:
            print(f"evaluate: sentence {k} in {args.pred} has no heads", file=sys.stderr)
            return 2
        trees.append(core.ParseTree(sentence.gold_heads))
    _same_count(args.pred, predicted, "sentences", args.gold, gold)
    score = _named(args.gold, core.uas, trees, gold)
    payload = {"uas": score}
    print(json.dumps(payload))
    if args.report:
        _write_json(args.report, payload)
    return 0


def cmd_estimate_ratios(args: argparse.Namespace) -> int:
    sentences = _load(args.conllu, core.read_conllu)
    constraint_list = _load(args.constraints, cns.load_constraints)
    config = _load(args.config, InferenceConfig.from_stream) if args.config else InferenceConfig()
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


def _strings(value: Any) -> list[str]:
    return [_string(item) for item in _array(value)]


def cmd_compile_constraints(args: argparse.Namespace) -> int:
    table = _load(args.wals, typology.TypologyTable.from_csv)
    templates = _load(args.templates)
    if not isinstance(templates, list):
        raise ValueError(f"{args.templates}: expected a JSON array, got {templates!r}")
    ratios = _load(args.unary_ratios) if args.unary_ratios else {}
    if not isinstance(ratios, dict):
        raise ValueError(f"{args.unary_ratios}: expected a JSON object, got {ratios!r}")
    unary_ratios = {lang: _field(ratios, lang, _number, args.unary_ratios) for lang in ratios}

    entries = []
    for k, template in enumerate(templates):
        where = f"{args.templates}: template {k}"
        if not isinstance(template, dict):
            raise ValueError(f"{where}: expected a JSON object, got {template!r}")
        kind = _field(template, "kind", _string, where)
        if kind == "binary":
            value = table.value(args.target, _field(template, "feature", _string, where))
            orientations = _field(template, "orientations", _object, where)
            compiled = _named(where, typology.compile_binary, value, orientations)
            fixed = dict(zip(("r", "theta"), compiled))
            template_keys = ("feature", "orientations")
        elif kind == "unary":
            if not unary_ratios:
                print("compile-constraints: unary templates require --unary-ratios",
                      file=sys.stderr)
                return 2
            features = _field(
                template, "features", _strings, where, list(typology.NOUN_ORDER_FEATURES)
            )
            vocab = typology.build_feature_vocab(table, features)
            train = [
                (typology.feature_vector(table, lang, vocab), ratio_value)
                for lang, ratio_value in sorted(unary_ratios.items())
                if lang != args.target
            ]
            target = typology.feature_vector(table, args.target, vocab)
            fixed = {"r": typology.fit_unary_ratio(train, target)}
            template_keys = ("features",)
        else:
            print(f"compile-constraints: unknown template kind {kind!r}", file=sys.stderr)
            return 2
        # The rest of the template is the constraint, bar what was compiled:
        # a unary template may set its margin, a binary one may not.
        for key in fixed:
            if key in template:
                raise ValueError(f"{where}: unknown key {key!r}")
        rest = {key: v for key, v in template.items() if key not in template_keys}
        entries.append({**rest, **fixed})
    compiled = _read_each(cns.Constraint, entries, f"{args.templates}: template", theta=0.125)
    _atomic_write(args.out, lambda h: cns.save_constraints(compiled, h))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _load(args.spec, lambda h: synthetic.SyntheticSpec.from_dict(json.load(h)))
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


@dataclasses.dataclass(frozen=True)
class _RatioRow:
    """One row of an ``estimate-ratios`` report."""

    id: str
    ratio: float | None
    coverage: float
    count: int | None = None


def _read_ratio_report(stream: IO[str]) -> dict[str, tuple[float | None, float]]:
    """``(ratio, coverage)`` by constraint id from an ``estimate-ratios``
    report.  A malformed report raises ``ValueError``, naming for a bad row
    the row and the key."""
    report = json.load(stream)
    rows = report.get("ratios") if isinstance(report, dict) else None
    if not isinstance(rows, list):
        raise ValueError("expected a JSON object with a 'ratios' list")
    return {row.id: (row.ratio, row.coverage) for row in _read_each(_RatioRow, rows, "ratios row")}


def cmd_ratio_gap(args: argparse.Namespace) -> int:
    source = _load(args.source, _read_ratio_report)
    target = _load(args.target, _read_ratio_report)
    constraint_list = _load(args.constraints, cns.load_constraints)
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
    both = f"{args.source} and {args.target}"
    if not kept:
        raise ValueError(f"{both}: no constraint has a defined ratio in both reports")
    gap = _named(both, cns.ratio_gap, kept, src, tgt, cov)
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
    except (OSError, ValueError) as exc:
        print(f"cip: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
