"""Workload definitions and the seeded input generator.

Each workload is one set of `cip decode` input files (CoNLL-U with gold
heads, JSON-lines scores, constraints, config) generated from ``--seed`` with
``cip.generate_synthetic``.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import cip

POS_WEIGHTS = (("NOUN", 0.3), ("VERB", 0.25), ("DET", 0.25), ("ADJ", 0.2))
THETA = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "baseline" | "lr" | "pr"
    projective: bool
    single_root: bool
    # One sentence per entry.  Fixed lengths keep the decoder and dual work
    # per job the same from seed to seed; the seed still draws the trees,
    # tags and scores.  Sentences of one length come from one
    # generate_synthetic call, so each length is planted on its own; a
    # group of fewer than about 100 tokens can lack the left-headed tokens
    # the plant needs, so short sentences come in large groups.
    lengths: tuple[int, ...]
    binary: bool = True  # add the ADJ-NOUN constraint measured on gold
    # Extra `--config` entries; a fixed iteration count keeps the work per
    # job the same from seed to seed.
    config: dict = field(default_factory=dict)
    flip_prob: float = 0.9


# Jobs last about 1.4-2.5 s, so that each run times many of them, each
# between yardstick rounds (see run.py).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pr-short",
            method="pr",
            projective=False,
            single_root=False,
            lengths=(7,) * 28,
            binary=False,
            config={"pr": {"grad_tol": 0.0}},
        ),
        Workload(
            name="lr-mid",
            method="lr",
            projective=False,
            single_root=False,
            lengths=(10,) * 40 + (30,) * 40,
            config={"lr": {"max_iter": 25}},
        ),
        Workload(
            name="lr-proj-long",
            method="lr",
            projective=True,
            single_root=True,
            lengths=(40, 70),
            config={"lr": {"max_iter": 12}},
        ),
        Workload(
            name="root-long",
            method="baseline",
            projective=False,
            single_root=True,
            lengths=tuple(range(40, 51, 2)),
            # Clean scores: corruption makes the number of cycles, and so
            # the CLE work, depend strongly on the seed.
            flip_prob=0.0,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The generated files of one workload and the facts the checks need."""

    conllu: Path
    scores: Path
    constraints_path: Path
    config: Path
    sentences: tuple[cip.Sentence, ...]
    constraints: tuple[cip.Constraint, ...]
    tokens: int
    scores_mb: float

    def describe(self) -> dict:
        lengths = [len(s) for s in self.sentences]
        return {
            "sentences": len(self.sentences),
            "tokens": self.tokens,
            "min_len": min(lengths),
            "max_len": max(lengths),
            "scores_mb": round(self.scores_mb, 4),
            "constraints": [c.id for c in self.constraints],
        }


def _spec(workload: Workload, n: int, lo: int, hi: int, seed: int) -> cip.SyntheticSpec:
    # Only the unary constraint is planted: planting a binary constraint with
    # flip_prob > 0 can raise IndexError in generate_synthetic (see NOTES.md).
    planted = cip.Constraint(id="noun-left", kind="unary", pos="NOUN", r=0.9, theta=0.0)
    return cip.SyntheticSpec(
        n_sentences=n,
        min_len=lo,
        max_len=hi,
        pos_weights=POS_WEIGHTS,
        planted=(planted,),
        sigma=0.1,
        margin=1.0,
        flip_prob=workload.flip_prob,
        flip_boost=0.5,
        seed=seed,
    )


def _relabel(corpus: cip.Corpus, first: int) -> list[tuple[cip.Sentence, cip.ScoreMatrix]]:
    """Give the sentences of a concatenated corpus unique ids."""
    out = []
    for k, (s, m) in enumerate(corpus, start=first):
        sent_id = f"s{k}"
        sentence = cip.Sentence(
            forms=s.forms, upos=s.upos, sent_id=sent_id,
            gold_heads=s.gold_heads, gold_labels=s.gold_labels,
        )
        out.append((sentence, cip.ScoreMatrix(m.scores, sent_id=sent_id)))
    return out


def make_corpus(workload: Workload, seed: int) -> cip.Corpus:
    entries = []
    for i, length in enumerate(sorted(set(workload.lengths))):
        count = workload.lengths.count(length)
        part, _ = cip.generate_synthetic(_spec(workload, count, length, length, seed * 1000 + i))
        entries.extend(_relabel(part, len(entries)))
    return cip.Corpus(tuple(entries))


def oracle_constraints(workload: Workload, corpus: cip.Corpus) -> list[cip.Constraint]:
    """Constraints at the ratios measured on the gold trees."""
    gold = [cip.ParseTree(s.gold_heads) for s in corpus.sentences]
    shapes = [dict(id="noun-left", kind="unary", pos="NOUN")]
    if workload.binary:
        shapes.append(dict(id="adj-noun", kind="binary", pos="ADJ", pos2="NOUN"))
    out = []
    for shape in shapes:
        measured = cip.ratio(cip.Constraint(r=0.5, theta=THETA, **shape), corpus, gold)
        if measured is None:
            raise ValueError(f"constraint {shape['id']} matches no gold arc")
        out.append(cip.Constraint(r=measured, theta=THETA, **shape))
    return out


def write_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    corpus = make_corpus(workload, seed)
    constraints = oracle_constraints(workload, corpus)
    paths = {
        "conllu": directory / "gold.conllu",
        "scores": directory / "scores.jsonl",
        "constraints_path": directory / "constraints.json",
        "config": directory / "config.json",
    }
    with open(paths["conllu"], "w", encoding="utf-8") as handle:
        cip.write_conllu(corpus.sentences, handle)
    with open(paths["scores"], "w", encoding="utf-8") as handle:
        cip.write_scores(corpus.matrices, handle)
    with open(paths["constraints_path"], "w", encoding="utf-8") as handle:
        cip.save_constraints(constraints, handle)
    with open(paths["config"], "w", encoding="utf-8") as handle:
        json.dump({"single_root": workload.single_root, **workload.config}, handle)
    return Inputs(
        sentences=corpus.sentences,
        constraints=tuple(constraints),
        tokens=sum(len(s) for s in corpus.sentences),
        scores_mb=os.path.getsize(paths["scores"]) / 1e6,
        **paths,
    )


def decode_argv(workload: Workload, inputs: Inputs, out: Path, report: Path) -> list[str]:
    argv = [
        "decode",
        "--conllu", str(inputs.conllu),
        "--scores", str(inputs.scores),
        "--constraints", str(inputs.constraints_path),
        "--config", str(inputs.config),
        "--method", workload.method,
        "--out", str(out),
        "--report", str(report),
    ]
    if workload.projective:
        argv.append("--projective")
    return argv
