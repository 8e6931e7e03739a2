"""Decoded heads against heads recorded from an earlier decoder.

``tests/data/golden`` holds a synthetic corpus of 48 sentences of 1-12
tokens (``corpus.conllu``), its scores (``scores.jsonl``), the same scores
rounded to integers so that ties are everywhere (``scores_tied.jsonl``),
two constraints and ``heads.json``: the HEAD column that ``cip decode``
wrote for every score file, method, ``--projective`` and ``single_root``.
A decoder rewrite must keep every head, ties included.  Only heads are
compared, not floats.

To record the heads of another commit, run this file at that commit:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import itertools
import json
from pathlib import Path

import pytest

import cip
from cip.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = [
    f"{scores}/{method}/{'eisner' if projective else 'mst'}/{'single' if single else 'multi'}"
    for scores, method, projective, single in itertools.product(
        ("scores", "scores_tied"), ("baseline", "lr", "pr"), (False, True), (False, True)
    )
]


def decode_heads(case: str, workdir: Path) -> list[list[int]]:
    """The HEAD column ``cip decode`` writes for ``case``, per sentence."""
    scores, method, decoder, root = case.split("/")
    config = workdir / "config.json"
    config.write_text(json.dumps({"single_root": root == "single"}))
    out = workdir / "out.conllu"
    argv = [
        "decode",
        "--conllu", str(GOLDEN / "corpus.conllu"),
        "--scores", str(GOLDEN / f"{scores}.jsonl"),
        "--constraints", str(GOLDEN / "constraints.json"),
        "--method", method,
        "--config", str(config),
        "--out", str(out),
    ]
    if decoder == "eisner":
        argv.append("--projective")
    assert main(argv) == 0
    with out.open() as handle:
        return [list(s.gold_heads) for s in cip.read_conllu(handle)]


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN / "heads.json").read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_heads_match_golden(case, golden, tmp_path):
    assert decode_heads(case, tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        heads = {case: decode_heads(case, Path(tmp)) for case in CASES}
    # One case per line, so that a diff names the cases that moved.
    lines = [f"{json.dumps(case)}: {json.dumps(heads[case])}" for case in CASES]
    (GOLDEN / "heads.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
