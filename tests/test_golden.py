"""Decoded output against output recorded from an earlier commit.

``tests/data/golden`` holds a synthetic corpus of 48 sentences of 1-12
tokens (``corpus.conllu``), its scores (``scores.jsonl``), the same scores
rounded to integers so that ties are everywhere (``scores_tied.jsonl``),
two constraints, and what ``cip decode`` wrote for every score file,
method, ``--projective`` and ``single_root``:

- ``heads.json``: the HEAD column of ``--out``, per sentence;
- ``outputs.json``: the sha256 of the ``--out`` CoNLL-U bytes;
- ``reports.json``: the ``--report`` object;
- ``traces.json``: the ``--trace`` records of the LR and PR cases.

The ``synth`` cases decode a corpus at scale under the same constraints:
168 sentences of 10-30 tokens, in length buckets of up to 13 sentences,
which PR steps through in minibatches.  Its 1.6 MB of scores are not
committed; ``cip synth`` writes them from ``synth_spec.json``, and
``inputs.json`` holds the sha256 of its two outputs.  numpy does not
promise the same random streams across versions, so a changed input fails
with its own message before any decode is compared.  These cases record
every file but ``heads.json``, whose heads the output digest pins.

A decoder rewrite must keep every head, ties included, so heads and
output digests are compared exactly.  Report and trace numbers are compared with
``math.isclose(rel_tol=1e-9, abs_tol=1e-12)``, and every other value
exactly.  Each file keeps one case per line.

A change that changes a recorded file re-records it in the same commit and
says why in CHANGES.md.  To record the output of a commit, run this file at
that commit: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import atexit
import functools
import hashlib
import itertools
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

import cip
from cip.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = [
    f"{scores}/{method}/{'eisner' if projective else 'mst'}/{'single' if single else 'multi'}"
    for scores, method, projective, single in itertools.product(
        ("scores", "scores_tied", "synth"), ("baseline", "lr", "pr"), (False, True), (False, True)
    )
]
HEADED = [case for case in CASES if not case.startswith("synth/")]
TRACED = [case for case in CASES if case.split("/")[1] != "baseline"]
FILES = ("heads", "outputs", "reports", "traces")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@functools.cache
def synth_inputs() -> Path:
    """The directory, kept until exit, where ``cip synth`` wrote
    ``corpus.conllu`` and ``scores.jsonl`` from ``synth_spec.json``."""
    workdir = Path(tempfile.mkdtemp(prefix="cip-golden-"))
    atexit.register(shutil.rmtree, workdir, ignore_errors=True)
    argv = [
        "synth",
        "--spec", str(GOLDEN / "synth_spec.json"),
        "--out-conllu", str(workdir / "corpus.conllu"),
        "--out-scores", str(workdir / "scores.jsonl"),
    ]
    assert main(argv) == 0
    return workdir


def input_digests() -> dict[str, str]:
    """The sha256 of each file ``cip synth`` wrote, by file name."""
    return {name: digest(synth_inputs() / name) for name in ("corpus.conllu", "scores.jsonl")}


@functools.cache
def decode_case(case: str) -> dict:
    """What ``cip decode`` writes for ``case``: its heads per sentence, the
    digest of its ``--out`` bytes, its report and, for LR and PR, its trace
    records."""
    with tempfile.TemporaryDirectory() as tmp:
        return _decode_case(case, Path(tmp))


def _decode_case(case: str, workdir: Path) -> dict:
    scores, method, decoder, root = case.split("/")
    if scores == "synth":
        conllu, scores_file = synth_inputs() / "corpus.conllu", synth_inputs() / "scores.jsonl"
    else:
        conllu, scores_file = GOLDEN / "corpus.conllu", GOLDEN / f"{scores}.jsonl"
    config = workdir / "config.json"
    config.write_text(json.dumps({"single_root": root == "single"}))
    out, report, trace = workdir / "out.conllu", workdir / "report.json", workdir / "trace.jsonl"
    argv = [
        "decode",
        "--conllu", str(conllu),
        "--scores", str(scores_file),
        "--constraints", str(GOLDEN / "constraints.json"),
        "--method", method,
        "--config", str(config),
        "--out", str(out),
        "--report", str(report),
    ]
    if decoder == "eisner":
        argv.append("--projective")
    if case in TRACED:
        argv += ["--trace", str(trace)]
    assert main(argv) == 0
    with out.open() as handle:
        recorded = {"heads": [list(s.gold_heads) for s in cip.read_conllu(handle)]}
    recorded["outputs"] = digest(out)
    recorded["reports"] = json.loads(report.read_text())
    if case in TRACED:
        recorded["traces"] = [json.loads(line) for line in trace.read_text().splitlines()]
    return recorded


def leaves(value, key: str = "") -> dict:
    """The scalars of a JSON value by their path, ``a.b[2].c``."""
    if isinstance(value, dict):
        items = ((f"{key}.{name}", item) for name, item in value.items())
    elif isinstance(value, list):
        items = ((f"{key}[{i}]", item) for i, item in enumerate(value))
    else:
        return {key: value}
    return {path: leaf for k, item in items for path, leaf in leaves(item, k).items()}


def mismatches(got, want) -> list[tuple[float, str]]:
    """``(difference, path)`` of every scalar of ``got`` that differs from
    ``want``: numbers beyond the tolerance, other values at all; a path on
    one side only differs by inf."""
    got, want = leaves(got), leaves(want)
    found = [(math.inf, key) for key in sorted(got.keys() ^ want.keys())]
    for key in sorted(got.keys() & want.keys()):
        a, b = got[key], want[key]
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers and not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
            found.append((abs(a - b), key))
        elif not numbers and a != b:
            found.append((math.inf, key))
    return found


@pytest.fixture(scope="module")
def golden():
    return {name: json.loads((GOLDEN / f"{name}.json").read_text()) for name in FILES + ("inputs",)}


def decoded(case: str, golden: dict) -> dict:
    """``decode_case(case)``, once the inputs of a ``synth`` case are
    known to be the recorded ones."""
    if case.startswith("synth/") and input_digests() != golden["inputs"]:
        pytest.fail(f"{case}: input changed: cip synth wrote {input_digests()} from"
                    f" synth_spec.json, recorded {golden['inputs']}; no decode compared")
    return decode_case(case)


def test_synth_inputs_match_golden(golden):
    assert input_digests() == golden["inputs"], "input changed: cip synth output differs"


def test_golden_covers_every_case(golden):
    assert sorted(golden["heads"]) == sorted(HEADED)
    assert sorted(golden["outputs"]) == sorted(CASES)
    assert sorted(golden["reports"]) == sorted(CASES)
    assert sorted(golden["traces"]) == sorted(TRACED)


@pytest.mark.parametrize("case", HEADED)
def test_heads_match_golden(case, golden):
    assert decode_case(case)["heads"] == golden["heads"][case]


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_golden(case, golden):
    assert decoded(case, golden)["outputs"] == golden["outputs"][case]


@pytest.mark.parametrize("case", CASES)
def test_report_and_trace_match_golden(case, golden):
    recorded = decoded(case, golden)
    for name in ("reports", "traces"):
        if name in recorded:
            found = mismatches(recorded[name], golden[name][case])
            if found:
                difference, key = max(found)
                pytest.fail(f"{case}: {name}{key}: largest difference {difference:g}"
                            f" ({len(found)} values differ)")


def test_mismatches_name_the_largest_difference():
    want = {"a": [1.0, 2.0], "b": "x", "c": None}
    assert mismatches(want, want) == []
    assert mismatches({"a": [1.0 + 1e-13, 2.0], "b": "x", "c": None}, want) == []
    got = {"a": [1.5, 2.1], "b": "x", "c": None}
    assert max(mismatches(got, want)) == (0.5, ".a[0]")
    assert mismatches({"a": [1.0, 2.0], "b": "y", "c": 0.0}, want) == [
        (math.inf, ".b"), (math.inf, ".c")
    ]
    assert mismatches({"a": [1.0], "b": "x", "c": None}, want) == [(math.inf, ".a[1]")]


if __name__ == "__main__":
    output = {case: decode_case(case) for case in CASES}
    for name in FILES:
        # One case per line, so that a diff names the cases that moved.
        lines = [
            f"{json.dumps(case)}: {json.dumps(output[case][name])}"
            for case in CASES
            if name in output[case] and (name != "heads" or case in HEADED)
        ]
        (GOLDEN / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    (GOLDEN / "inputs.json").write_text(json.dumps(input_digests(), indent=2) + "\n")
