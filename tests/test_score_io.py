"""Score-file and CoNLL-U parsing under hypothesis: the orjson score reader
against the json.loads reference it replaced, and malformed input, which must
give a ``FormatError`` that names its line, also through ``cip decode``."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cip
from cip.cli import main
from cip.core import NEG_INF, FormatError, ScoreMatrix

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def json_read_scores(stream):
    """The json.loads reader that ``read_scores`` replaced, kept as its
    reference."""
    matrices = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        try:
            n = int(obj["n"])
            rows = obj["scores"]
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"line {lineno}: expected object with 'n' and 'scores'") from None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise FormatError(f"line {lineno}: 'scores' is not a list of rows")
        if len(rows) != n + 1:
            raise FormatError(f"line {lineno}: expected {n + 1} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise FormatError(
                    f"line {lineno}: row {i} has {len(row)} entries, expected {n}"
                )
        try:
            scores = np.asarray(rows, dtype=float)
        except (TypeError, ValueError):
            raise FormatError(f"line {lineno}: non-numeric score entry") from None
        deps = np.arange(1, n + 1)
        scores[deps, deps - 1] = NEG_INF
        try:
            matrix = ScoreMatrix(scores, sent_id=str(obj.get("sent_id", "")))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        matrices.append(matrix)
    return matrices


def outcome(reader, lines):
    """(sent_ids, score arrays) on success, the error message on FormatError."""
    try:
        matrices = reader(lines)
    except FormatError as exc:
        return str(exc)
    return [m.sent_id for m in matrices], [m.scores for m in matrices]


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        np.testing.assert_array_equal(a, b)


# --- well-formed score lines ------------------------------------------------

# Plain, big-integer and exponent spellings, with mantissas longer than a
# double holds; exponents past the double range parse to 0 or to infinity.
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.integers(-(2**65), 2**65).map(str),
    st.from_regex(
        r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
    ),
)
SELF_TEXT = st.one_of(
    NUMBER_TEXT, st.sampled_from(["NaN", "Infinity", "-Infinity", "null", "1e400"])
)
SENT_IDS = st.one_of(
    st.text(max_size=8),
    st.text(
        alphabet=st.sampled_from(["a", "\u00e9", "\U0010ffff", "\ud800", "\udfff"]), max_size=4
    ),
)


@st.composite
def score_lines(draw):
    n = draw(st.integers(1, 4))
    rows = [
        "[" + ", ".join(draw(SELF_TEXT if i == j + 1 else NUMBER_TEXT) for j in range(n)) + "]"
        for i in range(n + 1)
    ]
    sent_id = json.dumps(draw(SENT_IDS), ensure_ascii=draw(st.booleans()))
    return f'{{"sent_id": {sent_id}, "n": {n}, "scores": [{", ".join(rows)}]}}\n'


@st.composite
def written_lines(draw):
    n = draw(st.integers(1, 4))
    flat = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=n * (n + 1),
            max_size=n * (n + 1),
        )
    )
    out = io.StringIO()
    grid = np.array(flat).reshape(n + 1, n)
    cip.write_scores([ScoreMatrix(grid, sent_id=draw(SENT_IDS))], out)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(score_lines(), written_lines()), min_size=1, max_size=3))
def test_parity_with_json_reader(lines):
    assert_same_outcome(outcome(cip.read_scores, lines), outcome(json_read_scores, lines))


JSONISH = st.sampled_from(list('[]{}",:0123456789.eE+- ntrufalsNIy\\'))


@st.composite
def mutated_lines(draw):
    chars = list(draw(st.one_of(score_lines(), written_lines())))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            chars.insert(at, draw(JSONISH))
        elif at < len(chars):
            if edit == "replace":
                chars[at] = draw(JSONISH)
            else:
                del chars[at]
    return "".join(chars)


@settings(max_examples=150, deadline=None)
@given(mutated_lines())
def test_mutated_lines_parse_as_the_reference_or_name_their_line(line):
    """Every line either parses, to what the reference reader gives, or
    raises a FormatError naming line 1: the orjson reader accepts a subset of
    what the reference accepts."""
    got = outcome(cip.read_scores, [line])
    if isinstance(got, str):
        assert got.startswith("line 1: ")
    else:
        assert_same_outcome(got, outcome(json_read_scores, [line]))


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_arbitrary_text_parses_or_names_its_line(text):
    got = outcome(cip.read_scores, ["\n", text])
    assert not isinstance(got, str) or got.startswith("line 2: ")


# --- malformed score lines --------------------------------------------------

def valid_score_line(n):
    rows = [[float(i + j) for j in range(n)] for i in range(n + 1)]
    return json.dumps({"sent_id": "s", "n": n, "scores": rows})


def deep(depth, core):
    return "[" * depth + core + "]" * depth


@st.composite
def malformed_score_lines(draw):
    """A line that every reader must reject: one defect in a valid 2-token
    line, or deep nesting."""
    n = 2
    rows = [[str(float(i + j)) for j in range(n)] for i in range(n + 1)]
    i, j = draw(st.integers(0, n)), draw(st.integers(0, n - 1))
    n_text = str(n)
    kind = draw(
        st.sampled_from(
            (
                "entry", "nonfinite", "n", "rows", "row", "truncate",
                "not-object", "missing", "deep", "deep-sent-id",
            )
        )
    )
    if kind == "entry":
        rows[i][j] = draw(st.sampled_from(["true", "false", '"1.5"', '"x"', "[]", "[1.0]", "{}"]))
    elif kind == "nonfinite":
        if i == j + 1:  # a self position: move to the root row
            i = 0
        rows[i][j] = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "null", "1e400"]))
    elif kind == "n":
        n_text = draw(st.sampled_from(["2.0", "2.7", '"2"', "true", "null", "[2]"]))
    elif kind == "rows":
        if draw(st.booleans()):
            del rows[i]
        else:
            rows.append(["0.5"] * n)
    elif kind == "row":
        if draw(st.booleans()):
            del rows[i][j]
        else:
            rows[i].append("0.5")
    body = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"
    line = f'{{"sent_id": "s", "n": {n_text}, "scores": {body}}}'
    if kind == "truncate":
        line = line[: draw(st.integers(1, len(line) - 1))]
    elif kind == "not-object":
        line = draw(st.sampled_from([body, "3", '"s"', "null", "[]"]))
    elif kind == "missing":
        line = draw(st.sampled_from(['{"n": 2}', f'{{"scores": {body}}}', "{}"]))
    elif kind == "deep":
        # orjson takes the bare brackets; with NaN inside, json.loads retries
        # and runs out of recursion.
        depth = draw(st.sampled_from([1, 999, 1000, 100_000]))
        line = deep(depth, draw(st.sampled_from(["", "NaN"])))
    elif kind == "deep-sent-id":
        # str() of the sent_id runs out of recursion
        sent_id = deep(draw(st.sampled_from([5_000, 100_000])), "")
        line = f'{{"sent_id": {sent_id}, "n": 1, "scores": [[1], [0]]}}'
    return line


@settings(max_examples=100, deadline=None)
@given(malformed_score_lines())
def test_malformed_score_line_names_its_line(line):
    with pytest.raises(FormatError, match=r"^line 2: "):
        cip.read_scores([valid_score_line(2) + "\n", line + "\n"])


# --- malformed CoNLL-U ------------------------------------------------------

def conllu_rows(heads):
    return [
        [str(j), f"w{j}", "_", "NOUN", "_", "_", str(h), "dep", "_", "_"]
        for j, h in enumerate(heads, start=1)
    ]


def render_conllu(rows):
    return "# sent_id = s\n" + "".join("\t".join(r) + "\n" for r in rows) + "\n"


@st.composite
def malformed_conllu(draw):
    """One defect in the 3-token sentence 2 <- 1, 0 <- 2, 2 <- 3."""
    rows = conllu_rows((2, 0, 2))
    k = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(("columns", "id", "sequence", "head", "range", "cycle")))
    if kind == "columns":
        rows[k] = rows[k][: draw(st.integers(1, 7))]
    elif kind == "id":
        rows[k][0] = draw(st.sampled_from(["¹", "x", "", "1a", " 1", "+1", "①", "١"]))
    elif kind == "sequence":
        rows[k][0] = str(draw(st.integers(0, 9).filter(lambda v: v != k + 1)))
    elif kind == "head":
        rows[k][6] = draw(
            st.sampled_from(["x", "1.5", "¹", "", "one", "0_1", "+1", " ١ ", "١"])
        )
    elif kind == "range":
        rows[k][6] = str(draw(st.sampled_from([-1, 4, 10])))
    else:  # a self-loop, or a cycle with no root child
        heads = draw(st.sampled_from([(1, 0, 2), (2, 2, 2), (2, 1, 2), (3, 3, 1)]))
        for row, head in zip(rows, heads):
            row[6] = str(head)
    return render_conllu(rows)


@settings(max_examples=200, deadline=None)
@given(malformed_conllu())
def test_malformed_conllu_names_its_line(text):
    with pytest.raises(FormatError, match=r"^line \d+: "):
        cip.read_conllu(io.StringIO(text))


CONLLU_TOKENS = st.sampled_from(
    ["1", "2", "3", "0", "_", "1-2", "2.1", "¹", "٣", "x", "NOUN", "#", "-1", ""]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(CONLLU_TOKENS, max_size=11).map("\t".join), max_size=8))
def test_arbitrary_conllu_parses_or_names_its_line(lines):
    try:
        cip.read_conllu([line + "\n" for line in lines])
    except FormatError as exc:
        assert re.match(r"line \d+: ", str(exc))


# --- through cip decode ------------------------------------------------------

VALID_CONLLU = render_conllu(conllu_rows((2, 0, 2)))


def run_decode(conllu_text, score_text):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("g.conllu", "s.jsonl", "o")}
        for name, text in (("g.conllu", conllu_text), ("s.jsonl", score_text)):
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(
                [
                    "decode",
                    "--conllu", paths["g.conllu"],
                    "--scores", paths["s.jsonl"],
                    "--out", paths["o"],
                ]
            )
    return code, err.getvalue(), paths


@settings(max_examples=60, deadline=None)
@given(malformed_score_lines())
def test_decode_reports_malformed_score_line(line):
    conllu = VALID_CONLLU + render_conllu(conllu_rows((0, 1)))
    code, err, paths = run_decode(conllu, valid_score_line(3) + "\n" + line + "\n")
    assert code == 1
    assert err.startswith(f"cip: {paths['s.jsonl']}: line 2: ")


@settings(max_examples=60, deadline=None)
@given(malformed_conllu())
def test_decode_reports_malformed_conllu(text):
    code, err, paths = run_decode(text, valid_score_line(3) + "\n")
    assert code == 1
    assert err.startswith(f"cip: {paths['g.conllu']}: line ")


def test_deeply_nested_score_line_exits_without_traceback(tmp_path):
    conllu = tmp_path / "g.conllu"
    scores = tmp_path / "s.jsonl"
    conllu.write_text(VALID_CONLLU, encoding="utf-8")
    scores.write_text(deep(100_000, "NaN") + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [
            sys.executable, "-m", "cip.cli", "decode",
            "--conllu", str(conllu), "--scores", str(scores), "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"cip: {scores}: line 1: JSON nested too deeply\n"
