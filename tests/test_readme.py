"""The examples of README.md, run in order on a synthetic corpus."""

import json
import re
import shlex
import shutil
from pathlib import Path

import orjson

from cip import cli
from cip.cli import main

from test_cli import DATA, SPEC

README = Path(__file__).resolve().parent.parent / "README.md"
DECODER = README.parent / "src" / "cip" / "decoder.py"

# The input files the README's commands name but do not write, by the
# tests/data fixture that stands in for each.
FIXTURES = {
    "wals.csv": "wals_fixture.csv",
    "templates.json": "templates.json",
    "unary.json": "unary_ratios.json",
    "src.json": "ratios_source.json",
    "tgt.json": "ratios_target.json",
}


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 2
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--spec", "spec.json", "--out-conllu", "gold.conllu",
            "--out-scores", "scores.jsonl"]
    assert main(argv) == 0
    # The blocks share one namespace: the second uses the first's corpus.
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``cip`` commands in README's bash blocks,
    with continuation lines joined and comments dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cip"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch):
    # ``estimate-ratios --sample 100`` needs at least 100 sentences.
    (tmp_path / "spec.json").write_text(json.dumps({**SPEC, "n_sentences": 120}))
    for name, fixture in FIXTURES.items():
        shutil.copy(Path(DATA) / fixture, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    # ``main`` runs subcommand ``x-y`` as ``cli.cmd_x_y``: the README shows each.
    subcommands = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    assert {argv[0] for argv in commands} == subcommands
    for argv in commands:
        assert main(argv) == 0, argv
    traces = [argv[argv.index("--trace") + 1] for argv in commands if "--trace" in argv]
    assert traces == ["lr.jsonl"]
    lines = (tmp_path / "lr.jsonl").read_bytes().splitlines()
    assert lines and all(isinstance(orjson.loads(line), dict) for line in lines)


def test_readme_range_errors_name_the_decoder_messages():
    # Each bullet of README's range-error list names its message as
    # (`X decoding`; the decoders raise ``score range too large for X
    # decoding``.  Both lists must name the same decoders.
    readme = re.findall(r"\(`([a-z-]+) decoding`", README.read_text(encoding="utf-8"))
    raised = re.findall(
        r"score range too large for ([a-z-]+) decoding", DECODER.read_text(encoding="utf-8")
    )
    assert readme and sorted(set(readme)) == sorted(set(raised))
    assert len(readme) == len(set(readme))
