"""The Python examples of README.md, run in order on a synthetic corpus."""

import json
import re
from pathlib import Path

from cip.cli import main

from test_cli import SPEC

README = Path(__file__).resolve().parent.parent / "README.md"


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
