"""Every CLI example in the README against its recorded stdout and exit status.

``fixtures/readme_cli/index.json`` lists each example command with its exit
status and the file, in the same directory, that holds its stdout.
"""

from __future__ import annotations

import json
import re
import shlex

import pytest

from treeot.cli import main

from conftest import FIXTURES

ROOT = FIXTURES.parent
GOLDEN = FIXTURES / "readme_cli"
EXAMPLES = json.loads((GOLDEN / "index.json").read_text())


def readme_commands() -> list[str]:
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [line for line in block.group(1).splitlines() if line.startswith("treeot ")]


def test_every_readme_example_is_recorded():
    assert [example["command"] for example in EXAMPLES] == readme_commands()


@pytest.mark.parametrize("example", EXAMPLES, ids=[e["command"] for e in EXAMPLES])
def test_readme_example_output(example, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(example["command"])[1:]
    # Files an example writes go to a scratch directory, not the checkout.
    argv = [str(tmp_path / arg) if i and argv[i - 1] == "--emit-instance" else arg
            for i, arg in enumerate(argv)]
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code == example["exit"]
    # Bytes, not read_text(): CSV rows end in "\r\n", which text mode would rewrite.
    assert stdout == (GOLDEN / example["stdout"]).read_bytes().decode()
