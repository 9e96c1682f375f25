"""Every ``qbern`` line of the README's "CLI" block runs as documented.

Each line runs in-process through ``qbern.cli.main``, in a directory that
holds the README's "Grid files" example as ``grid.json``.  It must exit 0,
except ``selftest --corrupt``, which must exit 1.
"""

import re
import shlex
from pathlib import Path

import pytest

from qbern.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading``."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in _block("## CLI", "bash").replace("\\\n", " ").splitlines()
            if line.startswith("qbern ")]


def test_readme_has_the_commands():
    assert len(COMMANDS) >= 10
    assert ["verify", "--grid", "grid.json"] in COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "grid.json").write_text(_block("### Grid files", "json"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == (1 if "--corrupt" in argv else 0)
    assert capsys.readouterr().err == ""
