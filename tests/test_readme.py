"""The README's examples run as written.

Every ``hartogs ...`` line of the "Command-line usage" block goes through
``cli.main`` in a temporary working directory and must exit 0, and the
"Library example" block is executed and must give the census its comment
states.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from hartogs.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, fence: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_command_line_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for line in _block_after("Command-line usage", "sh").splitlines()
        if line.startswith("hartogs ")
    ]
    assert len(commands) == 8
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "scan.csv").read_text().startswith("m,n,k,degree,")


def test_library_example_runs():
    code = _block_after("Library example", "python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    census = namespace["census"]
    stated = re.search(
        r"census = .*# inside=(\d+), on_circle=(\d+), outside=(\d+)", code
    )
    assert (census.inside, census.on_circle, census.outside) == tuple(
        int(g) for g in stated.groups()
    )
    assert abs(namespace["witness"].kernel_value) < 1e-8
