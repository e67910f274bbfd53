"""README's examples run as written: the CLI block's commands and the library example."""

import re
import shlex
from pathlib import Path

from icpkit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(section: str, lang: str) -> str:
    """The first ```lang block after the heading `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_readme_cli_commands_exit_zero(tmp_path, monkeypatch, capsys):
    lines = fenced_block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("icpkit ")]
    assert [argv[0] for argv in commands] == ["gen", "oracle", "solve", "verify"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_library_example_runs():
    exec(compile(fenced_block("Library example", "python"), "README.md", "exec"), {})
