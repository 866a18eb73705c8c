"""Every fenced example in the README must actually run."""

import re
import textwrap
from pathlib import Path

import pytest

from vbsa import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_blocks(language: str | None = None):
    text = README.read_text()
    out = []
    for match in re.finditer(r"```(\w*)\n(.*?)```", text, flags=re.S):
        lang, body = match.group(1), match.group(2)
        if language is None or lang == language:
            out.append((lang, textwrap.dedent(body)))
    return out


def _cli_commands():
    commands = []
    for lang, body in _fenced_blocks():
        if lang == "python":
            continue
        for line in body.splitlines():
            line = line.strip()
            if line.startswith("vbsa "):
                commands.append(line)
    return commands


def test_readme_has_cli_examples():
    assert len(_cli_commands()) >= 5


def _example_ids(commands):
    """The subcommand name; repeated subcommands get a counter from their second example on."""
    ids, seen = [], {}
    for command in commands:
        name = command.split()[1]
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("command", _cli_commands(), ids=_example_ids(_cli_commands()))
def test_readme_cli_examples_run(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = command.split()[1:]
    assert cli.run(argv) == 0, f"README example failed: {command}"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = _fenced_blocks("python")
    assert blocks
    for _, body in blocks:
        exec(compile(body, "<README example>", "exec"), {})
