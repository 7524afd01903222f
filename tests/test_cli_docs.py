"""Every documented ``repro`` command line parses with today's CLI.

Scans the fenced blocks of README.md and docs/*.md, and the cli.py
docstring, and parses each ``repro ...`` line without running it — a
flag the verb does not own, a removed flag or a wrong argument count
fails here instead of in a reader's terminal.
"""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import _parse

ROOT = Path(__file__).resolve().parents[1]
_FENCE = re.compile(r"^```.*?$(.*?)^```", re.MULTILINE | re.DOTALL)
_SHELL_OPERATORS = {">", ">>", "2>", "|", "&&", ";", "&"}
#: Words that may precede ``repro`` on a command line.
_PREFIXES = {"$", "time", "python", "python3", "-m"}


def _command_lines(text):
    """Shell lines of ``text``, with backslash continuations joined."""
    return re.sub(r"\\\n\s*", " ", text).splitlines()


def _repro_argv(line):
    """The argv after ``repro`` on a shell line, or None if none."""
    line = re.sub(r"\$\([^)]*\)", "DIR", line)  # $(mktemp -d) and kin
    try:
        words = shlex.split(line, comments=True)
    except ValueError:
        return None
    for i, word in enumerate(words):
        if word == "repro" or (word == "repro.cli" and words[i - 1] == "-m"):
            argv = []
            for token in words[i + 1:]:
                if token in _SHELL_OPERATORS or token.startswith(">"):
                    break
                argv.append(token.strip("[]"))  # [--optional flags]
            return argv
        if word not in _PREFIXES and "=" not in word:  # not VAR=value
            return None
    return None


def _documented_commands():
    sources = [(path, _FENCE.findall(path.read_text())) for path in (
        [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    )]
    doc = repro.cli.__doc__.split("Examples::", 1)[1]
    sources.append((Path(repro.cli.__file__), [doc]))
    commands = []
    for path, blocks in sources:
        for block in blocks:
            for line in _command_lines(block):
                argv = _repro_argv(line)
                if argv:
                    label = f"{path.name}: repro {' '.join(argv)}"
                    commands.append(pytest.param(argv, id=label))
    return commands


COMMANDS = _documented_commands()


def test_the_docs_have_commands_to_check():
    assert len(COMMANDS) > 50


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv, capsys):
    try:
        args = _parse(argv)
    except SystemExit:
        pytest.fail(f"repro {' '.join(argv)}: {capsys.readouterr().err}")
    assert callable(args.run)


def test_a_foreign_flag_is_caught(capsys):
    with pytest.raises(SystemExit):
        _parse(_repro_argv("repro serve --registry ./models --window 256"))
