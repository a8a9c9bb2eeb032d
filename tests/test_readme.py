"""The README's examples run as printed.

The quick start's Python block is executed statement by statement; every
bare expression followed by a comment must have that comment as its repr.
The CLI transcript is replayed through ``haig.cli.main`` in a temporary
directory, and each command must exit 0 and print the commented lines
that follow it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
import tokenize
from pathlib import Path

from haig.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language: str, first_line: str) -> str:
    """The fenced ``language`` block of the README whose first line is ``first_line``."""
    for match in re.finditer(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        if match.group(1).startswith(first_line):
            return match.group(1)
    raise AssertionError(f"README has no {language} block starting with {first_line!r}")


def _comments(source: str) -> dict[int, str]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def test_quick_start_runs_as_printed():
    source = _block("python", "from haig import")
    comments = _comments(source)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert repr(value) == comments[stmt.end_lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
    assert checked >= 4


def _transcript() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) per ``haig`` command of the CLI block."""
    commands: list[tuple[list[str], list[str]]] = []
    pending = ""
    for line in _block("sh", "haig generate").splitlines():
        if pending or line.startswith("haig "):
            pending += line.rstrip("\\").strip() + " "
            if not line.endswith("\\"):
                commands.append((shlex.split(pending)[1:], []))
                pending = ""
        elif line.startswith("# "):
            commands[-1][1].append(line[2:])
    return commands


def test_cli_transcript_replays(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _transcript()
    assert [argv[0] for argv, _ in commands] == [
        "generate", "solve", "filter-rollout", "verify", "compare-oracle",
    ]
    for argv, expected in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        assert out.getvalue().splitlines() == expected, argv
