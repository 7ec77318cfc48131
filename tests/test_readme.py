"""README's library tour and CLI block run as written against the package."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import weaklg
from weaklg.cli import main
from weaklg.expr import parse, random_equal

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading: str, language: str) -> str:
    """The first code block of the given language under a README heading."""
    text = README.read_text("utf-8")
    return re.search(rf"## {heading}\n.*?```{language}\n(.*?)```", text, re.S).group(1)


def test_the_tour_shows_its_commented_values() -> None:
    code = block("Library tour", "python")
    namespace: dict = {}
    exec(code, namespace)
    checked = 0
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        # a comment on an expression is its value; one on an assignment is prose
        if comment and isinstance(ast.parse(statement.strip()).body[0], ast.Expr):
            assert eval(statement, namespace) == eval(comment, {"Fraction": Fraction})
            checked += 1
    assert checked == 3


def test_the_tour_imports_the_whole_top_level_api() -> None:
    (imported,) = [node for node in ast.parse(block("Library tour", "python")).body if isinstance(node, ast.ImportFrom)]
    assert imported.module == "weaklg"
    assert sorted(alias.name for alias in imported.names) == sorted(weaklg.__all__)
    assert all(hasattr(weaklg, name) for name in weaklg.__all__)


def test_the_cli_block_runs_as_written(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    # continuation lines joined and comments dropped, each line run in a
    # directory where model.json is what the construct grass-ci line writes
    lines = [shlex.split(line, comments=True) for line in block("CLI", "sh").replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "lg" for argv in lines)
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for argv in sorted(lines, key=lambda argv: argv[1] != "construct"):  # the model file first
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0, argv
        outputs[argv[1]] = out.getvalue()
        if argv[1:3] == ["construct", "grass-ci"]:
            Path("model.json").write_text(out.getvalue(), "utf-8")
    expected = parse("5 + " + weaklg.get_entry(7).polynomial)
    assert random_equal(parse(outputs["eliminate"]), expected).equal
