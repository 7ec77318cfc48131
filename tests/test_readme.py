"""README's library tour runs as written against the top-level package."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import weaklg

README = Path(__file__).resolve().parent.parent / "README.md"


def tour() -> str:
    text = README.read_text("utf-8")
    return re.search(r"## Library tour\n.*?```python\n(.*?)```", text, re.S).group(1)


def test_the_tour_shows_its_commented_values() -> None:
    code = tour()
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
    (imported,) = [node for node in ast.parse(tour()).body if isinstance(node, ast.ImportFrom)]
    assert imported.module == "weaklg"
    assert sorted(alias.name for alias in imported.names) == sorted(weaklg.__all__)
    assert all(hasattr(weaklg, name) for name in weaklg.__all__)
