from __future__ import annotations

import ast
import sys
from pathlib import Path

import weaklg


def test_package_imports_only_the_standard_library() -> None:
    # numpy and sympy may be installed where the tests run, so an import of
    # either would go unnoticed by every other test
    offenders = []
    for path in sorted(Path(weaklg.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "weaklg" and top not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno}: {module}")
    assert offenders == []
