from __future__ import annotations

import ast
import subprocess
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


def test_import_and_first_corpus_load_pull_in_no_slow_modules() -> None:
    # dataclasses generates code with exec and imports inspect and ast;
    # typing and importlib.resources (with zipfile) cost start-up as well,
    # which every lg call pays
    slow = ["dataclasses", "inspect", "typing", "importlib.resources", "zipfile"]
    code = ("import sys, weaklg, weaklg.cli; weaklg.corpus.load_corpus(); "
            f"print([m for m in {slow!r} if m in sys.modules])")
    src = str(Path(weaklg.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_operators_import_nothing_from_the_search_and_the_search_defines_no_class() -> None:
    # operators.py owns the operator type and its action on a series; the
    # annihilator search builds on it and keeps no value type of its own
    root = Path(weaklg.__file__).resolve().parent
    operators, search = (ast.parse((root / name).read_text(encoding="utf-8")) for name in ("operators.py", "annihilator.py"))
    imported = set()
    for node in ast.walk(operators):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert "annihilator" not in imported
    assert [node.name for node in ast.walk(search) if isinstance(node, ast.ClassDef)] == []
