"""Lint gate: no module under src/ or tests/ imports a name it never uses.

A standard-library stand-in for pyflakes' unused-import check. A package's
`__init__.py` is skipped, since its imports are the package's re-exports.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that no expression refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`.
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\nfrom math import pi, tau\n"
              "print(os.path.sep, tau)\n")
    assert unused_imports(source) == [(3, "system"), (4, "pi")]


def test_no_unused_imports():
    files = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert found == []
