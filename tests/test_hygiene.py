"""Lint gates on the source tree.

- No module under src/ or tests/ imports a name it never uses: a
  standard-library stand-in for pyflakes' unused-import check.
- The package's `__init__.py` imports nothing: the modules are the public
  API, and each question is asked one way, from the module that answers it.
- Every public function and method in src/ has a caller in src/ or in
  perfbench/, or is on `UNCALLED` with the reason it stays.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtransmute"

# Public definitions that no src/ or perfbench/ code calls, with the reason
# each stays.
UNCALLED = {
    "exact_class_distribution": "closed-form channel reference the trial tests compare "
                                "against; ROADMAP direction 2 gives it a caller",
    "total_variation": "compares trial and exact distributions; ROADMAP direction 2",
    "TrialReport.class_distribution": "the trial side of that comparison; ROADMAP direction 2",
    "generators_from_index": "exhaustive-index contract the search tests pin",
    "parameter_space_size": "exhaustive-index contract the search tests pin",
    "detects_single_errors": "exhaustive-index contract the search tests pin",
    "AdmissibleSet.full": "the every-class admissible set, counterpart of trivial()",
    "F2Span.contains": "span membership, the read side of insert()",
    "LinearCode.contains": "codeword membership, which the classical tests check codes by",
    "dumps_cell": "writer of the unit-cell format that loads_cell reads",
}


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
    files = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 20
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert found == []


def test_package_init_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each public top-level function
    and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def names_used(tree: ast.AST) -> Counter:
    """How often each name, attribute and imported name occurs under tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def perfbench_names() -> Counter:
    """Names perfbench's code uses, and the functions its tracer's LAYER_OF wraps."""
    found = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += names_used(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and any(isinstance(t, ast.Name) and t.id == "LAYER_OF"
                            for t in node.targets)):
                found.update(key.value.rsplit(".", 1)[1] for key in node.value.keys)
    return found


def test_every_public_definition_has_a_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    in_src = sum((names_used(tree) for tree in trees), Counter())
    outside = perfbench_names()
    # A definition's uses of its own name (recursion) are not callers.
    uncalled = sorted(qual for tree in trees for qual, name, node in public_definitions(tree)
                      if not outside[name] and in_src[name] == names_used(node)[name])
    assert uncalled == sorted(UNCALLED)
