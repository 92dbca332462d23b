"""Lint gates on the source tree.

- No module under src/ or tests/ imports a name it never uses: a
  standard-library stand-in for pyflakes' unused-import check.
- The package's `__init__.py` imports nothing: the modules are the public
  API, and each question is asked one way, from the module that answers it.
- Every public function and method in src/ has a caller in src/ or in
  perfbench/, or is on `UNCALLED` with the reason it stays.
- Every public method name that another src/ class or a module function
  also defines is on `SHARED_METHOD_NAMES` with the reason it stays: the
  caller gate matches a method by its bare name, so one caller counts for
  every definition of that name, and each has to be checked by hand.
"""
import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtransmute"

# Public definitions that no src/ or perfbench/ code calls, with the reason
# each stays: module-level functions as module.function, methods as
# Class.method.
UNCALLED = {
    "AdmissibleSet.full": "the every-class admissible set, counterpart of trivial()",
    "lattice.dumps_cell": "writer of the unit-cell format that loads_cell reads",
    "report.parse": "tests read `--report` files back with it",
}

# Public method names defined more than once in src/, with the reason each
# stays; every definition has a caller of its own (checked by hand).
SHARED_METHOD_NAMES = {
    "parse": "Poly2, LPoly and LaurentVec each read their own text form (cli, lattice); "
             "report.parse is on UNCALLED",
    "is_zero": "Poly2 (cyclic_code, divides) and LPoly (the lattice reductions) "
                "each test their own zero",
    "render": "pauli.render writes an operator, TrialReport.render cli simulate's report",
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


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function, as
    module.function, and each public method of a top-level class, as
    Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


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


def functions_named(tree: ast.AST) -> Counter:
    """How often each module.function is named under tree, outside that
    module: imported from it, or read as an attribute of a name spelled like
    the module (`from qtransmute import qet` then `qet.check_general_qet`)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rsplit(".", 1)[-1]
            found.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found[f"{node.value.id}.{node.attr}"] += 1
    return found


def bare_names(tree: ast.AST) -> Counter:
    """How often each bare name occurs under tree."""
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def perfbench_names() -> Counter:
    """Names and module.functions perfbench's code uses, and the functions its
    tracer's LAYER_OF wraps."""
    found = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += names_used(tree) + functions_named(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and any(isinstance(t, ast.Name) and t.id == "LAYER_OF"
                            for t in node.targets)):
                found.update(key.value for key in node.value.keys)
    return found


def uncalled(sources: dict[str, str], outside: Counter) -> list[str]:
    """Qualified names of the public definitions in `sources` (module name ->
    source) that nothing calls. A function is called by name inside its own
    module, or as module.function anywhere; a method by its bare name
    anywhere. A definition's uses of its own name (recursion) are not
    callers."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    in_src = sum((names_used(tree) for tree in trees.values()), Counter())
    in_src += sum((functions_named(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qual, node in public_definitions(module, tree):
            if qual.startswith(f"{module}."):
                own = bare_names(tree)[node.name] - bare_names(node)[node.name]
                called = own or in_src[qual] or outside[qual]
            else:
                called = (outside[node.name]
                          or in_src[node.name] > names_used(node)[node.name])
            if not called:
                found.append(qual)
    return sorted(found)


def test_callers_are_matched_by_module():
    # a method of the same name in another module does not call a function
    sources = {"report": "def parse(text):\n    return text\n",
               "poly": "class Poly:\n    def parse(self):\n        return self\n",
               "cli": "from .poly import Poly\nPoly().parse()\n"}
    assert uncalled(sources, Counter()) == ["report.parse"]
    sources["cli"] += "from . import report\nreport.parse('')\n"
    assert uncalled(sources, Counter()) == []


def test_every_public_definition_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert uncalled(sources, perfbench_names()) == sorted(UNCALLED)


def shared_method_names(sources: dict[str, str]) -> list[str]:
    """Public method names in `sources` (module name -> source) that another
    class, or a module function, also defines."""
    owners = defaultdict(set)
    methods = set()
    for module, source in sources.items():
        for qual, _ in public_definitions(module, ast.parse(source)):
            owner, name = qual.split(".")
            owners[name].add(qual)
            if owner != module:
                methods.add(name)
    return sorted(name for name in methods if len(owners[name]) > 1)


def test_shared_method_scanner():
    # two module functions of one name are told apart by module; a method
    # is not, whether the other definition is a method or a function
    sources = {"report": "def parse(text):\n    return text\n",
               "poly": "class Poly:\n    def parse(self):\n        return self\n"
                       "    def degree(self):\n        return 0\n",
               "f2": "class Span:\n    def contains(self, v):\n        return v\n",
               "codes": "class Code:\n    def contains(self, v):\n        return v\n"
                        "def degree_of(p):\n    return 0\n",
               "lattice": "def degree_of(p):\n    return 1\n"}
    assert shared_method_names(sources) == ["contains", "parse"]


def test_shared_method_names_are_pinned():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert shared_method_names(sources) == sorted(SHARED_METHOD_NAMES)
