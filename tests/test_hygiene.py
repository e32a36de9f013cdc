"""Source hygiene checks that need no linter: every name a module of
the package imports at module level is used in that module."""

import ast
from pathlib import Path

import cohh

SRC = Path(cohh.__file__).parent

# (module, name) bindings kept on purpose although the module never
# reads them: perfbench's tracer wraps structure.induced_operator
ALLOWED = {("structure", "induced_operator")}


def _imported_names(tree):
    """(name, line) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(path.stem, name, line) for name, line in _imported_names(tree)
            if name not in used and (path.stem, name) not in ALLOWED]


def test_no_unused_module_level_imports():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unused_imports(path)]
    assert found == [], "unused imports (module, name, line): " + repr(found)


def test_checker_flags_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom math import pi, tau as t\n"
                    "def f():\n    return pi\n")
    assert unused_imports(path) == [("mod", "os", 1), ("mod", "t", 2)]
