"""Source hygiene checks that need no linter: every name a module of
the package imports at module level is used in that module, every
private top-level name of the package is referenced somewhere, every
dataclass field and every attribute a method sets on self is read
somewhere, no module but linalg reads a private linalg name or the
rows and entries of a Matrix, no module sums term by term with
add_term or sub_sums, every axiom check is made by coalgebra.check
into the one report type, no function loops over the images of maps
on tensor legs by hand, no function offers an option that no call in
the package sets, a function imports a module of the package only
where that keeps it from loading, no class but the one report type
carries a pass/fail field, and every key of a metadata={...} literal
is read somewhere."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import cohh

SRC = Path(cohh.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# where a private name may be referenced: perfbench wraps some by name
REFERRERS = ("src", "tests", "perfbench")

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


def _private_top_level_names(tree):
    """(name, line) for each _name a module defines or assigns at top
    level; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unreferenced_private_names(path: Path, referrers):
    """Private top-level names of path that occur, as a whole word, only
    once in path and the referrer files together: at their definition.
    A name in a string counts, since perfbench names its targets so."""
    texts = {p.resolve(): p.read_text() for p in (path, *referrers)}
    tree = ast.parse(texts[path.resolve()], filename=str(path))
    return [(path.stem, name, line)
            for name, line in _private_top_level_names(tree)
            if sum(len(re.findall(rf"\b{name}\b", text))
                   for text in texts.values()) == 1]


def test_every_private_top_level_name_is_referenced():
    referrers = [p for d in REFERRERS for p in (ROOT / d).rglob("*.py")]
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unreferenced_private_names(path, referrers)]
    assert found == [], ("unreferenced private names (module, name, "
                         "line): " + repr(found))


def test_checker_flags_an_unreferenced_private_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def _dead():\n    pass\n\n\ndef _used():\n"
                    "    pass\n\n\n_LIMIT = _used()\n__all__ = []\n")
    other = tmp_path / "other.py"
    other.write_text('TARGETS = [("mod", "_LIMIT")]\n_dead_too = 1\n')
    assert unreferenced_private_names(path, [path, other]) == [
        ("mod", "_dead", 1)]


def _dataclass_fields(tree):
    """(class, field, line) for each annotated field of a top-level
    @dataclass class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None)
                == "dataclass" for d in node.decorator_list):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield node.name, item.target.id, item.lineno


def unread_dataclass_fields(path: Path, referrers):
    """(module, class.field, line) for each dataclass field of path
    whose name no referrer file reads as an attribute (.name) or passes
    as a keyword (name=)."""
    texts = [p.read_text() for p in referrers]
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(path.stem, f"{cls}.{name}", line)
            for cls, name, line in _dataclass_fields(tree)
            if not any(re.search(rf"\.{name}\b|\b{name}=", text)
                       for text in texts)]


def test_every_dataclass_field_is_read():
    referrers = [p for d in REFERRERS for p in (ROOT / d).rglob("*.py")]
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unread_dataclass_fields(path, referrers)]
    assert found == [], ("dataclass fields nothing reads (module, field, "
                         "line): " + repr(found))


def test_checker_flags_a_dataclass_field_nothing_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from dataclasses import dataclass\n\n\n"
                    "@dataclass\nclass Report:\n    read: int\n"
                    "    keyword: int\n    dead: int = 0\n\n\n"
                    "class Plain:\n    unread: int\n\n\n"
                    "def f(r):\n    return r.read, Report(1, keyword=2)\n")
    assert unread_dataclass_fields(path, [path]) == [
        ("mod", "Report.dead", 8)]


def _attribute_targets(tree):
    """Each attribute node that an assignment in tree writes, itself or
    an item of it: the x of a.x = v, a.x[k] = v, a.x += v and a.x: T = v."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            stack = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            stack = [node.target]
        else:
            continue
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack += target.elts
                continue
            if isinstance(target, ast.Starred):
                target = target.value
            while isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Attribute):
                yield target


def loaded_attributes(paths) -> set:
    """The names of the attributes the files read (.name), less the
    bases of item writes: self.x[k] = v writes x, it does not read it."""
    loaded = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        written = {id(node) for node in _attribute_targets(tree)}
        loaded |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)
                   and id(node) not in written}
    return loaded


def unread_instance_attributes(path: Path, loaded: set):
    """(module, class.name, line) for each self.name that a top-level
    class of path writes and that is not in loaded, the attribute names
    read on anything; line is the first write."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in _attribute_targets(cls):
                if (isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr not in loaded):
                    found.setdefault(f"{cls.name}.{node.attr}", node.lineno)
    return sorted(((path.stem, name, line) for name, line in found.items()),
                  key=lambda hit: hit[2])


def test_every_instance_attribute_is_read():
    loaded = loaded_attributes(
        p for d in REFERRERS for p in (ROOT / d).rglob("*.py"))
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in unread_instance_attributes(path, loaded)]
    assert found == [], ("instance attributes nothing reads (module, "
                         "attribute, line): " + repr(found))


def test_checker_flags_an_instance_attribute_nothing_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class Table:\n"
                    "    def __init__(self):\n"
                    "        self.read = {}\n"
                    "        self.dead, self.items = 0, {}\n"
                    "        self.items[1] = 2\n"
                    "        self.count: int = 0\n"
                    "        self.count += 1\n"
                    "        self.read[0] = self.dead\n\n\n"
                    "def f(t):\n"
                    "    return t.read\n")
    assert unread_instance_attributes(path, loaded_attributes([path])) == [
        ("mod", "Table.items", 4), ("mod", "Table.count", 6)]


def private_linalg_reads(path: Path):
    """(module, name, line) for each private linalg._name that path
    reads, as an attribute of linalg or through a from-import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "linalg"):
            names = [node.attr]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "linalg"):
            names = [alias.name for alias in node.names]
        else:
            continue
        hits += [(path.stem, name, node.lineno) for name in names
                 if name.startswith("_") and not name.startswith("__")]
    return sorted(hits, key=lambda hit: hit[2])


def test_no_module_but_linalg_reads_a_private_linalg_name():
    found = [hit for path in sorted(SRC.glob("*.py"))
             if path.stem != "linalg" for hit in private_linalg_reads(path)]
    assert found == [], ("private linalg names read (module, name, "
                         "line): " + repr(found))


def test_checker_flags_a_private_linalg_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import linalg\n"
                    "from .linalg import _echelon, rank\n"
                    "def f(m):\n"
                    "    return linalg._rref_sparse(m), linalg.rank(m), "
                    "linalg.__doc__\n")
    assert private_linalg_reads(path) == [("mod", "_echelon", 2),
                                          ("mod", "_rref_sparse", 4)]


# a Matrix is its rows and rref(..., last=True) pivots at the greatest
# index; both decisions stay inside linalg
MATRIX_STORAGE = {"rows", "entries"}
RETIRED_PIVOT_ADAPTERS = {"rref_last", "_Reversed"}


def matrix_internals(path: Path):
    """(module, name, line) for each .rows or .entries that path reads,
    and each rref_last or _Reversed it names, defines or imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        flagged = RETIRED_PIVOT_ADAPTERS
        if isinstance(node, ast.Attribute):
            names, flagged = [node.attr], flagged | MATRIX_STORAGE
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        else:
            continue
        hits += [(path.stem, name, node.lineno) for name in names
                 if name in flagged]
    return sorted(hits, key=lambda hit: hit[2])


def test_only_linalg_knows_how_a_matrix_is_stored_and_pivoted():
    found = [hit for path in sorted(SRC.glob("*.py"))
             if path.stem != "linalg" for hit in matrix_internals(path)]
    assert found == [], ("Matrix storage or retired pivot adapters read "
                         "(module, name, line): " + repr(found))


def test_checker_flags_a_matrix_internal(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .linalg import rref_last, rref\n"
                    "def f(m, table_rows):\n"
                    "    return m.rows, m.entries, table_rows, m.ncols\n"
                    "class _Reversed:\n"
                    "    pass\n"
                    "def g(m):\n"
                    "    return linalg.rref_last(m), rref(m, last=True)\n")
    assert matrix_internals(path) == [
        ("mod", "rref_last", 1), ("mod", "rows", 3), ("mod", "entries", 3),
        ("mod", "_Reversed", 4), ("mod", "rref_last", 7)]


# formal sums accumulate with plain + and * and are reduced once by
# FieldSpec.canonical; these were the term-by-term helpers
RETIRED_SUM_HELPERS = {"add_term", "sub_sums"}


def retired_sum_helpers(path: Path):
    """(module, name, line) for each add_term or sub_sums that path
    defines or imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [name for alias in node.names
                     for name in (alias.name.split(".")[-1], alias.asname)]
        else:
            continue
        hits += [(path.stem, name, node.lineno)
                 for name in dict.fromkeys(names)
                 if name in RETIRED_SUM_HELPERS]
    return sorted(hits, key=lambda hit: hit[2])


def test_no_module_defines_or_imports_a_term_by_term_sum_helper():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in retired_sum_helpers(path)]
    assert found == [], ("term-by-term sum helpers (module, name, line): "
                         + repr(found))


def test_checker_flags_a_term_by_term_sum_helper(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .graded import GradedMap, add_term\n"
                    "from . import graded as sub_sums\n"
                    "def sub_sums_of(a):\n"
                    "    def add_term(s, k, c):\n"
                    "        s[k] = c\n"
                    "    return a\n"
                    "total = {}\n")
    assert retired_sum_helpers(path) == [("mod", "add_term", 1),
                                         ("mod", "sub_sums", 2),
                                         ("mod", "add_term", 4)]


# every axiom and diagram check is one coalgebra.check call, and
# coalgebra.ValidationReport is the one class holding checks
CHECK_MAKER = ("coalgebra", "check")
REPORT = ("coalgebra", "ValidationReport")


def _holds_checks(cls: ast.ClassDef) -> bool:
    """cls declares a checks field in its body or sets self.checks."""
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for t in targets:
            if (isinstance(t, ast.Name) and t.id == "checks"
                    and node in cls.body):
                return True
            if (isinstance(t, ast.Attribute) and t.attr == "checks"
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"):
                return True
    return False


def second_check_idioms(path: Path):
    """(module, name, line) for each AxiomCheck call outside
    coalgebra.check and each class but coalgebra.ValidationReport that
    holds checks."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = {id(n) for top in tree.body
              if isinstance(top, ast.FunctionDef)
              and (path.stem, top.name) == CHECK_MAKER
              for n in ast.walk(top)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in exempt:
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "AxiomCheck":
                hits.append((path.stem, name, node.lineno))
        elif (isinstance(node, ast.ClassDef)
              and (path.stem, node.name) != REPORT and _holds_checks(node)):
            hits.append((path.stem, node.name, node.lineno))
    return sorted(hits, key=lambda hit: hit[2])


def test_every_check_is_made_by_coalgebra_check_into_one_report_type():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in second_check_idioms(path)]
    assert found == [], ("checks made outside coalgebra.check, or a second "
                         "report class (module, name, line): " + repr(found))


def test_checker_flags_a_second_check_idiom(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import coalgebra\n"
                    "from .coalgebra import AxiomCheck\n"
                    "class StructureReport:\n"
                    "    checks: list\n"
                    "class Listing:\n"
                    "    def __init__(self):\n"
                    "        self.checks = []\n"
                    "class Fine:\n"
                    "    def f(self):\n"
                    "        checks = []\n"
                    "        return checks\n"
                    "def check(name, bad):\n"
                    "    return AxiomCheck(name, not bad)\n"
                    "def f():\n"
                    "    return coalgebra.AxiomCheck('x', True)\n")
    assert second_check_idioms(path) == [
        ("mod", "StructureReport", 3), ("mod", "Listing", 5),
        ("mod", "AxiomCheck", 13), ("mod", "AxiomCheck", 15)]
    path = tmp_path / "coalgebra.py"
    path.write_text("class ValidationReport:\n"
                    "    checks: list\n"
                    "def check(name, bad):\n"
                    "    return AxiomCheck(name, not bad)\n"
                    "def validate(c):\n"
                    "    return [AxiomCheck('x', True)]\n")
    assert second_check_idioms(path) == [("coalgebra", "AxiomCheck", 6)]


# a tensor of maps is one graded.tensor_apply call, and a Koszul sign
# one regrouping of its result
MAP_ACCESSORS = {"comult_of", "iterated_comult", "left_of", "right_of",
                 "column", "apply"}


def _loops_over_a_map(iterable) -> bool:
    """iterable is X.items() with X a call of a map accessor."""
    if not (isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr == "items"
            and isinstance(iterable.func.value, ast.Call)):
        return False
    func = iterable.func.value.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return name in MAP_ACCESSORS


def nested_map_loops(path: Path):
    """(module, function, line) for each for statement or comprehension
    clause over a map accessor's .items() nested inside another one, in
    the innermost function defining it."""
    hits = []

    def visit(node, function, depth):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, depth = node.name, 0
        if isinstance(node, ast.For) and _loops_over_a_map(node.iter):
            if depth:
                hits.append((path.stem, function, node.lineno))
            visit(node.iter, function, depth)
            for child in node.body:
                visit(child, function, depth + 1)
            for child in node.orelse:
                visit(child, function, depth)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            inner = depth
            for gen in node.generators:
                visit(gen.iter, function, inner)
                if _loops_over_a_map(gen.iter):
                    if inner:
                        hits.append((path.stem, function, gen.iter.lineno))
                    inner += 1
                for cond in gen.ifs:
                    visit(cond, function, inner)
            for part in ("elt", "key", "value"):
                if hasattr(node, part):
                    visit(getattr(node, part), function, inner)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, function, depth)

    visit(ast.parse(path.read_text(), filename=str(path)), None, 0)
    return sorted(hits, key=lambda hit: hit[2])


def test_no_function_loops_over_map_legs_by_hand():
    found = {(module, function) for path in sorted(SRC.glob("*.py"))
             for module, function, _ in nested_map_loops(path)}
    assert not found, (
        "nested loops over map images (module, function): " + repr(found))


def test_checker_flags_a_nested_map_loop(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def lhs(c, vec):\n"
                    "    for (a, b), v in c.comult_of(1).items():\n"
                    "        for x, w in m.column(a).items():\n"
                    "            pass\n"
                    "def signed(c, vec):\n"
                    "    for key, v in vec.items():\n"
                    "        for x, w in c.left_of(key).items():\n"
                    "            def g():\n"
                    "                for y in c.apply(x).items():\n"
                    "                    pass\n"
                    "    return {t: w for x, v in right_of(1).items()\n"
                    "            for t, w in c.iterated_comult(x, 2)"
                    ".items()}\n"
                    "def fine(c, d):\n"
                    "    for x, v in d(1).items():\n"
                    "        for y, w in c.column(x).items():\n"
                    "            pass\n"
                    "    for x, v in c.column(1).items():\n"
                    "        for y, w in d(x).items():\n"
                    "            pass\n")
    assert nested_map_loops(path) == [("mod", "lhs", 3),
                                      ("mod", "signed", 12)]


# options kept although no call in the package sets them, as (module,
# function, parameter): the console entry point, the API of the
# acceptance criteria, the unnormalized oracle and the test constructor
UNSET_OPTIONS_KEPT = {("cli", "main", "argv"),
                      ("comodule", "tensor_box_structure", "mult2"),
                      ("complexes", "cohh", "normalized"),
                      ("linalg", "Matrix.__init__", "entries")}


def _defaulted_parameters(tree):
    """(function, call key, position, parameter, line) for each
    parameter with a default of a top-level function or of a method of
    a top-level class.  The call key is (kind, name), as _calls gives
    it: a function, or the class for __init__, is called as a
    "function", any other method as a "method"; position is the
    parameter's index among the arguments such a call passes by
    position, None for a keyword-only one."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            defs = [(top.name, ("function", top.name), top, 0)]
        elif isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{fn.name}",
                     ("function", top.name) if fn.name == "__init__"
                     else ("method", fn.name), fn,
                     0 if any(getattr(d, "id", None) == "staticmethod"
                              for d in fn.decorator_list) else 1)
                    for fn in top.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for function, called, fn, skip in defs:
            args = fn.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults),
                           len(positional)):
                yield (function, called, i - skip, positional[i].arg,
                       positional[i].lineno)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield function, called, None, arg.arg, arg.lineno


def _calls(tree):
    """((kind, name), positional count, keywords) for each call in tree
    whose function is a name or an attribute.  A bare name, with a
    from-import alias resolved to the imported name, and module.f, with
    module a name that an import or a from . import binds, are
    "function" calls; every other attribute call is a "method" call.  A
    *args counts as any number of positional arguments and a **kwargs
    as any keyword (None)."""
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            key = ("function", aliases.get(func.id, func.id))
        elif isinstance(func, ast.Attribute):
            key = ("function" if getattr(func.value, "id", None) in modules
                   else "method", func.attr)
        else:
            continue
        count = (float("inf") if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
        yield key, count, {kw.arg for kw in node.keywords}


def never_set_options(paths):
    """(module, function, parameter, line) for each parameter with a
    default of a top-level function or method in paths (nested
    functions are left out) that no call in paths passes, by position
    or by keyword.  Calls are matched by name and kind (see _calls), so
    a method shares no call with a function of its name."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    calls: dict = {}
    for tree in trees.values():
        for key, count, keywords in _calls(tree):
            calls.setdefault(key, []).append((count, keywords))
    return [(path.stem, function, param, line)
            for path, tree in trees.items()
            for function, called, position, param, line
            in _defaulted_parameters(tree)
            if not any(position is not None and position < count
                       or param in keywords or None in keywords
                       for count, keywords in calls.get(called, ()))]


def test_no_option_is_left_that_no_call_sets():
    found = never_set_options(sorted(SRC.glob("*.py")))
    assert {hit[:3] for hit in found} == UNSET_OPTIONS_KEPT, (
        "options no call sets (module, function, parameter, line): "
        + repr(found))


def test_checker_flags_an_option_no_call_sets(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .other import helper as h\n"
                   "def f(a, b=1, *, c=None):\n"
                   "    return a\n"
                   "def g(x, y=2):\n"
                   "    return f(x, 2)\n"
                   "class Box:\n"
                   "    def __init__(self, n, size=0):\n"
                   "        self.n = n\n"
                   "    def grow(self, k=1, step=None):\n"
                   "        def inner(z=3):\n"
                   "            return z\n"
                   "        return Box(1, size=k)\n"
                   "    @staticmethod\n"
                   "    def make(w=0, v=0):\n"
                   "        return w\n"
                   "def run(*rest, **opts):\n"
                   "    h(1, 2)\n"
                   "    Box(0).grow(4)\n"
                   "    return g(1), Box.make(*rest), f(1, **opts)\n")
    other = tmp_path / "other.py"
    other.write_text("def helper(u, v=0, w=0):\n"
                     "    return u\n")
    assert never_set_options([mod, other]) == [
        ("mod", "g", "y", 4), ("mod", "Box.grow", "step", 9),
        ("other", "helper", "w", 1)]


def test_checker_tells_methods_and_functions_apart(tmp_path):
    # Box.check is set only by a call of a function named check, and
    # solo only by a method call named solo: both are flagged; extra is
    # set through its module, other
    mod = tmp_path / "mod.py"
    mod.write_text("from . import other\n"
                   "class Box:\n"
                   "    def check(self, k=0):\n"
                   "        return k\n"
                   "def solo(a, q=0):\n"
                   "    return a\n"
                   "def run(x):\n"
                   "    check(x, k=1)\n"
                   "    x.solo(1, 2)\n"
                   "    return Box().check(), other.extra(1, z=5)\n")
    other = tmp_path / "other.py"
    other.write_text("def extra(u, z=0):\n"
                     "    return u\n")
    assert never_set_options([mod, other]) == [
        ("mod", "Box.check", "k", 3), ("mod", "solo", "q", 5)]


# function-local imports of package modules kept on purpose, as
# (module, function, imported module): each keeps a module from
# loading where it is not read (see the comment at each)
LOCAL_IMPORTS_KEPT = {("spectral", "e2_structure_audit", "structure"),
                      ("linalg", "_rref_modp_dense", "_kernels")}


def local_package_imports(path: Path):
    """(module, function, imported module, line) for each import of a
    module of the package, relative or through cohh, inside a function
    of path; function is the innermost one holding the import."""
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif function and isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level or parts[0] == "cohh":
                parts = parts[0 if node.level else 1:]
                modules = ([parts[0]] if parts and parts[0] else
                           [alias.name for alias in node.names])
                hits.extend((path.stem, function, m, node.lineno)
                            for m in modules)
        elif function and isinstance(node, ast.Import):
            hits.extend((path.stem, function, alias.name.split(".")[1],
                         node.lineno) for alias in node.names
                        if alias.name.startswith("cohh."))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return hits


def test_package_modules_are_imported_at_the_top_but_where_kept():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in local_package_imports(path)]
    assert {hit[:3] for hit in found} == LOCAL_IMPORTS_KEPT, (
        "function-local package imports (module, function, imported "
        "module, line): " + repr(found))


def test_checker_flags_a_local_package_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import linalg\n"
                    "import json\n"
                    "def f():\n"
                    "    import numpy as np\n"
                    "    from . import structure as st, graded\n"
                    "    def g():\n"
                    "        from .linalg import Matrix\n"
                    "    return st, np\n"
                    "class Table:\n"
                    "    def rows(self):\n"
                    "        from cohh.fields import GF\n"
                    "        import cohh.comodule\n"
                    "        from fractions import Fraction\n"
                    "        return GF\n")
    assert local_package_imports(path) == [
        ("mod", "f", "structure", 5), ("mod", "f", "graded", 5),
        ("mod", "g", "linalg", 7), ("mod", "rows", "fields", 11),
        ("mod", "rows", "comodule", 12)]


# coalgebra.ValidationReport is the one verdict type: a pass/fail flag
# is its ok, or the passed of one of its checks
VERDICT_NAMES = re.compile(r"ok|iso|.*_ok")


def verdict_fields(path: Path):
    """(module, class.name, line) for each field (an annotated name in
    the class body) or property named ok or iso, or ending in _ok, of a
    class of path other than coalgebra.ValidationReport."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or (path.stem,
                                                 cls.name) == REPORT:
            continue
        for item in cls.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                name = item.target.id
            elif isinstance(item, ast.FunctionDef) and any(
                    getattr(d, "id", None) == "property"
                    for d in item.decorator_list):
                name = item.name
            else:
                continue
            if VERDICT_NAMES.fullmatch(name):
                hits.append((path.stem, f"{cls.name}.{name}", item.lineno))
    return hits


def test_no_class_but_the_report_type_carries_a_verdict():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in verdict_fields(path)]
    assert found == [], ("pass/fail fields outside ValidationReport "
                         "(module, field, line): " + repr(found))


def test_checker_flags_a_verdict_field(tmp_path):
    text = ("class Audit:\n"
            "    ok: bool\n"
            "    dims_ok: bool = None\n"
            "    token: str = ''\n"
            "    bound_holds: bool = True\n"
            "class Comparison:\n"
            "    @property\n"
            "    def iso(self):\n"
            "        return True\n"
            "    def is_ok(self):\n"
            "        return True\n"
            "class ValidationReport:\n"
            "    @property\n"
            "    def ok(self):\n"
            "        return True\n")
    path = tmp_path / "mod.py"
    path.write_text(text)
    assert verdict_fields(path) == [
        ("mod", "Audit.ok", 2), ("mod", "Audit.dims_ok", 3),
        ("mod", "Comparison.iso", 8), ("mod", "ValidationReport.ok", 14)]
    # the one report type may carry ok
    path = tmp_path / "coalgebra.py"
    path.write_text(text)
    assert [hit[1] for hit in verdict_fields(path)] == [
        "Audit.ok", "Audit.dims_ok", "Comparison.iso"]


def test_importing_the_cli_does_not_load_numpy():
    # numpy serves only the dense test oracle, imported where it runs
    code = "import sys, cohh.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=SRC.parent)
    assert out.stdout.strip() == "False"


def _is_metadata(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "metadata"
            or isinstance(node, ast.Name) and node.id == "metadata")


def unread_metadata_keys(paths):
    """(module, key, line) for each string key of a metadata={...}
    literal in paths that no file of paths reads as metadata["key"] or
    metadata.get("key")."""
    written, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.keyword) and node.arg == "metadata"
                    and isinstance(node.value, ast.Dict)):
                written += [(path.stem, k.value, k.lineno)
                            for k in node.value.keys
                            if isinstance(k, ast.Constant)]
            elif isinstance(node, ast.Subscript) and _is_metadata(node.value):
                key = node.slice
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and node.args
                  and _is_metadata(node.func.value)):
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant):
                read.add(key.value)
    return [hit for hit in written if hit[1] not in read]


def test_every_metadata_key_is_read():
    found = unread_metadata_keys(sorted(SRC.glob("*.py")))
    assert found == [], ("metadata keys nothing reads (module, key, "
                         "line): " + repr(found))


def test_checker_flags_a_metadata_key_nothing_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def make(c):\n"
                    "    return C(metadata={'kind': 1, 'dead': 2,\n"
                    "                       'looked_up': 3})\n"
                    "def read(c, metadata):\n"
                    "    c.metadata['other']\n"
                    "    return (c.metadata['kind'],\n"
                    "            metadata.get('looked_up'))\n")
    assert unread_metadata_keys([path]) == [("mod", "dead", 2)]
