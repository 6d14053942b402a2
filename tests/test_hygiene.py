"""Import hygiene of the package, checked with the stdlib `ast` module.

Every name a module under src/dcrit imports must be used in that module
(`__init__.py` re-exports, so it is exempt), and every import must come from
the standard library or from dcrit itself: the runtime is stdlib-only.
`dcrit.__all__` names exactly what `__init__.py` imports, plus
`__version__`, and each name resolves.  No module divides with `/`: on two
int coefficients it gives a float, so exact quotients go through `Fraction`.
Every layer the benchmark harness times or counts by name (`TIMED` and
`CALLED` in bench/run.py) must still be a public function of its module:
the harness reads a missing one as zero instead of failing.  No module-level
function or class is dead: each is referenced outside its own body somewhere
in the package, exported in `dcrit.__all__`, or such a layer; only the CLI's
`_cmd_*` handlers, which `main` looks up by name, are exempt.  Only
poly.py reads the `terms` view of an element: it builds a fresh dict of
Fractions whenever the denominator is not 1, so every other module reads
the numerators `_num` and the denominator `_den`.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dcrit"
BENCH_RUN = PACKAGE.parent.parent / "bench" / "run.py"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(tree):
    """(module, relative level, bound names) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield alias.name, 0, [bound]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.asname or alias.name for alias in node.names]
            yield node.module or "", node.level, names


def used_names(tree, attributes=False):
    """A Counter of the names read anywhere in the tree, string annotations
    included, and of the attribute names read when `attributes` is set."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif attributes and isinstance(node, ast.Attribute):
            used[node.attr] += 1
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text())
    foreign = [module for module, level, _ in imports(tree)
               if level == 0 and module.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=[p.name for p in MODULES if p.name != "__init__.py"])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [name for module, _, names in imports(tree) if module != "__future__"
              for name in names if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_true_division(path):
    tree = ast.parse(path.read_text())
    divisions = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert divisions == []


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [name for module, _, names in imports(tree) if module != "__future__"
                for name in names]
    dcrit = importlib.import_module("dcrit")
    assert sorted(dcrit.__all__) == sorted(imported + ["__version__"])
    for name in dcrit.__all__:
        assert hasattr(dcrit, name), name


def traced_layers():
    """The names in bench/run.py's TIMED and CALLED tuples, read without importing it."""
    names = set()
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("TIMED", "CALLED") for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return sorted(names)


@pytest.mark.parametrize("name", traced_layers())
def test_every_benchmark_layer_is_a_public_function(name):
    module, attr = name.split(".")
    mod = importlib.import_module(f"dcrit.{module}")
    fn = getattr(mod, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


def test_every_module_level_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    everywhere = sum((used_names(tree, attributes=True) for tree in trees.values()), Counter())
    kept = set(importlib.import_module("dcrit").__all__) | set(traced_layers())
    dead = [f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not kept & {node.name, f"{stem}.{node.name}"}
            and not (stem == "cli" and node.name.startswith("_cmd_"))
            and everywhere[node.name] == used_names(node, attributes=True)[node.name]]
    assert dead == []


def test_only_poly_reads_the_terms_view():
    readers = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "poly.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert readers == []
