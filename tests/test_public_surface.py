"""Every public name in the package, and every public attribute of its
classes, has a reader inside the package, and every imported name is read in
the module that imports it, unless it is on an allowlist below, read from the
source tree's syntax alone."""

from __future__ import annotations

import ast
from pathlib import Path

import treeot

SRC = Path(treeot.__file__).parent

#: Public names with no reader inside the package, kept for the tests. Each
#: waits on an open direction that gives it a caller.
READ_ONLY_BY_TESTS = {
    # The flow's divergence: the weak-duality certificate.
    ("tree", "divergence"),
    # The pole data behind the exact A and B, and the exact ball law for
    # adjacent centers.
    ("asymptotics", "h_values"), ("asymptotics", "ball_d1_exact"),
    # The paper's generating-function formula, which a fourth radial route
    # gives a CLI reader.
    ("families", "w1_via_genfun"),
}

#: Public class attributes (methods, properties, fields) with no reader inside
#: the package, as (module, "Class.attribute").
ATTRIBUTES_READ_ONLY_OUTSIDE = {
    # The benchmark's tracer (bench/tracing.py) counts the support and bits(L)
    # from it, until the program reports its own stage counts.
    ("tree", "Assignment.charges"),
}


def _modules() -> dict[str, ast.Module]:
    """Each module of the package, by file stem, as its syntax tree."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_names(tree: ast.Module | ast.ClassDef) -> set[str]:
    """The names a module or class binds at its top level that do not start with _."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _unread() -> set[tuple[str, str]]:
    """(module, name) for each public name that no module of the package
    loads: its own module by name, or another one that imports it from there
    (``from . import NAME`` imports it from the package, ``__init__``)."""
    modules = _modules()
    read = set()
    for stem, tree in modules.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read.update((stem, name) for name in loaded)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update((node.module or "__init__", alias.name) for alias in node.names
                            if (alias.asname or alias.name) in loaded)
    return {(stem, name) for stem, tree in modules.items()
            for name in _public_names(tree)} - read


def test_every_public_name_has_a_reader_or_a_reason():
    assert _unread() - READ_ONLY_BY_TESTS == set()


def test_the_allowlist_holds_no_name_that_gained_a_reader():
    assert READ_ONLY_BY_TESTS - _unread() == set()


def _class_attributes(tree: ast.Module) -> set[str]:
    """"Class.name" for each public method, property, field or class variable
    of a top-level class of the module."""
    return {f"{cls.name}.{name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name in _public_names(cls)}


def _unread_attributes() -> set[tuple[str, str]]:
    """(module, "Class.name") for each public class attribute whose name no
    module of the package reads as an attribute (``obj.name``). Types are not
    followed, so a read of the name on any object counts."""
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {(stem, name) for stem, tree in modules.items()
            for name in _class_attributes(tree) if name.split(".")[1] not in read}


def test_every_public_attribute_has_a_reader_or_a_reason():
    assert _unread_attributes() - ATTRIBUTES_READ_ONLY_OUTSIDE == set()


def test_the_attribute_allowlist_holds_no_name_that_gained_a_reader():
    assert ATTRIBUTES_READ_ONLY_OUTSIDE - _unread_attributes() == set()


def _raised() -> set[str]:
    """The names that some ``raise`` of the package raises, called or bare,
    by name or as a module attribute."""
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return raised


def test_every_error_type_has_a_raise_site():
    # A type left only in an ``except`` or an import still has a reader, so
    # the guards above pass it; one that nothing raises is dead.
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    types = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert types - {"TreeOTError"} - _raised() == set()


#: Names a module imports and never reads, each with its reason.
IMPORTED_UNREAD = {
    # bench/tests/test_bench.py checks the benchmark tracer's rewiring through
    # this binding; it stays until ROADMAP direction 1, step b, replaces the
    # tracer.
    ("cli", "unique_flow"),
}


def _unread_imports() -> set[tuple[str, str]]:
    """(module, name) for each name that a module of the package binds by an
    import and never loads."""
    unread = set()
    for stem, tree in _modules().items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread.update((stem, name) for name in bound if name not in loaded)
    return unread


def test_every_imported_name_is_read():
    assert _unread_imports() == IMPORTED_UNREAD


def test_no_module_imports_dataclasses():
    # Importing ``dataclasses`` pulls in ``inspect`` and ``ast``, and each
    # ``@dataclass`` compiles its methods at import, a cost that every
    # ``treeot`` process pays. The value types are NamedTuples and slotted
    # classes instead.
    importers = set()
    for stem, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.add(stem)
    assert importers == set()
