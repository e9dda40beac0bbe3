"""Every public name in the package has a reader inside the package, unless it
is on the allowlist below, read from the source tree's syntax alone."""

from __future__ import annotations

import ast
from pathlib import Path

import treeot

SRC = Path(treeot.__file__).parent

#: Public names with no reader inside the package, kept for the tests.
READ_ONLY_BY_TESTS = {
    # Paper identities that an open direction gives a caller: the flow's
    # divergence (the weak-duality certificate), the pole data behind the
    # exact A and B, and the exact ball law for adjacent centers.
    ("tree", "divergence"), ("asymptotics", "h_values"), ("asymptotics", "ball_d1_exact"),
    # Acceptance criterion 10: the four W1/n statistics and the n-scale curvature.
    ("asymptotics", "chi_tree"), ("asymptotics", "kappa_curvature"),
    # Paper identities the tests check: a profile's total mass, the closed-form
    # potential, the flow's direction on a truncation, and the closed form's
    # higher rows.
    ("regular", "profile_total_mass"), ("regular", "radial_potential_field"),
    ("regular", "flow_direction_check"), ("families", "srw_closed_form_rows"),
}


def _public_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level that do not start with _."""
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
    loads: its own module by name, or another one that imports it from there."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    read = set()
    for stem, tree in modules.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read.update((stem, name) for name in loaded)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names
                            if (alias.asname or alias.name) in loaded)
    return {(stem, name) for stem, tree in modules.items()
            for name in _public_names(tree)} - read


def test_every_public_name_has_a_reader_or_a_reason():
    assert _unread() - READ_ONLY_BY_TESTS == set()


def test_the_allowlist_holds_no_name_that_gained_a_reader():
    assert READ_ONLY_BY_TESTS - _unread() == set()


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
