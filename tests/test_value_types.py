"""The contract of the package's value types: how each compares and hashes,
and that no field can be assigned after construction, except on
:class:`RunReport`, which the suites fill in."""

from __future__ import annotations

from fractions import Fraction

import pytest

from treeot.asymptotics import gamma_asymptotic, sphere_AB, srw_AB
from treeot.families import bundle_from_table, srw_g_table
from treeot.lp import FiniteGraph
from treeot.regular import PairGeometry, RadialProfile, build_truncated_tree
from treeot.suites import RunReport
from treeot.tree import Assignment, Flow, Measure, Tree, assignment_from, unique_flow, validate_tree


def _path(n: int = 3) -> Tree:
    return validate_tree(range(n), [(k, k + 1) for k in range(n - 1)])


def _assignment() -> Assignment:
    return assignment_from(Measure({0: 1}), Measure({2: 1}))


#: name -> (build one value, build an equal one, build an unequal one).
BY_VALUE = {
    "Tree": (_path, _path, lambda: _path(4)),
    "PairGeometry": (lambda: PairGeometry(3, 2), lambda: PairGeometry(3, 2),
                     lambda: PairGeometry(3, 3)),
    "RadialProfile": (lambda: RadialProfile([1, 1]), lambda: RadialProfile((2, 2), 2),
                      lambda: RadialProfile([1, 2])),
    "Flow": (lambda: unique_flow(_path(), _assignment()),
             lambda: Flow((-1, 0, 1), (0, -1, -1), 1), lambda: Flow((-1, 0, 1), (0, -1, -1), 2)),
    "TruncatedRegularTree": (lambda: build_truncated_tree(2, 1, 1),
                             lambda: build_truncated_tree(2, 1, 1),
                             lambda: build_truncated_tree(2, 1, 2)),
    "GTable": (lambda: srw_g_table(0, 2, 3), lambda: srw_g_table(0, 2, 3),
               lambda: srw_g_table(Fraction(1, 2), 2, 3)),
    "GFBundle": (lambda: bundle_from_table(srw_g_table(0, 2, 3)),
                 lambda: bundle_from_table(srw_g_table(0, 2, 3)),
                 lambda: bundle_from_table(srw_g_table(0, 2, 4))),
    "LinearAsymptotic": (lambda: srw_AB(0, 1, 2), lambda: srw_AB(0, 1, 2),
                         lambda: sphere_AB(1, 2)),
    "GammaAsymptotic": (lambda: gamma_asymptotic(0, 2), lambda: gamma_asymptotic(0, 2),
                        lambda: gamma_asymptotic(0, 3)),
}


@pytest.mark.parametrize("name", BY_VALUE)
def test_value_types_compare_and_hash_by_value(name):
    build, equal, other = BY_VALUE[name]
    a, b, c = build(), equal(), other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c


def test_a_tree_compares_by_labels_order_and_parent_not_its_edge_endpoints():
    tree = _path()
    same = Tree(tree.labels, tree.order, tree.parent, _ends=([0], [1]))
    assert same == tree and hash(same) == hash(tree)
    assert Tree(("a", "b", "c"), tree.order, tree.parent, tree._ends) != tree
    assert Tree(tree.labels, (0, 1, 2), (-1, 0, 0), tree._ends) != tree


def test_a_tree_holds_its_four_arrays_and_no_cache():
    assert Tree.__slots__ == ("labels", "order", "parent", "_ends")
    assert not hasattr(_path(), "__dict__")


@pytest.mark.parametrize("build", [
    _assignment,
    lambda: FiniteGraph.from_tree(_path(), keep=[0, 2]),
], ids=["Assignment", "FiniteGraph"])
def test_assignments_and_graphs_compare_and_hash_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_a_measure_compares_its_masses_and_is_unhashable():
    assert Measure({0: 1, 1: Fraction(0)}) == Measure({0: Fraction(2, 2)})
    assert Measure({0: 1}) != Measure({1: 1})
    assert Measure({0: 1}) != {0: 1}
    with pytest.raises(TypeError):
        hash(Measure({0: 1}))


def test_a_run_report_compares_by_value_is_unhashable_and_stays_mutable():
    report = RunReport("duality", 7)
    assert report == RunReport("duality", 7) and report.records == []
    report.add({"n": 2}, "test", True)
    assert report != RunReport("duality", 7)
    report.seed = 8
    assert report.seed == 8
    with pytest.raises(TypeError):
        hash(report)


#: name -> (build one value, its fields).
FIELDS = {
    "Tree": (_path, ("labels", "order", "parent", "_ends")),
    "Measure": (lambda: Measure({0: 1}), ("scale", "num")),
    "Assignment": (_assignment, ("num", "scale")),
    "Flow": (lambda: unique_flow(_path(), _assignment()), ("parent", "up", "scale")),
    "FiniteGraph": (lambda: FiniteGraph.from_tree(_path(), keep=[0, 2]),
                    ("num_vertices", "_core", "_core_adjacency", "_rows")),
    "PairGeometry": (lambda: PairGeometry(3, 2), ("q", "d")),
    "RadialProfile": (lambda: RadialProfile([1, 1]), ("num", "scale")),
    "TruncatedRegularTree": (lambda: build_truncated_tree(2, 1, 1),
                             ("geometry", "tree", "x", "y", "levels")),
    "GTable": (lambda: srw_g_table(0, 2, 3), ("q", "columns", "scales")),
    "GFBundle": (lambda: bundle_from_table(srw_g_table(0, 2, 3)),
                 ("q", "g_at_q", "g1_at_q", "gammas")),
    "LinearAsymptotic": (lambda: srw_AB(0, 1, 2), ("A", "B", "exact_for_large_n")),
    "GammaAsymptotic": (lambda: gamma_asymptotic(0, 2),
                        ("period", "growth_base", "leading_constant")),
}


@pytest.mark.parametrize("name", FIELDS)
def test_no_field_can_be_assigned_or_deleted(name):
    build, fields = FIELDS[name]
    value = build()
    assert type(value).__name__ == name
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.unknown_field = 1
