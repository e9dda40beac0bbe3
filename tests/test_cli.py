"""CLI subcommands and the JSON instance round trip."""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeot
from treeot.cli import build_parser, main, parse_profile_spec
from treeot.errors import DuplicateEdge, HasCycle, NotConnected, TooLarge
from treeot.families import srw_profile
from treeot.instances import dump_instance, instance_from_dict, instance_to_dict, load_instance
from treeot.rational import format_rational, parse_rational
from treeot.regular import ball_profile, sphere_profile, truncation_size
from treeot.suites import truncation_radius
from treeot.tree import Measure, assignment_from, validate_tree, w1_tree

from conftest import FIXTURES, adjacency_of, demo_doc, random_tree, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStartup:
    def test_cli_imports_only_the_standard_library(self):
        # Site hooks may load modules at startup, so only what the import adds is read.
        done = run_python("import sys; before = set(sys.modules); import treeot.cli; "
                          "print(*sorted({name.partition('.')[0] for name in sys.modules} "
                          "- before - set(sys.stdlib_module_names)))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["treeot"]

    @pytest.mark.parametrize("statement, added", [
        ("import treeot", ["treeot"]),
        ("import treeot.instances, treeot.lp", ["treeot", "treeot.errors", "treeot.instances",
                                                "treeot.lp", "treeot.rational", "treeot.tree"]),
    ], ids=["package", "instances-lp"])
    def test_an_import_loads_only_what_it_names_and_needs(self, statement, added):
        done = run_python(f"import sys; before = set(sys.modules); {statement}; "
                          f"print(*sorted(name for name in set(sys.modules) - before "
                          f"if name.partition('.')[0] == 'treeot'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == added

    def test_gamma_suite_runs_with_mpmath_blocked(self):
        done = run_python("import sys; sys.modules['mpmath'] = None; "
                          "from treeot.cli import main; raise SystemExit(main(['verify', 'gamma']))")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["passed"] is True


class TestBenchTracer:
    def test_tracer_finds_every_name_and_counts(self, capsys, monkeypatch, demo_instance_path):
        # The benchmark's tracer wraps its targets by name; a moved name or a
        # counter that no longer reads lands in ``absent``.
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        import tracing

        import treeot.cli

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op(1):
                for argv in (["w1", str(demo_instance_path), "--json"],
                             ["w1", "--radial", "sphere:r=2", "--q", "2", "--d", "1"],
                             ["verify", "series"], ["verify", "inequalities"],
                             ["verify-ineq", "--grid", "alpha=1/2", "d=3", "q=5"]):
                    assert treeot.cli.main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert tracer.absent == []
        assert tracer.sums["tree.vertices"] > 0 and tracer.sums["lp.distance_entries"] > 0
        spans = collections.Counter(span[0] for span in tracer.spans)
        assert spans["lp.verify_duality"] == 1
        assert spans["asymptotics.verify_inequalities"] == 216 + 1
        # The radial run builds one truncation, of radius r + d, and measures it twice.
        assert spans["regular.build_truncated_tree"] == 1
        assert spans["regular.radial_measure"] == 2
        assert tracer.sums["regular.truncation_vertices"] == truncation_size(
            2, 1, truncation_radius(2, 1))

    def test_family_commands_call_the_traced_routines(self, capsys, monkeypatch):
        # The tracer rebinds the module's names, so a family routine kept from
        # before it was installed would run untraced.
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "bench"))
        import tracing

        import treeot.cli

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.op(1):
                for argv in (["asym", "--family", "ball", "--d", "2", "--q", "3"],
                             ["series", "--family", "srw", "--q", "2", "--order", "4"],
                             ["series", "--family", "ball", "--q", "2", "--order", "4"],
                             ["sweep", "--family", "srw", "--q", "2", "--n", "0..3"]):
                    assert treeot.cli.main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        spans = collections.Counter(span[0] for span in tracer.spans)
        for name in ("asymptotics.AB", "families.srw_closed_form", "families.ball_gf",
                     "families.srw_g_table"):
            assert spans[name] > 0, name


class TestInstances:
    def test_round_trip(self, tmp_path):
        tree = validate_tree(["x", "y", "z"], [("x", "y"), ("y", "z")])
        mu = Measure({0: Fraction(2, 3), 2: Fraction(1, 3)})
        nu = Measure({1: Fraction(1)})
        path = tmp_path / "inst.json"
        dump_instance(tree, mu, nu, path)
        tree2, mu2, nu2 = load_instance(path)
        assert tree2.labels == tree.labels
        assert mu2.masses == mu.masses and nu2.masses == nu.masses
        assert w1_tree(tree2, mu2, nu2) == w1_tree(tree, mu, nu)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [1, 2],\n  "edges": [[1, 2]\n}')
        with pytest.raises(ValueError, match="line"):
            load_instance(path)

    def test_unknown_vertex_in_measure(self):
        doc = demo_doc()
        doc["mu"]["v99"] = "1"
        with pytest.raises(ValueError, match="unknown vertex"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("value", [0.5, True, None, "3/0", "1e3", "2E-1"])
    def test_parse_rational_refuses_inexact_and_broken_values(self, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            parse_rational(value)

    def test_parse_rational_reads_decimal_strings_exactly(self):
        assert parse_rational("0.5") == Fraction(1, 2)
        assert parse_rational(" -1.25 ") == Fraction(-5, 4)

    def test_rational_strings_survive(self):
        doc = {"vertices": [0, 1], "edges": [[0, 1]],
               "mu": {"0": "22/7"}, "nu": {"1": "22/7"}}
        tree, mu, nu = instance_from_dict(doc)
        rebuilt = instance_to_dict(tree, mu, nu)
        assert rebuilt["mu"]["0"] == "22/7"

    def test_format_rational_refuses_past_the_digit_limit(self):
        with pytest.raises(TooLarge, match="a 5001-digit denominator, over the 4300-digit"):
            format_rational(Fraction(1, 10 ** 5000))
        assert len(format_rational(Fraction(-(10 ** 4300 - 1), 7))) == 4303


#: (vertices, edges, error type, message): each fault as the full check names it.
GRAPH_FAULTS = [
    (["a", "b", "a"], [["a", "b"], ["b", "a"]], ValueError, "duplicate vertex id 'a'"),
    ([0, 1, 2], [[0, 1], [2, 2]], HasCycle, "self-loop at vertex 2"),
    ([0, 1, 2], [[0, 1], [1, 0]], DuplicateEdge, "edge (1, 0) appears more than once"),
    ([0, 1, 2], [[0, 1], [1, 2], [2, 0]], HasCycle, "3 edges on 3 vertices force a cycle"),
    ([0, 1, 2, 3], [[1, 2], [2, 3], [3, 1]], NotConnected,
     "only 1 of 4 vertices reachable from vertex 0"),
    ([0, 1, 2], [[0, 1]], NotConnected, "1 edges cannot connect 3 vertices"),
    ([0, 1], [[0]], ValueError, "edge [0] is not a pair of vertex ids"),
    ([0, 1, 2], [[0, 1], [1, 2, 0]], ValueError, "edge [1, 2, 0] is not a pair of vertex ids"),
    (["a", "b"], ["ab"], ValueError, "edge 'ab' is not a pair of vertex ids"),
    (["a", "b"], [{"a": 0, "b": 1}], ValueError,
     "edge {'a': 0, 'b': 1} is not a pair of vertex ids"),
    ([0, 1], [[0, 5]], ValueError, "edge (0, 5) references an unknown vertex"),
    ([], [], ValueError, "a graph needs at least one vertex"),
    # In each, a component without vertex 0 peels away and leaves a self-loop
    # or a doubled edge at 0; a peel without its degree-0 guard passes the first.
    ([0, 1, 2], [[0, 0], [1, 2]], HasCycle, "self-loop at vertex 0"),
    ([0, 1, 2, 3], [[0, 1], [0, 1], [2, 3]], DuplicateEdge, "edge (0, 1) appears more than once"),
]
GRAPH_FAULT_IDS = ["repeated-id", "self-loop", "repeated-edge", "n-edges", "cycle-and-isolated",
                   "too-few-edges", "short-edge", "long-edge", "string-edge", "object-edge",
                   "unknown-endpoint", "no-vertices", "root-self-loop-and-edge",
                   "root-double-edge-and-edge"]

#: Mass spellings: each must load as parse_rational reads it, or fail as it does.
MASS_SPELLINGS = ["1/2", "2/4", "01/02", "0", "0/5", " 1/2 ", "0.5", "1_0/30", "\u0663/4",
                  "\u00b2/4", 3, "-1/2", "1/0", "1e3", "1/" + "7" * 5000, True, 0.5]


class TestLoaderFastPaths:
    """A valid instance skips the full graph check and Fraction parsing; every
    fault must still be named exactly as the full check names it."""

    @pytest.mark.parametrize("vertices, edges, kind, message", GRAPH_FAULTS, ids=GRAPH_FAULT_IDS)
    def test_graph_faults_keep_their_type_and_message(self, tmp_path, vertices, edges, kind,
                                                      message):
        for given in (edges, (edge for edge in edges)):
            with pytest.raises(kind) as caught:
                validate_tree(vertices, given)
            assert type(caught.value) is kind and str(caught.value) == message
        path = tmp_path / "fault.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": edges, "mu": {}, "nu": {}}))
        with pytest.raises(kind) as caught:
            load_instance(path)
        assert type(caught.value) is kind and str(caught.value) == message

    def test_list_edge_id_is_named_by_the_loader(self, tmp_path):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            validate_tree([0, 1], [[[0], 1]])
        path = tmp_path / "fault.json"
        path.write_text(json.dumps({"vertices": [0, 1], "edges": [[[0], 1]], "mu": {}, "nu": {}}))
        with pytest.raises(ValueError) as caught:
            load_instance(path)
        assert str(caught.value) == ("'edges' holds the vertex id [0]; "
                                     "a vertex id must be a JSON scalar")

    def test_generator_edges_build_the_same_tree(self):
        edges = [("c", "a"), ("a", "b"), ("d", "a")]
        from_list = validate_tree("abcd", edges)
        from_generator = validate_tree("abcd", (edge for edge in edges))
        assert from_generator == from_list
        assert from_generator.edges == from_list.edges == ((0, 2), (0, 1), (0, 3))
        assert adjacency_of(from_generator) == adjacency_of(from_list) == (
            (2, 1, 3), (0,), (0,), (0,))

    def test_tuple_subclass_edges_are_rooted_as_list_edges(self):
        edge = collections.namedtuple("Edge", "a b")
        pairs = [(0, 1), (0, 2), (0, 3), (2, 4)]
        named = validate_tree(range(5), [edge(a, b) for a, b in pairs])
        listed = validate_tree(range(5), [[a, b] for a, b in pairs])
        assert named.order == listed.order == (0, 2, 4, 3, 1)
        assert named.parent == listed.parent == (-1, 0, 0, 0, 2)

    def test_tuple_subclass_edges_pass_the_full_check(self):
        edge = collections.namedtuple("Edge", "a b")
        tree = validate_tree("abc", [edge("b", "c"), edge("b", "a")])
        plain = validate_tree("abc", [("b", "c"), ("b", "a")])
        assert tree == plain
        assert tree.edges == plain.edges == ((1, 2), (0, 1))
        assert adjacency_of(tree) == adjacency_of(plain)

    def test_valid_tree_runs_no_full_check(self, monkeypatch):
        import treeot.lp
        import treeot.tree

        def refuse(*args):
            raise AssertionError("a valid tree ran the full graph check")

        monkeypatch.setattr(treeot.tree, "_build_graph", refuse)
        monkeypatch.setattr(treeot.tree, "_adjacency", refuse)
        monkeypatch.setattr(treeot.tree, "_hop_distances", refuse)
        monkeypatch.setattr(treeot.lp, "_hop_distances", refuse)
        tree, mu, nu = instance_from_dict(demo_doc())
        assert tree.num_vertices == 11 and w1_tree(tree, mu, nu) == 12

    def test_peeling_roots_as_the_bfs_does(self):
        from treeot.tree import _adjacency, _hop_distances

        rng = random.Random(12)
        for k in range(200):
            n = (1, 2)[k] if k < 2 else rng.randint(3, 60)
            shape = k % 4
            if shape == 0:  # a star centred on a random vertex
                centre = rng.randrange(n)
                pairs = [(centre, v) for v in range(n) if v != centre]
            elif shape == 1:  # a path in random order
                walk = rng.sample(range(n), n)
                pairs = list(zip(walk, walk[1:]))
            else:
                pairs = [(rng.randrange(v), v) for v in range(1, n)]
            labels = [f"v{v}" for v in range(n)]
            rng.shuffle(labels)
            rng.shuffle(pairs)
            edges = [[labels[b], labels[a]] if rng.random() < 0.5 else [labels[a], labels[b]]
                     for a, b in pairs]
            tree = validate_tree(labels, edges)
            ends = [[tree.index[a] for a, b in edges], [tree.index[b] for a, b in edges]]
            adjacency = _adjacency(n, zip(*ends))
            depth = _hop_distances(adjacency, 0)
            # On a tree, the parent toward vertex 0 is the one neighbor a hop closer.
            parent = [-1] + [next(w for w in adjacency[v] if depth[w] == depth[v] - 1)
                             for v in range(1, n)]
            assert tree.parent == tuple(parent)
            assert sorted(tree.order) == list(range(n)) and tree.order[0] == 0
            position = {v: i for i, v in enumerate(tree.order)}
            assert all(position[tree.parent[v]] < position[v] for v in tree.order[1:])

    def test_lazy_structures_equal_the_full_check(self):
        from treeot.tree import _build_graph

        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 40)
            labels = [f"v{k}" for k in range(n)]
            rng.shuffle(labels)
            edges = [[labels[rng.randrange(k)], labels[k]] for k in range(1, n)]
            rng.shuffle(edges)
            edges = [edge[::-1] if rng.random() < 0.5 else edge for edge in edges]
            tree = validate_tree(labels, edges)
            assert (tree.labels, tree.index, tree.edges, adjacency_of(tree)) == _build_graph(
                labels, edges)

    @pytest.mark.parametrize("mass", MASS_SPELLINGS,
                             ids=lambda m: repr(m) if len(repr(m)) < 20 else "5000-digits")
    def test_mass_spellings_read_as_parse_rational_reads_them(self, mass):
        doc = {"vertices": ["a", "b"], "edges": [["a", "b"]], "mu": {"a": mass}, "nu": {"b": "1"}}
        try:
            expected = Measure({0: parse_rational(mass)})
        except ValueError as exc:
            message = f"mu['a']: {exc}".removesuffix(" at vertex 0")
            with pytest.raises(ValueError) as caught:
                instance_from_dict(doc)
            assert str(caught.value) == message
            return
        _, mu, _ = instance_from_dict(doc)
        assert mu.masses == expected.masses and mu == expected

    def test_measure_is_canonical_over_one_scale(self):
        spellings = {"a": "1/2", "b": "2/4", "c": "5/10", "d": "0/7", "e": "3/8", "f": "4/6",
                     "g": "7", "h": "0.25", "i": "10/15"}
        labels = list(spellings)
        doc = {"vertices": labels, "edges": [[labels[0], v] for v in labels[1:]],
               "mu": spellings, "nu": {"a": "251/24"}}
        _, mu, nu = instance_from_dict(doc)
        expected = Measure({labels.index(v): parse_rational(m) for v, m in spellings.items()})
        assert mu == expected and mu.masses == expected.masses and mu.total() == nu.total()
        assert mu.scale == 24 and labels.index("d") not in mu.num
        reduced = {parse_rational(m).denominator for m in spellings.values() if parse_rational(m)}
        assert assignment_from(mu, nu).scale == math.lcm(*reduced) == 24  # 7 would make it 168


class TestW1Command:
    def test_demo_agreement(self, capsys, demo_instance_path):
        code, out, _ = run_cli(capsys, "w1", str(demo_instance_path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["w1"] == "12"
        assert doc["paths"] == {"flow": "12", "potential": "12", "lp": "12"}
        assert doc["agree"] is True

    def test_equal_measures(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "b"]],
            "mu": {"a": "1/2"}, "nu": {"a": "1/2"}}))
        code, out, _ = run_cli(capsys, "w1", str(path), "--json")
        assert code == 0
        assert json.loads(out)["w1"] == "0"

    def test_invalid_instance_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]],
            "mu": {"0": "1"}, "nu": {"1": "1"}}))
        code, _, err = run_cli(capsys, "w1", str(path))
        assert code == 2
        assert "error" in err

    def test_negative_mass_names_the_field_and_key(self, capsys, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
            "mu": {"a": "1", "c": "-1/2", "b": "-1"}, "nu": {"b": "1/2"}}))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert err == "error: mu['c']: negative mass -1/2\n"

    @pytest.mark.parametrize("mass", [0.5, "1/0", True, None, [1, 2], "1e3", "2E-1"])
    def test_inexact_or_broken_mass_is_an_input_error(self, capsys, tmp_path, mass):
        path = tmp_path / "mass.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "b"]],
            "mu": {"a": mass}, "nu": {"b": "1"}}))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and repr(mass) in err

    def test_overlong_json_number_is_an_input_error(self, capsys, tmp_path):
        # json.load itself refuses an integer of more than 4,300 digits.
        path = tmp_path / "number.json"
        path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]], '
                        '"mu": {"a": ' + "1" * 5001 + '}, "nu": {"b": "1"}}')
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "w1", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: a JSON number has over 4300 digits")
        assert '"p/q" strings' in err

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "w1", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "must be UTF-8 JSON" in err

    @pytest.mark.parametrize("over", [0, 1])
    def test_byte_cap_is_read_before_json(self, capsys, tmp_path, monkeypatch, over):
        from treeot.instances import MAX_INSTANCE_BYTES

        parsed = []

        def parse(fh):
            parsed.append(fh)
            raise OSError("parsing stops here")

        monkeypatch.setattr(json, "load", parse)
        path = tmp_path / "big.json"
        with open(path, "wb") as fh:
            fh.truncate(MAX_INSTANCE_BYTES + over)  # sparse: no block is written
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        if over:
            assert not parsed
            assert err == (f"error: {path}: {MAX_INSTANCE_BYTES + 1:,} bytes exceed the "
                           f"{MAX_INSTANCE_BYTES:,}-byte cap on an instance file\n")
        else:  # a file at the cap is handed to the parser
            assert len(parsed) == 1 and err == "error: parsing stops here\n"

    @pytest.mark.parametrize("over", [0, 1])
    def test_byte_cap_bounds_a_pipe(self, capsys, monkeypatch, over):
        # A pipe reports size 0, so its bytes are counted as they are read.
        doc = json.dumps(demo_doc()).encode()
        monkeypatch.setattr("treeot.instances.MAX_INSTANCE_BYTES", len(doc) - over)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, doc)  # far below a pipe's buffer
            os.close(write_end)
            code, out, err = run_cli(capsys, "w1", f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        if over:
            assert code == 2 and out == ""
            assert err == (f"error: /dev/fd/{read_end}: more than the {len(doc) - 1:,} bytes "
                           f"allowed in an instance file\n")
        else:
            assert code == 0 and err == "" and "w1 = 12 (12)\n" in out

    def test_deeply_nested_json_is_an_input_error(self, tmp_path):
        # json.load recurses once per nesting level, so an unread field nested
        # 1,100 deep passes Python's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]], '
                        '"mu": {"a": "1"}, "nu": {"b": "1"}, '
                        '"extra": ' + "[" * 1100 + "]" * 1100 + "}")
        done = run_python(f"import sys; from treeot.cli import main; "
                          f"sys.exit(main(['w1', {str(path)!r}]))")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: {path}: JSON arrays or objects nested too deeply")
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1

    def test_overlong_mass_is_an_input_error(self, capsys, tmp_path):
        # Python refuses to read integers of more than 4,300 digits; the
        # refusal must name the field and the vertex, and not echo the value.
        path = tmp_path / "mass.json"
        mass = "1/" + "7" * 5000
        path.write_text(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "b"]],
            "mu": {"a": mass}, "nu": {"b": mass}}))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: mu['a']: ") and "5000-digit" in err
        assert len(err) < 200

    def test_an_answer_past_the_digit_limit_is_refused(self, capsys, tmp_path):
        # Every mass parses and L is under the charge cap, yet the exact
        # distance has more digits than Python prints.
        a, b, c = (f"1/{10 ** 2500 + k}" for k in (1, 3, 7))
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({
            "vertices": list("abcde"), "edges": [list(e) for e in ("ab", "bc", "cd", "de")],
            "mu": {"a": a, "b": b, "c": c}, "nu": {"e": a, "d": b, "a": c}}))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert re.match(r"error: .* a \d+-digit (numerator|denominator), over the 4300-digit", err)
        assert "set_int_max_str_digits" not in err

    def test_totals_past_the_digit_limit_still_say_the_masses_differ(self, capsys, tmp_path):
        # The mismatched totals have 2,500-digit denominators and the lcm has
        # 5,000 digits: the message must not print either.
        big = 10 ** 2500 + 1
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({
            "vertices": list("abc"), "edges": [["a", "b"], ["b", "c"]],
            "mu": {"a": f"1/{big}", "b": f"1/{big + 2}"}, "nu": {"c": f"1/{big}"}}))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: total masses differ: about 2.00000000000E-2500 vs "
                              "about 1.00000000000E-2500")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": [1, "1"], "edges": [[1, "1"]], "mu": {"1": "1"}, "nu": {"1": "1"}},
         "share the measure key '1'"),
        ({"vertices": [0, 1], "edges": [[0]], "mu": {"0": "1"}, "nu": {"1": "1"}},
         "edge [0] is not a pair"),
        ({"vertices": [0, 1, 2], "edges": [[0, 1, 2]], "mu": {"0": "1"}, "nu": {"1": "1"}},
         "edge [0, 1, 2] is not a pair"),
        ({"vertices": [0, 1], "edges": [7], "mu": {"0": "1"}, "nu": {"1": "1"}},
         "edge 7 is not a pair"),
        ({"vertices": [[0], 1], "edges": [[[0], 1]], "mu": {"1": "1"}, "nu": {"1": "1"}},
         "'vertices' holds the vertex id [0]"),
        ({"vertices": [{"id": 0}, 1], "edges": [], "mu": {"1": "1"}, "nu": {"1": "1"}},
         "'vertices' holds the vertex id {'id': 0}"),
        ({"vertices": [0, 1], "edges": [[[0], 1]], "mu": {"1": "1"}, "nu": {"1": "1"}},
         "'edges' holds the vertex id [0]"),
        ({"vertices": 5, "edges": [], "mu": {"0": "1"}, "nu": {"0": "1"}},
         "the 'vertices' field must be a list"),
        ({"vertices": [0], "edges": 5, "mu": {"0": "1"}, "nu": {"0": "1"}},
         "the 'edges' field must be a list"),
        ({"vertices": [0], "edges": [], "mu": ["a"], "nu": {"0": "1"}},
         "the 'mu' field must be an object"),
        ({"vertices": [0], "edges": [], "mu": {"0": "1"}, "nu": None},
         "the 'nu' field must be an object"),
        ([{"vertices": [0], "edges": [], "mu": {"0": "1"}, "nu": {"0": "1"}}],
         "an instance document must be a JSON object, got list"),
    ])
    def test_malformed_document_is_an_input_error(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_long_path_reads_distance_rows_of_support_vertices_only(self, capsys, tmp_path,
                                                                    monkeypatch):
        import treeot.lp

        n = 3000
        mu_at = [37 * k for k in range(8)]
        nu_at = [n - 1 - 41 * k for k in range(8)]
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
            "mu": {str(v): "1/8" for v in mu_at}, "nu": {str(v): "1/8" for v in nu_at}}))
        sources = []
        hop_distances = treeot.lp._hop_distances

        def spy(adjacency, source):
            sources.append(source)
            return hop_distances(adjacency, source)

        monkeypatch.setattr(treeot.lp, "_hop_distances", spy)
        code, out, _ = run_cli(capsys, "w1", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True and "lp_skipped" not in doc
        expected = str(w1_tree(*load_instance(path)))
        assert doc["paths"] == {"flow": expected, "potential": expected, "lp": expected}
        assert doc["duality"]["certificate"] is True
        assert sources and len(sources) == len(set(sources))
        assert set(sources) <= set(mu_at) | set(nu_at)


    def test_lp_is_solved_once(self, capsys, demo_instance_path, monkeypatch):
        import treeot.lp

        calls = []
        w1_lp = treeot.lp.w1_lp

        def spy(*args):
            calls.append(args)
            return w1_lp(*args)

        # Patch every binding of the name, so a caller that imported it is seen too.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "treeot" and getattr(module, "w1_lp", None) is w1_lp:
                monkeypatch.setattr(module, "w1_lp", spy)
        code, out, _ = run_cli(capsys, "w1", str(demo_instance_path))
        assert code == 0 and "w1 via lp: 12" in out
        assert len(calls) == 1

    def test_no_bfs_when_supports_exceed_the_lp_cap(self, capsys, tmp_path, monkeypatch):
        import treeot.lp
        import treeot.tree

        n = 100
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
            "mu": {str(v): "1/41" for v in range(41)},
            "nu": {str(v): "1/41" for v in range(n - 41, n)}}))
        calls = []
        hop_distances = treeot.tree._hop_distances

        def spy(adjacency, source):
            calls.append(source)
            return hop_distances(adjacency, source)

        monkeypatch.setattr(treeot.tree, "_hop_distances", spy)
        monkeypatch.setattr(treeot.lp, "_hop_distances", spy)
        code, out, _ = run_cli(capsys, "w1", str(path), "--json")
        assert calls == []  # the leaf peeling roots the tree
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True and "lp_skipped" in doc
        assert doc["w1"] == str(w1_tree(*load_instance(path)))

    def test_no_adjacency_built_over_the_lp_cap(self, capsys, tmp_path, monkeypatch):
        import treeot.tree

        def refuse(*args):
            raise AssertionError("the adjacency was built for an LP that cannot run")

        n = 100
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
            "mu": {str(v): "1/41" for v in range(41)},
            "nu": {str(v): "1/41" for v in range(n - 41, n)}}))
        monkeypatch.setattr(treeot.tree, "_adjacency", refuse)
        code, out, _ = run_cli(capsys, "w1", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True and doc["lp_skipped"].startswith("supports of size 41x41")

    def test_charge_budget_refusal_exits_2(self, capsys, tmp_path):
        # 2^p - 1 for distinct primes p are pairwise coprime, so L is their
        # product: about 282,000 bits, times 5,000 vertices, over the budget.
        exponents = [p for p in range(14200, 13000, -1)
                     if all(p % k for k in range(2, int(p ** 0.5) + 1))][:20]
        dens = [str(2 ** p - 1) for p in exponents]
        n = 5000
        path = tmp_path / "coprime.json"
        path.write_text(json.dumps({
            "vertices": list(range(n)), "edges": [[i, i + 1] for i in range(n - 1)],
            "mu": {str(i): f"1/{d}" for i, d in enumerate(dens)},
            "nu": {str(n - 1 - i): f"1/{d}" for i, d in enumerate(dens)}}))
        code, out, err = run_cli(capsys, "w1", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "charge cap" in err and "5000 values" in err


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 10 ** 30) | st.text(max_size=4)
            | st.floats(allow_nan=False, allow_infinity=False))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
_NAMES = st.sampled_from(["a", "b", "c", "1", "x"])
_MASSES = st.dictionaries(_NAMES, st.sampled_from(["1", "1/2", "2/4", "0", "-1", "1/0", "0.5"])
                          | _SCALARS, max_size=3)
_DOCUMENTS = (_JSON
              | st.fixed_dictionaries({"vertices": st.lists(_NAMES | _SCALARS, max_size=4) | _JSON,
                                       "edges": st.lists(st.lists(_NAMES, max_size=3), max_size=4)
                                       | _JSON,
                                       "mu": _MASSES | _JSON, "nu": _MASSES | _JSON})
              | st.fixed_dictionaries({"vertices": st.just(["a", "b", "c"]),
                                       "edges": st.just([["a", "b"], ["b", "c"]]),
                                       "mu": _MASSES, "nu": _MASSES}))


@settings(max_examples=200, deadline=None)
@given(doc=_DOCUMENTS)
def test_any_document_exits_2_or_answers(doc):
    """On any JSON document, ``w1`` either answers with agreeing routes or
    exits 2 with one ``error:`` line; never a traceback, never exit 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["w1", str(path), "--json"])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert code == 0 and json.loads(out.getvalue())["agree"] is True


class TestSweepCommand:
    def test_sphere_adjacent_residuals_vanish(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "sphere",
                               "--d", "1", "--q", "2", "--n", "0..20")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == [str(n) for n in range(21)]
        assert all(r["residual"] == "0" for r in rows if int(r["n"]) >= 1)

    def test_header_is_fixed(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "ball",
                               "--d", "1", "--q", "3", "--n", "0..3")
        assert out.splitlines()[0] == "family,alpha,d,q,n,w1_exact,w1_decimal,asym,residual"

    def test_ball_adjacent_matches_exact_law(self, capsys):
        from treeot.asymptotics import ball_d1_exact
        code, out, _ = run_cli(capsys, "sweep", "--family", "ball",
                               "--d", "1", "--q", "3", "--n", "0..30")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            assert parse_rational(row["w1_exact"]) == ball_d1_exact(3, int(row["n"]))

    def test_srw_residual_decreases(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "srw", "--alpha", "0",
                               "--d", "1", "--q", "2", "--n", "10,30,60")
        rows = list(csv.DictReader(io.StringIO(out)))
        residuals = [abs(float(r["residual"])) for r in rows]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_json_output_and_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        code, _, _ = run_cli(capsys, "sweep", "--family", "sphere", "--d", "1,2",
                             "--q", "2", "--n", "0..2", "--format", "json",
                             "--out", str(out_path))
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 6
        assert rows == sorted(rows, key=lambda r: (r["family"], r["alpha"], r["d"], r["q"], r["n"]))

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, form):
        argv = ("sweep", "--family", "srw", "--alpha", "0,1/2", "--d", "1,2", "--q", "2",
                "--n", "0..3", "--format", form)
        code, out, _ = run_cli(capsys, *argv)
        path = tmp_path / f"rows.{form}"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert code == 0 and path.read_bytes() == out.encode()

    @pytest.mark.parametrize("alpha", ["1/2,1/2", "1/2,2/4"])
    def test_repeated_values_print_each_row_once(self, capsys, alpha):
        code, out, _ = run_cli(capsys, "sweep", "--family", "srw", "--alpha", alpha,
                               "--q", "2,2", "--d", "1,1..2", "--n", "0..2,1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["alpha"], r["d"], r["q"], r["n"]) for r in rows] == [
            ("1/2", str(d), "2", str(n)) for d in (1, 2) for n in range(3)]


    @pytest.mark.parametrize("argv, message", [
        (("--family", "srw", "--d", "1", "--q", "2", "--n", "0,2,-1"),
         "--n holds the time step -1; time steps start at 0"),
        (("--family", "srw", "--d", "1", "--q", "2", "--n", "2,-3..0"),
         "--n holds the time step -3; time steps start at 0"),
        # Each negative entry would cancel the grid's 5 * 10^8 class-sum steps.
        (("--family", "sphere", "--d", "2048", "--q", "2", "--n", "0..1000,-600000"),
         "--n holds the time step -600000; time steps start at 0"),
        (("--family", "sphere", "--d", "2048,-100000", "--q", "2", "--n", "0..1000"),
         "--d holds the center distance -100000; center distances start at 1"),
        (("--family", "ball", "--d", "3,0", "--q", "2", "--n", "1"),
         "--d holds the center distance 0; center distances start at 1"),
    ], ids=["srw-n", "srw-n-range", "n-under-the-step-cap", "d-under-the-step-cap", "d-zero"])
    def test_entry_below_its_floor_refused_before_any_work(self, capsys, monkeypatch, argv,
                                                           message):
        import treeot.cli

        def no_work(*args):
            raise AssertionError("a table or a cell was computed before the list checks")

        monkeypatch.setattr(treeot.cli, "srw_g_table", no_work)
        monkeypatch.setattr(treeot.cli, "w1_radial_formula", no_work)
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestAlphaOffTheWalk:
    """Spheres and balls have no laziness, so ``--alpha`` next to them is
    refused rather than ignored; the walk reads a missing ``--alpha`` as 0."""

    @pytest.mark.parametrize("argv", [
        ("asym", "--family", "ball", "--alpha", "1/2", "--d", "2", "--q", "3"),
        ("asym", "--family", "sphere", "--alpha", "0", "--d", "2", "--q", "3"),
        ("sweep", "--family", "sphere", "--alpha", "1/2", "--d", "1", "--q", "2", "--n", "0..2"),
        ("sweep", "--family", "ball", "--alpha", "0", "--d", "1", "--q", "2", "--n", "0..2"),
        ("series", "--family", "ball", "--alpha", "1/2", "--q", "2", "--order", "3"),
    ], ids=["asym-ball", "asym-sphere", "sweep-sphere", "sweep-ball", "series-ball"])
    def test_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: {argv[0]} reads --alpha only with --family srw, "
                       f"not with --family {argv[2]}\n")

    @pytest.mark.parametrize("argv", [
        ("asym", "--family", "srw", "--d", "2", "--q", "3"),
        ("sweep", "--family", "srw", "--d", "1,2", "--q", "2", "--n", "0..4"),
        ("series", "--family", "srw", "--q", "2", "--order", "6"),
    ], ids=["asym", "sweep", "series"])
    def test_the_walk_reads_no_alpha_as_zero(self, capsys, argv):
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--alpha", "0")
        assert run_cli(capsys, *argv)[0] == 0


class TestSeriesCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--family", "srw", "--alpha", "1/2",
                               "--q", "3", "--order", "6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        assert rows[0]["gamma"] == "1"
        # Return mass after two steps: alpha^2 + (1 - alpha)^2 / (q + 1).
        assert parse_rational(rows[2]["gamma"]) == Fraction(1, 4) + Fraction(1, 16)

    def test_sphere_series(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--family", "sphere", "--q", "2",
                               "--order", "5", "--emit", "json")
        rows = json.loads(out)
        assert rows[5]["g1_at_q"] == "5/3"

    @pytest.mark.parametrize("family", ["srw", "sphere", "ball"])
    def test_json_and_csv_hold_the_same_rows(self, capsys, family):
        argv = ("series", "--family", family, "--q", "3", "--order", "5")
        code, out, _ = run_cli(capsys, *argv, "--emit", "json")
        rows = [{key: str(value) for key, value in row.items()} for row in json.loads(out)]
        assert code == 0 and len(rows) == 6
        code, out, _ = run_cli(capsys, *argv, "--emit", "csv")
        assert code == 0 and list(csv.DictReader(io.StringIO(out))) == rows


    # sha256 of the stdout, recorded before the walk family moved to integers.
    @pytest.mark.parametrize("argv, digest", [
        (("--family", "srw", "--alpha", "1/2", "--q", "3", "--order", "256"),
         "46460e4d14ca56293ddde6d12ff8a189a0558cd00922067499daa5f5258f7a3e"),
        (("--family", "ball", "--q", "3", "--order", "128"),
         "7c0d0a9457bcbb2c0abe370ece14b7496a8849a3690bd802b83518ac1d1281c3"),
    ], ids=["srw-256", "ball-128"])
    def test_json_dump_is_byte_identical(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "series", *argv, "--emit", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSeriesSizeCap:
    @pytest.mark.parametrize("argv", [
        ("series", "--family", "srw", "--alpha", "1/" + "1" + "0" * 27, "--q", "3",
         "--order", "150"),
        ("series", "--family", "srw", "--alpha", "1/2", "--q", "3", "--order", "2000"),
        ("series", "--family", "ball", "--q", "3", "--order", "2000"),
    ], ids=["srw-long-alpha", "srw-order", "ball-order"])
    def test_series_order_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: --order ") and "2048-bit series cap" in err

    @pytest.mark.parametrize("family", ["srw", "sphere"])
    def test_sweep_n_refused_fast(self, capsys, family):
        alpha = ("--alpha", "1/2") if family == "srw" else ()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--family", family, *alpha,
                                 "--q", "3", "--d", "1", "--n", "3000..3000")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: --n 3000 ") and "series cap" in err

    @pytest.mark.parametrize("argv", [
        ("--family", "sphere", "--q", "2", "--d", "2048", "--n", "0..1000"),
        ("--family", "sphere", "--q", "2", "--d", "1..2047", "--n", "1"),
        ("--family", "srw", "--alpha", "0,1/2", "--q", "2", "--d", "1..2046", "--n", "1"),
        ("--family", "ball", "--q", "2,3", "--d", "1..2046", "--n", "1"),
    ], ids=["one-cell-row", "d-list", "alpha-list", "q-list"])
    def test_sweep_grid_refused_fast(self, capsys, monkeypatch, argv):
        import treeot.cli

        def no_work(*args):
            raise AssertionError("a table or a cell was computed before the grid check")

        monkeypatch.setattr(treeot.cli, "srw_g_table", no_work)
        monkeypatch.setattr(treeot.cli, "w1_radial_formula", no_work)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: the sweep grid needs ")
        assert "over the 2,097,152-step sweep cap" in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--family", "sphere", "--n", "0..100000000000"),
        ("verify-ineq", "--grid", "q=2..100000000000"),
    ], ids=["sweep-n", "verify-ineq-q"])
    def test_long_list_refused_fast(self, capsys, argv):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, *argv)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 2 ** 20  # bytes: the range is counted, never built
        assert code == 2 and out == ""
        text = argv[-1].split("=")[-1]
        assert err == (f"error: the list '{text}' spells out more than 2,097,152 entries, "
                       f"the cap on a grid list\n")

    @pytest.mark.parametrize("argv", [
        ("sweep", "--family", "sphere", "--n", "5..1"),
        ("sweep", "--family", "sphere", "--d", "3..1"),
        ("verify-ineq", "--grid", "d=3..1"),
    ], ids=["sweep-n", "sweep-d", "verify-ineq-d"])
    def test_empty_list_refused(self, capsys, argv):
        # A list with no entries would print a bare header, or pass a grid
        # that checked no cell.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        text = argv[-1].split("=")[-1]
        assert err == f"error: the list '{text}' spells out no entries\n"

    @pytest.mark.parametrize("argv", [
        ("sweep", "--family", "srw", "--n", "3..1,2"),
        ("verify-ineq", "--grid", "q=3..1,2", "d=1", "alpha=0"),
    ], ids=["sweep-n", "verify-ineq-q"])
    def test_empty_range_in_a_list_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: the range '3..1' in the list '3..1,2' spells out no entries\n"

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--family", "sphere", "--d", "x"),
         "the list 'x' cannot be read as an integer"),
        (("sweep", "--family", "sphere", "--d", "1,,2"),
         "the entry '' in the list '1,,2' cannot be read as an integer"),
        (("sweep", "--family", "sphere", "--n", "..3"),
         "the list '..3' cannot be read as lo..hi with integer ends"),
        (("sweep", "--family", "sphere", "--n", "1..2..3"),
         "the list '1..2..3' cannot be read as lo..hi with integer ends"),
        (("sweep", "--family", "sphere", "--q", "2,3..x"),
         "the range '3..x' in the list '2,3..x' cannot be read as lo..hi with integer ends"),
        (("verify-ineq", "--grid", "d=x"),
         "the list 'x' cannot be read as an integer"),
    ], ids=["sweep-d", "sweep-d-empty-entry", "sweep-n-no-lo", "sweep-n-three-ends",
            "sweep-q-range", "verify-ineq-d"])
    def test_unreadable_list_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_grid_token_without_equals_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify-ineq", "--grid", "d=1", "q")
        assert (code, out, err) == (2, "", "error: grid token 'q' is not FIELD=SPEC\n")

    @pytest.mark.parametrize("argv", [("--grid", "q=2", "q=3"),
                                      ("--grid", "q=2", "--grid", "q=3")],
                             ids=["one-flag", "two-flags"])
    def test_repeated_grid_field_refused(self, capsys, argv):
        # Each once ran the grid at q = 3 alone and exited 0.
        code, out, err = run_cli(capsys, "verify-ineq", *argv)
        assert (code, out, err) == (2, "", "error: grid token 'q=3' repeats the field 'q'\n")

    @pytest.mark.parametrize("n, top", [("0..2097151", 2097151),
                                        ("0..1000,1001..2097150", 2097150)])
    def test_sweep_series_cap_reads_no_n_list(self, capsys, n, top):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "sweep", "--family", "sphere", "--n", n)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 2 ** 20  # bytes: the cap reads each range's top, never the list
        assert code == 2 and out == ""
        assert err.startswith(f"error: --n {top} ") and "series cap" in err

    def test_verify_ineq_grid_refused_fast(self, capsys, monkeypatch):
        import treeot.cli

        def no_work(*args):
            raise AssertionError("a cell was checked before the grid check")

        monkeypatch.setattr(treeot.cli, "verify_inequalities", no_work)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify-ineq", "--grid", "q=2..401", "d=1..6",
                                 "alpha=0,1/4,1/2,9/10")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "error: the grid has 9,600 cells, over the 4,096-cell cap on verify-ineq\n"

    def test_verify_ineq_grid_at_the_cap_answers(self, capsys, monkeypatch):
        import treeot.cli

        monkeypatch.setattr(treeot.cli, "MAX_INEQUALITY_CELLS", 18)
        code, out, _ = run_cli(capsys, "verify-ineq", "--grid", "alpha=0,1/2", "d=1..3", "q=2..4")
        assert code == 0 and len(out.splitlines()) == 1 + 18
        code, out, err = run_cli(capsys, "verify-ineq", "--grid", "alpha=0,1/2", "d=1..3",
                                 "q=2..5")
        assert code == 2 and out == "" and "24 cells, over the 18-cell cap" in err

    def test_list_cap_counts_entries_as_written(self, monkeypatch):
        import treeot.cli
        from treeot.cli import _parse_list

        monkeypatch.setattr(treeot.cli, "MAX_SWEEP_STEPS", 10)
        assert _parse_list("0..9") == list(range(10))
        assert _parse_list("3,0..7,3") == [3, 0, 1, 2, 4, 5, 6, 7]
        assert _parse_list("1/2,0,2/4,0/3", parse_rational) == [Fraction(1, 2), 0]
        for text in ("0..10", "0..4,0..5", "5,5,5,5,5,5,5,5,5,5,5"):
            with pytest.raises(TooLarge, match="more than 10 entries"):
                _parse_list(text)

    def test_sweep_grid_just_under_the_cap_answers(self, capsys):
        # 2 * sum over d = 1..2046 of (d // 2 + 1) = 2,097,150 steps; d = 2047
        # would add 2,048 and pass the 2^21 cap.
        code, out, _ = run_cli(capsys, "sweep", "--family", "sphere", "--q", "2",
                               "--d", "1..2046", "--n", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["d"]) for r in rows] == list(range(1, 2047))

    def test_paper_sizes_fit_under_the_cap(self, capsys):
        from treeot.regular import MAX_SERIES_BITS
        assert 256 * (2 * 4).bit_length() <= MAX_SERIES_BITS  # series order 256, alpha 1/2, q 3
        assert 240 * (2 * 4).bit_length() <= MAX_SERIES_BITS  # criterion 8's order


class TestAsymCommand:
    def test_ball_exactness_flag_false(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--family", "ball", "--d", "2", "--q", "3")
        assert code == 0
        assert json.loads(out) == {"A": "4/3", "B": "1", "exact_for_large_n": False}

    def test_sphere_flagged_exact(self, capsys):
        code, out, _ = run_cli(capsys, "asym", "--family", "sphere", "--d", "1", "--q", "2")
        doc = json.loads(out)
        assert doc == {"A": "2/3", "B": "1", "exact_for_large_n": True}


class TestVerifyCommands:
    def test_verify_ineq_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify-ineq", "--grid",
                               "alpha=0,1/2", "d=1..3", "q=2..4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 3 * 3
        assert all(r["passed"] == "True" for r in rows)

    @pytest.mark.parametrize("grid", [("alpha=0", "d=1,1", "q=2"),
                                      ("alpha=0,0/3", "d=1", "q=2,2..2")])
    def test_verify_ineq_repeated_values_print_each_row_once(self, capsys, grid):
        code, out, _ = run_cli(capsys, "verify-ineq", "--grid", *grid)
        assert code == 0
        assert out.splitlines()[1:] == ["0,1,2,True,True,True,True"]

    @pytest.mark.parametrize("grid", [("q=2,1", "d=1", "alpha=0"), ("alpha=1",), ("d=0",)],
                             ids=["q-after-a-good-row", "alpha", "d"])
    def test_verify_ineq_bad_cell_prints_no_table(self, capsys, grid):
        code, out, err = run_cli(capsys, "verify-ineq", "--grid", *grid)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_verify_oeis_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "oeis")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "oeis"

    def test_verify_series_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "series")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_is_seed_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "triple", "--seed", "5")
        code2, out2, _ = run_cli(capsys, "verify", "triple", "--seed", "5")
        assert (code1, out1) == (code2, out2)


def _break_everywhere(monkeypatch, name, broken):
    """Replace every binding of the package function ``name`` with ``broken(original)``,
    so a caller that imported it is seen too. The original is the binding in
    the module that defines it."""
    modules = [module for module_name, module in list(sys.modules.items())
               if module_name.split(".")[0] == "treeot"]
    original = next(vars(module)[name] for module in modules
                    if getattr(vars(module).get(name), "__module__", None) == module.__name__)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, broken(original))


def _steep_potential(tree, flow):
    """A broken ``good_potential``: it climbs by 2 from each vertex index to
    the next, so it jumps by at least 2 across every edge of every tree."""
    return tuple(range(0, 2 * tree.num_vertices, 2))


class TestOneAgreementCheck:
    """``treeot w1`` and ``treeot verify`` decide agreement by the same check
    per route family, so a route broken alone fails both commands."""

    def assert_both_fail(self, capsys, w1_argv, suite):
        code, out, _ = run_cli(capsys, "w1", *w1_argv)
        assert code == 1 and out.endswith("agreement: MISMATCH\n")
        code, out, _ = run_cli(capsys, "verify", suite)
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        assert doc["suites"][0]["cases_passed"] == 0

    @pytest.mark.parametrize("name, broken", [
        ("check_complementary_slackness", lambda original: lambda *args: False),
        ("potential_value", lambda original: lambda *args: original(*args) + Fraction(1, 1000)),
        ("good_potential", lambda original: _steep_potential),
    ], ids=["slackness", "pairing", "potential"])
    def test_a_broken_tree_route_fails_both_commands(self, capsys, monkeypatch,
                                                     demo_instance_path, name, broken):
        _break_everywhere(monkeypatch, name, broken)
        self.assert_both_fail(capsys, [str(demo_instance_path)], "duality")

    def test_an_infeasible_potential_is_named_in_both_reports(self, capsys, monkeypatch,
                                                              demo_instance_path):
        _break_everywhere(monkeypatch, "good_potential", lambda original: _steep_potential)

        def no_lp(*args):
            raise AssertionError("the LP ran on an infeasible potential")

        _break_everywhere(monkeypatch, "w1_lp", lambda original: no_lp)
        code, out, _ = run_cli(capsys, "w1", str(demo_instance_path), "--json")
        doc = json.loads(out)
        assert code == 1 and doc["agree"] is False
        assert "potential jumps by more than 1" in doc["lp_skipped"]
        code, out, _ = run_cli(capsys, "verify", "duality")
        records = json.loads(out)["suites"][0]["records"]
        assert code == 1
        assert all("potential jumps by more than 1" in r["detail"] for r in records)

    def test_an_infeasible_potential_over_the_lp_cap_is_a_mismatch(self, capsys, monkeypatch,
                                                                   tmp_path):
        # 125-point supports on 500 vertices: the LP is skipped, and the
        # adapted potential raised by 5 at one vertex of zero charge pairs to
        # the same value, so only its 1-Lipschitz check can see the fault.
        rng = random.Random(20)
        tree = random_tree(rng, 500)
        mu = Measure({v: Fraction(1, 125) for v in range(125)})
        nu = Measure({v: Fraction(1, 125) for v in range(375, 500)})
        path = tmp_path / "over_cap.json"
        dump_instance(tree, mu, nu, path)
        code, out, _ = run_cli(capsys, "w1", str(path))
        assert code == 0 and "lp skipped: supports of size 125x125" in out

        def raised(original):
            def potential(tree, flow):
                levels = list(original(tree, flow))
                levels[250] += 5
                return tuple(levels)
            return potential

        _break_everywhere(monkeypatch, "good_potential", raised)
        code, out, _ = run_cli(capsys, "w1", str(path))
        assert code == 1 and out.endswith("agreement: MISMATCH\n")
        code, out, _ = run_cli(capsys, "w1", str(path), "--json")
        doc = json.loads(out)
        assert code == 1 and doc["agree"] is False
        assert len(set(doc["paths"].values())) == 1
        assert "potential jumps by more than 1" in doc["lp_skipped"]

    def test_plan_marginals_are_checked_by_both_commands(self, capsys, monkeypatch,
                                                         demo_instance_path):
        _break_everywhere(monkeypatch, "satisfies_marginals", lambda original: lambda *args: False)
        self.assert_both_fail(capsys, [str(demo_instance_path)], "duality")

    def test_a_broken_radial_route_fails_both_commands(self, capsys, monkeypatch):
        _break_everywhere(monkeypatch, "w1_radial_flow_formula",
                          lambda original: lambda *args: original(*args) + Fraction(1, 1000))
        self.assert_both_fail(capsys, ["--radial", "sphere:r=2", "--q", "2", "--d", "1"],
                              "triple")


class TestRadialW1Mode:
    def test_an_answer_past_the_digit_limit_is_refused(self, capsys):
        spec = "custom:[" + ",".join(f"1/{10 ** 1999 + k}" for k in (1, 3, 7)) + "]"
        code, out, err = run_cli(capsys, "w1", "--radial", spec, "--q", "2", "--d", "1")
        assert code == 2 and out == ""
        assert re.match(r"error: .* a \d+-digit (numerator|denominator), over the 4300-digit", err)
        assert "set_int_max_str_digits" not in err

    def test_three_route_agreement_and_value(self, capsys):
        code, out, _ = run_cli(capsys, "w1", "--radial", "srw:alpha=1/2,n=4",
                               "--q", "3", "--d", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert len(set(doc["paths"].values())) == 1

    def test_emitted_instance_reproduces_value(self, capsys, tmp_path):
        path = tmp_path / "radial.json"
        code, out, _ = run_cli(capsys, "w1", "--radial", "sphere:r=2",
                               "--q", "2", "--d", "1", "--json",
                               "--emit-instance", str(path))
        assert code == 0
        value = json.loads(out)["w1"]
        tree, mu, nu = load_instance(path)
        assert str(w1_tree(tree, mu, nu)) == value

    def test_radial_run_needs_no_bfs(self, capsys, monkeypatch):
        import treeot.lp
        import treeot.tree

        calls = []
        hop_distances = treeot.tree._hop_distances

        def spy(adjacency, source):
            calls.append(source)
            return hop_distances(adjacency, source)

        monkeypatch.setattr(treeot.tree, "_hop_distances", spy)
        monkeypatch.setattr(treeot.lp, "_hop_distances", spy)
        code, out, _ = run_cli(capsys, "w1", "--radial", "srw:alpha=1/2,n=4",
                               "--q", "3", "--d", "2", "--json")
        assert code == 0 and json.loads(out)["agree"] is True
        # The truncation is rooted as it is generated, and both measures read
        # their distances from the coordinates (i, h).
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ("--radial", "sphere:r=14", "--q", "3", "--d", "2"),
        ("--radial", "custom:[" + "0," * 30 + "1]", "--q", "2", "--d", "1"),
        ("--radial", "srw:alpha=1/2,n=1000000", "--q", "3", "--d", "2"),
        ("--radial", "ball:r=4", "--q", "3", "--d", "2000"),
    ], ids=["sphere", "custom", "srw", "long-path"])
    def test_truncation_size_refused_fast(self, capsys, monkeypatch, argv):
        import treeot.cli

        def no_profile(*args):
            raise AssertionError("the profile was built before the size check")

        monkeypatch.setattr(treeot.cli, "srw_profile", no_profile)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "w1", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: the radius-") and "over 1,000,000 vertices" in err
        assert "closed formulas" in err

    @pytest.mark.parametrize("argv", [
        ("asym", "--family", "srw", "--alpha", "1/2", "--d", "20000", "--q", "3"),
        ("asym", "--family", "srw", "--alpha", "1/2", "--d", "100000000", "--q", "3"),
        ("w1", "--radial", "srw:alpha=1/2,n=1", "--q", "3", "--d", "100000000"),
        ("sweep", "--family", "sphere", "--q", "3", "--d", "5000", "--n", "1"),
        ("verify-ineq", "--grid", "alpha=1/2", "d=5000", "q=3"),
    ], ids=["asym", "asym-1e8", "w1-radial", "sweep", "verify-ineq"])
    def test_center_distance_refused_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "error: q^(d/2) for q = 3" in err and "2048-bit cap on bits(q) * ceil(d/2)" in err

    @pytest.mark.parametrize("argv, message", [
        (("w1", "--radial", "sphere:r=-1", "--q", "3", "--d", "2"),
         "sphere radius must be >= 0, got -1"),
        (("w1", "--radial", "ball:r=-1", "--q", "3", "--d", "2"),
         "ball radius must be >= 0, got -1"),
        (("w1", "--radial", "srw:n=-1", "--q", "2", "--d", "1"),
         "walk time step must be >= 0, got -1"),
        (("sweep", "--family", "sphere", "--n=-1"),
         "--n holds the time step -1; time steps start at 0"),
        (("sweep", "--family", "ball", "--n=-1"),
         "--n holds the time step -1; time steps start at 0"),
    ], ids=["w1-sphere", "w1-ball", "w1-srw", "sweep-sphere", "sweep-ball"])
    def test_negative_radius_is_an_input_error(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_radial_needs_geometry(self, capsys):
        code, _, err = run_cli(capsys, "w1", "--radial", "sphere:r=2")
        assert code == 2 and "error" in err

    def test_no_arguments_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "w1")
        assert code == 2 and "error" in err

    @staticmethod
    def _no_work(monkeypatch):
        import treeot.cli

        def no_work(*args):
            raise AssertionError("w1 did work before refusing its flags")

        for name in ("load_instance", "parse_profile_spec", "triple_cell"):
            monkeypatch.setattr(treeot.cli, name, no_work)

    @pytest.mark.parametrize("flags, named", [
        (("--emit-instance", "OUT", "--q", "9", "--d", "4"), "--q, --d, --emit-instance"),
        (("--d", "4"), "--d"),
    ], ids=["emit-q-d", "d"])
    def test_radial_flags_on_an_instance_file_are_refused(self, capsys, monkeypatch, tmp_path,
                                                          demo_instance_path, flags, named):
        self._no_work(monkeypatch)
        emitted = tmp_path / "emitted.json"
        argv = [str(emitted) if flag == "OUT" else flag for flag in flags]
        code, out, err = run_cli(capsys, "w1", str(demo_instance_path), *argv)
        assert code == 2 and out == ""
        assert err == (f"error: w1 reads {named} only with --radial, not with the instance "
                       f"file {str(demo_instance_path)!r}\n")
        assert not emitted.exists()

    def test_an_instance_file_and_radial_clash(self, capsys, monkeypatch, demo_instance_path):
        self._no_work(monkeypatch)
        code, out, err = run_cli(capsys, "w1", str(demo_instance_path), "--radial", "sphere:r=1",
                                 "--q", "2", "--d", "1")
        assert code == 2 and out == ""
        assert err == (f"error: the instance file {str(demo_instance_path)!r} and --radial "
                       f"clash: give one of them\n")


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        import treeot.cli

        built = []

        def counting():
            built.append(1)
            return build_parser()

        treeot.cli._parser.cache_clear()
        monkeypatch.setattr(treeot.cli, "build_parser", counting)
        try:
            assert run_cli(capsys, "asym", "--family", "ball", "--d", "2", "--q", "3")[0] == 0
            assert run_cli(capsys, "asym", "--family", "sphere", "--d", "1", "--q", "2")[0] == 0
        finally:
            treeot.cli._parser.cache_clear()
        assert built == [1]


class TestProfileSpecs:
    def test_srw_spec(self):
        kind, profile = parse_profile_spec("srw:alpha=1/2,n=3", 2, 1)
        assert (kind, profile) == ("srw", srw_profile(Fraction(1, 2), 2, 3))
        assert profile.support_radius == 3

    def test_sphere_spec(self):
        kind, profile = parse_profile_spec("sphere:r=4", 3, 1)
        assert (kind, profile) == ("sphere", sphere_profile(3, 4))
        assert profile.support_radius == 4 and profile.values[4] == Fraction(1, 4 * 27)

    def test_ball_spec(self):
        kind, profile = parse_profile_spec("ball:r=2", 2, 1)
        assert (kind, profile) == ("ball", ball_profile(2, 2))
        assert profile.support_radius == 2 and profile.values[0] == Fraction(1, 10)

    def test_custom_spec(self):
        kind, profile = parse_profile_spec("custom:[1/2, 0, 1/3]", 2, 1)
        assert kind == "custom" and profile.support_radius == 2
        assert profile.values == (Fraction(1, 2), Fraction(0), Fraction(1, 3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_profile_spec("disc:r=1", 2, 1)

    @pytest.mark.parametrize("spec, item", [
        ("sphere:rr=3", "rr=3"), ("sphere:3", "3"), ("ball:n=4", "n=4"),
        ("srw:alpha=1/2,r=5", "r=5"), ("sphere:r=2,r=3", "r=3"),
    ])
    def test_unread_items_refused(self, capsys, spec, item):
        # Each of these once ran on a default or an earlier value and exited 0.
        code, out, err = run_cli(capsys, "w1", "--radial", spec, "--q", "2", "--d", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: profile item '{item}' ")

    @pytest.mark.parametrize("spec",
                             ["custom:[1,,1]", "custom:[,1]", "custom:[1,]", "custom:[ , ]"])
    def test_custom_empty_entries_refused(self, capsys, spec):
        # "custom:[1,,1]" once ran as "custom:[1,1]": w1 = 6 where [1,0,1] gives 15.
        code, out, err = run_cli(capsys, "w1", "--radial", spec, "--q", "2", "--d", "1")
        assert (code, out) == (2, "")
        assert err == f"error: custom profile '{spec}' has an empty entry\n"

    def test_empty_custom_list_carries_no_mass(self, capsys):
        code, out, err = run_cli(capsys, "w1", "--radial", "custom:[]", "--q", "2", "--d", "1")
        assert (code, out, err) == (2, "", "error: profile must carry some mass\n")

    @pytest.mark.parametrize("spec, key, value", [
        ("sphere:r=", "r", "''"), ("ball:r=1/2", "r", "'1/2'"), ("srw:n=x", "n", "'x'"),
    ])
    def test_radius_errors_name_their_key(self, capsys, spec, key, value):
        code, out, err = run_cli(capsys, "w1", "--radial", spec, "--q", "2", "--d", "1")
        assert (code, out) == (2, "")
        assert err == f"error: profile '{spec}' needs an integer {key}, got {value}\n"

    @pytest.mark.parametrize("spec, message", [
        ("sphere", "profile 'sphere' needs its size key r"),
        ("ball:", "profile 'ball:' needs its size key r"),
        ("srw:alpha=1/2", "profile 'srw:alpha=1/2' needs its size key n"),
        ("", "unknown profile kind ''"),
    ], ids=["sphere", "ball", "srw", "empty"])
    def test_missing_size_key_or_kind_refused(self, capsys, spec, message):
        # The first three once ran at size 1 and exited 0; the empty spec was
        # read as no --radial at all.
        code, out, err = run_cli(capsys, "w1", "--radial", spec, "--q", "2", "--d", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
