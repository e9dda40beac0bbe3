"""Tests of the benchmark itself: input determinism, self time, metric names,
failure accounting and the traced run's wrappers."""

import json
import random
import re

import pytest

import gen
import run
import tracing
import worker

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("q, d, radius", [(3, 2, 9), (2, 3, 5), (2, 1, 4), (4, 1, 3)])
def test_truncation_size_matches_build_truncated_tree(q, d, radius):
    from treeot.regular import build_truncated_tree

    expected = build_truncated_tree(q, d, radius).tree.num_vertices
    assert gen.truncation_vertices(q, d, radius) == expected


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("op", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("a.child", 2.0, 3.0, 1, 1),
        ("b", 5.0, 9.0, 0, 1),
        ("op", 10.0, 12.0, -1, 2),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_metric_names_are_well_formed():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == dict(tracing.LAYER_METRICS)
    names = [*e2e, *layers, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def _tiny_tree_op(tmp_path):
    doc, _ = gen.random_instance(random.Random(3), 60, 12)
    (tmp_path / "tiny.json").write_text(json.dumps(doc), encoding="utf-8")
    return {"kind": "stages", "path": str(tmp_path / "tiny.json"), "check": "tree-stages"}


RADIAL_OP = {"kind": "cli", "check": "radial",
             "argv": ["w1", "--radial", "sphere:r=2", "--q", "2", "--d", "1", "--json"]}


def _corrupt(output):
    if "stdout" in output:
        return {**output, "stdout": output["stdout"].replace('"agree": true', '"agree": false')}
    return {**output, "flow": output["flow"] + 1, "potential": output["potential"] + 1}


def test_corrupted_output_raises_fail_ratio(tmp_path):
    import treeot.cli  # noqa: F401  (run_op looks the modules up in sys.modules)

    specs = [_tiny_tree_op(tmp_path), RADIAL_OP]
    refs = [worker.reference(spec) for spec in specs]
    clean = worker.run_phase(specs, refs, 0)
    assert (clean["attempted"], clean["failed"]) == (2, 0)
    assert [len(p) for p in clean["probe_by_op"]] == [len(t) for t in clean["by_op"]] == [1, 1]
    assert min(worker.samples(clean["probe_by_op"])) > 0
    bad = worker.run_phase(specs, refs, 0, runner=lambda spec: _corrupt(worker.run_op(spec)))
    assert (bad["attempted"], bad["failed"]) == (2, 2)
    assert not worker.samples(bad["by_op"])


def test_op_seconds_counts_every_op():
    # Four ops of very different lengths: a pooled median would fall between
    # the middle two and ignore the longest one.
    by_op = [[1.0, 1.2, 1.1], [2.0, 2.2], [4.0], [8.0, 9.0, 10.0]]
    assert worker.op_seconds(by_op) == pytest.approx((1.1 + 2.1 + 4.0 + 9.0) / 4)
    longer = [*by_op[:3], [16.0, 18.0, 20.0]]
    assert worker.op_seconds(longer) > worker.op_seconds(by_op)
    assert worker.overhead_seconds(by_op, longer) == pytest.approx((18.0 - 9.0) / 4)


def test_tracer_wraps_by_name_records_absent_names_and_restores(tmp_path, monkeypatch):
    import treeot.cli
    import treeot.tree

    original = treeot.tree.unique_flow
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("x.gone", "no_such_name"),))
    specs = [_tiny_tree_op(tmp_path), RADIAL_OP]
    refs = [worker.reference(spec) for spec in specs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert treeot.cli.unique_flow is treeot.tree.unique_flow is not original
    finally:
        tracer.uninstall()
    assert treeot.tree.unique_flow is original and treeot.cli.unique_flow is original
    phase = worker.run_phase(specs, refs, 0, tracer)
    assert treeot.tree.unique_flow is original and treeot.cli.unique_flow is original
    # One untraced pass, then one traced pass.
    assert (phase["attempted"], phase["traced_attempted"]) == (4, 2)
    assert all(len(u) == len(t) == 1 for u, t in zip(phase["by_op"], phase["traced_by_op"]))
    assert phase["failed"] == 0
    assert tracer.absent == ["no_such_name"]
    layers = tracer.layer_metrics(phase["traced_attempted"])
    assert layers["tree.unique_flow_s"] > 0 and layers["regular.build_truncated_tree_s"] > 0
    assert layers["tree.vertices"] > 0 and layers["tree.L_bits"] > 0
    by_index = tracer.spans
    for name, start, end, parent, op in by_index:
        assert start <= end
        if parent >= 0:
            assert by_index[parent][1] <= start and end <= by_index[parent][2]
            assert by_index[parent][4] == op
