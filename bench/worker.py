"""One workload's process: reference answers, or the timed closed loop.

    python3 bench/worker.py reference PLAN OUT
    python3 bench/worker.py measure PLAN REFS OUT --seconds S --trace 0|1 [--spans FILE]

Run it with the plan's directory as the working directory and ``treeot``
importable. ``reference`` computes the expected answers with bench-side calls
into ``treeot``, in its own process so they do not count toward the measured
process's memory. ``measure`` runs whole passes over the plan's ops, one op at
a time (one closed-loop client, no threads), until ``S`` seconds have passed;
each op's output is checked untimed against the references. With ``--trace 1``
the passes alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

MAX_ERRORS_KEPT = 5
#: Iterations of the host probe, about 25 ms of pure-Python work.
PROBE_ITERATIONS = 300_000
#: The host probe's time on the host of the baseline, a 2-vCPU Intel Xeon
#: with Python 3.11.7, when it runs at full speed. Times are scaled by this
#: over the probe time taken with them, so they read as seconds on that host.
REF_PROBE_S = 0.024


def run_op(spec: dict):
    """Run one op and return its raw output; nothing here is checked."""
    if spec["kind"] == "stages":
        # The stages ``treeot w1`` calls, minus the LP oracle, looked up at
        # call time so a traced run sees the wrapped names.
        instances, tree = sys.modules["treeot.instances"], sys.modules["treeot.tree"]
        t, mu, nu = instances.load_instance(spec["path"])
        rho = tree.assignment_from(mu, nu)
        flow = tree.unique_flow(t, rho)
        via_flow = tree.flow_cost(flow)
        phi = tree.good_potential(t, flow)
        via_potential = tree.potential_value(rho, phi)
        return {"flow": via_flow, "potential": via_potential, "agree": via_flow == via_potential}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sys.modules["treeot.cli"].main(list(spec["argv"]))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def reference(spec: dict):
    """Expected answer for one op, computed by the bench, not by the CLI path."""
    check = spec["check"]
    if check in ("tree-stages", "w1-file"):
        from treeot.instances import load_instance
        from treeot.tree import w1_tree
        return str(w1_tree(*load_instance(spec["path"])))
    if check == "series-srw":
        from treeot.families import bundle_from_table, srw_g_table
        bundle = bundle_from_table(srw_g_table(Fraction(spec["alpha"]), spec["q"], spec["order"]))
        span = range(spec["order"] + 1)
        return {"gamma": [str(bundle.gammas[0][n]) for n in span],
                "g_at_q": [str(bundle.g_at_q[n]) for n in span],
                "g1_at_q": [str(bundle.g1_at_q[n]) for n in span]}
    if check == "sweep":
        from treeot.families import bundle_from_table, srw_g_table, w1_via_genfun
        from treeot.regular import PairGeometry
        order = max(n for _, _, _, n in spec["cells"])
        bundles = {}
        values = []
        for alpha, d, q, n in spec["cells"]:
            key = (alpha, q)
            if key not in bundles:
                bundles[key] = bundle_from_table(srw_g_table(Fraction(alpha), q, order))
            values.append(str(w1_via_genfun(bundles[key], PairGeometry(q, d), n)))
        return values
    return None


def _cli_doc(output: dict):
    if output["rc"] != 0:
        raise ValueError(f"exit status {output['rc']}: {output['stderr'].strip()[:200]}")
    return json.loads(output["stdout"])


def check(spec: dict, ref, output) -> None:
    """Raise ``ValueError`` unless ``output`` is a correct answer for ``spec``."""
    kind = spec["check"]
    if kind == "tree-stages":
        if not (output["agree"] and output["flow"] == output["potential"] == Fraction(ref)):
            raise ValueError(f"flow {output['flow']}, potential {output['potential']}, "
                             f"w1_tree {ref}")
        return
    doc = _cli_doc(output)
    if kind in ("w1-file", "radial"):
        if doc["agree"] is not True:
            raise ValueError("routes disagree")
        if kind == "w1-file" and Fraction(doc["w1"]) != Fraction(ref):
            raise ValueError(f"w1 {doc['w1']} != w1_tree {ref}")
    elif kind == "series-srw":
        if len(doc) != spec["order"] + 1:
            raise ValueError(f"{len(doc)} rows for order {spec['order']}")
        for field, expected in ref.items():
            if any(Fraction(row[field]) != Fraction(x) for row, x in zip(doc, expected)):
                raise ValueError(f"{field} differs from bundle_from_table(srw_g_table(...))")
    elif kind == "series-rows":
        if len(doc) != spec["order"] + 1:
            raise ValueError(f"{len(doc)} rows for order {spec['order']}")
    elif kind == "sweep":
        if len(doc) != spec["rows"]:
            raise ValueError(f"{len(doc)} rows, expected {spec['rows']}")
        cells = {(r["alpha"], r["d"], r["q"], r["n"]): r["w1_exact"] for r in doc}
        for (alpha, d, q, n), expected in zip(spec["cells"], ref):
            got = cells.get((alpha, d, q, n))
            if got is None or Fraction(got) != Fraction(expected):
                raise ValueError(f"cell alpha={alpha} d={d} q={q} n={n}: {got} != {expected}")
    elif kind == "verify":
        if doc["passed"] is not True:
            raise ValueError("verification suite failed")
    else:
        raise ValueError(f"unknown check {kind!r}")


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop, a gauge of the host's speed.

    On shared hosts that speed drifts by up to 1.7x within minutes, and an
    op's time moves with it; the probe moves alike, so an op's time divided
    by the probe times taken around it does not.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - t0


def run_phase(specs: list[dict], refs: list, seconds: float, tracer: Tracer | None = None,
              runner=run_op) -> dict:
    """Whole passes over ``specs`` until ``seconds`` have passed (at least one).

    Only the op itself is timed; the check after it is not. A raised
    exception, a nonzero exit or a failed check counts the op as failed.
    ``by_op[i]`` holds the wall times of op ``i``'s successful runs and
    ``probe_by_op[i]`` the mean of the host probes taken just before and just
    after each of them. ``wall_s`` is the loop's wall time without the probes.

    With a ``tracer``, passes alternate untraced and traced, starting
    untraced, and the tracer's wrappers are installed only for the traced
    passes; at least one pass of each kind runs. Host speed drift then falls
    on both kinds alike. The traced passes' times and probes go to
    ``traced_by_op`` and ``traced_probe_by_op``, their op count to
    ``traced_attempted``.
    """
    by_op: list[list[float]] = [[] for _ in specs]
    probe_by_op: list[list[float]] = [[] for _ in specs]
    traced_by_op: list[list[float]] = [[] for _ in specs]
    traced_probe_by_op: list[list[float]] = [[] for _ in specs]
    attempted = failed = traced_attempted = 0
    errors: list[str] = []

    def fail(i: int, spec: dict, exc: Exception) -> None:
        nonlocal failed
        failed += 1
        if len(errors) < MAX_ERRORS_KEPT:
            errors.append(f"op {i} ({spec['check']}): {type(exc).__name__}: {exc}")

    start = perf_counter()
    probing = probe = host_probe()
    for n_pass in itertools.count():
        traced_pass = tracer is not None and n_pass % 2 == 1
        if traced_pass:
            tracer.install()
        try:
            for i, (spec, ref) in enumerate(zip(specs, refs)):
                attempted += 1
                traced_attempted += traced_pass
                span = tracer.op(attempted) if traced_pass else contextlib.nullcontext()
                before = probe
                t0 = perf_counter()
                try:
                    with span:
                        output = runner(spec)
                    elapsed = perf_counter() - t0
                    check(spec, ref, output)
                except Exception as exc:  # a failed op or check must not end the run
                    fail(i, spec, exc)
                    elapsed = None
                probe = host_probe()
                probing += probe
                if elapsed is None:
                    continue
                times, probes = ((traced_by_op, traced_probe_by_op) if traced_pass
                                 else (by_op, probe_by_op))
                times[i].append(elapsed)
                probes[i].append((before + probe) / 2)
        finally:
            if traced_pass:
                tracer.uninstall()
        if perf_counter() - start >= seconds and (tracer is None or n_pass >= 1):
            break
    return {"by_op": by_op, "probe_by_op": probe_by_op, "traced_by_op": traced_by_op,
            "traced_probe_by_op": traced_probe_by_op,
            "attempted": attempted, "traced_attempted": traced_attempted, "failed": failed,
            "wall_s": perf_counter() - start - probing, "errors": errors}


def samples(by_op: list[list[float]]) -> list[float]:
    """Wall times of all successful ops."""
    return [t for times in by_op for t in times]


def op_seconds(by_op: list[list[float]]) -> float:
    """Typical wall time of one op: each op's median, averaged over the ops of
    a pass (those with a successful run), so every op counts once."""
    medians = [statistics.median(times) for times in by_op if times]
    return statistics.fmean(medians) if medians else float("nan")


def scaled(by_op: list[list[float]], probe_by_op: list[list[float]]) -> list[list[float]]:
    """Op times at the reference host speed: each times ``REF_PROBE_S`` over
    its probe time."""
    return [[t * REF_PROBE_S / p for t, p in zip(times, probes)]
            for times, probes in zip(by_op, probe_by_op)]


def overhead_seconds(untraced: list[list[float]], traced: list[list[float]]) -> float:
    """Traced minus untraced median wall time, paired op by op and averaged."""
    diffs = [statistics.median(t) - statistics.median(u)
             for u, t in zip(untraced, traced) if u and t]
    return statistics.fmean(diffs) if diffs else float("nan")


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own image (``VmHWM``).

    Not ``ru_maxrss``: Linux carries the spawning parent's peak into it
    across fork and exec, so it would report the runner's memory too.
    """
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def measure(plan: dict, refs: list, seconds: float, trace: bool, spans_path: str | None) -> dict:
    import treeot.cli  # noqa: F401  (the import is the program's set-up)

    tracer = Tracer() if trace else None
    result = run_phase(plan["ops"], refs, seconds, tracer)
    if tracer:
        result["layers"] = tracer.layer_metrics(result["traced_attempted"])
        result["layers"]["trace.overhead_s"] = overhead_seconds(
            scaled(result["by_op"], result["probe_by_op"]),
            scaled(result["traced_by_op"], result["traced_probe_by_op"]))
        result["absent"] = tracer.absent
        if spans_path:
            tracer.write_spans(spans_path)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_ref = sub.add_parser("reference")
    p_ref.add_argument("plan")
    p_ref.add_argument("out")
    p_meas = sub.add_parser("measure")
    p_meas.add_argument("plan")
    p_meas.add_argument("refs")
    p_meas.add_argument("out")
    p_meas.add_argument("--seconds", type=float, required=True)
    p_meas.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_meas.add_argument("--spans")
    args = parser.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    if args.mode == "reference":
        result = [reference(spec) for spec in plan["ops"]]
    else:
        refs = json.loads(Path(args.refs).read_text(encoding="utf-8"))
        result = measure(plan, refs, args.seconds, bool(args.trace), args.spans)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
