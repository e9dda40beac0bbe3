"""Benchmark runner for treeot: seeded CLI-shaped workloads, end to end and per layer.

Run from the repository root (standard library only):

    python3 bench/run.py --workload tree-json --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --out bench/results/NAME.json
    python3 -m pytest bench/tests -q

A run of one workload generates its inputs from ``--seed`` into
``.bench_work/`` (untimed), times ``import treeot.cli`` in several fresh
processes before and after the measuring (``setup_s``, end-to-end runs only),
computes reference answers in a separate process, and measures in one fresh
worker process (see ``worker.py``). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of ``tracing.py``.

An op is one unit of user work; a pass runs every op of the workload once.
``op_s.p50`` is each op's median wall time, averaged over the ops of a pass,
so a change to any one op moves it. ``ops_per_s`` is the successful ops
divided by the wall time of the measuring loop, the untimed checks included.
``setup_s`` is the median time of ``import treeot.cli`` in a fresh process
and ``peak_rss_mb`` the measuring process's peak resident memory.

The three times are scaled to a reference host speed, because a shared host's
speed drifts by up to 1.7x within minutes. Between ops, and after each timed
import, the bench times a fixed pure-Python loop (the host probe,
``worker.host_probe``). Each op time is multiplied by ``REF_PROBE_S`` over the
mean of the probes just before and after it, each import time by
``REF_PROBE_S`` over the probe after it, and ``ops_per_s`` by the run's median
probe time over ``REF_PROBE_S``. The unscaled figures are printed and stored
beside them.

Metric lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``fail_ratio`` is
reported on the metric lines and carried by ``failed``/``attempted``: it is
zero on a correct program, so it is not a metric a relative bound can hold.

``--workload all`` runs every workload untraced and traced and prints all
end-to-end metrics, ``fail_ratio`` included, per workload; ``--out`` also
writes the records with run metadata to a results file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from gen import WORKLOADS, generate  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from worker import REF_PROBE_S, op_seconds, samples as op_samples, scaled  # noqa: E402

ROOT = BENCH_DIR.parent
#: A single-workload run must end well inside three minutes.
RUN_BUDGET_S = 170.0
#: Import probes before and again after the measuring loop, so that setup_s
#: is not read at a single moment of the host's drifting speed.
SETUP_PROBES = 6
#: Times ``import treeot.cli``, then takes the host probe in the same process.
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); import treeot.cli; "
               "d = time.perf_counter() - t; sys.path.insert(0, {bench!r}); import worker; "
               "print(d, worker.host_probe())").format(bench=str(BENCH_DIR))
E2E_UNITS = {"op_s.p50": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed op)."""


def _env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else ""),
            "PYTHONHASHSEED": "0"}


def _child(argv: list[str], cwd: Path, deadline: float) -> str:
    """Run a child to completion within the run's deadline; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[:3]))
    try:
        done = subprocess.run([sys.executable, *argv], cwd=cwd, env=_env(), timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def setup_seconds(deadline: float) -> list[tuple[float, float]]:
    """``import treeot.cli`` timed in fresh processes, each time paired with
    the host probe taken right after it."""
    return [tuple(map(float, _child(["-c", SETUP_PROBE], ROOT, deadline).split()))
            for _ in range(SETUP_PROBES)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ROOT / ".bench_work"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    worker = str(BENCH_DIR / "worker.py")
    try:
        plan = generate(workload, seed, work)
        setups = []
        if not trace:  # an untimed warm-up import first writes the bytecode cache
            _child(["-c", SETUP_PROBE], ROOT, deadline)
            setups = setup_seconds(deadline)
        _child([worker, "reference", "plan.json", "refs.json"], work, deadline)
        _child([worker, "measure", "plan.json", "refs.json", "result.json",
                "--seconds", str(seconds), "--trace", "1" if trace else "0",
                "--spans", str(base / f"spans-{workload}.jsonl")], work, deadline)
        if not trace:
            setups += setup_seconds(deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = op_samples(result["by_op"])
    if not samples:
        raise BenchError(f"no op of {workload} succeeded: {result['errors']}")
    unscaled = None
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        probe_s = statistics.median(op_samples(result["probe_by_op"]))
        unscaled = {"op_s.p50": op_seconds(result["by_op"]),
                    "ops_per_s": len(samples) / result["wall_s"],
                    "setup_s": statistics.median(t for t, _ in setups), "probe_s": probe_s}
        values = {"op_s.p50": op_seconds(scaled(result["by_op"], result["probe_by_op"])),
                  "ops_per_s": unscaled["ops_per_s"] * probe_s / REF_PROBE_S,
                  "setup_s": statistics.median(t * REF_PROBE_S / p for t, p in setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "ops_per_pass": len(plan["ops"]), "samples": len(samples),
            "unscaled": unscaled,
            "attempted": result["attempted"], "failed": result["failed"],
            "fail_ratio": result["failed"] / result["attempted"],
            "op_p50_s": {" ".join(spec.get("argv") or [spec["path"]]):
                         statistics.median(times) if times else None
                         for spec, times in zip(plan["ops"], result["by_op"])},
            "errors": result["errors"], "absent": result.get("absent", []),
            "inputs": plan["inputs"], "metrics": metrics}


def metadata(seed: int, seconds: float) -> dict:
    """Machine, interpreter and program identity for a results file."""
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "treeot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(), "treeot_commit": commit,
            "treeot_src_sha256": digest.hexdigest(), "seed": seed, "seconds": seconds,
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "end-to-end"
    print(f"# {rec['workload']} seed={rec['seed']} {mode}: {rec['samples']} samples, "
          f"{rec['attempted']} ops attempted, {rec['ops_per_pass']} ops per pass")
    print(f"#   inputs {json.dumps(rec['inputs'])}")
    for name, m in rec["metrics"].items():
        suffix = f"  (n={rec['samples']})" if name == "op_s.p50" else ""
        print(f"{rec['workload']:>9}  {name:<36} {m['value']:.6g} {m['unit']}{suffix}")
    print(f"{rec['workload']:>9}  {'fail_ratio':<36} {rec['fail_ratio']:.6g} ratio"
          f"  ({rec['failed']}/{rec['attempted']})")
    if rec["unscaled"]:
        print(f"#   unscaled by the host probe: {json.dumps(rec['unscaled'])}")
    for note in rec["errors"]:
        print(f"#   failed: {note}")
    for name in rec["absent"]:
        print(f"#   absent from the program: {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="treeot benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the records and run metadata here")
    args = parser.parse_args(argv)
    # As an exception, SIGTERM makes subprocess.run kill and reap the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "treeot" / "cli.py").is_file():
        print(f"error: no treeot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            records = [run_workload(w, args.seed, args.seconds, trace)
                       for w in WORKLOADS for trace in (False, True)]
        else:
            records = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace))]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    if args.out:
        doc = {"meta": metadata(args.seed, args.seconds), "records": records}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {} if args.workload == "all" else records[0]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
