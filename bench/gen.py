"""Seeded input generation for the benchmark workloads (standard library only).

``generate(workload, seed, outdir)`` writes every input file a workload needs
into ``outdir`` plus ``plan.json``: the ordered op list, the untimed checks
each op must pass, and a descriptor of the input sizes. The same seed gives
byte-identical files. Paths inside the plan are relative to ``outdir``; the
worker runs with ``outdir`` as its working directory.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("tree-json", "radial", "cli-w1", "paper")

TREE_JSON_VERTICES = 100_000
#: Mass numerators and denominators are drawn from 1..MAX_MASS_TERM.
MAX_MASS_TERM = 64
CLI_W1_SIZES = (500, 1000, 2000)
#: Supports of 8 and 40 points run the LP oracle (cap 40); n // 4 is refused.
CLI_W1_SUPPORTS = (8, 40, None)

RADIAL_CASES = (
    # (profile spec, q, d, support radius of the profile)
    ("srw:alpha=1/2,n=7", 3, 2, 7),
    ("srw:alpha=1/3,n=10", 2, 3, 10),
    ("ball:r=6", 3, 2, 6),
    ("sphere:r=9", 2, 1, 9),
)

SERIES_SRW = ("1/2", 3, 256)
SERIES_BALL = (3, 128)
SWEEP_ALPHAS = ("0", "1/2")
SWEEP_D = (1, 2, 3)
SWEEP_Q = (2, 3)
SWEEP_N = 60
SWEEP_SAMPLED_CELLS = 12


def random_instance(rng: random.Random, n: int, support: int) -> tuple[dict, int]:
    """A random recursive tree on ``n`` vertices with two probability measures.

    Each measure sits on ``support`` random vertices with masses p/q
    (1 <= p, q <= 64), normalised to total 1. Vertex labels are shuffled so
    the dense order the program assigns does not follow the tree's shape.
    Returns the instance document and the bit length of L, the lcm of all
    mass denominators.
    """
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    edges = [[labels[rng.randrange(i)], labels[i]] for i in range(1, n)]

    def measure() -> dict[str, Fraction]:
        chosen = rng.sample(range(n), support)
        raw = [Fraction(rng.randint(1, MAX_MASS_TERM), rng.randint(1, MAX_MASS_TERM))
               for _ in chosen]
        total = sum(raw, Fraction(0))
        return {labels[v]: m / total for v, m in zip(chosen, raw)}

    mu, nu = measure(), measure()
    l_bits = math.lcm(*(m.denominator for m in (*mu.values(), *nu.values()))).bit_length()
    doc = {"vertices": [f"v{i}" for i in range(n)],
           "edges": edges,
           "mu": {k: str(v) for k, v in mu.items()},
           "nu": {k: str(v) for k, v in nu.items()}}
    return doc, l_bits


def truncation_vertices(q: int, d: int, radius: int) -> int:
    """Vertex count of the regular-tree truncation holding radius-``radius``
    balls around two centers ``d`` apart (path vertices plus full q-ary
    branches hanging off them)."""
    total = d + 1
    for i in range(d + 1):
        depth = radius - min(i, d - i)
        missing = q if i in (0, d) else q - 1
        total += missing * sum(q ** (h - 1) for h in range(1, depth + 1))
    return total


def _write_instance(outdir: Path, name: str, doc: dict) -> int:
    text = json.dumps(doc)
    (outdir / name).write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _tree_json(rng: random.Random, outdir: Path) -> tuple[list[dict], dict]:
    n = TREE_JSON_VERTICES
    doc, l_bits = random_instance(rng, n, n // 2)
    size = _write_instance(outdir, "tree.json", doc)
    ops = [{"kind": "stages", "path": "tree.json", "check": "tree-stages"}]
    inputs = {"vertices": n, "support_mu": len(doc["mu"]), "support_nu": len(doc["nu"]),
              "L_bits": l_bits, "json_bytes": size}
    return ops, inputs


def _cli_w1(rng: random.Random, outdir: Path) -> tuple[list[dict], dict]:
    ops, instances = [], []
    for n in CLI_W1_SIZES:
        for support in CLI_W1_SUPPORTS:
            k = n // 4 if support is None else support
            doc, l_bits = random_instance(rng, n, k)
            name = f"w1_{n}_{k}.json"
            size = _write_instance(outdir, name, doc)
            ops.append({"kind": "cli", "argv": ["w1", name, "--json"], "check": "w1-file",
                        "path": name})
            instances.append({"file": name, "vertices": n, "support": k, "L_bits": l_bits,
                              "json_bytes": size})
    rng.shuffle(ops)
    return ops, {"instances": instances}


def _radial(rng: random.Random, outdir: Path) -> tuple[list[dict], dict]:
    ops, cases = [], []
    for spec, q, d, radius in RADIAL_CASES:
        argv = ["w1", "--radial", spec, "--q", str(q), "--d", str(d), "--json"]
        ops.append({"kind": "cli", "argv": argv, "check": "radial"})
        cases.append({"profile": spec, "q": q, "d": d,
                      "truncation_vertices": truncation_vertices(q, d, radius + d)})
    rng.shuffle(ops)
    return ops, {"cases": cases}


def _paper(rng: random.Random, outdir: Path) -> tuple[list[dict], dict]:
    alpha, q, order = SERIES_SRW
    ball_q, ball_order = SERIES_BALL
    grid = [(a, d, qq, n) for a in SWEEP_ALPHAS for d in SWEEP_D for qq in SWEEP_Q
            for n in range(SWEEP_N + 1)]
    cells = sorted(rng.sample(grid, SWEEP_SAMPLED_CELLS), key=str)
    ops = [
        {"kind": "cli", "check": "series-srw", "alpha": alpha, "q": q, "order": order,
         "argv": ["series", "--family", "srw", "--alpha", alpha, "--q", str(q),
                  "--order", str(order), "--emit", "json"]},
        {"kind": "cli", "check": "series-rows", "order": ball_order,
         "argv": ["series", "--family", "ball", "--q", str(ball_q),
                  "--order", str(ball_order), "--emit", "json"]},
        {"kind": "cli", "check": "sweep", "cells": [list(c) for c in cells],
         "rows": len(grid),
         "argv": ["sweep", "--family", "srw", "--alpha", ",".join(SWEEP_ALPHAS),
                  "--d", f"{SWEEP_D[0]}..{SWEEP_D[-1]}", "--q", f"{SWEEP_Q[0]}..{SWEEP_Q[-1]}",
                  "--n", f"0..{SWEEP_N}", "--format", "json"]},
        {"kind": "cli", "check": "verify", "argv": ["verify", "all"]},
    ]
    rng.shuffle(ops)
    inputs = {"series_orders": [order, ball_order], "sweep_cells": len(grid),
              "sweep_checked_cells": len(cells)}
    return ops, inputs


GENERATORS = {"tree-json": _tree_json, "radial": _radial, "cli-w1": _cli_w1, "paper": _paper}


def generate(workload: str, seed: int, outdir: Path) -> dict:
    """Write the inputs of one workload into ``outdir`` and return its plan."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops, inputs = GENERATORS[workload](rng, outdir)
    plan = {"workload": workload, "seed": seed, "ops": ops, "inputs": inputs}
    (outdir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return plan
