"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import treeot
from treeot.suites import random_measure_pair, random_profile, random_tree
from treeot.tree import _adjacency

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DEMO_INSTANCE = FIXTURES / "demo_tree_instance.json"


@pytest.fixture
def demo_instance_path() -> Path:
    return DEMO_INSTANCE


def demo_doc() -> dict:
    """The bundled 11-vertex worked example, read from its fixture file.

    Unit surpluses sit at the five mu vertices and deficits of total size 5 at
    the three nu vertices; the transport distance is exactly 12, reachable by
    flow, potential, and LP alike.
    """
    return json.loads(DEMO_INSTANCE.read_text(encoding="utf-8"))


def run_python(code: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter, with this treeot first on its path;
    :class:`subprocess.TimeoutExpired` after ``timeout`` seconds."""
    src = str(Path(treeot.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=timeout)


def adjacency_of(tree) -> tuple[tuple[int, ...], ...]:
    """A tree's neighbor tuples, in edge order, built from its edge endpoints."""
    return _adjacency(tree.num_vertices, zip(*tree._ends))


def signed_flow(flow, u: int, v: int) -> Fraction:
    """A tree flow from u to v; antisymmetric, zero unless u and v are adjacent."""
    if flow.parent[u] == v:
        return Fraction(flow.up[u], flow.scale)
    if flow.parent[v] == u:
        return Fraction(-flow.up[v], flow.scale)
    return Fraction(0)


def coordinates(truncation) -> tuple[list, list]:
    """``(i, h)`` of a regular-tree truncation, one entry per vertex id,
    expanded from its (h, i) class ranges; an id no class covers reads None."""
    n = truncation.tree.num_vertices
    path_i, height = [None] * n, [None] * n
    for h, level in enumerate(truncation.levels):
        for i, lo, hi in level:
            path_i[lo:hi] = [i] * (hi - lo)
            height[lo:hi] = [h] * (hi - lo)
    return path_i, height


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def to_mpf(x: Fraction) -> mpmath.mpf:
    """A Fraction as an mpmath number at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def mpf_pair(enclosure: tuple[Fraction, Fraction]) -> tuple[mpmath.mpf, mpmath.mpf]:
    """An enclosure's endpoints as mpmath numbers, to compare with mpmath values."""
    return to_mpf(enclosure[0]), to_mpf(enclosure[1])


def interval_contains(x: tuple, value) -> bool:
    """True iff ``value`` lies inside the enclosure ``x`` (endpoints included)."""
    lo, hi = x
    return lo <= value <= hi


__all__ = ["FIXTURES", "adjacency_of", "coordinates", "demo_doc", "interval_contains", "random_tree",
           "random_measure_pair", "random_profile", "rng_for", "run_python", "signed_flow",
           "to_mpf", "mpf_pair"]
