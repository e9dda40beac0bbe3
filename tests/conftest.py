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


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter, with this treeot first on its path."""
    src = str(Path(treeot.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def to_mpf(x: Fraction) -> mpmath.mpf:
    """A Fraction as an mpmath number at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def mpf_pair(enclosure: tuple[Fraction, Fraction]) -> tuple[mpmath.mpf, mpmath.mpf]:
    """An enclosure's endpoints as mpmath numbers, to compare with mpmath values."""
    return to_mpf(enclosure[0]), to_mpf(enclosure[1])


__all__ = ["FIXTURES", "demo_doc", "random_tree", "random_measure_pair", "random_profile",
           "rng_for", "run_python", "to_mpf", "mpf_pair"]
