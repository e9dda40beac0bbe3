"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from treeot.suites import random_measure_pair, random_profile, random_tree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def demo_instance_path() -> Path:
    return FIXTURES / "demo_tree_instance.json"


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def to_mpf(x: Fraction) -> mpmath.mpf:
    """A Fraction as an mpmath number at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def mpf_pair(enclosure: tuple[Fraction, Fraction]) -> tuple[mpmath.mpf, mpmath.mpf]:
    """An enclosure's endpoints as mpmath numbers, to compare with mpmath values."""
    return to_mpf(enclosure[0]), to_mpf(enclosure[1])


__all__ = ["FIXTURES", "random_tree", "random_measure_pair", "random_profile", "rng_for",
           "to_mpf", "mpf_pair"]
