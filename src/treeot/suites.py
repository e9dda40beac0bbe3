"""Runnable verification suites behind the ``verify`` CLI subcommand.

Each suite replays a family of identities with fresh randomness (seeded, so
runs are reproducible) and returns a report of per-case records; the CLI
turns the report into JSON and an exit status.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from typing import Callable

from . import DEFAULT_SEED, SUITE_NAMES
from .asymptotics import INEQUALITY_GRID, gamma_asymptotic, interval_mid, verify_inequalities
from .families import (bundle_from_table, check_functional_equation, srw_closed_form,
                       srw_g_table, srw_return_sequence)
from .duality import duality_cell
from .rational import decimal_string, format_rational
from .regular import PairGeometry, RadialProfile, triple_cell
from .series import Series
from .tree import Measure, validate_tree


class RunReport:
    """One suite run: its name, its seed and one JSON record per case, as
    :meth:`add` builds it. Reports compare by all three."""

    __slots__ = ("suite", "seed", "records")

    def __init__(self, suite: str, seed: int, records: list[dict] | None = None):
        self.suite = suite
        self.seed = seed
        self.records = [] if records is None else records

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.seed, self.records) == (other.suite, other.seed, other.records)

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.records)

    def add(self, params: dict, provenance: str, passed: bool,
            w1: Fraction | None = None, detail: str = "") -> None:
        """Record one case: its params, provenance and verdict, then ``w1``
        exactly and in decimal when given, then ``detail`` when not empty."""
        record = {"params": params, "provenance": provenance, "passed": passed}
        if w1 is not None:
            record["w1"] = format_rational(w1)
            record["w1_decimal"] = decimal_string(w1)
        if detail:
            record["detail"] = detail
        self.records.append(record)

    def as_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "passed": self.passed,
                "cases_passed": sum(r["passed"] for r in self.records),
                "cases_total": len(self.records), "records": self.records}


def random_tree(rng: random.Random, n: int):
    """Uniform labeled tree on n >= 2 vertices from a random code sequence."""
    if n == 2:
        return validate_tree(range(2), [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return validate_tree(range(n), edges)


def random_measure_pair(rng: random.Random, n: int) -> tuple[Measure, Measure]:
    """Two random rational measures of equal (positive) total mass."""
    while True:
        mu = Measure({v: Fraction(rng.randint(0, 6), rng.randint(1, 8))
                      for v in rng.sample(range(n), rng.randint(1, n))})
        nu = Measure({v: Fraction(rng.randint(0, 6), rng.randint(1, 8))
                      for v in rng.sample(range(n), rng.randint(1, n))})
        if mu.total() and nu.total():
            return mu, nu.scaled(mu.total() / nu.total())


def random_profile(rng: random.Random, max_radius: int) -> RadialProfile:
    """Random finitely supported profile; one in five is a two-shell annulus."""
    if rng.random() < 0.2:
        top = rng.randint(1, max_radius) if max_radius >= 1 else 0
        inner = rng.randint(0, top)
        mass = Fraction(rng.randint(1, 5), rng.randint(1, 6))
        values = [Fraction(0)] * (top + 1)
        values[inner] = mass
        values[top] = mass
        return RadialProfile(tuple(values))
    while True:
        top = rng.randint(0, max_radius)
        values = [Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(top + 1)]
        if any(values):
            return RadialProfile(tuple(values))


def suite_duality(seed: int = DEFAULT_SEED) -> RunReport:
    """Tree route == LP route, optimality certificates, complementary slackness."""
    report = RunReport("duality", seed)
    rng = random.Random(seed)
    for case in range(150):
        n = rng.randint(2, 12)
        tree = random_tree(rng, n)
        mu, nu = random_measure_pair(rng, n)
        paths, block, ok = duality_cell(tree, mu, nu)
        report.add({"case": case, "vertices": n}, "lp", ok, w1=paths.get("lp"),
                   detail="" if ok else f"{paths} {block}")
    return report


def suite_triple(seed: int = DEFAULT_SEED) -> RunReport:
    """Vertex-class sum == edge-class sum == tree flow, on random profiles."""
    report = RunReport("triple", seed)
    rng = random.Random(seed)
    # d = 5 and 6 follow on the same rng: they are the first distances whose
    # class weights take every branch of the recurrence.
    for ds, cases in (((1, 2, 3), 8), ((5, 6), 4)):
        for q in (2, 3):
            for d in ds:
                geom = PairGeometry(q, d)
                for case in range(cases):
                    profile = random_profile(rng, max_radius=4 if q == 2 else 3)
                    paths, *_, ok = triple_cell(profile, geom)
                    report.add({"q": q, "d": d, "case": case,
                                "profile": [str(x) for x in profile.values]},
                               "formula", ok, w1=paths["formula"],
                               detail="" if ok else str(paths))
    return report


def suite_series(seed: int = DEFAULT_SEED) -> RunReport:
    """Closed form == recurrence table, and the defining functional equation."""
    report = RunReport("series", seed)
    order = 24
    for alpha in (Fraction(0), Fraction(1, 2)):
        for q in (2, 3):
            table = srw_g_table(alpha, q, order)
            bundle = bundle_from_table(table)
            closed = srw_closed_form(alpha, q, order)
            same = (closed.gammas[0] == bundle.gammas[0]
                    and closed.g_at_q == bundle.g_at_q
                    and closed.g1_at_q == bundle.g1_at_q)
            report.add({"alpha": str(alpha), "q": q, "order": order, "check": "closed-vs-table"},
                       "genfun", same)
            holds = check_functional_equation(table, alpha)
            report.add({"alpha": str(alpha), "q": q, "order": order, "check": "functional-eq"},
                       "genfun", holds)
            # A table with one entry changed, g(1, 2) here, must be rejected.
            columns = list(table.columns)
            columns[2] = (columns[2][0], columns[2][1] + 1, *columns[2][2:])
            perturbed = table._replace(columns=tuple(columns))
            report.add({"alpha": str(alpha), "q": q, "order": order, "check": "perturbation"},
                       "genfun", not check_functional_equation(perturbed, alpha))
    return report


def suite_inequalities(seed: int = DEFAULT_SEED) -> RunReport:
    """Coefficient ordering chain over the full parameter grid."""
    report = RunReport("inequalities", seed)
    for alpha in INEQUALITY_GRID["alpha"]:
        for d in INEQUALITY_GRID["d"]:
            for q in INEQUALITY_GRID["q"]:
                record = verify_inequalities(alpha, d, q)
                ok = record["passed"]
                report.add({"alpha": str(alpha), "d": d, "q": q}, "formula", ok,
                           detail="" if ok else str(record))
    return report


def suite_oeis(seed: int = DEFAULT_SEED) -> RunReport:
    """Scaled return-mass integer sequences against their catalogued values."""
    report = RunReport("oeis", seed)
    # The return masses scaled by den(alpha)^n, that is c_n / (q + 1)^n, are
    # catalogued integer sequences.
    for alpha, q, catalogued in ((Fraction(1, 5), 3, [1, 1, 5, 13, 53]),
                                 (Fraction(1, 7), 5, [1, 1, 7, 19, 103, 391, 1957])):
        terms, unit = len(catalogued), q + 1
        seq, _ = srw_return_sequence(alpha, q, terms + 1)
        got = [seq[n] // unit ** n for n in range(terms)]
        rem = all(seq[n] % unit ** n == 0 for n in range(terms))
        report.add({"alpha": str(alpha), "q": q, "scale": f"{alpha.denominator}^n"}, "genfun",
                   rem and got == catalogued, detail=f"got {got}")
    # Non-lazy q=2 even steps against the closed generating function in x.
    order = 15
    root = Series([1, -8], order=order).sqrt()
    closed = Fraction(4) / (1 + 3 * root)
    seq, base = srw_return_sequence(Fraction(0), 2, 2 * order)
    walks = [Fraction(seq[2 * n], base ** (2 * n)) * 3 ** (2 * n) for n in range(order + 1)]
    ok = walks == [closed[n] for n in range(order + 1)]
    report.add({"alpha": "0", "q": 2, "scale": "3^(2n)", "order": order}, "genfun", ok,
               detail=f"first terms {[str(w) for w in walks[:5]]}")
    return report


def suite_gamma(seed: int = DEFAULT_SEED) -> RunReport:
    """Return-mass coefficients track their predicted growth within 10%."""
    report = RunReport("gamma", seed)
    order = 512
    for alpha, q in ((Fraction(1, 5), 2), (Fraction(1, 5), 3),
                     (Fraction(0), 2), (Fraction(0), 3)):
        seq, base = srw_return_sequence(alpha, q, order)
        growth = gamma_asymptotic(alpha, q)
        if alpha == 0:
            odd_ok = all(seq[k] == 0 for k in range(1, order, 2))
            report.add({"alpha": str(alpha), "q": q, "check": "odd-zero"}, "genfun", odd_ok)
        deviations = []
        for n in (100, 400):
            ratio = Fraction(seq[n], base ** n) / interval_mid(growth.leading_term(n))
            deviations.append(abs(ratio - 1))
        ok = deviations[-1] < Fraction(1, 10) and deviations[0] > deviations[-1]
        report.add({"alpha": str(alpha), "q": q, "check": "ratio"}, "genfun", ok,
                   detail=f"|ratio-1| at 100/400 = {float(deviations[0]):.4f}/"
                          f"{float(deviations[1]):.4f}")
    return report


#: Each suite under its name in :data:`treeot.SUITE_NAMES`, in that order.
SUITES: dict[str, Callable[..., RunReport]] = dict(zip(SUITE_NAMES, (
    suite_duality, suite_triple, suite_series, suite_inequalities, suite_oeis, suite_gamma),
    strict=True))


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[RunReport]:
    if name == "all":
        return [SUITES[key](seed) for key in SUITE_NAMES]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return [SUITES[name](seed)]
