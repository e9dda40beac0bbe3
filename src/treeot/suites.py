"""Runnable verification suites behind the ``verify`` CLI subcommand.

Each suite replays a family of identities with fresh randomness (seeded, so
runs are reproducible) and returns a report of per-case records; the CLI
turns the report into JSON and an exit status.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .asymptotics import InequalityReport, gamma_asymptotic, interval_mid, verify_inequalities
from .families import (bundle_from_table, check_functional_equation, srw_closed_form,
                       srw_g_table, srw_return_sequence)
from .errors import TooLarge
from .lp import (DualityReport, FiniteGraph, _check_support, check_complementary_slackness,
                 verify_duality)
from .rational import decimal_string, format_rational
from .regular import (PairGeometry, RadialProfile, TruncatedRegularTree, build_truncated_tree,
                      radial_measure, w1_radial_flow_formula, w1_radial_formula)
from .series import Series
from .tree import (Measure, Tree, assignment_from, flow_cost, good_potential, potential_value,
                   unique_flow, validate_tree, w1_tree)

DEFAULT_SEED = 20260808

#: Default (alpha, d, q) grid of the coefficient chain, for the
#: ``inequalities`` suite and ``treeot verify-ineq``.
INEQUALITY_GRID = {"alpha": (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)),
                   "d": tuple(range(1, 7)), "q": tuple(range(2, 11))}


@dataclass
class CaseRecord:
    params: dict
    provenance: str
    passed: bool
    w1: str | None = None
    w1_decimal: str | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        doc = {"params": self.params, "provenance": self.provenance, "passed": self.passed}
        if self.w1 is not None:
            doc["w1"] = self.w1
            doc["w1_decimal"] = self.w1_decimal
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass
class RunReport:
    suite: str
    seed: int
    records: list[CaseRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(r.passed for r in self.records)
        return ok, len(self.records)

    def add(self, params: dict, provenance: str, passed: bool,
            w1: Fraction | None = None, detail: str = "") -> None:
        self.records.append(CaseRecord(
            params=params, provenance=provenance, passed=passed,
            w1=None if w1 is None else format_rational(w1),
            w1_decimal=None if w1 is None else decimal_string(w1),
            detail=detail))

    def as_dict(self) -> dict:
        ok, total = self.counts
        return {"suite": self.suite, "seed": self.seed, "passed": self.passed,
                "cases_passed": ok, "cases_total": total,
                "records": [r.as_dict() for r in self.records]}


def random_tree(rng: random.Random, n: int):
    """Uniform labeled tree on n >= 2 vertices from a random code sequence."""
    if n == 2:
        return validate_tree(range(2), [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    import heapq

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


def duality_cell(tree: Tree, mu: Measure,
                 nu: Measure) -> tuple[dict[str, Fraction], DualityReport | str, bool]:
    """The tree routes on one instance: flow, potential and, under the LP's
    support cap, lp; the duality report, or the LP's refusal text; and whether
    they agree. With the LP, agreement also needs an optimal certificate,
    complementary slackness and a plan with exact marginals."""
    rho = assignment_from(mu, nu)
    flow = unique_flow(tree, rho)
    paths = {"flow": flow_cost(flow)}
    phi = good_potential(tree, flow)
    paths["potential"] = potential_value(rho, phi)
    try:
        # Before the graph: a tree builds its edges and adjacency only when read.
        _check_support(mu, nu)
    except TooLarge as exc:
        return paths, str(exc), paths["flow"] == paths["potential"]
    graph = FiniteGraph.from_tree(tree)
    duality = verify_duality(graph, mu, nu, phi)
    paths["lp"] = duality.primal
    ok = (len(set(paths.values())) == 1 and duality.optimal_certificate
          and check_complementary_slackness(graph, duality.plan, phi)
          and duality.plan.satisfies_marginals(mu, nu))
    return paths, duality, ok


def suite_duality(seed: int = DEFAULT_SEED) -> RunReport:
    """Tree route == LP route, optimality certificates, complementary slackness."""
    report = RunReport("duality", seed)
    rng = random.Random(seed)
    for case in range(150):
        n = rng.randint(2, 12)
        tree = random_tree(rng, n)
        mu, nu = random_measure_pair(rng, n)
        paths, duality, ok = duality_cell(tree, mu, nu)
        report.add({"case": case, "vertices": n}, "lp", ok, w1=paths["lp"],
                   detail="" if ok else f"{paths} {duality.as_dict()}")
    return report


def triple_cell(profile: RadialProfile, geometry: PairGeometry
                ) -> tuple[dict[str, Fraction], TruncatedRegularTree, Measure, Measure, bool]:
    """The radial routes for one profile: vertex-class sum (formula), edge-class
    sum (flow-sum) and tree flow on the smallest exact truncation; that
    truncation and its X- and Y-centered measures; and whether the routes agree."""
    d = geometry.d
    truncation = build_truncated_tree(geometry.q, d, profile.support_radius + d)
    mu = radial_measure(truncation, truncation.x, profile)
    nu = radial_measure(truncation, truncation.y, profile)
    paths = {"formula": w1_radial_formula(profile, geometry),
             "flow-sum": w1_radial_flow_formula(profile, geometry),
             "tree": w1_tree(truncation.tree, mu, nu)}
    return paths, truncation, mu, nu, len(set(paths.values())) == 1


def suite_triple(seed: int = DEFAULT_SEED) -> RunReport:
    """Vertex-class sum == edge-class sum == tree flow, on random profiles."""
    report = RunReport("triple", seed)
    rng = random.Random(seed)
    for q in (2, 3):
        for d in (1, 2, 3):
            geom = PairGeometry(q, d)
            for case in range(8):
                profile = random_profile(rng, max_radius=4 if q == 2 else 3)
                paths, *_, ok = triple_cell(profile, geom)
                report.add({"q": q, "d": d, "case": case,
                            "profile": [str(x) for x in profile.values]},
                           "formula", ok, w1=paths["formula"], detail="" if ok else str(paths))
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
            rows = [list(row) for row in table.rows]
            holds = check_functional_equation(rows, alpha, q)
            report.add({"alpha": str(alpha), "q": q, "order": order, "check": "functional-eq"},
                       "genfun", holds)
            # A perturbed table must be rejected.
            rows[1][2] += Fraction(1, 7)
            report.add({"alpha": str(alpha), "q": q, "order": order, "check": "perturbation"},
                       "genfun", not check_functional_equation(rows, alpha, q))
    return report


def inequality_cell(alpha: Fraction, d: int, q: int) -> tuple[InequalityReport, bool]:
    """The coefficient chain at one grid cell, and whether the cell passes:
    the chain holds and B_ball meets its 1/3 floor exactly at (d, q) = (1, 2)."""
    res = verify_inequalities(alpha, d, q)
    return res, res.passed and res.ball_floor_equality == ((d, q) == (1, 2))


def suite_inequalities(seed: int = DEFAULT_SEED) -> RunReport:
    """Coefficient ordering chain over the full parameter grid."""
    report = RunReport("inequalities", seed)
    for alpha in INEQUALITY_GRID["alpha"]:
        for d in INEQUALITY_GRID["d"]:
            for q in INEQUALITY_GRID["q"]:
                res, ok = inequality_cell(alpha, d, q)
                report.add({"alpha": str(alpha), "d": d, "q": q}, "formula", ok,
                           detail="" if ok else str(res.as_dict()))
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


SUITES: dict[str, Callable[..., RunReport]] = {
    "duality": suite_duality,
    "triple": suite_triple,
    "series": suite_series,
    "inequalities": suite_inequalities,
    "oeis": suite_oeis,
    "gamma": suite_gamma,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[RunReport]:
    if name == "all":
        return [SUITES[key](seed) for key in SUITE_NAMES]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return [SUITES[name](seed)]
