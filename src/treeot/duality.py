"""The tree routes of one instance, checked against each other and against
the LP oracle.

:func:`duality_cell` runs the flow route and the potential route of
:mod:`treeot.tree` and, under the oracle's support cap, the LP of
:mod:`treeot.lp`, which reads no function of the flow route. It is the one
agreement check of ``treeot w1 FILE`` and of the ``duality`` suite.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TooLarge
from .lp import verify_duality
from .rational import format_rational
from .tree import (Measure, Tree, assignment_from, flow_cost, good_potential, is_edge_lipschitz,
                   potential_value, unique_flow)


def duality_cell(tree: Tree, mu: Measure, nu: Measure) -> tuple[dict[str, Fraction], dict, bool]:
    """The tree routes on one instance: flow, potential and, under the LP's
    support cap, lp; the block that ``treeot w1 --json`` prints after
    ``agree``, ``{"duality": {"primal", "dual", "certificate"}}`` or
    ``{"lp_skipped": reason}``; and whether the routes agree. Agreement needs
    equal values and an adapted potential that is 1-Lipschitz, checked once
    per instance at every size and before the LP; with the LP, also an
    optimal certificate, and the plan's complementary slackness and exact
    marginals, which :func:`verify_duality` decides."""
    rho = assignment_from(mu, nu)
    flow = unique_flow(tree, rho)
    paths = {"flow": flow_cost(flow)}
    phi = good_potential(tree, flow)
    paths["potential"] = potential_value(rho, phi)
    if not is_edge_lipschitz(phi, tree):  # the potential route's fault, not the input's
        return paths, {"lp_skipped": "the adapted potential is infeasible: potential "
                                     "jumps by more than 1 across an edge"}, False
    try:
        primal, certified = verify_duality(tree, mu, nu, phi)
    except TooLarge as exc:
        return paths, {"lp_skipped": str(exc)}, paths["flow"] == paths["potential"]
    paths["lp"] = primal
    dual = paths["potential"]
    ok = len(set(paths.values())) == 1 and certified
    return paths, {"duality": {"primal": format_rational(primal), "dual": format_rational(dual),
                               "certificate": primal == dual}}, ok
