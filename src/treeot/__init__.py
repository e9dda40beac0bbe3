"""Exact 1-Wasserstein distances on trees.

Highlights: an exact flow/potential solver on arbitrary finite trees, an
independent exact LP oracle with duality certificates, closed evaluations for
radially symmetric measures on regular trees (lazy random walks, spheres,
balls), their generating functions, and the rational coefficients of their
linear large-time asymptotics.

Import each name from the module that defines it (``treeot.tree``,
``treeot.lp``, ...); importing the package loads no submodule. The defaults
below live here because ``treeot``'s argument parser states them, and
building it loads none of the modules that use them.
"""

__version__ = "0.1.0"

#: Default truncation order of the family series; enough for time steps up
#: to ~60.
DEFAULT_ORDER = 64

#: Default seed of the verification suites.
DEFAULT_SEED = 20260808

#: The verification suites, in the order ``treeot verify all`` runs them.
SUITE_NAMES = ("duality", "triple", "series", "inequalities", "oeis", "gamma")
