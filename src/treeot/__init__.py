"""Exact 1-Wasserstein distances on trees.

Highlights: an exact flow/potential solver on arbitrary finite trees, an
independent exact LP oracle with duality certificates, closed evaluations for
radially symmetric measures on regular trees (lazy random walks, spheres,
balls), their generating functions, and the rational coefficients of their
linear large-time asymptotics.

Import each name from the module that defines it (``treeot.tree``,
``treeot.lp``, ...); importing the package loads no submodule.
"""

__version__ = "0.1.0"
