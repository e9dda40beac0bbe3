"""JSON instance schema: a tree plus two measures with exact rational masses.

Document shape::

    {"vertices": [...], "edges": [[u, v], ...],
     "mu": {"<vertex>": "p/q", ...}, "nu": {...}}

Vertex ids are arbitrary JSON scalars; measure keys are their string forms,
so no two ids may have the same string form. Rationals travel as strings so
exactness survives the round trip.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .rational import format_rational, parse_rational
from .tree import Measure, Tree, validate_tree


def instance_from_dict(doc: dict) -> tuple[Tree, Measure, Measure]:
    """Validate an instance document into a tree and two dense-indexed measures."""
    for key in ("vertices", "edges", "mu", "nu"):
        if key not in doc:
            raise ValueError(f"instance document is missing the {key!r} field")
    tree = validate_tree(doc["vertices"], doc["edges"])
    by_name: dict[str, int] = {}
    for label, idx in tree.index.items():
        name = str(label)
        if name in by_name:
            raise ValueError(f"vertex ids {tree.labels[by_name[name]]!r} and {label!r} "
                             f"share the measure key {name!r}")
        by_name[name] = idx

    def read_measure(field: str) -> Measure:
        masses: dict[int, Fraction] = {}
        for name, raw in doc[field].items():
            if name not in by_name:
                raise ValueError(f"{field}[{name!r}] references an unknown vertex")
            masses[by_name[name]] = parse_rational(raw)
        return Measure(masses)

    return tree, read_measure("mu"), read_measure("nu")


def instance_to_dict(tree: Tree, mu: Measure, nu: Measure) -> dict:
    return {
        "vertices": list(tree.labels),
        "edges": [[tree.labels[u], tree.labels[v]] for u, v in tree.edges],
        "mu": {str(tree.labels[v]): format_rational(m) for v, m in sorted(mu.masses.items())},
        "nu": {str(tree.labels[v]): format_rational(m) for v, m in sorted(nu.masses.items())},
    }


def load_instance(path: str | Path) -> tuple[Tree, Measure, Measure]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
    return instance_from_dict(doc)


def dump_instance(tree: Tree, mu: Measure, nu: Measure, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(tree, mu, nu), fh, indent=2, sort_keys=False)
        fh.write("\n")


def demo_instance() -> dict:
    """The bundled 11-vertex worked example.

    Unit surpluses sit at the five mu vertices and deficits of total size 5 at
    the three nu vertices; the transport distance is exactly 12, reachable by
    flow, potential, and LP alike.
    """
    return {
        "vertices": ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11"],
        "edges": [
            ["v1", "v3"], ["v2", "v3"], ["v3", "v6"], ["v5", "v6"], ["v6", "v8"],
            ["v4", "v7"], ["v7", "v8"], ["v8", "v9"], ["v9", "v10"], ["v9", "v11"],
        ],
        "mu": {"v1": "1", "v5": "1", "v9": "1", "v10": "1", "v11": "1"},
        "nu": {"v4": "1", "v6": "2", "v7": "2"},
    }
