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
import os
import stat
import sys
from math import gcd
from pathlib import Path

from .errors import TooLarge, TreeOTError
from .rational import _common_scale, _shown, format_rational, parse_rational
from .tree import Measure, Tree, validate_tree

#: Cap on the size of an instance file, read from the file system before any
#: parsing (a pipe is read to one byte past it). It admits a 10^6-vertex tree
#: with both measures on every vertex: ``bench/gen.py``'s ``random_instance(
#: random.Random(7), 10**6, 10**6)`` writes 180.8 MB, which ``treeot w1 --json``
#: runs in 16 s at a 1.1 GB peak RSS; 2^28 bytes (268 MB) is the power of two
#: above it. Larger files raise :class:`TooLarge`.
MAX_INSTANCE_BYTES = 2 ** 28

#: The JSON scalars a vertex id may be; lists and objects are refused.
_SCALAR_IDS = (str, int, float, type(None))

#: Each field of an instance document, with the types it may have.
_FIELDS = {"vertices": ((list, tuple), "a list of vertex ids"),
           "edges": ((list, tuple), "a list of edges"),
           "mu": (dict, "an object mapping vertex ids to masses"),
           "nu": (dict, "an object mapping vertex ids to masses")}


def _check_ids(field: str, ids) -> None:
    for label in ids:
        if not isinstance(label, _SCALAR_IDS):
            raise ValueError(f"{field!r} holds the vertex id {label!r}; "
                             f"a vertex id must be a JSON scalar")


def instance_from_dict(doc: dict) -> tuple[Tree, Measure, Measure]:
    """Validate an instance document into a tree and two dense-indexed measures.

    Raises :class:`ValueError` naming the field or the vertex id when the
    document is not an object, lacks a field, or has a field of the wrong
    shape: ``vertices`` and ``edges`` must be lists, ``mu`` and ``nu``
    objects, and every vertex id a JSON scalar. The edge ids are checked one
    by one only when :func:`validate_tree` refuses the graph. The masses of
    each side are grouped by denominator and read straight to integers over
    one scale; every spelling other than ASCII ``"p"`` or ``"p/q"`` goes to
    :func:`parse_rational`. Parse errors are named in document order, and
    then the first negative mass.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"an instance document must be a JSON object, got {type(doc).__name__}")
    for key, (kinds, expected) in _FIELDS.items():
        if key not in doc:
            raise ValueError(f"instance document is missing the {key!r} field")
        if not isinstance(doc[key], kinds):
            raise ValueError(f"the {key!r} field must be {expected}, "
                             f"got {type(doc[key]).__name__}")
    _check_ids("vertices", doc["vertices"])
    try:
        tree = validate_tree(doc["vertices"], doc["edges"])
    except (TreeOTError, ValueError, TypeError):
        # An id that is not a scalar is named first, as no graph check reads it.
        for edge in doc["edges"]:
            if isinstance(edge, (list, tuple)):
                _check_ids("edges", edge)
        raise
    if set(map(type, tree.labels)) == {str}:
        by_name = tree.index  # a str id is its own measure key
    else:
        by_name = {}
        for label, idx in tree.index.items():
            name = str(label)
            if name in by_name:
                raise ValueError(f"vertex ids {tree.labels[by_name[name]]!r} and {label!r} "
                                 f"share the measure key {name!r}")
            by_name[name] = idx
    digit_limit = sys.get_int_max_str_digits() or float("inf")

    def read_measure(field: str) -> Measure:
        # Vertices and numerators grouped by denominator: its spelling for a
        # mass of ASCII digits ("" for "p"), its int for one parse_rational read.
        groups: dict[str | int, tuple[list[int], list[str | int]]] = {}
        negative = None
        for name, raw in doc[field].items():
            v = by_name.get(name)
            if v is None:
                raise ValueError(f"{field}[{name!r}] references an unknown vertex")
            if type(raw) is str and raw.isascii() and len(raw) <= digit_limit:
                p, slash, q = raw.partition("/")
                if p.isdigit() and (q.isdigit() or not slash):
                    group = groups.get(q)
                    if group is None and int(q or 1):  # a zero denominator reads below
                        group = groups[q] = [], []
                    if group is not None:
                        group[0].append(v)
                        group[1].append(p)
                        continue
            try:
                m = parse_rational(raw)
            except ValueError as exc:
                raise ValueError(f"{field}[{_shown(name)}]: {exc}") from None
            if m < 0:
                negative = negative or f"{field}[{_shown(name)}]: negative mass {m}"
            else:
                group = groups.setdefault(m.denominator, ([], []))
                group[0].append(v)
                group[1].append(m.numerator)
        if negative:
            raise ValueError(negative)
        return _grouped_measure(groups)

    return tree, read_measure("mu"), read_measure("nu")


def _grouped_measure(groups: dict[str | int, tuple[list[int], list[str | int]]]) -> Measure:
    """The measure of masses p / q, grouped by q: each group reads its q and
    numerators once and reduces them by one gcd, since the lcm of the reduced
    denominators q / gcd(p_i, q) over a group is q / gcd(q, p_1, ..., p_k)."""
    reduced = []
    count = 0
    for q, (vs, ps) in groups.items():
        q, ps = int(q or 1), list(map(int, ps))
        g = gcd(q, *ps)
        reduced.append((q // g, vs, [p // g for p in ps] if g > 1 else ps))
        count += len(ps) - ps.count(0)
    scale = _common_scale({q for q, _, _ in reduced}, count)
    num: dict[int, int] = {}
    for q, vs, ps in reduced:
        num.update(zip(vs, map((scale // q).__mul__, ps)))
    if count < len(num):  # some mass is zero
        num = {v: x for v, x in num.items() if x}
    return Measure._of(num, scale)


def instance_to_dict(tree: Tree, mu: Measure, nu: Measure) -> dict:
    return {
        "vertices": list(tree.labels),
        "edges": [[tree.labels[u], tree.labels[v]] for u, v in tree.edges],
        "mu": {str(tree.labels[v]): format_rational(m) for v, m in sorted(mu.masses.items())},
        "nu": {str(tree.labels[v]): format_rational(m) for v, m in sorted(nu.masses.items())},
    }


def load_instance(path: str | Path) -> tuple[Tree, Measure, Measure]:
    """The instance in the JSON file at ``path``; a file over
    :data:`MAX_INSTANCE_BYTES` raises :class:`TooLarge` before it is parsed."""
    with open(path, "r", encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        if st.st_size > MAX_INSTANCE_BYTES:
            raise TooLarge(f"{path}: {st.st_size:,} bytes exceed the {MAX_INSTANCE_BYTES:,}-byte "
                           f"cap on an instance file")
        try:
            if stat.S_ISREG(st.st_mode):
                doc = json.load(fh)
            else:  # a pipe has no size to read: take at most one byte past the cap
                data = fh.buffer.read(MAX_INSTANCE_BYTES + 1)
                if len(data) > MAX_INSTANCE_BYTES:
                    raise TooLarge(f"{path}: more than the {MAX_INSTANCE_BYTES:,} bytes "
                                   f"allowed in an instance file")
                doc = json.loads(data.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start}); "
                             f"an instance file must be UTF-8 JSON") from exc
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON arrays or objects nested too deeply to read "
                             f"(Python's recursion limit is {sys.getrecursionlimit()})") from exc
        except ValueError as exc:  # the one left: an integer past Python's digit limit
            raise ValueError(f"{path}: a JSON number has over {sys.get_int_max_str_digits()} "
                             f"digits, Python's limit for integer strings; masses travel "
                             f"as \"p/q\" strings") from exc
    return instance_from_dict(doc)


def dump_instance(tree: Tree, mu: Measure, nu: Measure, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(tree, mu, nu), fh, indent=2, sort_keys=False)
        fh.write("\n")

