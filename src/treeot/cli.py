"""Command-line front end.

Subcommands:

* ``w1 INSTANCE.json``         exact distance of a tree instance via flow,
  potential, and (when small enough) the LP oracle, with an agreement check.
* ``sweep``                    tables of exact distances vs their linear
  asymptotes over parameter grids, as CSV or JSON.
* ``series``                   coefficient dump of the generating-function
  evaluations for one family.
* ``asym``                     the (A, B) coefficients for one family.
* ``verify-ineq``              the coefficient ordering chain over a grid.
* ``verify SUITE``             seeded verification suites; exit status 0 iff
  every check passed.

Each family's profile keys are in :data:`FAMILIES`, and its routines are
looked up by :func:`_profile_routine`, :func:`_asymptote_routine` and
:func:`_genfun_routine`, called with :func:`_leads` first; :func:`_write_rows`
prints every table.

The module loads only what every command needs. Each command imports the
modules it runs when it starts: ``w1 FILE`` adds ``duality`` and ``lp`` to
``tree`` and ``instances``, ``w1 --radial`` adds ``regular`` (and
``families`` for a walk), and only ``verify`` loads ``suites``, which
imports all the others.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_ORDER, DEFAULT_SEED, SUITE_NAMES
from .errors import InvalidParams, TreeOTError, TooLarge
from .instances import dump_instance, load_instance
from .rational import _shown, decimal_string, format_rational, parse_rational
# Never called here: the benchmark's tracer test checks its rewiring through
# the binding ``treeot.cli.unique_flow``, so the name stays importable.
from .tree import unique_flow  # noqa: F401

if TYPE_CHECKING:
    from .regular import RadialProfile

#: The families of ``sweep``, ``series``, ``asym`` and ``w1 --radial``, each
#: with the keys of its named profile (:func:`parse_profile_spec`), the size
#: key last: the walk's laziness, then its time step or the radius.
FAMILIES = {"srw": ("alpha", "n"), "sphere": ("r",), "ball": ("r",)}

#: Cap on the work of one ``sweep``: (floor(d/2) + 1)(n + 1) big-integer steps
#: per cell, summed over every cell of the grid. That bounds the class sum's
#: work: each geometry makes its n + 1 weights once, and each cell is an
#: (n + 1)-term dot product. Grids at the cap run in 0.07 s at d = 2,048
#: (``--n 0..62``) and in 5.5 s for 100 walk lazinesses at d = 1, q = 2,
#: n = 0..200, where the G-tables and the rendering take the time (fresh
#: processes, 2 vCPUs, Python 3.11.7); larger grids raise :class:`TooLarge`.
MAX_SWEEP_STEPS = 2 ** 21

#: Cap on the cells of one ``verify-ineq`` grid, the product of its list
#: lengths. A cell checks the coefficient chain in about 0.2 ms (0.5 ms at a
#: 2,000-bit q), so a grid at the cap runs in about a second; larger grids raise
#: :class:`TooLarge`. The default grid has 216 cells.
MAX_INEQUALITY_CELLS = 2 ** 12


def _refused(text: str, chunk: str, kind: str, fault: str) -> ValueError:
    """The error for a bad ``chunk`` of the list ``text``, naming both, or
    only the list when the chunk is all of it."""
    where = "" if chunk == text else f"{kind} {_shown(chunk)} in the "
    return ValueError(f"the {where}list {_shown(text)} {fault}")


def _list_chunks(text: str, read=int) -> list:
    """``"2"``, ``"1,3,5"`` or, for ints, ``"1..6"`` as its chunks: a
    ``range`` for each ``lo..hi`` and a 1-tuple for each value, none of them
    built. Each chunk is counted as it is read: a list spelling out more than
    :data:`MAX_SWEEP_STEPS` entries, repeats included, raises :class:`TooLarge`.
    A range spelling out none (``"5..1"``), or an int entry or range end that
    is not an integer, raises :class:`ValueError` naming the list and the chunk."""
    chunks: list = []
    count = 0
    for chunk in text.split(","):
        if read is int and ".." in chunk:
            try:
                lo, hi = map(int, chunk.split(".."))
            except ValueError:
                raise _refused(text, chunk, "range",
                               "cannot be read as lo..hi with integer ends") from None
            if hi < lo:
                raise _refused(text, chunk, "range", "spells out no entries")
            chunks.append(range(lo, hi + 1))
            count += hi - lo + 1  # len() of a range fails past 2^63
        else:
            try:
                chunks.append((read(chunk),))
            except ValueError:
                if read is not int:
                    raise  # parse_rational names the entry itself
                raise _refused(text, chunk, "entry", "cannot be read as an integer") from None
            count += 1
        if count > MAX_SWEEP_STEPS:
            raise TooLarge(f"the list {_shown(text)} spells out more than "
                           f"{MAX_SWEEP_STEPS:,} entries, the cap on a grid list")
    return chunks


def _distinct(chunks: list) -> list:
    """The values of :func:`_list_chunks`' chunks, each once, in first-seen
    order, compared by value."""
    return list(dict.fromkeys(itertools.chain.from_iterable(chunks)))


def _parse_list(text: str, read=int) -> list:
    """The distinct values of a list (see :func:`_list_chunks`)."""
    return _distinct(_list_chunks(text, read))


def _profile_routine(family: str):
    """The family's profile routine; the walk's takes its laziness first.
    This and the two lookups below import the routine's module and read its
    name at each call: a command loads only the module of the routine it
    runs, and a rebinding of that module's name (the benchmark's tracer, a
    test's stub) reaches every command."""
    if family == "srw":
        from .families import srw_profile
        return srw_profile
    from .regular import ball_profile, sphere_profile
    return ball_profile if family == "ball" else sphere_profile


def _asymptote_routine(family: str):
    """The family's asymptote routine, (d, q) after the walk's laziness."""
    from .asymptotics import ball_AB, sphere_AB, srw_AB
    return {"srw": srw_AB, "sphere": sphere_AB, "ball": ball_AB}[family]


def _genfun_routine(family: str):
    """The family's generating-function routine, (q, order) after the walk's
    laziness."""
    from .families import ball_gf, sphere_gf, srw_closed_form
    return {"srw": srw_closed_form, "sphere": sphere_gf, "ball": ball_gf}[family]


def _support_radius(spec: str, fields: dict, key: str, q: int, d: int) -> int:
    """A named profile's support radius ``fields[key]``; refuses a missing
    key or a value that is not an integer, naming the key and the spec, and
    a truncation of that radius at center distance ``d`` (the one
    :func:`~treeot.regular.triple_cell` builds) over the size cap, before
    the profile is built."""
    from .regular import truncation_size

    if key not in fields:
        raise ValueError(f"profile {_shown(spec)} needs its size key {key}")
    value = fields[key]
    try:
        radius = int(value)
    except ValueError:
        raise ValueError(f"profile {_shown(spec)} needs an integer {key}, "
                         f"got {_shown(value)}") from None
    truncation_size(q, d, radius)
    return radius


def parse_profile_spec(spec: str, q: int, d: int) -> tuple[str, RadialProfile]:
    """Profile mini-language: ``srw:alpha=1/2,n=6`` | ``sphere:r=6`` |
    ``ball:r=6`` | ``custom:[1/2,0,1/3]``, as ``(kind, profile)``. A named kind
    takes each of its own keys (:data:`FAMILIES`) at most once, as
    ``key=value``; it needs its size key, while the walk's ``alpha`` defaults
    to 0. It is sized against the truncation cap at center distance ``d``
    first."""
    from .regular import RadialProfile

    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "custom":
        body = rest.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"custom profile needs a [..] list, got {rest!r}")
        tokens = body[1:-1].split(",") if body[1:-1].strip() else []
        if not all(tok.strip() for tok in tokens):
            raise ValueError(f"custom profile {_shown(spec)} has an empty entry")
        values = [parse_rational(tok) for tok in tokens]
        return "custom", RadialProfile(tuple(values))
    if kind not in FAMILIES:
        raise ValueError(f"unknown profile kind {kind!r}")
    *lead_keys, size_key = keys = FAMILIES[kind]
    fields = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"profile item {_shown(item)} is not key=value")
        if key not in keys:
            raise ValueError(f"profile item {_shown(item)} has an unknown key; "
                             f"{kind} takes {', '.join(keys)}")
        if key in fields:
            raise ValueError(f"profile item {_shown(item)} repeats the key {key!r}")
        fields[key] = value.strip()
    lead = [parse_rational(fields.get(key, "0")) for key in lead_keys]
    size = _support_radius(spec, fields, size_key, q, d)
    return kind, _profile_routine(kind)(*lead, q, size)


def _print_w1(args: argparse.Namespace, paths: dict[str, Fraction], agree: bool,
              head: dict, tail: dict, notes: list[str]) -> int:
    """One ``w1`` report, as JSON or text, and its exit status: 0 iff the
    routes agree. The first route's value is the distance."""
    value = next(iter(paths.values()))
    doc = {**head, "w1": format_rational(value), "w1_decimal": decimal_string(value),
           "paths": {k: format_rational(v) for k, v in paths.items()}, "agree": agree, **tail}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for name, v in paths.items():
            print(f"w1 via {name}: {format_rational(v)}")
        for note in notes:
            print(note)
        print(f"w1 = {doc['w1']} ({doc['w1_decimal']})")
        print(f"agreement: {'ok' if agree else 'MISMATCH'}")
    return 0 if agree else 1


def _cmd_w1(args: argparse.Namespace) -> int:
    if args.radial is not None and args.instance:
        raise ValueError(f"the instance file {args.instance!r} and --radial clash: "
                         f"give one of them")
    if args.radial is not None:
        return _cmd_w1_radial(args)
    if not args.instance:
        raise ValueError("give an instance file, or --radial with --q/--d")
    from .duality import duality_cell

    radial_only = [flag for flag, value in (("--q", args.q), ("--d", args.d),
                                            ("--emit-instance", args.emit_instance))
                   if value is not None]
    if radial_only:
        raise ValueError(f"w1 reads {', '.join(radial_only)} only with --radial, not with "
                         f"the instance file {args.instance!r}")
    paths, block, agree = duality_cell(*load_instance(args.instance))
    cert = block.get("duality")
    note = (f"duality certificate: primal={cert['primal']} dual={cert['dual']} "
            f"optimal={cert['certificate']}" if cert else f"lp skipped: {block['lp_skipped']}")
    return _print_w1(args, paths, agree, {}, block, [note])


def _cmd_w1_radial(args: argparse.Namespace) -> int:
    """Distance between the X- and Y-centered copies of one radial profile,
    via the class-sum formula, the edge-sum formula, and the tree flow."""
    from .regular import PairGeometry, triple_cell

    if args.q is None or args.d is None:
        raise ValueError("--radial needs --q and --d")
    geometry = PairGeometry(args.q, args.d)
    kind, profile = parse_profile_spec(args.radial, args.q, args.d)
    paths, truncation, mu, nu, agree = triple_cell(profile, geometry)
    if args.emit_instance:
        dump_instance(truncation.tree, mu, nu, args.emit_instance)
    head = {"profile": args.radial, "kind": kind, "q": args.q, "d": args.d}
    return _print_w1(args, paths, agree, head, {}, [])


def _leads(args: argparse.Namespace, many: bool = False) -> list[list]:
    """The first arguments of a family's routines: ``[alpha]`` per walk
    laziness in ``--alpha`` (a list when ``many``; 0 when not given), or
    ``[[]]`` for spheres and balls, which refuse ``--alpha``."""
    if args.family != "srw":
        if args.alpha is not None:
            raise ValueError(f"{args.command} reads --alpha only with --family srw, "
                             f"not with --family {args.family}")
        return [[]]
    text = "0" if args.alpha is None else args.alpha
    return [[alpha] for alpha in (_parse_list(text, parse_rational) if many
                                  else [parse_rational(text)])]


def _check_series_size(knob: str, size: int, leads: list[list], qs: list[int]) -> None:
    """Refuse, before any work, a family run whose denominators could pass
    :data:`~treeot.regular.MAX_SERIES_BITS`: bits(S) * size, S = den(alpha) * (q+1)."""
    from .regular import MAX_SERIES_BITS

    scale = max((lead[0].denominator if lead else 1) * (q + 1) for lead in leads for q in qs)
    if scale.bit_length() * size > MAX_SERIES_BITS:
        raise TooLarge(f"{knob} {size} with a {scale.bit_length()}-bit per-step scale "
                       f"needs {scale.bit_length() * size}-bit denominators, over the "
                       f"{MAX_SERIES_BITS}-bit series cap")


def _write_rows(rows: list[dict], form: str, out: str | None = None) -> None:
    """``rows`` as a JSON list, or as CSV headed by the first row's keys, to
    the file ``out`` when it is given, else to stdout.

    The JSON is the bytes of ``json.dumps(rows, indent=2)``. Each row is a
    flat dict of scalars, so the C encoder writes it with the indented item
    separator, and only the brackets around it are added here."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        if form == "json":
            encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
            body = ",\n".join("  {\n    " + encode(row)[1:-1] + "\n  }" if row else "  {}"
                              for row in rows)
            fh.write("[\n" + body + "\n]\n" if rows else "[]\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
            writer.writeheader()
            writer.writerows(rows)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .regular import PairGeometry, w1_radial_formula

    leads = _leads(args, many=True)
    d_list = _parse_list(args.d)
    q_list = _parse_list(args.q)
    n_chunks = _list_chunks(args.n)
    # An entry below its floor would shrink the step count below, so the
    # grid could pass the cap. Each --n chunk ascends, so its first entry is
    # its smallest and its last its largest: the --n checks read no list.
    if min(d_list) < 1:
        raise InvalidParams(f"--d holds the center distance {min(d_list)}; "
                            f"center distances start at 1")
    min_n = min(chunk[0] for chunk in n_chunks)
    if min_n < 0:
        raise InvalidParams(f"--n holds the time step {min_n}; time steps start at 0")
    max_n = max(chunk[-1] for chunk in n_chunks)
    _check_series_size("--n", max_n, leads, q_list)
    n_list = _distinct(n_chunks)
    steps = (len(leads) * len(q_list) * sum(d // 2 + 1 for d in d_list)
             * sum(n + 1 for n in n_list))
    if steps > MAX_SWEEP_STEPS:
        raise TooLarge(f"the sweep grid needs {steps:,} class-sum steps, (d // 2 + 1)(n + 1) "
                       f"per cell, over the {MAX_SWEEP_STEPS:,}-step sweep cap")
    profile, asymptote = _profile_routine(args.family), _asymptote_routine(args.family)
    rows = []
    for q in q_list:
        geoms = [PairGeometry(q, d) for d in d_list]
        for lead in leads:
            if lead:
                # The walk's profiles are the columns of one G-table per (q, alpha):
                # O(n^2) work in all, where one srw_profile per n costs O(n^3).
                from .families import srw_g_table
                profile_at = srw_g_table(*lead, q, max_n).column_profile
            else:
                profile_at = functools.partial(profile, q)
            asyms = [asymptote(*lead, d, q) for d in d_list]
            # Each time-n profile once, for every d; the rows are sorted below.
            for n in n_list:
                at_n = profile_at(n)
                for geom, asym in zip(geoms, asyms):
                    w1 = w1_radial_formula(at_n, geom)
                    line = asym.at(n)
                    rows.append({
                        "family": args.family,
                        "alpha": format_rational(lead[0]) if lead else "",
                        "d": geom.d, "q": q, "n": n,
                        "w1_exact": format_rational(w1),
                        "w1_decimal": decimal_string(w1),
                        "asym": decimal_string(line),
                        "residual": decimal_string(w1 - line),
                    })
    rows.sort(key=lambda r: (r["family"], r["alpha"], r["d"], r["q"], r["n"]))
    _write_rows(rows, args.format, args.out)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise InvalidParams(f"--order holds {args.order}; orders start at 0")
    [lead] = _leads(args)
    _check_series_size("--order", args.order, [lead], [args.q])
    bundle = _genfun_routine(args.family)(*lead, args.q, args.order)
    _write_rows([{"n": n,
                  "gamma": format_rational(bundle.gammas[0][n]),
                  "g_at_q": format_rational(bundle.g_at_q[n]),
                  "g1_at_q": format_rational(bundle.g1_at_q[n])}
                 for n in range(args.order + 1)], args.emit)
    return 0


def _cmd_asym(args: argparse.Namespace) -> int:
    [lead] = _leads(args)
    result = _asymptote_routine(args.family)(*lead, args.d, args.q)
    print(json.dumps({
        "A": format_rational(result.A),
        "B": format_rational(result.B),
        "exact_for_large_n": result.exact_for_large_n,
    }))
    return 0


def _parse_grid(tokens: list[str]) -> dict:
    """The grid of ``verify-ineq``: each ``FIELD=SPEC`` token's list, given
    at most once per field, over :data:`~treeot.asymptotics.INEQUALITY_GRID`."""
    from .asymptotics import INEQUALITY_GRID

    grid = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"grid token {_shown(token)} is not FIELD=SPEC")
        key = key.strip()
        if key not in INEQUALITY_GRID:
            raise ValueError(f"unknown grid field {key!r}")
        if key in grid:
            raise ValueError(f"grid token {_shown(token)} repeats the field {key!r}")
        grid[key] = _parse_list(value, parse_rational if key == "alpha" else int)
    return {**INEQUALITY_GRID, **grid}


def _cmd_verify_ineq(args: argparse.Namespace) -> int:
    from .asymptotics import verify_inequalities

    grid = _parse_grid(args.grid or [])
    cells = len(grid["alpha"]) * len(grid["d"]) * len(grid["q"])
    if cells > MAX_INEQUALITY_CELLS:
        raise TooLarge(f"the grid has {cells:,} cells, over the {MAX_INEQUALITY_CELLS:,}-cell "
                       f"cap on verify-ineq")
    # Every row is built before any is written, so a bad cell prints no partial table.
    rows = [{"alpha": format_rational(alpha), "d": d, "q": q,
             **{k: rec[k] for k in ("chain_a", "chain_b", "ball_floor_equality", "passed")}}
            for alpha in grid["alpha"] for d in grid["d"] for q in grid["q"]
            for rec in [verify_inequalities(alpha, d, q)]]
    _write_rows(rows, "csv")
    return 0 if all(row["passed"] for row in rows) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suite

    reports = run_suite(args.suite, seed=args.seed)
    doc = {"passed": all(r.passed for r in reports),
           "suites": [r.as_dict() for r in reports]}
    print(json.dumps(doc, indent=2))
    return 0 if doc["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeot",
        description="Exact transport distances on trees and regular-tree families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_w1 = sub.add_parser("w1", help="distance of a JSON tree instance, three ways")
    p_w1.add_argument("instance", nargs="?", help="path to an instance JSON file")
    p_w1.add_argument("--json", action="store_true", help="emit a JSON report")
    p_w1.add_argument("--radial", metavar="SPEC",
                      help="radial profile instead of a file: srw:alpha=1/2,n=6 | "
                           "sphere:r=6 | ball:r=6 | custom:[...]")
    p_w1.add_argument("--q", type=int, help="branching number (with --radial)")
    p_w1.add_argument("--d", type=int, help="center distance (with --radial)")
    p_w1.add_argument("--emit-instance", metavar="PATH",
                      help="also write the truncated instance as shared JSON")
    p_w1.set_defaults(func=_cmd_w1)

    p_sweep = sub.add_parser("sweep", help="exact distances vs asymptote over a grid")
    p_sweep.add_argument("--family", choices=FAMILIES, required=True)
    p_sweep.add_argument("--alpha", help="comma list of rationals (srw only)")
    p_sweep.add_argument("--d", default="1", help="int, comma list, or lo..hi")
    p_sweep.add_argument("--q", default="2", help="int, comma list, or lo..hi")
    p_sweep.add_argument("--n", default="0..10", help="int, comma list, or lo..hi")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", help="write to a file instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_series = sub.add_parser("series", help="generating-function coefficient dump")
    p_series.add_argument("--family", choices=FAMILIES, required=True)
    p_series.add_argument("--alpha", help="laziness (srw only)")
    p_series.add_argument("--q", type=int, required=True)
    p_series.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_series.add_argument("--emit", choices=("csv", "json"), default="csv")
    p_series.set_defaults(func=_cmd_series)

    p_asym = sub.add_parser("asym", help="linear asymptote coefficients A, B")
    p_asym.add_argument("--family", choices=FAMILIES, required=True)
    p_asym.add_argument("--alpha", help="laziness (srw only)")
    p_asym.add_argument("--d", type=int, required=True)
    p_asym.add_argument("--q", type=int, required=True)
    p_asym.set_defaults(func=_cmd_asym)

    p_vi = sub.add_parser("verify-ineq", help="coefficient ordering chain over a grid")
    p_vi.add_argument("--grid", nargs="*", action="extend", metavar="FIELD=SPEC",
                      help="e.g. alpha=0,1/4,1/2,9/10 d=1..6 q=2..10")
    p_vi.set_defaults(func=_cmd_verify_ineq)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=("all",) + SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TreeOTError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
