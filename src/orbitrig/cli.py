"""Command-line front end: parses arguments and input documents,
dispatches to the library, and prints.

Commands: ``analyze``, ``certify``, ``flex``, ``lift``, ``crosscheck``.
Input is a JSON document (schema 1) describing the group, its point
representation (rational generator matrices, rationals as "p/q" strings),
the quotient gain graph, the model (body-bar or body-hinge), and an
optional explicit bar or hinge configuration.  Machine output is a single
sorted JSON document on stdout; pass ``--format text`` for a human summary.

The library decides, for both models, whether the matroid path applies
and whether it agrees with the numeric one (``hinge.analyze_framework``).

Exit codes: 0 rigid, 1 flexible, 2 input error, 3 consistency failure or
any other internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from typing import Any, Sequence

from .algebra import SquareMatrix
from .ensemble import SCHEMA_VERSION, crosscheck_instances
from .errors import ConsistencyError, InputError
from .gaingraph import GainGraph, make_gain_graph
from .genframe import (
    BarConfiguration,
    HingeConfiguration,
    lift_bars,
    random_configuration,
    random_generic_bars,
)
from .hinge import analyze_framework, certificates
from .matroid import counting_violation
from .rigidity import extract_flex, flex_residuals, orbit_matrix
from .symmetry import AbelianGroup, Element, PointRepresentation, irrep_is_real

EXIT_RIGID = 0
EXIT_FLEXIBLE = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

KINDS = {"body-bar": BarConfiguration, "body-hinge": HingeConfiguration}  # configuration per model


# ---------------------------------------------------------------------------
# input parsing


def parse_rational(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise InputError(f"expected a rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}: {exc}")
    raise InputError(f"expected an int or 'p/q' string, got {x!r}")


def _require(doc: dict, key: str, where: str) -> Any:
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in doc:
        raise InputError(f"missing field {key!r} in {where}")
    return doc[key]


def _array(x: Any, what: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{what} must be a JSON array, got {x!r}")
    return x


def _integer(x: Any, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _parse_id(x: Any, kind: str) -> str | int:
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise InputError(f"{kind} id {x!r} must be a string or an integer")
    return x


def _require_distinct_keys(ids: Sequence[str | int], kind: str) -> None:
    """Ids are keyed by ``str(id)`` in configurations and reports, so two ids
    with one string form (such as 0 and "0") are duplicates."""
    seen: dict[str, str | int] = {}
    for x in ids:
        key = str(x)
        if key in seen:
            raise InputError(f"duplicate {kind} id {key!r} (given as {seen[key]!r} and {x!r})")
        seen[key] = x


def parse_framework(doc: dict) -> dict:
    """Parse a schema-1 framework document into model objects."""
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise InputError(f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    model = doc.get("model", "body-bar")
    if model not in ("body-bar", "body-hinge"):
        raise InputError(f"unknown model {model!r}")

    group_doc = _require(doc, "group", "document")
    orders = tuple(
        _integer(k, "group order") for k in _array(_require(group_doc, "orders", "group"), "orders")
    )
    group = AbelianGroup(orders)

    rep_doc = _require(doc, "representation", "document")
    d = _integer(_require(rep_doc, "d", "representation"), "d")
    if d < 1:
        raise InputError(f"d must be positive, got {d}")
    gens = []
    for rows in _array(rep_doc.get("generators", []), "generators"):
        rows = [_array(r, "generator row") for r in _array(rows, "generator matrix")]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise InputError(f"generator matrices must be {d}x{d}")
        gens.append(SquareMatrix.from_rows([[parse_rational(x) for x in r] for r in rows]))
    rep = PointRepresentation.from_generators(group, d, gens)

    gg_doc = _require(doc, "gain_graph", "document")
    vertices = [
        _parse_id(v, "vertex") for v in _array(_require(gg_doc, "vertices", "gain_graph"), "vertices")
    ]
    if not vertices:
        raise InputError("gain graph has no vertices")
    _require_distinct_keys(vertices, "vertex")
    edges = []
    loops_l = []
    for e_doc in _array(_require(gg_doc, "edges", "gain_graph"), "edges"):
        eid = _parse_id(_require(e_doc, "id", "edge"), "edge")
        gain = tuple(
            _integer(x, "gain entry") for x in _array(_require(e_doc, "gain", f"edge {eid}"), "gain")
        )
        edges.append((eid, _parse_id(_require(e_doc, "tail", f"edge {eid}"), "vertex"),
                      _parse_id(_require(e_doc, "head", f"edge {eid}"), "vertex"), gain))
        in_l = e_doc.get("inL", False)
        if not isinstance(in_l, bool):
            raise InputError(f"inL of edge {eid!r} must be true or false, got {in_l!r}")
        if in_l:
            loops_l.append(eid)
    _require_distinct_keys([e[0] for e in edges], "edge")
    h = make_gain_graph(vertices, edges, loops_l, group=group)

    config = None
    if "configuration" in doc and doc["configuration"] is not None:
        config = parse_configuration(doc["configuration"], h, rep, KINDS[model])

    return {"model": model, "group": group, "rep": rep, "graph": h, "config": config}


def _parse_point(p: Sequence[Any], d: int) -> tuple[Fraction, ...]:
    vals = [parse_rational(x) for x in p]
    if len(vals) == d:
        return tuple(vals) + (Fraction(1),)
    if len(vals) == d + 1:
        return tuple(vals)
    raise InputError(f"point must have {d} or {d + 1} coordinates, got {len(vals)}")


def parse_configuration(
    doc: dict, h: GainGraph, rep: PointRepresentation, kind: type[BarConfiguration]
) -> BarConfiguration:
    """Explicit configuration of ``kind``: per edge, its ``kind.point_count``
    generating points under the string form of the edge id in the
    ``kind.kind + "s"`` map of ``doc``."""
    kind.check_edges(h, rep.d)
    name = kind.kind
    entries_doc = _require(doc, f"{name}s", "configuration")
    if not isinstance(entries_doc, dict):
        raise InputError(f"{name}s must be a JSON object, got {entries_doc!r}")
    entries: dict = {}
    for e in h.edges:
        key = str(e.id)
        if key not in entries_doc:
            raise InputError(f"configuration missing {name} for edge {e.id!r}")
        where = f"{name} {key}"
        points = _array(_require(entries_doc[key], "points", where), f"points of {where}")
        pts = [_parse_point(_array(p, f"point of {where}"), rep.d) for p in points]
        count = kind.point_count(h, e.id, rep.d)
        if len(pts) != count:
            raise InputError(f"{name} of edge {e.id!r} takes {count} point(s), got {len(pts)}")
        entries[e.id] = kind.entry(h, rep, e.id, pts)
        if not any(entries[e.id].vector):
            raise InputError(f"{name} of edge {e.id!r} is the zero extensor")
    return kind(d=rep.d, entries=entries, meta={"source": "explicit"})


def parse_hinge_configuration(doc: dict, h: GainGraph, rep: PointRepresentation):
    """Explicit hinge configuration: d-1 generating points per edge."""
    return parse_configuration(doc, h, rep, HingeConfiguration)


# ---------------------------------------------------------------------------
# commands


def _emit(doc: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text_lines(doc):
            sys.stdout.write(line + "\n")


def _analyze_text(doc: dict):
    yield f"model: {doc['model']}"
    for r in doc["irreps"]:
        yield (
            f"irrep {r['irrep']}: rank {r['rank']}, trivial {r['trivial']}, "
            f"flex {r['flex']} -> {'rigid' if r['rigid'] else 'flexible'}"
        )
    yield f"verdict: {'rigid' if doc['rigid'] else 'flexible'}"


def _irrep_filter(rep: PointRepresentation, arg: str | None) -> list[Element]:
    if arg is None:
        return rep.group.elements()
    out = []
    for part in arg.split(";"):
        try:
            elem = tuple(int(x) for x in part.split(",") if x != "")
        except ValueError:
            raise InputError(
                f"--irrep {part!r} is not a comma-separated list of integers"
            ) from None
        if not rep.group.contains(elem):
            raise InputError(f"--irrep {part!r} is not an element of the group")
        out.append(elem)
    return out


def cmd_analyze(args) -> int:
    fw = _load(args)
    rep, h = fw["rep"], fw["graph"]
    shown = [list(g) for g in _irrep_filter(rep, args.irrep)]
    result = analyze_framework(
        fw["model"], h, rep, seed=args.seed, samples=args.samples, config=fw["config"]
    )
    doc = result.to_json()
    doc["irreps"] = [r for r in doc["irreps"] if r["irrep"] in shown]
    if args.oracle and result.verdicts is not None and fw["model"] == "body-bar":
        doc["counting_violations"] = {
            str(list(g)): counting_violation(h, rep, g) for g in rep.group.elements()
        }
    _emit(doc, args.format, _analyze_text)
    if not result.consistent:
        return EXIT_INCONSISTENT
    return EXIT_RIGID if result.rigid else EXIT_FLEXIBLE


def cmd_certify(args) -> int:
    fw = _load(args)
    rep = fw["rep"]
    certs = certificates(
        fw["model"], fw["graph"], rep, _irrep_filter(rep, args.irrep), oracle=args.oracle
    )
    doc = {"schema": SCHEMA_VERSION, "model": fw["model"], "certificates": certs}
    _emit(doc, args.format, _certify_text)
    return EXIT_RIGID if all(c["rigid"] for c in certs) else EXIT_FLEXIBLE


def _certify_text(doc: dict):
    for cert in doc["certificates"]:
        status = "rigid" if cert["rigid"] else f"flexible (deficiency {cert['deficiency']})"
        yield f"irrep {cert['irrep']}: rank {cert['rank']} / target {cert['target']} -> {status}"
        if cert["rigid"]:
            for label, ids in sorted(cert["decomposition"].items()):
                if ids:
                    yield f"  {label}: {ids}"


def cmd_flex(args) -> int:
    fw = _load(args)
    rep, h = fw["rep"], fw["graph"]
    if fw["model"] == "body-hinge":
        raise InputError("flex extraction runs on the body-bar model; expand hinges first")
    config = fw["config"] or random_generic_bars(h, rep, args.seed)
    irreps = _irrep_filter(rep, args.irrep)
    if not all(irrep_is_real(rep.group, g) for g in irreps):
        raise InputError("flex extraction is implemented for the exact rational path")
    flexes = []
    for g in irreps:
        om = orbit_matrix(h, config, rep, g)
        flex = extract_flex(om, rep)
        if flex is not None:
            if any(flex_residuals(om, flex)):
                raise ConsistencyError("extracted flex does not satisfy the orbit system")
            flexes.append(flex.to_json())
    doc = {"schema": SCHEMA_VERSION, "flexes": flexes}
    _emit(doc, args.format, _flex_text)
    return EXIT_FLEXIBLE if flexes else EXIT_RIGID


def _flex_text(doc: dict):
    if not doc["flexes"]:
        yield "no nontrivial flexes"
    for f in doc["flexes"]:
        yield f"irrep {f['irrep']}:"
        for v, vec in sorted(f["assignment"].items()):
            yield f"  {v}: {vec}"


def cmd_lift(args) -> int:
    fw = _load(args)
    rep, h, kind = fw["rep"], fw["graph"], KINDS[fw["model"]]
    cov, entries = lift_bars(h, fw["config"] or random_configuration(kind, h, rep, args.seed), rep)
    doc = {
        "schema": SCHEMA_VERSION,
        "model": fw["model"],
        "vertices": [[v, list(g)] for v, g in cov.vertices],
        "edges": [
            {
                "id": [e.base, list(e.id[1])],
                "tail": [e.tail[0], list(e.tail[1])],
                "head": [e.head[0], list(e.head[1])],
                kind.kind: [str(Fraction(x, entries[e.id].den)) for x in entries[e.id].vector],
                "points": (
                    None
                    if entries[e.id].points is None
                    else [[str(x) for x in p] for p in entries[e.id].points]
                ),
            }
            for e in cov.edges
        ],
    }
    _emit(doc, args.format, _lift_text)
    return EXIT_RIGID


def _lift_text(doc: dict):
    yield f"{len(doc['vertices'])} bodies, {len(doc['edges'])} bars"
    for e in doc["edges"]:
        yield f"  {e['id']}: {e['tail']} -- {e['head']}"


def cmd_crosscheck(args) -> int:
    summary = crosscheck_instances(
        count=args.count,
        orders=_parse_orders(args.group),
        d=args.dim,
        seed=args.seed,
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
    )
    _emit(summary, args.format, _crosscheck_text)
    return EXIT_RIGID if summary["ok"] else EXIT_INCONSISTENT


def _crosscheck_text(doc: dict):
    yield (
        f"{doc['count']} instances, group orders {doc['group']['orders']}, "
        f"{len(doc['mismatches'])} mismatches"
    )
    for m in doc["mismatches"]:
        yield f"  instance {m['instance']}: {[i['kind'] for i in m['issues']]}"


def _parse_orders(arg: str) -> tuple[int, ...]:
    if arg in ("trivial", ""):
        return ()
    try:
        return tuple(int(x) for x in arg.split("x"))
    except ValueError:
        raise InputError(f"bad group spec {arg!r}; use e.g. '2' or '2x2' or 'trivial'")


def _load(args) -> dict:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.input}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return parse_framework(doc)


OPTIONS = {
    "--seed": dict(type=int, default=42, help="PRNG seed for generic sampling"),
    "--samples": dict(
        type=int, default=2,
        help="at most this many samples per block; a proven rank is not sampled again",
    ),
    "--irrep": dict(
        default=None, help="restrict to characters, e.g. '1' or '0,1;1,0' for product groups"
    ),
    "--format": dict(choices=("json", "text"), default="json"),
    "--oracle": dict(
        action="store_true", help="run the brute-force counting oracle on small inputs"
    ),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process when first asked for:
    parsing leaves it unchanged, and a process that calls ``main`` many
    times (the tests, the benchmark) would otherwise rebuild it each time."""
    parser = argparse.ArgumentParser(
        prog="orbitrig",
        description="Infinitesimal rigidity of symmetric body-bar and body-hinge frameworks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads
    for name, func, help_text, options in (
        ("analyze", cmd_analyze, "numeric + combinatorial rigidity report",
         ("--seed", "--samples", "--irrep", "--format", "--oracle")),
        ("certify", cmd_certify, "per-character matroid union certificates",
         ("--irrep", "--format", "--oracle")),
        ("flex", cmd_flex, "extract nontrivial symmetric flexes",
         ("--seed", "--irrep", "--format")),
        ("lift", cmd_lift, "emit the covering framework", ("--seed", "--format")),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="framework JSON file")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)

    p = sub.add_parser("crosscheck", help="randomized numeric/combinatorial agreement harness")
    for option in ("--seed", "--format"):
        p.add_argument(option, **OPTIONS[option])
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--group", default="2", help="'2', '2x2', or 'trivial'")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-edges", type=int, default=10)
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except ConsistencyError as exc:
        sys.stderr.write(f"consistency failure: {exc}\n")
        return EXIT_INCONSISTENT
    except Exception as exc:  # exit 1 means "flexible", so never let a crash exit 1
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
