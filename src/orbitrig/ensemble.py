"""Random instances and the randomized agreement harness behind
``orbitrig crosscheck``: faithful diagonal +-1 representations of
(Z/2)^l, random quotient gain graphs, and their serialization as input
documents for replay.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import SquareMatrix
from .errors import InputError
from .gaingraph import GainGraph, make_gain_graph
from .genframe import random_generic_bars
from .hinge import analyze_framework, disagreements
from .rigidity import crosscheck_block_ranks
from .symmetry import AbelianGroup, PointRepresentation

SCHEMA_VERSION = 1  # of the input documents: written here, read by ``cli``


def _require_diagonal_two_group(orders: tuple[int, ...], d: int) -> None:
    """A faithful diagonal +-1 representation of (Z/2)^l in dimension d
    exists iff every factor is 2 and l <= d, with d >= 1."""
    if d < 1:
        raise InputError(f"dimension must be positive, got {d}")
    if any(k != 2 for k in orders):
        raise InputError(
            f"group orders {list(orders)}: a diagonal +-1 image needs every factor to be 2"
        )
    if len(orders) > d:
        raise InputError(
            f"(Z/2)^{len(orders)} has no faithful diagonal +-1 representation in dimension {d}"
        )


def random_diagonal_rep(
    rng: random.Random, orders: tuple[int, ...], d: int
) -> PointRepresentation:
    """Random faithful diagonal +-1 representation of a two-group."""
    _require_diagonal_two_group(orders, d)
    group = AbelianGroup(orders)
    while True:
        gens = [
            SquareMatrix.from_rows(
                [
                    [Fraction(rng.choice((1, -1)) if i == j else 0) for j in range(d)]
                    for i in range(d)
                ]
            )
            for _ in orders
        ]
        try:
            rep = PointRepresentation.from_generators(group, d, gens)
        except InputError:
            continue
        if rep.is_faithful():
            return rep


def random_gain_graph(
    rng: random.Random,
    group: AbelianGroup,
    max_vertices: int,
    max_edges: int,
    require_loop_l: bool = False,
) -> GainGraph:
    """Random quotient gain graph: loops never get the identity gain, and a
    loop whose gain has order two goes to the non-free set with probability
    one half."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    ne = rng.randint(1, max_edges)
    elems = group.elements()
    involutions = [g for g in elems if g != group.identity and group.add(g, g) == group.identity]
    edges = []
    loops_l = []
    for eid in range(ne):
        tail = rng.choice(vertices)
        head = rng.choice(vertices)
        if tail == head:
            candidates = [g for g in elems if g != group.identity]
            if not candidates:
                head = vertices[(vertices.index(tail) + 1) % nv]
                if head == tail:  # single vertex, trivial group: skip loops
                    continue
                gain = group.identity
            else:
                gain = rng.choice(candidates)
                if group.add(gain, gain) == group.identity and rng.random() < 0.5:
                    loops_l.append(eid)
        else:
            gain = rng.choice(elems)
        edges.append((eid, tail, head, gain))
    if require_loop_l and not loops_l and involutions:
        eid = len(edges)
        v = rng.choice(vertices)
        edges.append((eid, v, v, rng.choice(involutions)))
        loops_l.append(eid)
    if not edges:
        edges.append((0, vertices[0], vertices[-1] if nv > 1 else vertices[0], group.identity))
        if nv == 1:
            raise InputError("cannot build a loopless instance on one vertex of a trivial group")
    return make_gain_graph(vertices, edges, loops_l, group=group)


def crosscheck_instances(
    count: int,
    orders: tuple[int, ...],
    d: int,
    seed: int,
    max_vertices: int = 4,
    max_edges: int = 10,
    bound: int = 1000,
) -> dict:
    """Randomized agreement harness: per instance, (a) the exact lifted
    rank must equal the sum of the orbit-matrix ranks, and (b) the
    combinatorial deficiency must equal the numeric flex count per
    character.  Mismatching instances are serialized for replay."""
    if count < 0:
        raise InputError(f"count must be non-negative, got {count}")
    if max_vertices < 1 or max_edges < 1:
        raise InputError(
            f"max vertices and max edges must be positive, got {max_vertices} and {max_edges}"
        )
    _require_diagonal_two_group(orders, d)
    rng = random.Random(seed)
    mismatches = []
    for t in range(count):
        rep = random_diagonal_rep(rng, orders, d)
        h = random_gain_graph(rng, rep.group, max_vertices, max_edges)
        cfg_seed = rng.randrange(2 ** 32)
        config = random_generic_bars(h, rep, cfg_seed, bound=bound)
        cc = crosscheck_block_ranks(h, config, rep)
        result = analyze_framework("body-bar", h, rep, cfg_seed, samples=2, bound=bound)
        issues = []
        if not cc.additive:
            issues.append(
                {
                    "kind": "rank_additivity",
                    "lifted_rank": cc.lifted_rank,
                    "block_ranks": {str(list(k)): v for k, v in cc.block_ranks.items()},
                }
            )
        issues += [
            {"kind": "combinatorial_vs_numeric", "irrep": list(r.irrep),
             "deficiency": v.deficiency, "flex": r.flex}
            for r, v in disagreements(result.numeric, result.verdicts)
        ]
        if issues:
            mismatches.append(
                {
                    "instance": t,
                    "issues": issues,
                    "replay": serialize_instance(h, rep, cfg_seed),
                }
            )
    return {
        "count": count,
        "group": {"orders": list(orders)},
        "d": d,
        "seed": seed,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def serialize_instance(h: GainGraph, rep: PointRepresentation, seed: int) -> dict:
    gens = []
    for gen in rep.group.generators():
        m = rep.tau(gen)
        gens.append([[str(x) for x in row] for row in m.rows])
    return {
        "schema": SCHEMA_VERSION,
        "model": "body-bar",
        "group": {"orders": list(rep.group.orders)},
        "representation": {"d": rep.d, "generators": gens},
        "gain_graph": {
            "vertices": list(h.vertices),
            "edges": [
                {
                    "id": e.id,
                    "tail": e.tail,
                    "head": e.head,
                    "gain": list(e.gain),
                    "inL": e.id in h.loops_l,
                }
                for e in h.edges
            ],
        },
        "seed": seed,
    }
