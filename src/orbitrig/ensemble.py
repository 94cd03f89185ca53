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
from .hinge import analyze_framework, disagreements
from .rigidity import CrosscheckResult, lifted_rank
from .symmetry import MAX_D, AbelianGroup, PointRepresentation

SCHEMA_VERSION = 1  # of the input documents: written here, read by ``cli``


def _require_diagonal_two_group(orders: tuple[int, ...], d: int) -> None:
    """A faithful diagonal +-1 representation of (Z/2)^l in dimension d
    exists iff every factor is 2 and l <= d, with d >= 1 (and d <= MAX_D)."""
    if not 1 <= d <= MAX_D:
        raise InputError(f"dimension must be from 1 to MAX_D = {MAX_D}, got {d}")
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
                [[rng.choice((1, -1)) if i == j else 0 for j in range(d)] for i in range(d)]
            )
            for _ in orders
        ]
        rep = PointRepresentation.from_generators(group, d, gens)
        if rep.is_faithful():
            return rep


def random_gain_graph(
    rng: random.Random,
    group: AbelianGroup,
    max_vertices: int,
    max_edges: int,
) -> GainGraph:
    """Random quotient gain graph: loops never get the identity gain, and a
    loop whose gain has order two goes to the non-free set with probability
    one half.  The trivial group has no other gain, so for it at least two
    vertices are drawn, and a drawn loop becomes an edge to the next vertex."""
    nv = rng.randint(1 if group.orders else 2, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    ne = rng.randint(1, max_edges)
    elems = group.elements()
    edges = []
    loops_l = []
    for eid in range(ne):
        tail = rng.choice(vertices)
        head = rng.choice(vertices)
        if tail == head:
            candidates = [g for g in elems if g != group.identity]
            if not candidates:
                head = vertices[(vertices.index(tail) + 1) % nv]
                gain = group.identity
            else:
                gain = rng.choice(candidates)
                if group.add(gain, gain) == group.identity and rng.random() < 0.5:
                    loops_l.append(eid)
        else:
            gain = rng.choice(elems)
        edges.append((eid, tail, head, gain))
    return make_gain_graph(vertices, edges, loops_l, group=group)


def crosscheck_instances(
    count: int,
    orders: tuple[int, ...],
    d: int,
    seed: int,
    max_vertices: int = 4,
    max_edges: int = 10,
) -> dict:
    """Randomized agreement harness: per instance, (a) the exact lifted
    rank must equal the sum of the orbit-matrix ranks, and (b) the
    combinatorial deficiency must equal the numeric flex count per
    character.  Mismatching instances are serialized for replay: the
    analysis is drawn as ``orbitrig analyze`` draws it, so
    ``orbitrig analyze <replay>.json --seed <its "seed">`` reproduces it."""
    if count < 0:
        raise InputError(f"count must be non-negative, got {count}")
    if max_vertices < 1 or max_edges < 1:
        raise InputError(
            f"max vertices and max edges must be positive, got {max_vertices} and {max_edges}"
        )
    if not orders and max_vertices < 2:
        raise InputError(
            f"the trivial group needs max vertices >= 2, got {max_vertices}: "
            "a loop needs a non-identity gain"
        )
    _require_diagonal_two_group(orders, d)
    rng = random.Random(seed)
    mismatches = []
    for t in range(count):
        rep = random_diagonal_rep(rng, orders, d)
        h = random_gain_graph(rng, rep.group, max_vertices, max_edges)
        cfg_seed = rng.randrange(2 ** 32)
        result = analyze_framework("body-bar", h, rep, cfg_seed, samples=2)
        # the lifted rank is taken at the analysis's sample 0
        cc = CrosscheckResult(
            lifted_rank(h, result.numeric.config, rep),
            {r.irrep: r.sample_ranks[0] for r in result.numeric.irreps},
        )
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
        den, n = rep.integer_images[gen]
        gens.append([[str(Fraction(x, den)) for x in row] for row in n.rows])
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
