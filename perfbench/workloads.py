"""Seeded instance generator and the three benchmark workloads.

Each workload is a fixed list of operations.  An operation is the argument
vector of one ``orbitrig`` command; commands that read a framework get a
schema-1 JSON file written from the workload seed.  The generator uses its
own ``random.Random`` and never calls into ``orbitrig``, so a change to the
program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

D = 3
SCREW_DIM = 6  # C(d+1, 2) for d = 3
BARS_PER_HINGE = SCREW_DIM - 1

CROSSCHECK_OPS = 200  # p95 is then the tail with 10 instances beyond it

QUARTER_TURN = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]

WHY = {  # the same text as the workloads' "why" in BENCHMARK.json
    "analyze-mix": (
        "analyze on body-bar (2,2) n=4..16, quarter-turn (4) and body-hinge (2,2): the "
        "main pipeline, where exact rank dominates and matroid union is second"
    ),
    "certify-union": (
        "certify on body-bar (2) and (2,2,2) with n=8..12, (2,2) with n=8..16 and body-hinge "
        "(2,2): matroid union is about 90% of the time and no rank is computed"
    ),
    "crosscheck-small": (
        "many crosscheck --count 1 ops on graphs with at most 4 vertices and 10 edges: "
        "per-call overhead, assembly and the lift dominate, rank is under 20%"
    ),
}


@dataclass(frozen=True)
class Op:
    """One operation: a command, the input document it reads (None for
    ``crosscheck``), whether it is flexible by edge count alone, and its
    number of body orbits."""

    name: str
    command: str
    doc: dict | None = None
    args: tuple[str, ...] = ()
    flexible_by_count: bool = False
    n: int = 0

    def argv(self, path: str | None) -> list[str]:
        head = [self.command] if path is None else [self.command, path]
        return head + list(self.args)


def dump(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# representations


def _diag(signs: tuple[int, ...]) -> list[list[str]]:
    return [[str(signs[i]) if i == j else "0" for j in range(D)] for i in range(D)]


# Faithful diagonal +-1 representations, one per point group: (2) as a
# half-turn, a mirror and the inversion; (2,2) as D2, C2v and C2h; (2,2,2)
# as the three coordinate mirrors.  Instance i of a row takes entry
# i mod len, so every seed measures the same point groups in the same slots.
DIAGONAL_REPS = {
    (2,): [[(1, -1, -1)], [(1, 1, -1)], [(-1, -1, -1)]],
    (2, 2): [
        [(1, -1, -1), (-1, 1, -1)],
        [(-1, -1, 1), (-1, 1, 1)],
        [(-1, -1, 1), (-1, -1, -1)],
    ],
    (2, 2, 2): [[(-1, 1, 1), (1, -1, 1), (1, 1, -1)]],
}


def generators(orders: tuple[int, ...], slot: int) -> list[list[list[str]]]:
    if orders == (4,):
        return [QUARTER_TURN]
    reps = DIAGONAL_REPS[orders]
    return [_diag(signs) for signs in reps[slot % len(reps)]]


# ---------------------------------------------------------------------------
# gain graphs


def _elements(orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = [()]
    for k in orders:
        out = [e + (x,) for e in out for x in range(k)]
    return out


def _order_two(orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [
        g for g in _elements(orders)
        if any(g) and all((2 * x) % k == 0 for x, k in zip(g, orders))
    ]


def gain_graph(
    rng: random.Random,
    orders: tuple[int, ...],
    n: int,
    edges: int,
    inl_loops: int,
    free_loops: int,
) -> dict:
    """A connected quotient gain graph on n vertices: a spanning cycle with
    random gains, ``inl_loops`` non-free loops with order-two gains,
    ``free_loops`` loops with non-identity gains, and further edges between
    distinct vertices, each joining two of the vertices of least degree so
    that degrees stay within one of each other."""
    vertices = [f"v{i}" for i in range(n)]
    elems = _elements(orders)
    nonzero = [g for g in elems if any(g)]
    involutions = _order_two(orders)
    degree = dict.fromkeys(vertices, 0)
    out = []

    def add(tail, head, gain, inl=False):
        out.append({"id": len(out), "tail": tail, "head": head, "gain": list(gain), "inL": inl})
        degree[tail] += 1
        degree[head] += 1

    def least(exclude=None):
        choices = [v for v in vertices if v != exclude]
        low = min(degree[v] for v in choices)
        return rng.choice([v for v in choices if degree[v] == low])

    for i in range(n):
        add(vertices[i], vertices[(i + 1) % n], rng.choice(elems))
    for _ in range(inl_loops):
        v = least()
        add(v, v, rng.choice(involutions), True)
    for _ in range(free_loops):
        v = least()
        add(v, v, rng.choice(nonzero))
    while len(out) < edges:
        tail = least()
        add(tail, least(exclude=tail), rng.choice(elems))
    return {"vertices": vertices, "edges": out}


def framework(model: str, orders: tuple[int, ...], gens, graph: dict) -> dict:
    return {
        "schema": 1,
        "model": model,
        "group": {"orders": list(orders)},
        "representation": {"d": D, "generators": gens},
        "gain_graph": graph,
    }


def body_bar(
    rng: random.Random, orders: tuple[int, ...], n: int, under_braced: bool, slot: int
) -> dict:
    """Body-bar input with about 6n bar orbits.  An under-braced one has
    6n - 4 bar orbits: each group used here has a character whose
    fixed-screw dimension is at most 3, so that block has fewer rows than
    its 6n - 3 or more motions, and the input is flexible for every
    configuration."""
    loops = max(1, n // 4)
    edges = SCREW_DIM * n - 4 if under_braced else SCREW_DIM * n + 2 + loops
    graph = gain_graph(rng, orders, n, edges, loops, max(1, n // 8))
    return framework("body-bar", orders, generators(orders, slot), graph)


def body_hinge(
    rng: random.Random, orders: tuple[int, ...], n: int, under_braced: bool, slot: int
) -> dict:
    """Body-hinge input (free action, so no non-free loops).  A hinge gives
    5 bars; an under-braced input has at most 6n - 4 bars."""
    if under_braced:
        hinges = (SCREW_DIM * n - 4) // BARS_PER_HINGE
    else:
        hinges = -(-SCREW_DIM * n // BARS_PER_HINGE) + 1
    graph = gain_graph(rng, orders, n, max(hinges, n), 0, max(1, n // 8))
    return framework("body-hinge", orders, generators(orders, slot), graph)


# ---------------------------------------------------------------------------
# workloads


def _build(rng: random.Random, command: str, spec) -> list[Op]:
    """Ops from (builder, group orders, n, total count, under-braced count)
    rows; within a row the under-braced inputs come first.  The rows are
    interleaved, instance i of a row of c at position i/c of the list, so
    that each kind of op is spread over the run and a slow stretch of the
    machine does not fall on one kind only."""
    keyed = []
    for builder, orders, n, count, under in spec:
        kind = ("bar" if builder is body_bar else "hinge") + "x".join(map(str, orders))
        for i in range(count):
            doc = builder(rng, orders, n, i < under, i)
            name = f"{kind}-n{n}{'-under' if i < under else ''}"
            keyed.append((i / count, len(keyed), Op(name, command, doc, (), i < under, n)))
    return [op for _, _, op in sorted(keyed)]


def analyze_mix(rng: random.Random) -> list[Op]:
    # Sorted by time: the seven slowest are the inputs with n >= 8.  The
    # tail (the 11th slowest) is then the 4th slowest of the 26 rigid n=4
    # ops, body-bar and body-hinge, whose times overlap, and the median is
    # in the middle of that level; neither sits on the edge between two
    # levels of op time.
    return _build(rng, "analyze", (
        (body_bar, (2, 2), 16, 1, 0),
        (body_bar, (2, 2), 12, 1, 0),
        (body_bar, (4,), 12, 1, 0),
        (body_hinge, (2, 2), 8, 1, 0),
        (body_bar, (2, 2), 8, 1, 0),
        (body_bar, (4,), 8, 2, 0),
        (body_hinge, (2, 2), 4, 7, 0),
        (body_bar, (2, 2), 4, 22, 3),
    ))


def certify_union(rng: random.Random) -> list[Op]:
    # Sorted by time: four n=12 and n=16 inputs, then the ten rigid
    # (2,2,2) n=8 ops, of which the tail (the 11th slowest) is the 7th,
    # then the hinge n=8 and rigid (2) n=12 ops at about the same time, and
    # the median five deep into the 20 ops at the level of a rigid (2,2)
    # n=8 certificate.  (2,2,2) and (2) stop at n=12: at n=16 their
    # certify time varies by up to 1.8x with the gain graph, which one
    # instance cannot average.
    return _build(rng, "certify", (
        (body_bar, (2, 2, 2), 12, 1, 0),
        (body_bar, (2, 2, 2), 8, 11, 1),
        (body_bar, (2, 2), 16, 1, 0),
        (body_bar, (2, 2), 12, 1, 0),
        (body_bar, (2, 2), 8, 20, 1),
        (body_bar, (2,), 12, 2, 1),
        (body_bar, (2,), 8, 4, 1),
        (body_hinge, (2, 2), 12, 1, 0),
        (body_hinge, (2, 2), 8, 2, 0),
    ))


def crosscheck_small(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(CROSSCHECK_OPS):
        group = "2" if i % 2 == 0 else "2x2"
        seed = rng.randrange(2 ** 31)
        ops.append(
            Op(
                f"crosscheck{group}-{i}",
                "crosscheck",
                None,
                ("--count", "1", "--seed", str(seed), "--group", group,
                 "--max-vertices", "4", "--max-edges", "10"),
            )
        )
    return ops


BUILDERS = {
    "analyze-mix": analyze_mix,
    "certify-union": certify_union,
    "crosscheck-small": crosscheck_small,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The operation list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng)
