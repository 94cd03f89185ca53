from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

import orbitrig as rig
from orbitrig import symmetry
from orbitrig.ensemble import random_gain_graph
from orbitrig.matroid import EdgeIndex, SignedEdge, SignedGraph

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def two_group(l: int) -> rig.AbelianGroup:
    return rig.AbelianGroup((2,) * l)


def mirror_rep() -> rig.PointRepresentation:
    """Reflection in the x-y plane."""
    return rig.PointRepresentation.from_generators(
        two_group(1), 3, [rig.SquareMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])]
    )


def mirror_rep_d(d: int) -> rig.PointRepresentation:
    """Reflection in the hyperplane x_d = 0 of R^d."""
    rows = [[(-1 if i == d - 1 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
    return rig.PointRepresentation.from_generators(
        two_group(1), d, [rig.SquareMatrix.from_rows(rows)]
    )


def halfturn_rep() -> rig.PointRepresentation:
    """Half-turn about the x axis."""
    return rig.PointRepresentation.from_generators(
        two_group(1), 3, [rig.SquareMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]])]
    )


def reflection9() -> rig.SquareMatrix:
    """Reflection I - 2 v v^T / 9 in the plane normal to v = (1, 2, 2): a
    rational image whose entries have denominator 9."""
    v = (1, 2, 2)
    return rig.SquareMatrix.from_rows(
        [[Fraction(int(i == j)) - Fraction(2 * v[i] * v[j], 9) for j in range(3)] for i in range(3)]
    )


def rotation9() -> rig.SquareMatrix:
    """The quarter turn v v^T + [v]_x about the unit axis v = (1, 2, 2) / 3:
    a rotation whose entries have denominators 3 and 9, and whose square is
    a half-turn with denominator 9."""
    v = [Fraction(x, 3) for x in (1, 2, 2)]
    cross = [[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]]
    return rig.SquareMatrix.from_rows(
        [[v[i] * v[j] + cross[i][j] for j in range(3)] for i in range(3)]
    )


def reflection9_rep() -> rig.PointRepresentation:
    """Z/2 acting by ``reflection9``."""
    return rig.PointRepresentation.from_generators(two_group(1), 3, [reflection9()])


def rotation9_rep() -> rig.PointRepresentation:
    """Z/4 acting by ``rotation9``."""
    return rig.PointRepresentation.from_generators(rig.AbelianGroup((4,)), 3, [rotation9()])


def identity(n: int) -> rig.SquareMatrix:
    return rig.SquareMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def diagonal(m: rig.SquareMatrix) -> tuple:
    return tuple(m.rows[i][i] for i in range(m.n))


def irrep_report(report: rig.RigidityReport, g) -> rig.rigidity.IrrepReport:
    return next(r for r in report.irreps if r.irrep == g)


def loop_l_gain_graph(rng, group: rig.AbelianGroup, max_vertices, max_edges):
    """``random_gain_graph``, and when it drew no non-free loop and the group
    has an element of order two, one more edge drawn from ``rng``: a
    non-free loop at a random vertex with a random such gain."""
    h = random_gain_graph(rng, group, max_vertices, max_edges)
    e = group.identity
    involutions = [g for g in group.elements() if g != e and group.add(g, g) == e]
    if h.loops_l or not involutions:
        return h
    v = rng.choice(h.vertices)
    loop = (len(h.edges), v, v, rng.choice(involutions))
    edges = [(x.id, x.tail, x.head, x.gain) for x in h.edges] + [loop]
    return rig.make_gain_graph(h.vertices, edges, [loop[0]], group=group)


def stewart_graph(group: rig.AbelianGroup) -> rig.GainGraph:
    """One body orbit, four bar orbits with the non-identity gain, two of
    them non-free."""
    return rig.make_gain_graph(
        ["v"],
        [(0, "v", "v", (1,)), (1, "v", "v", (1,)), (2, "v", "v", (1,)), (3, "v", "v", (1,))],
        loops_l=[2, 3],
        group=group,
    )


def signed_graph(vertices, edges) -> SignedGraph:
    """A signed graph on an index of its own, from ``SignedEdge`` values or
    (id, tail, head, sign) tuples: graphs built from the same vertices and
    edges have equal indices, which a union accepts as one ground set."""
    edges = tuple(SignedEdge(*e) for e in edges)
    return SignedGraph(EdgeIndex.of(vertices, edges), tuple(e.sign for e in edges))


@pytest.fixture(autouse=True)
def empty_intern_table(monkeypatch):
    """Every test starts with an empty table of ``from_generators``, so that
    no representation comes back with what an earlier test cached on it."""
    monkeypatch.setattr(symmetry, "_interned", {})


@pytest.fixture
def cs_rep():
    return mirror_rep()


@pytest.fixture
def c2_rep():
    return halfturn_rep()


@pytest.fixture
def cs_stewart(cs_rep):
    return stewart_graph(cs_rep.group), cs_rep


@pytest.fixture
def c2_stewart(c2_rep):
    return stewart_graph(c2_rep.group), c2_rep


@pytest.fixture
def fixture_dir():
    return FIXTURE_DIR
