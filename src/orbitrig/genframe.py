"""Symmetric bar and hinge configurations on quotient graphs and their
lifts to the covering framework.  Each kind (class) says how many points
an entry takes and how they become it, so ``random_configuration`` draws
and ``cli.parse_configuration`` reads both kinds.

Points get integer coordinates from a seeded PRNG (Python's Mersenne
Twister, recorded in the metadata).  A configuration is not itself
certified generic: ``rigidity`` proves a rank generic when it meets an
upper bound that holds at every configuration, and samples again where
none does.  Entries hold integer vectors (``BarEntry``), so ranks are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .algebra import Extensor, Scalar, det, hodge_star, wedge
from .errors import InputError, UnsupportedGroupError
from .gaingraph import CoveredGraph, EdgeId, GainGraph, lift_cover
from .linalg import _cleared
from .symmetry import Element, PointRepresentation, tau_hat_int

PRNG_NAME = "python-random-mt19937"
DEFAULT_BOUND = 10 ** 6


@dataclass(frozen=True)
class BarEntry:
    """One bar: its grade-2 coordinate vector v, held as the integer vector
    ``vector`` = ``den`` v, and its generating homogeneous points (None for
    bars produced as raw spans, e.g. from hinges); a hinge entry likewise
    holds its starred hinge, with d-1 points.  It is cleared once, when
    built, by the lcm of its denominators, which ``den`` takes on, and no
    gcd (scaling changes no rank), so ``den`` is 1 when drawn under an
    integer representation."""

    vector: tuple[int, ...]
    points: tuple[tuple[Scalar, ...], ...] | None = None
    den: int = 1

    def __post_init__(self):
        den, ints = _cleared(self.vector)
        object.__setattr__(self, "vector", tuple(ints))
        object.__setattr__(self, "den", self.den * den)


@dataclass(frozen=True)
class BarConfiguration:
    d: int
    entries: dict[EdgeId, BarEntry]
    meta: dict = field(default_factory=dict)

    kind = "bar"  # what an entry is, in messages and documents

    def _entry(self, eid: EdgeId) -> BarEntry:
        try:
            return self.entries[eid]
        except KeyError:
            raise InputError(f"no {self.kind} for edge {eid!r}")

    def vector(self, eid: EdgeId) -> tuple[Scalar, ...]:
        return self._entry(eid).vector

    def points(self, eid: EdgeId):
        return self._entry(eid).points

    @staticmethod
    def check_edges(h: GainGraph, d: int) -> None:
        """Raise unless every edge of ``h`` can take an entry at ``d``; a bar can."""

    @staticmethod
    def point_count(h: GainGraph, eid: EdgeId, d: int) -> int:
        """How many generating points the entry of edge ``eid`` takes."""
        return 1 if eid in h.loops_l else 2

    @staticmethod
    def entry(h: GainGraph, rep: PointRepresentation, eid: EdgeId, pts: list[tuple]) -> BarEntry:
        """The entry of edge ``eid`` from its generating points."""
        if eid in h.loops_l:
            return loop_bar_from_point(h, rep, eid, pts[0])
        return bar_from_points(rep.d, *pts)

    def lift_step(self, rep: PointRepresentation) -> Callable[[Element, tuple], tuple]:
        """What ``lift_bars`` makes of an entry's screw image under gamma: for a bar, that image."""
        return lambda gamma, image: image


class HingeConfiguration(BarConfiguration):
    """A hinge h per quotient edge, kept as a bar is: a ``BarEntry`` with
    the starred hinge *h, at grade 2, and the d-1 points of h (* permutes
    coordinates with signs, so ``den`` is that of h).  For orthogonal A of
    determinant s, the grade-(d-1) compound of A maps *x to s *(A^(2) x)
    (Crapo and Whiteley), and * is its own inverse between grades 2 and
    d-1, so gamma moves h = *(*h) to s *(T *h), T its screw image."""

    kind = "hinge"

    def lift_step(self, rep: PointRepresentation) -> Callable[[Element, tuple], tuple]:
        """The lifted hinge: s * (screw image under gamma), s = det M, the sign of det D M."""
        signs = {g: 1 if det(n.rows) > 0 else -1 for g, (_, n) in rep.integer_images.items()}
        return lambda gamma, image: tuple(
            signs[gamma] * x for x in hodge_star(Extensor(self.d, 2, image)).coords
        )

    @staticmethod
    def check_edges(h: GainGraph, d: int) -> None:
        if d < 2:
            raise InputError(f"a hinge needs d >= 2, since it spans d-1 points; got d={d}")
        if h.loops_l:
            raise UnsupportedGroupError(
                "body-hinge analysis requires the group to act freely on edges "
                f"(non-free loops present: {sorted(map(repr, h.loops_l))})"
            )

    @staticmethod
    def point_count(h: GainGraph, eid: EdgeId, d: int) -> int:
        return d - 1

    @staticmethod
    def entry(h: GainGraph, rep: PointRepresentation, eid: EdgeId, pts: list[tuple]) -> BarEntry:
        return BarEntry(vector=hodge_star(wedge(pts, rep.d)).coords, points=tuple(pts))


def random_point(rng: random.Random, d: int, bound: int) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(d)) + (1,)


def bar_from_points(d: int, p: tuple, q: tuple) -> BarEntry:
    return BarEntry(vector=wedge([p, q], d).coords, points=(tuple(p), tuple(q)))


def moved_point(rep: PointRepresentation, g: Element, p: tuple) -> tuple:
    """D tau_hat(g) p for a homogeneous point p, (D, N) the integer image
    of g: (N p_1..d, D p_d+1), the point that g moves p to, scaled by D."""
    den, n = rep.integer_images[g]
    return n.apply(p[:-1]) + (den * p[-1],)


def loop_bar_from_point(h: GainGraph, rep: PointRepresentation, eid: EdgeId, p: tuple) -> BarEntry:
    """Bar of a non-free loop: p ^ tau_hat(gain) p, as p ^ ``moved_point``
    over D, D the denominator of the gain's image."""
    gain = h.edge(eid).gain
    q = moved_point(rep, gain, p)
    return BarEntry(wedge([p, q], rep.d).coords, (tuple(p),), rep.integer_images[gain][0])


def random_configuration(
    kind: type[BarConfiguration], h: GainGraph, rep: PointRepresentation, seed: int,
    bound: int = DEFAULT_BOUND,
) -> BarConfiguration:
    """An entry of ``kind`` per quotient edge, from ``kind.point_count``
    random homogeneous points; an edge whose entry is the zero extensor
    draws its points again."""
    kind.check_edges(h, rep.d)
    h.validate_gains(rep.group)
    rng = random.Random(seed)
    entries: dict[EdgeId, BarEntry] = {}
    for e in h.edges:
        while True:
            pts = [random_point(rng, rep.d, bound) for _ in range(kind.point_count(h, e.id, rep.d))]
            entries[e.id] = kind.entry(h, rep, e.id, pts)
            if any(entries[e.id].vector):
                break
    return kind(d=rep.d, entries=entries, meta={"seed": seed, "bound": bound, "prng": PRNG_NAME})


def random_generic_bars(
    h: GainGraph, rep: PointRepresentation, seed: int, bound: int = DEFAULT_BOUND
) -> BarConfiguration:
    """Bar per quotient edge: two random homogeneous points wedged, except
    that a non-free loop wedges one random point with its gain image."""
    return random_configuration(BarConfiguration, h, rep, seed, bound)


def verify_loop_form(h: GainGraph, rep: PointRepresentation, config: BarConfiguration) -> None:
    """Every non-free loop bar must be expressible as p ^ tau_hat(gain) p;
    configurations built here store the generating point, so recompute and
    compare."""
    for e in h.loops_in_l():
        pts = config.points(e.id)
        if pts is None or len(pts) != 1:
            raise InputError(
                f"non-free loop {e.id!r} needs a single generating point in its bar entry"
            )
        got, want = config.entries[e.id], loop_bar_from_point(h, rep, e.id, pts[0])
        if [x * want.den for x in got.vector] != [x * got.den for x in want.vector]:
            raise InputError(f"bar of non-free loop {e.id!r} violates the loop form")


def lift_bars(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation
) -> tuple[CoveredGraph, dict[tuple[EdgeId, tuple], BarEntry]]:
    """Lift a quotient configuration to the covering framework: the entry of
    a lifted edge is the image of the quotient one under the group element
    gamma indexing the lift, which the configuration's ``lift_step`` makes
    of the screw image: the quotient entry's integer vector times the
    integer screw image D T of gamma (``tau_hat_int``), over the quotient
    entry's ``den`` times D.  Its points are the ``moved_point``s of the
    quotient entry's, each times the denominator of gamma's image.  Non-free
    loops produce one bar per coset; hinges reject them."""
    config.check_edges(h, config.d)
    cov = lift_cover(h, rep.group)
    step = config.lift_step(rep)
    bars: dict[tuple[EdgeId, tuple], BarEntry] = {}
    for le in cov.edges:
        gamma = le.id[1]
        vec = config.vector(le.base)
        den, terms = tau_hat_int(rep, gamma)
        pts = config.points(le.base)
        moved = None if pts is None else tuple(moved_point(rep, gamma, p) for p in pts)
        bars[le.id] = BarEntry(
            step(gamma, tuple(sum(a * vec[s] for s, a in ts) for ts in terms)),
            moved,
            config.entries[le.base].den * den,
        )
    return cov, bars
