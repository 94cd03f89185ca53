"""Random symmetric generic bar configurations on quotient graphs and their
lifts to the covering framework.

Points get integer coordinates from a seeded PRNG (Python's Mersenne
Twister, recorded in the metadata).  A configuration is not itself
certified generic: ``rigidity`` proves a rank generic when it meets an
upper bound that holds at every configuration, and samples again where
none does.  All arithmetic stays rational so ranks are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Scalar, wedge
from .errors import InputError
from .gaingraph import CoveredGraph, EdgeId, GainGraph, lift_cover
from .symmetry import PointRepresentation

PRNG_NAME = "python-random-mt19937"
DEFAULT_BOUND = 10 ** 6


@dataclass(frozen=True)
class BarEntry:
    """One bar: its grade-2 coordinate vector, and the generating
    homogeneous points when the bar was built from points (None for bars
    produced as raw spans, e.g. from hinges).  A hinge entry is kept the
    same way, with its grade-(d-1) vector and its d-1 points."""

    vector: tuple[Scalar, ...]
    points: tuple[tuple[Scalar, ...], ...] | None = None


@dataclass(frozen=True)
class BarConfiguration:
    d: int
    entries: dict[EdgeId, BarEntry]
    meta: dict = field(default_factory=dict)

    kind = "bar"  # what an entry is, for messages
    grade = 2  # of an entry's vector

    def vector(self, eid: EdgeId) -> tuple[Scalar, ...]:
        try:
            return self.entries[eid].vector
        except KeyError:
            raise InputError(f"no {self.kind} for edge {eid!r}")

    def points(self, eid: EdgeId):
        return self.entries[eid].points


def random_point(rng: random.Random, d: int, bound: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(d)) + (Fraction(1),)


def bar_from_points(d: int, p: tuple, q: tuple) -> BarEntry:
    return BarEntry(vector=wedge([p, q], d).coords, points=(tuple(p), tuple(q)))


def loop_bar_from_point(h: GainGraph, rep: PointRepresentation, eid: EdgeId, p: tuple) -> BarEntry:
    """Bar of a non-free loop: the wedge of a point with its image under
    the loop gain."""
    e = h.edge(eid)
    q = rep.tau_hat(e.gain).apply(p)
    return BarEntry(vector=wedge([p, q], rep.d).coords, points=(tuple(p),))


def random_generic_bars(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    bound: int = DEFAULT_BOUND,
) -> BarConfiguration:
    """Bar per quotient edge: two random homogeneous points wedged, except
    that a non-free loop wedges one random point with its gain image."""
    h.validate_gains(rep.group)
    rng = random.Random(seed)
    d = rep.d
    entries: dict[EdgeId, BarEntry] = {}
    for e in h.edges:
        while True:
            p = random_point(rng, d, bound)
            if e.id in h.loops_l:
                entry = loop_bar_from_point(h, rep, e.id, p)
            else:
                q = random_point(rng, d, bound)
                entry = bar_from_points(d, p, q)
            if any(x != 0 for x in entry.vector):
                entries[e.id] = entry
                break
    return BarConfiguration(
        d=d, entries=entries, meta={"seed": seed, "bound": bound, "prng": PRNG_NAME}
    )


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
        expected = loop_bar_from_point(h, rep, e.id, pts[0])
        if tuple(expected.vector) != tuple(config.vector(e.id)):
            raise InputError(f"bar of non-free loop {e.id!r} violates the loop form")


def lift_bars(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation
) -> tuple[CoveredGraph, dict[tuple[EdgeId, tuple], BarEntry]]:
    """Lift a quotient configuration to the covering framework: the vector
    of a lifted edge is the image of the quotient one, at the
    configuration's grade, under the group element indexing the lift.
    Non-free loops produce one bar per coset.
    """
    cov = lift_cover(h, rep.group)
    bars: dict[tuple[EdgeId, tuple], BarEntry] = {}
    for le in cov.edges:
        gamma = le.id[1]
        vec = rep.tau_hat_k(gamma, config.grade).apply(config.vector(le.base))
        pts = config.points(le.base)
        moved = None
        if pts is not None:
            tau = rep.tau_hat(gamma)
            moved = tuple(tau.apply(p) for p in pts)
        bars[le.id] = BarEntry(vector=vec, points=moved)
    return cov, bars
