"""Body-hinge frameworks: a hinge is a grade-(d-1) simplex shared by two
bodies, and removes all relative freedoms except the rotation about it.
Each quotient edge is expanded into C(d+1,2)-1 parallel bars spanning the
orthogonal complement of the starred hinge, after which the body-bar
machinery (numeric and combinatorial) applies to the multiplied quotient.

The group must act freely on the edge set here: the non-free loop set is
required to be empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from .algebra import Extensor, Scalar, hodge_star, wedge
from .errors import InputError, UnsupportedGroupError
from .gaingraph import CoveredGraph, EdgeId, GainGraph, lift_cover, multiply_edges
from .genframe import PRNG_NAME, BarConfiguration, BarEntry, random_point
from .linalg import nullspace_exact, rank_certified
from .matroid import CombinatorialVerdict, combinatorial_verdict
from .rigidity import RigidityReport, analyze, merge_samples
from .symmetry import PointRepresentation


@dataclass(frozen=True)
class HingeEntry:
    vector: tuple[Scalar, ...]
    points: tuple[tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class HingeConfiguration:
    d: int
    entries: dict[EdgeId, HingeEntry]
    meta: dict = field(default_factory=dict)

    def vector(self, eid: EdgeId) -> tuple[Scalar, ...]:
        try:
            return self.entries[eid].vector
        except KeyError:
            raise InputError(f"no hinge for edge {eid!r}")

    def extensor(self, eid: EdgeId) -> Extensor:
        return Extensor(self.d, self.d - 1, self.vector(eid))


def bar_multiplicity(d: int) -> int:
    return comb(d + 1, 2) - 1


def _require_free_edges(h: GainGraph) -> None:
    if h.loops_l:
        raise UnsupportedGroupError(
            "body-hinge analysis requires the group to act freely on edges "
            f"(non-free loops present: {sorted(map(repr, h.loops_l))})"
        )


def random_generic_hinges(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    bound: int = 10 ** 6,
) -> HingeConfiguration:
    """A hinge per quotient edge: d-1 random homogeneous points wedged."""
    _require_free_edges(h)
    h.validate_gains(rep.group)
    d = rep.d
    rng = random.Random(seed)
    entries: dict[EdgeId, HingeEntry] = {}
    for e in h.edges:
        while True:
            pts = tuple(random_point(rng, d, bound) for _ in range(d - 1))
            ext = wedge(list(pts), d)
            if not ext.is_zero():
                entries[e.id] = HingeEntry(vector=ext.coords, points=pts)
                break
    return HingeConfiguration(
        d=d, entries=entries, meta={"seed": seed, "bound": bound, "prng": PRNG_NAME}
    )


def hinge_complement_basis(hinge: Extensor) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the orthogonal complement of the starred
    hinge in grade-2 coordinate space."""
    star = hodge_star(hinge)
    if hinge.is_zero():
        raise InputError("zero hinge extensor has no complement basis")
    return nullspace_exact([list(star.coords)], len(star.coords))


def hinge_to_bars(
    h: GainGraph, config: HingeConfiguration, seed: int
) -> tuple[GainGraph, BarConfiguration]:
    """Expand every quotient edge into C(d+1,2)-1 parallel copies whose
    bars are generic rational combinations of a complement basis of the
    starred hinge; every produced vector pairs to zero with it."""
    d = config.d
    m = bar_multiplicity(d)
    rng = random.Random(seed)
    multiplied = multiply_edges(h, m)
    entries: dict[EdgeId, BarEntry] = {}
    for e in h.edges:
        hinge = config.extensor(e.id)
        basis = hinge_complement_basis(hinge)
        if len(basis) != m:
            raise InputError(f"complement of hinge {e.id!r} has dimension {len(basis)} != {m}")
        while True:
            coeffs = [[Fraction(rng.randint(-99, 99)) for _ in range(m)] for _ in range(m)]
            if rank_certified(coeffs, m) == m:
                break
        star = hodge_star(hinge)
        for t in range(1, m + 1):
            row = coeffs[t - 1]
            vec = tuple(
                sum(row[s] * basis[s][c] for s in range(m)) for c in range(len(star.coords))
            )
            pairing = sum(a * b for a, b in zip(vec, star.coords))
            if pairing != 0:
                raise InputError(f"bar copy {t} of {e.id!r} is not orthogonal to the hinge")
            entries[(e.id, t)] = BarEntry(vector=vec, points=None)
    meta = dict(config.meta)
    meta["bar_seed"] = seed
    return multiplied, BarConfiguration(d=d, entries=entries, meta=meta)


def lift_hinges(
    h: GainGraph, config: HingeConfiguration, rep: PointRepresentation
) -> tuple[CoveredGraph, dict[tuple, HingeEntry]]:
    """Lift a quotient hinge configuration: the hinge of a lifted edge is
    the grade-(d-1) image of the quotient hinge under the indexing group
    element."""
    _require_free_edges(h)
    cov = lift_cover(h, rep.group)
    out: dict[tuple, HingeEntry] = {}
    for le in cov.edges:
        gamma = le.id[1]
        vec = rep.tau_hat_k(gamma, rep.d - 1).apply(config.vector(le.base))
        tau = rep.tau_hat(gamma)
        pts = tuple(tau.apply(p) for p in config.entries[le.base].points)
        out[le.id] = HingeEntry(vector=tuple(vec), points=pts)
    return cov, out


@dataclass(frozen=True)
class HingeReport:
    numeric: RigidityReport
    verdicts: tuple[CombinatorialVerdict, ...] | None

    @property
    def rigid(self) -> bool:
        return self.numeric.rigid

    @property
    def consistent(self) -> bool:
        if self.verdicts is None:
            return True
        by_irrep = {v.irrep: v for v in self.verdicts}
        for r in self.numeric.irreps:
            v = by_irrep.get(r.irrep)
            if v is None or v.rigid != r.rigid:
                return False
        return True

    def to_json(self) -> dict:
        out = {
            "model": "body-hinge",
            "numeric": self.numeric.to_json(),
            "consistent": self.consistent,
        }
        if self.verdicts is not None:
            out["combinatorial"] = [v.to_json() for v in self.verdicts]
        return out


def analyze_hinge(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    bound: int = 10 ** 6,
    combinatorial: bool | None = None,
    config: HingeConfiguration | None = None,
) -> HingeReport:
    """Numeric path: body-bar analysis of the multiplied quotient with
    hinge-derived bars, per-character maximum rank over ``samples`` seeds.
    Combinatorial path (two-groups): signed-matroid union verdicts on the
    multiplied gain graph.  Both are reported; agreement is exposed as
    ``consistent``.

    An explicit ``config`` fixes the hinges; sampling then varies only the
    generic bar combinations within each hinge's complement.
    """
    _require_free_edges(h)
    if samples < 1:
        raise InputError("need at least one sample")
    reports = []
    multiplied = None
    for t in range(samples):
        hconf = config or random_generic_hinges(h, rep, seed + t, bound=bound)
        multiplied, bars = hinge_to_bars(h, hconf, seed + 7919 * (t + 1))
        reports.append(analyze(multiplied, rep, bars))
    numeric = merge_samples(
        reports,
        {"seed": seed, "samples": samples, "bound": bound, "prng": PRNG_NAME,
         "model": "body-hinge", "bars_per_hinge": bar_multiplicity(rep.d)},
    )
    if combinatorial is None:
        combinatorial = rep.group.is_two_group() and rep.is_diagonal_pm_one()
    verdicts = None
    if combinatorial:
        verdicts = tuple(
            combinatorial_verdict(multiplied, rep, g) for g in rep.group.elements()
        )
    return HingeReport(numeric=numeric, verdicts=verdicts)
