"""Body-hinge frameworks: a hinge is a grade-(d-1) simplex shared by two
bodies, and removes all relative freedoms except the rotation about it.
Each quotient edge is expanded into C(d+1,2)-1 parallel bars spanning the
orthogonal complement of the starred hinge, after which the body-bar
machinery (numeric and combinatorial) applies to the multiplied quotient.

The group must act freely on the edge set here: the non-free loop set is
required to be empty.

Since a body-hinge framework is a body-bar one on that quotient, the
pipeline both models share lives here too: ``analyze_framework`` runs the
matroid path when the representation admits it, then the numeric path
with the verdicts' witness bounds, and checks the two against each other
(``disagreements``); ``certificates`` runs the matroid path alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .algebra import Extensor, hodge_star, wedge
from .errors import InputError, UnsupportedGroupError
from .gaingraph import CoveredGraph, EdgeId, GainGraph, lift_cover, multiply_edges
from .genframe import PRNG_NAME, BarConfiguration, BarEntry, random_point
from .linalg import nullspace_exact, rank_certified
from .matroid import CombinatorialVerdict, combinatorial_verdict, counting_violation
from .rigidity import IrrepReport, RigidityReport, analyze, analyze_generic, analyze_sampled
from .symmetry import Element, PointRepresentation


class HingeConfiguration(BarConfiguration):
    """A hinge per quotient edge, kept as a bar is: a ``BarEntry`` with the
    grade-(d-1) coordinates of the hinge and its d-1 generating points."""

    kind = "hinge"

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
    entries: dict[EdgeId, BarEntry] = {}
    for e in h.edges:
        while True:
            pts = tuple(random_point(rng, d, bound) for _ in range(d - 1))
            ext = wedge(list(pts), d)
            if not ext.is_zero():
                entries[e.id] = BarEntry(vector=ext.coords, points=pts)
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
    h: GainGraph, config: HingeConfiguration, seed: int, multiplied: GainGraph | None = None
) -> tuple[GainGraph, BarConfiguration]:
    """Expand every quotient edge into C(d+1,2)-1 parallel copies whose
    bars are generic rational combinations of a complement basis of the
    starred hinge; every produced vector pairs to zero with it.
    ``multiplied`` is ``multiply_edges(h, C(d+1,2)-1)`` when the caller
    has it already."""
    d = config.d
    m = bar_multiplicity(d)
    rng = random.Random(seed)
    if multiplied is None:
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
        # a kernel vector of the one starred row has at most two nonzeros
        support = [[(c, x) for c, x in enumerate(v) if x] for v in basis]
        for t in range(1, m + 1):
            row = coeffs[t - 1]
            acc = [Fraction(0)] * len(star.coords)
            for s, terms in enumerate(support):
                for c, x in terms:
                    acc[c] += row[s] * x
            vec = tuple(acc)
            pairing = sum(a * b for a, b in zip(vec, star.coords))
            if pairing != 0:
                raise InputError(f"bar copy {t} of {e.id!r} is not orthogonal to the hinge")
            entries[(e.id, t)] = BarEntry(vector=vec, points=None)
    meta = dict(config.meta)
    meta["bar_seed"] = seed
    return multiplied, BarConfiguration(d=d, entries=entries, meta=meta)


def lift_hinges(
    h: GainGraph, config: HingeConfiguration, rep: PointRepresentation
) -> tuple[CoveredGraph, dict[tuple, BarEntry]]:
    """Lift a quotient hinge configuration: the hinge of a lifted edge is
    the grade-(d-1) image of the quotient hinge under the indexing group
    element."""
    _require_free_edges(h)
    cov = lift_cover(h, rep.group)
    out: dict[tuple, BarEntry] = {}
    for le in cov.edges:
        gamma = le.id[1]
        vec = rep.tau_hat_k(gamma, rep.d - 1).apply(config.vector(le.base))
        tau = rep.tau_hat(gamma)
        pts = tuple(tau.apply(p) for p in config.entries[le.base].points)
        out[le.id] = BarEntry(vector=tuple(vec), points=pts)
    return cov, out


@dataclass(frozen=True)
class Analysis:
    """Both paths on one framework of either model: the numeric report, the
    combinatorial verdict per character when the representation admits
    the matroid path (else None), and whether the two agree."""

    model: str
    numeric: RigidityReport
    verdicts: tuple[CombinatorialVerdict, ...] | None
    consistent: bool

    @property
    def rigid(self) -> bool:
        return self.numeric.rigid

    def to_json(self) -> dict:
        """Body-bar: the numeric report's fields, plus ``consistent`` beside
        the verdicts.  Body-hinge: the numeric report under ``numeric`` with
        its ``irreps`` and ``rigid`` repeated, and ``consistent`` always."""
        numeric = self.numeric.to_json()
        if self.model == "body-hinge":
            out = {"numeric": numeric, "irreps": numeric["irreps"], "rigid": numeric["rigid"],
                   "consistent": self.consistent}
        else:
            out = numeric
            if self.verdicts is not None:
                out["consistent"] = self.consistent
        if self.verdicts is not None:
            out["combinatorial"] = [v.to_json() for v in self.verdicts]
        out["model"] = self.model
        return out


def disagreements(
    numeric: RigidityReport, verdicts: Sequence[CombinatorialVerdict]
) -> list[tuple[IrrepReport, CombinatorialVerdict]]:
    """The characters whose numeric flex count differs from the
    combinatorial deficiency, as (numeric, combinatorial) pairs.  Equal
    counts imply equal rigidity verdicts, since each side is rigid exactly
    when its count is zero."""
    by_irrep = {v.irrep: v for v in verdicts}
    return [(r, by_irrep[r.irrep]) for r in numeric.irreps if by_irrep[r.irrep].deficiency != r.flex]


def _verdicts(
    bars: GainGraph, rep: PointRepresentation
) -> tuple[CombinatorialVerdict, ...] | None:
    """The verdict of every character on the body-bar quotient ``bars``
    when the matroid path applies, else None."""
    if not rep.is_combinatorial():
        return None
    return tuple(combinatorial_verdict(bars, rep, g) for g in rep.group.elements())


def _witness_bounds(verdicts: Sequence[CombinatorialVerdict] | None) -> dict[Element, int] | None:
    return None if verdicts is None else {v.irrep: v.witness_bound for v in verdicts}


def _combine(
    model: str,
    numeric: RigidityReport,
    verdicts: tuple[CombinatorialVerdict, ...] | None,
    sampled: bool,
) -> Analysis:
    """Both paths' results as one analysis.  Agreement is required only of
    a sampled configuration: an explicit one may sit in special position,
    where the numeric rank falls below the generic one that the matroid
    path counts."""
    consistent = verdicts is None or not sampled or not disagreements(numeric, verdicts)
    return Analysis(model, numeric, verdicts, consistent)


def analyze_hinge(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    bound: int = 10 ** 6,
    config: HingeConfiguration | None = None,
) -> Analysis:
    """Combinatorial path: signed-matroid union verdicts on the multiplied
    gain graph, run first so that their witness bounds certify the
    numeric ranks.  Numeric path: body-bar analysis of the multiplied
    quotient with hinge-derived bars, sampled by ``analyze_sampled``:
    sample t has the hinges from seed + t and the bars from seed +
    7919 (t + 1), drawn only when it is needed.

    An explicit ``config`` fixes the hinges; sampling then varies only the
    generic bar combinations within each hinge's complement.
    """
    _require_free_edges(h)
    multiplied = multiply_edges(h, bar_multiplicity(rep.d))
    verdicts = _verdicts(multiplied, rep)

    def draw(t: int) -> BarConfiguration:
        hinges = config or random_generic_hinges(h, rep, seed + t, bound=bound)
        return hinge_to_bars(h, hinges, seed + 7919 * (t + 1), multiplied)[1]

    numeric = analyze_sampled(
        multiplied, rep, draw, samples, _witness_bounds(verdicts),
        {"seed": seed, "samples": samples, "bound": bound, "prng": PRNG_NAME,
         "model": "body-hinge", "bars_per_hinge": bar_multiplicity(rep.d)},
    )
    return _combine("body-hinge", numeric, verdicts, config is None)


def analyze_framework(
    model: str,
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    bound: int = 10 ** 6,
    config: BarConfiguration | None = None,
) -> Analysis:
    """Both paths for a framework of either model; ``config`` holds hinges
    (a ``HingeConfiguration``) for a body-hinge one, and without it the
    configuration is sampled ``samples`` times from ``seed``.  The matroid
    verdicts, when the representation admits them, come first, and their
    witness bounds go to the numeric path."""
    if model == "body-hinge":
        return analyze_hinge(h, rep, seed, samples, bound, config)
    verdicts = _verdicts(h, rep)
    witness_bounds = _witness_bounds(verdicts)
    if config is None:
        numeric = analyze_generic(h, rep, seed, samples, bound, witness_bounds)
    else:
        numeric = analyze(h, rep, config, witness_bounds)
    return _combine(model, numeric, verdicts, config is None)


def certificates(
    model: str, h: GainGraph, rep: PointRepresentation, irreps: Sequence[Element], oracle: bool = False
) -> list[dict]:
    """The combinatorial verdict of each character on the body-bar quotient,
    as a JSON certificate; with ``oracle``, the brute-force counting check
    beside it."""
    if model == "body-hinge":
        h = multiply_edges(h, bar_multiplicity(rep.d))
    out = []
    for g in irreps:
        cert = combinatorial_verdict(h, rep, g).to_json()
        if oracle:
            cert["counting_violation"] = counting_violation(h, rep, g)
        out.append(cert)
    return out
