"""Body-hinge frameworks: a hinge is a grade-(d-1) simplex shared by two
bodies, and removes all relative freedoms except the rotation about it.
Each quotient edge is expanded into C(d+1,2)-1 parallel bars, a basis of
the orthogonal complement of the starred hinge, which a hinge entry holds
(any basis gives the same ranks), after which the body-bar machinery
(numeric and combinatorial) applies to the multiplied quotient.

The group must act freely on the edge set here: the non-free loop set is
required to be empty.

Since a body-hinge framework is a body-bar one on that quotient, the
pipeline both models share lives here too: ``analyze_framework`` runs the
matroid path when the representation admits it, then the numeric path
with the verdicts' witness bounds, and checks the two against each other
(``disagreements``); ``certificates`` runs the matroid path alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import InputError
from .gaingraph import EdgeId, GainGraph, multiply_edges
from .genframe import (
    DEFAULT_BOUND,
    PRNG_NAME,
    BarConfiguration,
    BarEntry,
    HingeConfiguration,
    random_configuration,
)
from .linalg import kernel_vectors
from .matroid import CombinatorialVerdict, combinatorial_verdict, counting_violation
from .rigidity import IrrepReport, RigidityReport, analyze, analyze_generic, analyze_sampled
from .symmetry import Element, PointRepresentation


def bar_multiplicity(d: int) -> int:
    return comb(d + 1, 2) - 1


def random_generic_hinges(
    h: GainGraph, rep: PointRepresentation, seed: int, bound: int = DEFAULT_BOUND
) -> HingeConfiguration:
    """A hinge per quotient edge: d-1 random homogeneous points wedged."""
    return random_configuration(HingeConfiguration, h, rep, seed, bound)


def hinge_complement_basis(star: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the orthogonal complement of a starred hinge,
    the vector of a hinge entry, in grade-2 coordinate space."""
    if not any(star):
        raise InputError("zero hinge extensor has no complement basis")
    return list(kernel_vectors([list(star)], len(star)))


def hinge_to_bars(
    h: GainGraph, config: HingeConfiguration, multiplied: GainGraph | None = None
) -> tuple[GainGraph, BarConfiguration]:
    """Expand every quotient edge into C(d+1,2)-1 parallel copies, bar copy
    t being the t-th vector of the hinge's ``hinge_complement_basis``.  A
    copy's rows are linear in its bar, so any basis gives the same ranks.
    ``multiplied`` is ``multiply_edges(h, C(d+1,2)-1)`` when the caller
    has it already."""
    d = config.d
    m = bar_multiplicity(d)
    if multiplied is None:
        multiplied = multiply_edges(h, m)
    entries: dict[EdgeId, BarEntry] = {}
    for e in h.edges:
        for t, vec in enumerate(hinge_complement_basis(config.vector(e.id)), 1):
            entries[(e.id, t)] = BarEntry(vector=vec, points=None)
    return multiplied, BarConfiguration(d=d, entries=entries, meta=dict(config.meta))


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
    bound: int = DEFAULT_BOUND,
    config: HingeConfiguration | None = None,
) -> Analysis:
    """Combinatorial path: signed-matroid union verdicts on the multiplied
    gain graph, run first so that their witness bounds certify the
    numeric ranks.  Numeric path: body-bar analysis of the multiplied
    quotient with the bars of ``hinge_to_bars``, sampled by
    ``analyze_sampled``: sample t has the hinges from seed + t, drawn only
    when it is needed; an explicit ``config`` is the one sample."""
    HingeConfiguration.check_edges(h, rep.d)
    multiplied = multiply_edges(h, bar_multiplicity(rep.d))
    verdicts = _verdicts(multiplied, rep)

    def draw(t: int) -> BarConfiguration:
        hinges = config or random_generic_hinges(h, rep, seed + t, bound=bound)
        return hinge_to_bars(h, hinges, multiplied)[1]

    numeric = analyze_sampled(
        multiplied, rep, draw, samples if config is None else 1, _witness_bounds(verdicts),
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
    bound: int = DEFAULT_BOUND,
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
    as a JSON certificate; with ``oracle``, its first counting violation
    (``counting_violation``) beside it."""
    if model == "body-hinge":
        HingeConfiguration.check_edges(h, rep.d)
        h = multiply_edges(h, bar_multiplicity(rep.d))
    out = []
    for g in irreps:
        verdict = combinatorial_verdict(h, rep, g)
        cert = verdict.to_json()
        if oracle:
            cert["counting_violation"] = counting_violation(verdict)
        out.append(cert)
    return out
