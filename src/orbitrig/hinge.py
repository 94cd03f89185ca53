"""Body-hinge frameworks: a hinge is a grade-(d-1) simplex shared by two
bodies, and removes all relative freedoms except the rotation about it.
Each quotient edge is expanded into C(d+1,2)-1 parallel bars, a basis of
the orthogonal complement of the starred hinge, which a hinge entry holds
(any basis gives the same ranks), after which the body-bar machinery
(numeric and combinatorial) applies to the multiplied quotient.

The group must act freely on the edge set here: the non-free loop set is
required to be empty.

Since a body-hinge framework is a body-bar one on that quotient, the one
pipeline of both models lives here too.  A model decides only its
body-bar quotient (``body_bar_quotient``), what sample t draws, and the
report metadata.  ``analyze_framework`` then runs the matroid path when
the representation admits it, one ``rigidity.analyze_sampled`` call with
the verdicts' witness bounds (an explicit configuration is its one
sample), and checks the two against each other (``disagreements``);
``certificates`` runs the matroid path alone on the same quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    random_generic_bars,
)
from .linalg import kernel_vectors
from .matroid import CombinatorialVerdict, combinatorial_verdict, counting_violation
from .rigidity import IrrepReport, RigidityReport, analyze_sampled
from .symmetry import Element, PointRepresentation


def bar_multiplicity(d: int) -> int:
    return comb(d + 1, 2) - 1


def random_generic_hinges(
    h: GainGraph, rep: PointRepresentation, seed: int, bound: int = DEFAULT_BOUND
) -> HingeConfiguration:
    """A hinge per quotient edge: d-1 random homogeneous points wedged."""
    return random_configuration(HingeConfiguration, h, rep, seed, bound)


def hinge_complement_basis(star: Sequence[int]) -> list[tuple[int, ...]]:
    """Deterministic basis of the orthogonal complement of a starred hinge,
    the vector of a hinge entry, in grade-2 coordinate space: the integer
    vectors of ``kernel_vectors``, so a bar built from one has den 1."""
    if not any(star):
        raise InputError("zero hinge extensor has no complement basis")
    return list(kernel_vectors([list(star)], len(star)))


def body_bar_quotient(model: str, h: GainGraph, d: int) -> GainGraph:
    """The quotient whose body-bar framework a framework of ``model`` is:
    ``h`` itself for body-bar; for body-hinge, ``h`` with every edge
    multiplied into C(d+1,2)-1 parallel copies, once its edges are checked
    to take hinges."""
    if model != "body-hinge":
        return h
    HingeConfiguration.check_edges(h, d)
    return multiply_edges(h, bar_multiplicity(d))


def hinge_to_bars(h: GainGraph, config: HingeConfiguration) -> BarConfiguration:
    """The bars of the hinges' body-bar quotient (``body_bar_quotient``):
    copy t of a quotient edge is the t-th vector of its hinge's
    ``hinge_complement_basis``.  A copy's rows are linear in its bar, so
    any basis gives the same ranks."""
    entries: dict[EdgeId, BarEntry] = {}
    for e in h.edges:
        for t, vec in enumerate(hinge_complement_basis(config.vector(e.id)), 1):
            entries[(e.id, t)] = BarEntry(vector=vec, points=None)
    return BarConfiguration(d=config.d, entries=entries, meta=dict(config.meta))


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


def analyze_framework(
    model: str,
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    config: BarConfiguration | None = None,
) -> Analysis:
    """Both paths for a framework of either model on its body-bar quotient.
    ``config`` holds hinges (a ``HingeConfiguration``) for a body-hinge
    one, and is then the one sample; without it, sample t is drawn from
    seed + t at ``DEFAULT_BOUND``, at most ``samples`` times per block
    (``analyze_sampled``).
    The matroid verdicts, when the representation admits them, come first,
    and their witness bounds go to the numeric path.  Agreement is
    required only of a sampled configuration: an explicit one may sit in
    special position, where the numeric rank falls below the generic one
    that the matroid path counts.  The report's metadata is the seed,
    sample count, bound and generator of a sampled configuration, or an
    explicit one's own, which draws nothing; body-hinge adds its model and
    bars per hinge."""
    bars = body_bar_quotient(model, h, rep.d)
    if config is None:
        meta = {"seed": seed, "samples": samples, "bound": DEFAULT_BOUND, "prng": PRNG_NAME}
    else:
        meta = dict(config.meta)
    if model == "body-hinge":
        meta.update(model="body-hinge", bars_per_hinge=bar_multiplicity(rep.d))

        def draw(t: int) -> BarConfiguration:
            return hinge_to_bars(h, config or random_generic_hinges(h, rep, seed + t))
    else:
        def draw(t: int) -> BarConfiguration:
            return config or random_generic_bars(h, rep, seed + t)

    verdicts = None
    if rep.is_combinatorial():
        verdicts = tuple(combinatorial_verdict(bars, rep, g) for g in rep.group.elements())
    numeric = analyze_sampled(
        bars, rep, draw, samples if config is None else min(samples, 1),
        None if verdicts is None else {v.irrep: v.witness_bound for v in verdicts}, meta,
    )
    consistent = verdicts is None or config is not None or not disagreements(numeric, verdicts)
    return Analysis(model, numeric, verdicts, consistent)


def analyze_hinge(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    config: HingeConfiguration | None = None,
) -> Analysis:
    """``analyze_framework`` of a body-hinge framework."""
    return analyze_framework("body-hinge", h, rep, seed, samples, config)


def certificates(
    model: str, h: GainGraph, rep: PointRepresentation, irreps: Sequence[Element], oracle: bool = False
) -> list[dict]:
    """The combinatorial verdict of each character on the body-bar quotient,
    as a JSON certificate; with ``oracle``, its first counting violation
    (``counting_violation``) beside it."""
    bars = body_bar_quotient(model, h, rep.d)
    out = []
    for g in irreps:
        verdict = combinatorial_verdict(bars, rep, g)
        cert = verdict.to_json()
        if oracle:
            cert["counting_violation"] = counting_violation(verdict)
        out.append(cert)
    return out
