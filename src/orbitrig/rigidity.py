"""Rigidity matrices of body-bar frameworks and the per-character orbit
matrices of their quotients.

The screw of a body is a grade-2 coordinate vector; a bar row pairs screws
with the bar's grade-2 coordinates by the plain coordinatewise product
(the duality pairing composed with the star identification; one fixed
convention, exercised against the dimension-3 formulas in the tests).  A
framework is infinitesimally rigid exactly when every character block
leaves no motions beyond its fixed screws; Galois-conjugate characters
share one block.

Each character block is assembled once, by ``_block_rows``: one sparse
integer row per quotient edge, the row over Q(zeta_m) (m the character's
order) written in the coefficients of 1, zeta_m, ..., zeta_m^(phi(m)-1)
and cleared of denominators.  Every consumer reads those rows.
``analyze`` hands them to ``linalg.rank_certified``, which ranks them over
F_p, zeta_m sent to a root of unity mod p, and counts an F_p rank that
reaches min(nonzero rows, columns - proven fixed screws) or, for a
two-group character, the matroid union's witness bound, an upper bound
on the rank at every configuration; any other rank is Bareiss's on the
same rows realified.  ``orbit_matrix`` densifies the realified rows (phi(m)
integer rows per quotient edge and phi(m) columns per screw coordinate)
for flex extraction and the tests.

A rank that meets either upper bound is the generic rank, and
``_block_rank`` names that bound as its proof.  ``analyze_sampled``, the
sampling loop of both models, samples a block again only while its rank
is unproven.  ``lifted_rank``, the crosscheck's rank of the lifted
framework, is also one sparse integer row per edge, from ``tau_hat_int``,
certified by ``rank_certified``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import Callable, Mapping, Sequence

from .algebra import Scalar
from .errors import ConsistencyError, InputError
from .gaingraph import CoveredGraph, GainGraph, VertexId, lift_cover
from .genframe import (
    DEFAULT_BOUND,
    PRNG_NAME,
    BarConfiguration,
    BarEntry,
    random_generic_bars,
    verify_loop_form,
)
from .linalg import kernel_vectors, orthogonal_part, rank_certified, rank_complex, realified
from .symmetry import (
    Element,
    PointRepresentation,
    character_power,
    fixed_subspace_basis,
    galois_representative,
    irrep_degree,
    root_of_unity_matrix,
    tau_hat_int,
    trivial_motion_dim,
)


def rigidity_matrix(
    cov: CoveredGraph, bars: Mapping[tuple, BarEntry], d: int
) -> list[list[int]]:
    """Row per lifted bar: its entry's integer grade-2 vector at the tail
    block and its negation at the head block."""
    b = comb(d + 1, 2)
    vindex = {v: i for i, v in enumerate(cov.vertices)}
    rows = []
    for e in cov.edges:
        try:
            vec = bars[e.id].vector
        except KeyError:
            raise InputError(f"no bar for lifted edge {e.id!r}")
        row = [0] * (b * len(cov.vertices))
        tb = vindex[e.tail] * b
        hb = vindex[e.head] * b
        for t in range(b):
            row[tb + t] += vec[t]
            row[hb + t] -= vec[t]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class OrbitMatrix:
    """Quotient-sized block of the rigidity matrix for one character label,
    realified over Q, with integer rows: ``degree`` = phi(m) rows per edge
    and columns per screw coordinate (1 for a real character)."""

    irrep: Element
    d: int
    vertices: tuple[VertexId, ...]
    rows: tuple[tuple[int, ...], ...]
    degree: int = 1

    @property
    def block_size(self) -> int:
        return comb(self.d + 1, 2) * self.degree

    @property
    def ncols(self) -> int:
        return self.block_size * len(self.vertices)

    def rank(self) -> int:
        """Rank over Q(zeta_m) by Bareiss (``rank_complex``), independent of
        the certified path."""
        return rank_complex(self.rows, self.degree)


def orbit_matrix(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation, g: Element
) -> OrbitMatrix:
    """The block of character g, m its order, realified over Q: the rows of
    ``_block_rows`` through ``realified``, densified, so that quotient edge
    k gives rows k phi(m), ..., k phi(m) + phi(m) - 1, its row times
    zeta_m^r.  Every entry is an integer.  Rows of non-free loops whose
    character value is -1 vanish identically."""
    _check_inputs(h, config, rep)
    deg = irrep_degree(rep.group, g)
    ncols = comb(rep.d + 1, 2) * deg * len(h.vertices)
    rows = realified(_block_rows(h, config, rep, g), rep.group.element_order(g))
    return OrbitMatrix(
        irrep=g,
        d=rep.d,
        vertices=tuple(h.vertices),
        rows=tuple(tuple(row.get(c, 0) for c in range(ncols)) for row in rows),
        degree=deg,
    )


def _check_inputs(h: GainGraph, config: BarConfiguration, rep: PointRepresentation) -> None:
    """What every orbit matrix of ``h`` needs: gains in the group, non-free
    loop bars in loop form, and a bar of C(d+1,2) coordinates per edge."""
    h.validate_gains(rep.group)
    verify_loop_form(h, rep, config)
    b = comb(rep.d + 1, 2)
    for e in h.edges:
        vec = config.vector(e.id)
        if len(vec) != b:
            raise InputError(f"bar of edge {e.id!r} has {len(vec)} coordinates, expected {b}")


def _block_rows(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation, g: Element
) -> list[dict[int, int]]:
    """The block of character g, m its order, as one sparse integer row per
    quotient edge, for inputs that passed ``_check_inputs``: the row over
    Q(zeta_m) written in the coefficients of 1, zeta_m, ...,
    zeta_m^(phi(m)-1), coefficient c of screw coordinate t at column
    t * phi(m) + c of its vertex block (the first realified row).  It holds
    the bar vector at the tail block and minus zeta_m^a tau_hat2(gain^-1)
    vec at the head block, zeta_m^a the character value at the gain, all
    times D L, D the common denominator of tau_hat2(gain^-1) and L the
    entry's ``den``.  A row is empty exactly when it is zero over Q(zeta_m)."""
    deg = irrep_degree(rep.group, g)
    m = rep.group.element_order(g)
    size = comb(rep.d + 1, 2) * deg
    offset = {v: i * size for i, v in enumerate(h.vertices)}
    heads = {}  # gain -> (D, terms of D tau_hat2(gain^-1), coefficients of -zeta_m^a)
    rows = []
    for e in h.edges:
        if e.gain not in heads:
            den, terms = tau_hat_int(rep, rep.group.inverse(e.gain))
            power = root_of_unity_matrix(m, character_power(rep.group, g, e.gain))
            heads[e.gain] = den, terms, [(c, -r[0]) for c, r in enumerate(power.rows) if r[0]]
        den, terms, root = heads[e.gain]
        vec = config.vector(e.id)
        tb = offset[e.tail]
        row = {tb + t * deg: den * x for t, x in enumerate(vec) if x}
        hb = offset[e.head]
        for t, ts in enumerate(terms):
            y = sum(a * vec[s] for s, a in ts)
            if y:
                for c, z in root:
                    col = hb + t * deg + c
                    x = row.get(col, 0) + z * y
                    if x:
                        row[col] = x
                    else:
                        del row[col]
        rows.append(row)
    return rows


def _block_rank(
    h: GainGraph,
    config: BarConfiguration,
    rep: PointRepresentation,
    g: Element,
    witness_bound: int | None = None,
) -> tuple[int, str | None]:
    """Exact rank over Q(zeta_m) of the block of character g, m its order,
    for inputs that passed ``_check_inputs``, and its proof: the rows of
    ``_block_rows`` certified by ``rank_certified`` against the bound, the
    columns minus the proven fixed screws.

    ``witness_bound``, given for a two-group character, is the matroid
    union's |S \\ X| + sum_i r_i(X) (``CombinatorialVerdict``), another
    upper bound on the rank that is proven independently of this block.
    ``rank_certified`` eliminates past it, up to min(nonzero rows, bound),
    and returns an F_p rank that reaches it; a rank above it raises
    ``ConsistencyError``, and one equal to it is the rank, which certifies
    deficient blocks too.  The proof names the bound that the rank meets,
    "bound" checked first, or is None (see ``IrrepReport``)."""
    bound = comb(rep.d + 1, 2) * len(h.vertices) - trivial_motion_dim(rep, g)
    m = rep.group.element_order(g)
    rank = rank_certified(_block_rows(h, config, rep, g), bound, m, witness_bound)
    if witness_bound is not None and rank > witness_bound:
        raise ConsistencyError(
            f"block of irrep {g} has rank at least {rank}, above the witness bound {witness_bound}"
        )
    return rank, "bound" if rank == bound else "witness" if rank == witness_bound else None


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class IrrepReport:
    """One character's rank and flex count.  ``sample_ranks`` are the ranks
    of its block at each configuration sampled for it, and ``rank`` is
    their maximum.  ``proof`` names the upper bound on the rank at every
    configuration that ``rank`` meets, which makes it the generic rank:
    "bound" (the columns minus the proven fixed screws) or "witness" (the
    matroid union's witness bound); None when it meets neither.  Reports
    compare by their numbers, not by the proof."""

    irrep: Element
    rank: int
    trivial: int
    flex: int
    sample_ranks: tuple[int, ...] = ()
    proof: str | None = field(default=None, compare=False)

    @property
    def rigid(self) -> bool:
        return self.flex == 0

    def merge(self, later: "IrrepReport") -> "IrrepReport":
        """This report and a later sample's of the same character as one:
        the maximum rank, both samples' ranks, and the later proof."""
        rank = max(self.rank, later.rank)
        return replace(
            later,
            rank=rank,
            flex=later.flex + later.rank - rank,
            sample_ranks=self.sample_ranks + later.sample_ranks,
        )

    def to_json(self) -> dict:
        return {
            "irrep": list(self.irrep),
            "rank": self.rank,
            "trivial": self.trivial,
            "flex": self.flex,
            "rigid": self.rigid,
            "proof": self.proof,
            "sample_ranks": list(self.sample_ranks),
        }


@dataclass(frozen=True)
class RigidityReport:
    d: int
    group_orders: tuple[int, ...]
    quotient_vertices: int
    quotient_edges: int
    lifted_edges: int
    irreps: tuple[IrrepReport, ...]
    samples_agree: bool = True
    meta: dict = field(default_factory=dict)
    config: BarConfiguration | None = field(default=None, compare=False, repr=False)  # of sample 0

    @property
    def rigid(self) -> bool:
        return all(r.rigid for r in self.irreps)

    @property
    def isostatic(self) -> bool:
        return self.rigid and sum(r.rank for r in self.irreps) == self.lifted_edges

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "group": {"orders": list(self.group_orders)},
            "quotient": {"vertices": self.quotient_vertices, "edges": self.quotient_edges},
            "lifted_edges": self.lifted_edges,
            "irreps": [r.to_json() for r in self.irreps],
            "rigid": self.rigid,
            "isostatic": self.isostatic,
            "samples_agree": self.samples_agree,
            "meta": self.meta,
        }


def _lifted_edge_count(h: GainGraph, order: int) -> int:
    n = 0
    for e in h.edges:
        n += order // 2 if e.id in h.loops_l else order
    return n


def analyze(
    h: GainGraph,
    rep: PointRepresentation,
    config: BarConfiguration,
    witness_bounds: Mapping[Element, int] | None = None,
    irreps: Sequence[Element] | None = None,
) -> RigidityReport:
    """Per-character ranks for one fixed configuration: the flex count of a
    block is the column count minus its rank minus its fixed-screw
    dimension.  One block is ranked per Galois orbit of characters.
    ``witness_bounds`` maps characters to the matroid union's witness
    bounds on their ranks (see ``_block_rank``).  Each rank carries its
    proof (see ``IrrepReport``).  ``irreps`` limits the report, and the
    blocks ranked, to those characters; all of them by default."""
    _check_inputs(h, config, rep)
    b = comb(rep.d + 1, 2)
    nv = len(h.vertices)
    reports = []
    ranks: dict[Element, tuple[int, str | None]] = {}
    for g in rep.group.elements() if irreps is None else irreps:
        root = galois_representative(rep.group, g)
        if root not in ranks:
            witness_bound = None if witness_bounds is None else witness_bounds[root]
            ranks[root] = _block_rank(h, config, rep, root, witness_bound)
        rank, proof = ranks[root]
        trivial = trivial_motion_dim(rep, root)
        flex = b * nv - rank - trivial
        if flex < 0:
            raise ConsistencyError(
                f"negative flex count in irrep {g}: rank {rank}, trivial {trivial}"
            )
        reports.append(IrrepReport(g, rank, trivial, flex, (rank,), proof))
    return RigidityReport(
        d=rep.d,
        group_orders=rep.group.orders,
        quotient_vertices=nv,
        quotient_edges=len(h.edges),
        lifted_edges=_lifted_edge_count(h, rep.group.order()),
        irreps=tuple(reports),
        meta=dict(config.meta),
        config=config,
    )


def analyze_sampled(
    h: GainGraph,
    rep: PointRepresentation,
    draw: Callable[[int], BarConfiguration],
    samples: int,
    witness_bounds: Mapping[Element, int] | None,
    meta: dict,
) -> RigidityReport:
    """The sampling loop of both models.  Sample 0 is ``analyze`` at
    ``draw(0)``.  Sample t + 1 is drawn only while some character's rank is
    unproven, and ranks only those characters' blocks; a block is sampled
    at most ``samples`` times.  Per character the rank is the maximum of
    its sample ranks, the proof that of its last sample, and
    ``samples_agree`` holds when every character's sample ranks are equal.
    ``meta`` replaces the configurations' metadata; ``config`` is sample 0's."""
    if samples < 1:
        raise InputError("need at least one sample")
    merged: dict[Element, IrrepReport] = {}
    todo = rep.group.elements()
    reports = []
    for t in range(samples):
        reports.append(analyze(h, rep, draw(t), witness_bounds, todo))
        for r in reports[-1].irreps:
            merged[r.irrep] = r if r.irrep not in merged else merged[r.irrep].merge(r)
        todo = [g for g in todo if merged[g].proof is None]
        if not todo:
            break
    irreps = tuple(merged[g] for g in rep.group.elements())
    agree = all(len(set(r.sample_ranks)) == 1 for r in irreps)
    return replace(reports[0], irreps=irreps, samples_agree=agree, meta=meta)


def analyze_generic(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    bound: int = DEFAULT_BOUND,
    witness_bounds: Mapping[Element, int] | None = None,
) -> RigidityReport:
    """Analyze at random symmetric configurations, sample t drawn from seed
    + t, at most ``samples`` of them per block (``analyze_sampled``)."""
    meta = {"seed": seed, "samples": samples, "bound": bound, "prng": PRNG_NAME}
    return analyze_sampled(
        h, rep, lambda t: random_generic_bars(h, rep, seed + t, bound=bound),
        samples, witness_bounds, meta,
    )


# ---------------------------------------------------------------------------
# flexes


@dataclass(frozen=True)
class Flex:
    """A nontrivial motion in one character block: a screw per quotient
    vertex, orthogonalized against the fixed screws, with Fraction
    entries."""

    irrep: Element
    vertices: tuple[VertexId, ...]
    assignment: dict[VertexId, tuple[Scalar, ...]]

    def stacked(self) -> list[Scalar]:
        out: list[Scalar] = []
        for v in self.vertices:
            out.extend(self.assignment[v])
        return out

    def to_json(self) -> dict:
        return {
            "irrep": list(self.irrep),
            "assignment": {
                str(v): [str(x) for x in vec] for v, vec in self.assignment.items()
            },
        }


def trivial_space_vectors(
    rep: PointRepresentation, g: Element, nverts: int
) -> list[tuple[int, ...]]:
    """Constant assignments of each fixed screw to every vertex: the
    j-symmetric trivial motions on the quotient."""
    return [t * nverts for t in fixed_subspace_basis(rep, g)]


def extract_flex(om: OrbitMatrix, rep: PointRepresentation) -> Flex | None:
    """The first kernel vector of the orbit matrix, in free-column order,
    that lies outside the trivial subspace, orthogonalized against it and
    divided by its lead entry; None when the kernel is exactly the trivial
    space.  A kernel vector lies outside exactly when its part orthogonal
    to a Gram-Schmidt basis of the trivial space is nonzero.  Basis and
    parts are integer multiples (``orthogonal_part``), which the division
    by the lead entry makes no difference to.  The kernel vectors are
    drawn lazily, so none after that one is computed.  Real characters
    only: a flex of a complex character is a vector over Q(zeta_m), which
    the report does not carry."""
    if om.degree != 1:
        raise InputError("flex extraction is implemented for the exact rational path")
    ortho: list[list[int]] = []
    for t in trivial_space_vectors(rep, om.irrep, len(om.vertices)):
        vec = orthogonal_part(t, ortho)
        if any(vec):
            ortho.append(vec)
    for k in kernel_vectors(om.rows, om.ncols):
        vec = orthogonal_part(k, ortho)
        lead = next((x for x in vec if x != 0), None)
        if lead is None:
            continue
        vec = [Fraction(x, lead) for x in vec]
        b = om.block_size
        assignment = {v: tuple(vec[i * b : (i + 1) * b]) for i, v in enumerate(om.vertices)}
        return Flex(irrep=om.irrep, vertices=om.vertices, assignment=assignment)
    return None


def flex_residuals(om: OrbitMatrix, flex: Flex) -> list[Scalar]:
    """Re-substitution check: the orbit matrix applied to the flex."""
    stacked = flex.stacked()
    return [sum(a * b for a, b in zip(row, stacked)) for row in om.rows]


# ---------------------------------------------------------------------------
# rank additivity against the lifted framework


@dataclass(frozen=True)
class CrosscheckResult:
    lifted_rank: int
    block_ranks: dict[Element, int]

    @property
    def additive(self) -> bool:
        return self.lifted_rank == sum(self.block_ranks.values())


def lifted_rank(h: GainGraph, config: BarConfiguration, rep: PointRepresentation) -> int:
    """Exact rank of the rigidity matrix of the lifted framework.  The row
    of a lifted edge, gamma the element indexing the lift, is ranked as its
    positive multiple y = D L tau_hat2(gamma) vec at the tail block and -y
    at the head block, L the entry's ``den`` (see ``tau_hat_int``)."""
    cov = lift_cover(h, rep.group)
    b = comb(rep.d + 1, 2)
    offset = {v: i * b for i, v in enumerate(cov.vertices)}
    rows = []
    for e in cov.edges:
        vec = config.vector(e.base)
        y = [sum(a * vec[s] for s, a in ts) for ts in tau_hat_int(rep, e.id[1])[1]]
        tb, hb = offset[e.tail], offset[e.head]
        rows.append({c: z for t, x in enumerate(y) if x for c, z in ((tb + t, x), (hb + t, -x))})
    # the C(d+1,2) constant screw assignments lie in the kernel
    return rank_certified(rows, b * (len(cov.vertices) - 1))


def crosscheck_block_ranks(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation
) -> CrosscheckResult:
    """Exact rank of the lifted rigidity matrix against the sum of the
    block ranks across characters, each over Q(zeta_m) for its character's
    order m.  The lifted matrix is rational for every representation."""
    lifted = lifted_rank(h, config, rep)
    _check_inputs(h, config, rep)
    blocks = {g: _block_rank(h, config, rep, g)[0] for g in rep.group.elements()}
    return CrosscheckResult(lifted_rank=lifted, block_ranks=blocks)
