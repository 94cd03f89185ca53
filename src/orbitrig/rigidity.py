"""Rigidity matrices of body-bar frameworks and the per-character orbit
matrices of their quotients.

The screw of a body is a grade-2 coordinate vector; a bar row pairs screws
with the bar's grade-2 coordinates by the plain coordinatewise product
(the duality pairing composed with the star identification; one fixed
convention, exercised against the dimension-3 formulas in the tests).  A
framework is infinitesimally rigid exactly when every character block
leaves no motions beyond its fixed screws; Galois-conjugate characters
share one block.

``analyze`` ranks each block mod a prime p without building it over Q: one
sparse row per quotient edge, assembled from the bar vector and the screw
image reduced mod p.  For a character of order m the character value
zeta_m^a becomes w^a, w a primitive m-th root of unity mod a prime
p = 1 (mod m), so a complex character is ranked unrealified.  The F_p rank
counts when it reaches min(nonzero rows, columns - proven fixed screws);
otherwise ``orbit_matrix`` builds the block over Q, realified for a complex
character (phi(m) rational rows per quotient edge and phi(m) columns per
screw coordinate, see ``symmetry``), and it is ranked exactly.  Flex
extraction and the tests use ``orbit_matrix`` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import Mapping

from .algebra import Scalar
from .errors import ConsistencyError, InputError
from .gaingraph import CoveredGraph, EdgeId, GainEdge, GainGraph, VertexId
from .genframe import BarConfiguration, BarEntry, lift_bars, random_generic_bars, verify_loop_form
from .linalg import (
    matrix_rank,
    nullspace_exact,
    prime_with_root,
    rank_certified,
    rank_complex,
    rank_exact,
    rank_mod_p,
    residue,
)
from .symmetry import (
    Element,
    PointRepresentation,
    character_power,
    fixed_subspace_basis,
    galois_representative,
    irrep_degree,
    irrep_is_real,
    proven_trivial_dim,
    tau_hat2_j,
    tau_hat2_mod,
    trivial_motion_dim,
)

__all__ = [
    "OrbitMatrix",
    "Flex",
    "IrrepReport",
    "RigidityReport",
    "matrix_rank",
    "rigidity_matrix",
    "orbit_matrix",
    "analyze",
    "analyze_generic",
    "merge_samples",
    "extract_flex",
    "crosscheck_block_ranks",
]


def rigidity_matrix(
    cov: CoveredGraph, bars: Mapping[tuple, BarEntry], d: int
) -> list[list[Scalar]]:
    """Row per lifted bar: its grade-2 coordinates at the tail block and
    their negation at the head block."""
    b = comb(d + 1, 2)
    vindex = {v: i for i, v in enumerate(cov.vertices)}
    rows = []
    for e in cov.edges:
        try:
            vec = bars[e.id].vector
        except KeyError:
            raise InputError(f"no bar for lifted edge {e.id!r}")
        row = [Fraction(0)] * (b * len(cov.vertices))
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
    realified over Q: ``degree`` = phi(m) rows per edge and columns per
    screw coordinate (1 for a real character)."""

    irrep: Element
    d: int
    vertices: tuple[VertexId, ...]
    edge_ids: tuple[EdgeId, ...]
    rows: tuple[tuple[Scalar, ...], ...]
    degree: int = 1

    @property
    def block_size(self) -> int:
        return comb(self.d + 1, 2) * self.degree

    @property
    def ncols(self) -> int:
        return self.block_size * len(self.vertices)

    def row_of(self, eid: EdgeId) -> tuple[Scalar, ...]:
        """The first row of edge ``eid`` (its only row for a real character)."""
        return self.rows[self.edge_ids.index(eid) * self.degree]

    def rank(self) -> int:
        """Rank over Q(zeta_m) by Bareiss, independent of the certified path."""
        return rank_exact(self.rows) // self.degree


def orbit_matrix(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation, g: Element
) -> OrbitMatrix:
    """Row per quotient edge: the bar vector at the tail block and minus the
    inverse twisted screw image of the bar at the head block; a loop row
    collapses both entries onto its single vertex.  Rows of non-free loops
    whose character value is -1 vanish identically.  A complex character
    gets one row per basis element e_r of Q(zeta_m), built the same way from
    the realified bar vec (x) e_r and the realified twisted image."""
    _check_inputs(h, config, rep)
    g = rep.group.canon(g)
    b = comb(rep.d + 1, 2)
    deg = irrep_degree(rep.group, g)
    size = b * deg
    vindex = {v: i for i, v in enumerate(h.vertices)}
    rows = []
    for e in h.edges:
        vec = config.vector(e.id)
        inv = tau_hat2_j(rep, g, rep.group.inverse(e.gain))
        tb = vindex[e.tail] * size
        hb = vindex[e.head] * size
        for r in range(deg):
            vec_r: list[Scalar] = [0] * size
            vec_r[r::deg] = vec
            # twisted images are sparse, so zero coefficients are skipped
            moved = [sum(a * x for a, x in zip(row, vec_r) if a) for row in inv.rows]
            row: list[Scalar] = [Fraction(0)] * (size * len(h.vertices))
            for t in range(size):
                row[tb + t] += vec_r[t]
                row[hb + t] -= moved[t]
            rows.append(tuple(row))
    return OrbitMatrix(
        irrep=g,
        d=rep.d,
        vertices=tuple(h.vertices),
        edge_ids=tuple(e.id for e in h.edges),
        rows=tuple(rows),
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


def _block_rank(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation, g: Element
) -> int:
    """Exact rank over Q(zeta_m) of the block of character g, m its order,
    for inputs that passed ``_check_inputs``.  Its rows are assembled mod
    the prime p of ``prime_with_root(m)``, with zeta_m -> w; that is a ring
    homomorphism, so rank_p <= rank <= min(nonzero rows, bound), the bound
    being the columns minus the proven fixed screws, and an F_p rank
    reaching that minimum is returned.  Otherwise, or when p divides a
    denominator, the realified orbit matrix is built and ranked by Bareiss
    (real characters) or ``rank_complex``."""
    trivial = proven_trivial_dim(rep, g)
    bound = comb(rep.d + 1, 2) * len(h.vertices) - trivial
    p, w = prime_with_root(rep.group.element_order(g))
    assembled = _rows_mod_p(h, config, rep, g, p, w)
    if assembled is not None:
        rows, nonzero = assembled
        target = min(nonzero, bound)
        if rank_mod_p(rows, target, p) == target:
            return target
    om = orbit_matrix(h, config, rep, g)
    if om.degree == 1:
        return rank_exact(om.rows)
    return rank_complex(om.rows, om.ncols - om.degree * trivial, om.degree)


def _rows_mod_p(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation, g: Element, p: int, w: int
) -> tuple[list[dict[int, int]], int] | None:
    """The block of character g over F_p, one sparse row per edge: the bar
    vector at the tail block and minus w^a tau_hat2(gain^-1) vec at the
    head block, for the character value zeta_m^a at the gain; with the
    number of rows that are nonzero over Q(zeta_m), which can exceed the
    rows kept.  None when p divides a denominator."""
    b = comb(rep.d + 1, 2)
    offset = {v: i * b for i, v in enumerate(h.vertices)}
    heads = {}  # gain -> (tau_hat2 of its inverse mod p, -w^a mod p)
    rows = []
    nonzero = 0
    for e in h.edges:
        if e.gain not in heads:
            image = tau_hat2_mod(rep, rep.group.inverse(e.gain), p)
            if image is None:
                return None
            heads[e.gain] = image, p - pow(w, character_power(rep.group, g, e.gain), p)
        image, c = heads[e.gain]
        vec = config.vector(e.id)
        vp = [residue(x, p) for x in vec]
        if None in vp:
            return None
        row = {offset[e.tail] + t: x for t, x in enumerate(vp) if x}
        hb = offset[e.head]
        for t, terms in enumerate(image):
            y = (row.get(hb + t, 0) + c * sum(a * vp[s] for s, a in terms)) % p
            if y:
                row[hb + t] = y
            else:
                row.pop(hb + t, None)
        if row:
            rows.append(row)
            nonzero += 1
        elif not _row_vanishes(e, vec, rep, g):
            nonzero += 1
    return rows, nonzero


def _row_vanishes(
    e: GainEdge, vec: tuple[Scalar, ...], rep: PointRepresentation, g: Element
) -> bool:
    """Whether the row of edge ``e`` is zero over Q(zeta_m), in exact
    arithmetic: a non-loop row holds vec itself, and a loop row is zero
    exactly when its first realified row vec (x) e_0 - A (vec (x) e_0) is."""
    if not any(vec):
        return True
    if e.tail != e.head:
        return False
    deg = irrep_degree(rep.group, g)
    vec_0: list[Scalar] = [0] * (len(vec) * deg)
    vec_0[::deg] = vec
    return list(tau_hat2_j(rep, g, rep.group.inverse(e.gain)).apply(vec_0)) == vec_0


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class IrrepReport:
    irrep: Element
    rank: int
    trivial: int
    flex: int

    @property
    def rigid(self) -> bool:
        return self.flex == 0

    def to_json(self) -> dict:
        return {
            "irrep": list(self.irrep),
            "rank": self.rank,
            "trivial": self.trivial,
            "flex": self.flex,
            "rigid": self.rigid,
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

    @property
    def rigid(self) -> bool:
        return all(r.rigid for r in self.irreps)

    @property
    def isostatic(self) -> bool:
        return self.rigid and sum(r.rank for r in self.irreps) == self.lifted_edges

    def irrep_report(self, g: Element) -> IrrepReport:
        for r in self.irreps:
            if r.irrep == tuple(g):
                return r
        raise InputError(f"no report for irrep {g}")

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
    h: GainGraph, rep: PointRepresentation, config: BarConfiguration
) -> RigidityReport:
    """Per-character ranks for one fixed configuration: the flex count of a
    block is the column count minus its rank minus its fixed-screw
    dimension.  One block is ranked per Galois orbit of characters."""
    _check_inputs(h, config, rep)
    b = comb(rep.d + 1, 2)
    nv = len(h.vertices)
    reports = []
    ranks: dict[Element, int] = {}
    for g in rep.group.elements():
        root = galois_representative(rep.group, g)
        if root not in ranks:
            ranks[root] = _block_rank(h, config, rep, root)
        rank = ranks[root]
        trivial = trivial_motion_dim(rep, root)
        flex = b * nv - rank - trivial
        if flex < 0:
            raise ConsistencyError(
                f"negative flex count in irrep {g}: rank {rank}, trivial {trivial}"
            )
        reports.append(IrrepReport(irrep=g, rank=rank, trivial=trivial, flex=flex))
    return RigidityReport(
        d=rep.d,
        group_orders=rep.group.orders,
        quotient_vertices=nv,
        quotient_edges=len(h.edges),
        lifted_edges=_lifted_edge_count(h, rep.group.order()),
        irreps=tuple(reports),
        meta=dict(config.meta),
    )


def analyze_generic(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    bound: int = 10 ** 6,
) -> RigidityReport:
    """Analyze at a random symmetric configuration, sampling ``samples``
    independent seeds and keeping the per-character maximum rank.  Exact
    rank agreement across the samples is the practical genericity surrogate
    and is reported, not enforced."""
    per_sample = [
        analyze(h, rep, random_generic_bars(h, rep, seed + t, bound=bound))
        for t in range(samples)
    ]
    meta = {"seed": seed, "samples": samples, "bound": bound, "prng": "python-random-mt19937"}
    return merge_samples(per_sample, meta)


def merge_samples(per_sample: list[RigidityReport], meta: dict) -> RigidityReport:
    """One report from the reports of independent samples: per character
    the maximum rank and its flex count, ``samples_agree`` when every sample
    gave the same ranks, and ``meta`` in place of the samples' metadata."""
    if not per_sample:
        raise InputError("need at least one sample")
    base = per_sample[0]
    agree = all(
        [r.rank for r in rep_t.irreps] == [r.rank for r in base.irreps] for rep_t in per_sample
    )
    b = comb(base.d + 1, 2)
    merged = []
    for i, r in enumerate(base.irreps):
        best = max(rep_t.irreps[i].rank for rep_t in per_sample)
        flex = b * base.quotient_vertices - best - r.trivial
        merged.append(IrrepReport(irrep=r.irrep, rank=best, trivial=r.trivial, flex=flex))
    return replace(base, irreps=tuple(merged), samples_agree=agree, meta=meta)


# ---------------------------------------------------------------------------
# flexes


@dataclass(frozen=True)
class Flex:
    """A nontrivial motion in one character block: a screw per quotient
    vertex, orthogonalized against the fixed screws."""

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
                str(v): [_scalar_json(x) for x in vec] for v, vec in self.assignment.items()
            },
        }


def _scalar_json(x: Scalar):
    return str(x) if isinstance(x, Fraction) else x


def trivial_space_vectors(
    rep: PointRepresentation, g: Element, nverts: int
) -> list[tuple[Scalar, ...]]:
    """Constant assignments of each fixed screw to every vertex: the
    j-symmetric trivial motions on the quotient."""
    out = []
    for t in fixed_subspace_basis(rep, g):
        out.append(tuple(t) * nverts)
    return out


def extract_flex(om: OrbitMatrix, rep: PointRepresentation) -> Flex | None:
    """A kernel vector of the orbit matrix outside the trivial subspace,
    orthogonalized against it; None when the kernel is exactly the trivial
    space.  Real characters only: a flex of a complex character is a vector
    over Q(zeta_m), which the report does not carry."""
    if om.degree != 1:
        raise InputError("flex extraction is implemented for the exact rational path")
    nv = len(om.vertices)
    kernel = nullspace_exact([list(r) for r in om.rows], om.ncols)
    trivial = [list(v) for v in trivial_space_vectors(rep, om.irrep, nv)]
    t_rank = rank_exact(trivial) if trivial else 0
    # orthogonal basis of the trivial space for exact projection
    ortho: list[list[Fraction]] = []
    for t in trivial:
        vec = _orthogonal_part(t, ortho)
        if any(x != 0 for x in vec):
            ortho.append(vec)
    for k in kernel:
        if rank_exact(trivial + [list(k)]) > t_rank:
            vec = _orthogonal_part(k, ortho)
            lead = next((x for x in vec if x != 0), None)
            if lead is not None:
                vec = [x / lead for x in vec]
            b = om.block_size
            assignment = {
                v: tuple(vec[i * b : (i + 1) * b]) for i, v in enumerate(om.vertices)
            }
            return Flex(irrep=om.irrep, vertices=om.vertices, assignment=assignment)
    return None


def _orthogonal_part(vec, ortho: list[list[Fraction]]) -> list[Fraction]:
    """``vec`` minus its projections onto the pairwise orthogonal ``ortho``."""
    vec = [Fraction(x) for x in vec]
    for u in ortho:
        c = sum(a * b for a, b in zip(vec, u)) / sum(a * a for a in u)
        vec = [a - c * b for a, b in zip(vec, u)]
    return vec


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


def crosscheck_block_ranks(
    h: GainGraph, config: BarConfiguration, rep: PointRepresentation
) -> CrosscheckResult:
    """Exact rank of the lifted rigidity matrix against the sum of the
    orbit-matrix ranks across characters.  Restricted to representations
    whose characters are all real so both sides stay rational."""
    for g in rep.group.elements():
        if not irrep_is_real(rep.group, g):
            raise InputError("rank additivity crosscheck needs all-real characters")
    cov, bars = lift_bars(h, config, rep)
    lifted = rigidity_matrix(cov, bars, rep.d)
    # each row is +vec at its tail block and -vec at its head block, so the
    # C(d+1,2) constant screw assignments lie in the kernel
    b = comb(rep.d + 1, 2)
    lifted_rank = rank_certified(lifted, b * (len(cov.vertices) - 1))
    _check_inputs(h, config, rep)
    blocks = {g: _block_rank(h, config, rep, g) for g in rep.group.elements()}
    return CrosscheckResult(lifted_rank=lifted_rank, block_ranks=blocks)
