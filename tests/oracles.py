"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the production algorithms: independence
goes through exact incidence-matrix ranks, union ranks through exhaustive
subset enumeration, tree packings through the partition criterion, and
a bar through ``fraction_wedge``, its definition in Fraction arithmetic.
The exceptions are earlier versions of production code, kept to pin the
exact output of the current ones: ``matroid_union_rank_unpruned``, the union
algorithm, ``analyze_generic`` with ``merge_samples``, the sampler that
ranked every block at every sample, ``hinge_to_bars``, which gave a
hinge's bar copies random invertible combinations of its complement basis,
and the screw-image functions that multiplied Fraction matrices:
``induced_rep`` and the ``symmetry`` functions ``tau_hat2_j``,
``trivial_motion_dim``, ``fixed_subspace_basis`` and
``proven_trivial_dim``.  These cache on the representation they are given,
in the attributes that the current functions use, so the tests hand them a
fresh copy of it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from orbitrig.algebra import Scalar, SquareMatrix, det, hodge_star, kron, lex_index
from orbitrig.errors import ConsistencyError, InputError, RepresentationError
from orbitrig.gaingraph import EdgeId, GainGraph, multiply_edges
from orbitrig.genframe import BarConfiguration, BarEntry, random_generic_bars
from orbitrig.hinge import HingeConfiguration, bar_multiplicity, hinge_complement_basis
from orbitrig.linalg import nullspace_exact, rank_certified, rank_exact
from orbitrig.matroid import (
    PairLabel,
    SignedGraph,
    UnionDecomposition,
    UnionRankResult,
    _SignedForest,
    incidence_matrix,
)
from orbitrig.rigidity import IrrepReport, RigidityReport, analyze
from orbitrig.symmetry import (
    Element,
    PointRepresentation,
    character_power,
    irrep_degree,
    root_of_unity_matrix,
)


def incidence_rank(sg: SignedGraph, ids=None) -> int:
    """Rank of the incidence rows of a subset: the linear-algebra side of
    signed-graphic independence."""
    emap = sg.edge_map()
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    all_rows = incidence_matrix(sg)
    order = [e.id for e in sg.edges]
    rows = [all_rows[order.index(eid)] for eid in ids]
    return rank_exact(rows) if rows else 0


def independent_by_incidence(sg: SignedGraph, ids=None) -> bool:
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    return incidence_rank(sg, ids) == len(ids)


def tree_path_bfs(adjacency, u, v):
    """Edge ids of the path from u to v in a forest given as adjacency lists
    of (edge id, neighbour) pairs, by breadth-first search from u; None when
    v is in another tree."""
    prev = {u: None}
    q = deque([u])
    while q and v not in prev:
        x = q.popleft()
        for eid, y in adjacency.get(x, ()):
            if y not in prev:
                prev[y] = (eid, x)
                q.append(y)
    if v not in prev:
        return None
    path = []
    cur = v
    while cur != u:
        eid, cur = prev[cur]
        path.append(eid)
    path.reverse()
    return path


def max_independent_bruteforce(sg: SignedGraph) -> int:
    """Largest independent subset by exhaustive enumeration (incidence rank)."""
    ids = [e.id for e in sg.edges]
    for size in range(len(ids), -1, -1):
        for subset in combinations(ids, size):
            if independent_by_incidence(sg, subset):
                return size
    return 0


def union_rank_bruteforce(labeled_sgs, ids) -> int:
    """Maximum size of a subset partitionable into per-matroid independent
    parts, by depth-first assignment with a simple bound."""
    sgs = [sg for _, sg in labeled_sgs]
    n = len(ids)
    best = 0

    def dfs(idx: int, parts: list[list], count: int) -> None:
        nonlocal best
        if count + (n - idx) <= best:
            return
        if idx == n:
            best = max(best, count)
            return
        e = ids[idx]
        for i, part in enumerate(parts):
            if independent_by_incidence(sgs[i], part + [e]):
                part.append(e)
                dfs(idx + 1, parts, count + 1)
                part.pop()
        dfs(idx + 1, parts, count)

    dfs(0, [[] for _ in labeled_sgs], 0)
    return best


def union_rank_minformula(labeled_sgs, ids) -> int:
    """Exhaustive evaluation of min over X of |S \\ X| + sum_i r_i(X)."""
    ids = list(ids)
    best = None
    for mask in range(1 << len(ids)):
        x = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        val = len(ids) - len(x)
        for _, sg in labeled_sgs:
            val += incidence_rank(sg, x)
        if best is None or val < best:
            best = val
    return best


def set_partitions(items):
    """All partitions of a list, as lists of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def tree_packing_exists(vertices, edges, k: int) -> bool:
    """Whether k edge-disjoint spanning trees exist, by the partition
    criterion: every partition P of the vertices must see at least
    k(|P| - 1) crossing edges."""
    vertices = list(vertices)
    for part in set_partitions(vertices):
        block_of = {}
        for bi, block in enumerate(part):
            for v in block:
                block_of[v] = bi
        crossing = sum(1 for (u, v) in edges if block_of[u] != block_of[v])
        if crossing < k * (len(part) - 1):
            return False
    return True


def matroid_union_rank_unpruned(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
    elements: Sequence[EdgeId] | None = None,
) -> UnionRankResult:
    """The union algorithm before failed searches marked their reach
    saturated, kept verbatim as a reference: every search explores its
    whole reach, and a final sweep from the unassigned elements builds the
    witness.  The production version must return the same decomposition,
    unassigned list, witness and rank.

    Rank of an edge set in the union of signed-graphic matroids on a
    common ground set, via incremental augmenting paths in the exchange
    graph (breadth-first, deterministic tie-breaking).

    Returns the rank, a decomposition of a maximum independent subset, and
    the set X of elements reachable from the unassigned ones, which
    certifies optimality: rank = |S \\ X| + sum_i r_i(X).  That sum is
    evaluated here with the incidence ranks r_i(X) of ``incidence_rank``.
    """
    if not labeled_sgs:
        raise InputError("need at least one matroid")
    edge_maps = [sg.edge_map() for _, sg in labeled_sgs]
    if elements is None:
        elements = [e.id for e in labeled_sgs[0][1].edges]
    elements = list(elements)
    unknown = [e for e in elements if e not in edge_maps[0]]
    if unknown:
        raise InputError(f"elements not on the ground set: {unknown!r}")
    # the forest takes an edge as (k, tail, head, sign) ints: k the
    # element's position, the vertices numbered in order of appearance
    index = {x: k for k, x in enumerate(elements)}
    vindex: dict = {}
    for emap in edge_maps:
        for x in elements:
            vindex.setdefault(emap[x].tail, len(vindex))
            vindex.setdefault(emap[x].head, len(vindex))

    def edge(emap, x):
        e = emap[x]
        return index[x], vindex[e.tail], vindex[e.head], e.sign

    parts: list[list[EdgeId]] = [[] for _ in labeled_sgs]
    forests = [_SignedForest(len(vindex)) for _ in labeled_sgs]
    part_of: dict[EdgeId, int] = {}
    unassigned: list[EdgeId] = []

    def arcs_and_terminal(x: EdgeId, visited: set[EdgeId]):
        """Yield ('insert', i) for a free slot or ('arc', y) for exchanges:
        the members y of part i on the circuit x closes there, in part order."""
        for i, emap in enumerate(edge_maps):
            if part_of.get(x) == i:
                continue
            circuit = forests[i].circuit(*edge(emap, x))
            if circuit is None:
                yield ("insert", i)
                continue
            for y in parts[i]:
                if index[y] in circuit and y not in visited:
                    yield ("arc", y)

    def try_augment(source: EdgeId) -> bool:
        prev: dict[EdgeId, EdgeId | None] = {source: None}
        q = deque([source])
        while q:
            x = q.popleft()
            for kind, val in arcs_and_terminal(x, prev.keys()):
                if kind == "insert":
                    _cascade(x, val, prev)
                    return True
                if val not in prev:
                    prev[val] = x
                    q.append(val)
        return False

    def _cascade(x: EdgeId, target: int, prev: Mapping[EdgeId, EdgeId | None]) -> None:
        # every part that loses an element also gains one, so the targets
        # are all the parts the path changed; the others keep their forests
        touched = set()
        while True:
            old = part_of.get(x)
            if old is not None:
                parts[old].remove(x)
            parts[target].append(x)
            part_of[x] = target
            touched.add(target)
            p = prev[x]
            if p is None:
                break
            x, target = p, old
        for i in sorted(touched):
            emap = edge_maps[i]
            forest = forests[i] = _SignedForest(len(vindex))
            for y in parts[i]:
                if forest.circuit(*edge(emap, y)) is not None:
                    raise ConsistencyError(f"augmentation broke part {labeled_sgs[i][0]}")
                forest.add(*edge(emap, y))

    for e in elements:
        if not try_augment(e):
            unassigned.append(e)

    # optimality witness: elements reachable from the unassigned ones
    reach: set[EdgeId] = set(unassigned)
    q = deque(unassigned)
    while q:
        x = q.popleft()
        for kind, val in arcs_and_terminal(x, reach):
            if kind == "insert":
                raise ConsistencyError("free slot reachable after augmentation finished")
            if val not in reach:
                reach.add(val)
                q.append(val)

    decomposition = UnionDecomposition(
        parts={label: tuple(parts[i]) for i, (label, _) in enumerate(labeled_sgs)},
        assignment={eid: labeled_sgs[i][0] for eid, i in part_of.items()},
        unassigned=tuple(unassigned),
    )
    rank = len(part_of)
    witness = tuple(e for e in elements if e in reach)
    ranks = sum(incidence_rank(sg, witness) for _, sg in labeled_sgs)
    bound = len(elements) - len(witness) + ranks
    return UnionRankResult(rank, decomposition, witness, bound)


def analyze_generic(
    h: GainGraph,
    rep: PointRepresentation,
    seed: int,
    samples: int = 2,
    bound: int = 10 ** 6,
    witness_bounds: Mapping[Element, int] | None = None,
) -> RigidityReport:
    """Analyze at a random symmetric configuration, sampling ``samples``
    independent seeds and keeping the per-character maximum rank.  Exact
    rank agreement across the samples is the practical genericity surrogate
    and is reported, not enforced."""
    per_sample = [
        analyze(h, rep, random_generic_bars(h, rep, seed + t, bound=bound), witness_bounds)
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


def fraction_wedge(p: Sequence[Scalar], q: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """The bar p ^ q of two homogeneous points by its definition, in
    Fraction arithmetic: the minors p_i q_j - p_j q_i, i < j in lex order."""
    p, q = [Fraction(x) for x in p], [Fraction(x) for x in q]
    return tuple(p[i] * q[j] - p[j] * q[i] for i, j in combinations(range(len(p)), 2))


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


def induced_rep(a: SquareMatrix, k: int) -> SquareMatrix:
    """Action induced on the grade-k exterior power: entry [I, J] is the
    k x k minor of ``a`` on rows I and columns J, a Fraction; for k = 2 each
    minor a_ik a_jl - a_il a_jk is taken directly, as ``wedge`` does for
    bars.  Satisfies (A B)^(k) = A^(k) B^(k) and
    A^(k)(v_1 ^ ... ^ v_k) = (A v_1) ^ ... ^ (A v_k).
    """
    idx = lex_index(a.n, k)
    rows = []
    for I in idx.tuples():
        if k == 2:
            ri, rj = a.rows[I[0] - 1], a.rows[I[1] - 1]
            row = [
                Fraction(ri[c - 1] * rj[d - 1] - ri[d - 1] * rj[c - 1]) for c, d in idx.tuples()
            ]
        else:
            row = [det([[a.rows[i - 1][j - 1] for j in J] for i in I]) for J in idx.tuples()]
        rows.append(tuple(row))
    return SquareMatrix(tuple(rows))


def tau_hat2_j(rep: PointRepresentation, j: Element, g: Element) -> SquareMatrix:
    """The screw-space representation twisted by the character labeled j,
    realified over Q: the grade-2 induced matrix of the augmented image,
    Kronecker times C_m^(-a), the matrix of rho_j(g)^{-1} on Q(zeta_m) for
    the character value rho_j(g) = zeta_m^a.  Row and column (t, c) sit at
    t * phi + c.  For a real character this is rho_j(g) times the induced
    matrix.  Cached on ``rep`` per (j, g)."""
    key = (tuple(j), tuple(g))
    m = rep._twisted.get(key)
    if m is None:
        order = rep.group.element_order(j)
        a = -character_power(rep.group, j, g) % order
        m = rep._twisted[key] = kron(rep.tau_hat2(g), root_of_unity_matrix(order, a))
    return m


def trivial_motion_dim(rep: PointRepresentation, j: Element) -> int:
    """Dimension over Q(zeta_m) of the fixed subspace of the twisted screw
    representation: the average over the group of the traces of the
    realified images, divided by phi(m).  A realified image is a Kronecker
    product, so its trace is the product of the factors' traces.  Always a
    nonnegative integer for a valid representation.  Cached on ``rep`` per
    j."""
    j = rep.group.canon(j)
    if j in rep._trivial_dim:
        return rep._trivial_dim[j]
    elems = rep.group.elements()
    m = rep.group.element_order(j)
    total = sum(
        rep.tau_hat2(g).trace()
        * root_of_unity_matrix(m, -character_power(rep.group, j, g) % m).trace()
        for g in elems
    )
    avg = Fraction(total, len(elems) * irrep_degree(rep.group, j))
    if avg.denominator != 1 or avg < 0:
        raise RepresentationError(f"trace average {avg} is not a nonnegative integer")
    rep._trivial_dim[j] = dim = int(avg)
    return dim


def fixed_subspace_basis(rep: PointRepresentation, j: Element) -> list[tuple[Fraction, ...]]:
    """Basis of the realified screws s with A^T s = s for every twisted image
    A, i.e. the space of j-symmetric trivial motions on the quotient (see
    ``proven_trivial_dim``).  For a real character A^T is the image of the
    inverse, so these are the screws fixed by every image.  The twisted
    images form a representation, so a screw fixed by the images of the
    generators is fixed by every image: only their A^T - I are stacked,
    which leaves the kernel, and so its basis, as it is.  Length equals
    ``phi(m) * trivial_motion_dim``.  Cached on ``rep`` per j; each call
    returns a new list."""
    j = rep.group.canon(j)
    if j in rep._fixed:
        return list(rep._fixed[j])
    size = comb(rep.d + 1, 2) * irrep_degree(rep.group, j)
    ident = SquareMatrix.identity(size)
    rows: list[tuple[Scalar, ...]] = []
    for g in rep.group.generators():
        rows.extend((tau_hat2_j(rep, j, g).transpose() - ident).rows)
    basis = nullspace_exact([r for r in rows if any(r)], size)
    dim = trivial_motion_dim(rep, j) * irrep_degree(rep.group, j)
    if len(basis) != dim:
        raise RepresentationError(
            f"fixed subspace dimension {len(basis)} != trace average {dim}"
        )
    rep._fixed[j] = tuple(basis)
    return list(basis)


def proven_trivial_dim(rep: PointRepresentation, j: Element) -> int:
    """Number of fixed screws of character j over Q(zeta_m), after proving
    in exact arithmetic that A^T s = s for every realified fixed screw s and
    every twisted image A, and that those screws are independent.  A
    realified orbit-matrix row of character j is a realified bar vec paired
    with the tail screw and A vec paired with the head screw, so it pairs a
    screw s, assigned to every vertex, with vec . (s - A^T s); the fixed
    screws thus give phi(m) times this many independent kernel vectors of
    every realified orbit matrix of j, and its column count minus that
    bounds its rank.  Raises ``ConsistencyError`` when the check fails.
    Cached on ``rep`` per j."""
    j = rep.group.canon(j)
    if j in rep._proven_dim:
        return rep._proven_dim[j]
    basis = fixed_subspace_basis(rep, j)
    if rank_certified(basis, len(basis)) != len(basis):
        raise ConsistencyError(f"fixed screws of irrep {j} are linearly dependent")
    for g in rep.group.elements():
        rows = tau_hat2_j(rep, j, g).rows
        for s in basis:
            # A^T s as the sum of x times row r of A over the support of s
            support = [(rows[r], x) for r, x in enumerate(s) if x]
            if [sum(row[c] * x for row, x in support) for c in range(len(s))] != list(s):
                raise ConsistencyError(
                    f"screw {tuple(map(str, s))} is not fixed by the transposed "
                    f"image of {g} in irrep {j}"
                )
    rep._proven_dim[j] = dim = len(basis) // irrep_degree(rep.group, j)
    return dim
