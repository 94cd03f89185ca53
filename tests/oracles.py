"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the production algorithms: independence
goes through exact incidence-matrix ranks, union ranks through exhaustive
subset enumeration, tree packings through the partition criterion,
a bar through ``fraction_wedge``, its definition in Fraction arithmetic,
a kernel basis through ``kernel_by_gauss_jordan``, Gauss-Jordan
elimination in Fraction arithmetic, and the Hodge star through
``hodge_star_by_inversions``, which counts the inversions of every basis
element's permutation.
The exceptions are earlier versions of production code, kept to pin the
exact output of the current ones: ``matroid_union_rank_unpruned``, the union
algorithm, ``forest_rank`` and ``union_rank_by_forests``, the witness
formula that read each labeling's ranks off a ``_SignedForest`` of its
own, ``analyze_generic`` with ``merge_samples``, the sampler that
ranked every block at every sample, ``realified_by_powers``, the
realification that applied ``root_of_unity_matrix`` powers to dense
rows, ``hinge_to_bars``, which gave a
hinge's bar copies random invertible combinations of its complement basis,
and the screw-image functions that multiplied Fraction matrices:
``induced_rep`` with the Fraction images ``image``, ``tau_hat`` and
``tau_hat_k`` read from a representation's integer images, and the
``symmetry`` functions ``tau_hat2_j``,
``trivial_motion_dim``, ``fixed_subspace_basis`` and
``proven_trivial_dim``.  These cache on the representation they are given:
``tau_hat2_j`` and ``fixed_subspace_basis`` in the attributes that the
current functions use, the two dimensions in attributes of their own, so
the tests hand them a fresh copy of it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from orbitrig.algebra import Scalar, SquareMatrix, det, kron, lex_index
from orbitrig.errors import ConsistencyError, InputError, RepresentationError
from orbitrig.gaingraph import EdgeId, GainGraph, multiply_edges
from orbitrig.genframe import BarConfiguration, BarEntry, random_generic_bars
from orbitrig.hinge import HingeConfiguration, bar_multiplicity, hinge_complement_basis
from orbitrig.linalg import kernel_vectors, rank_certified, rank_exact
from orbitrig.matroid import (
    PairLabel,
    SignedGraph,
    UnionDecomposition,
    UnionRankResult,
    _edge_table,
    _SignedForest,
)
from orbitrig.rigidity import IrrepReport, RigidityReport, analyze
from orbitrig.symmetry import (
    Element,
    PointRepresentation,
    character_power,
    irrep_degree,
    root_of_unity_matrix,
)


def incidence_matrix(sg: SignedGraph) -> list[list[Fraction]]:
    """Row per edge: -sign at the tail and 1 at the head for a non-loop,
    1 - sign at the vertex of a loop.  Row independence over the rationals
    matches signed-graphic independence."""
    vindex = {v: i for i, v in enumerate(sg.index.vertices)}
    rows = []
    for e in sg.edges:
        row = [Fraction(0)] * len(sg.index.vertices)
        if e.tail == e.head:
            row[vindex[e.tail]] = Fraction(1 - e.sign)
        else:
            row[vindex[e.tail]] = Fraction(-e.sign)
            row[vindex[e.head]] = Fraction(1)
        rows.append(row)
    return rows


def incidence_rank(sg: SignedGraph, ids=None) -> int:
    """Rank of the incidence rows of a subset: the linear-algebra side of
    signed-graphic independence."""
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    all_rows = incidence_matrix(sg)
    order = [e.id for e in sg.edges]
    rows = [all_rows[order.index(eid)] for eid in ids]
    return rank_exact(rows) if rows else 0


def independent_by_incidence(sg: SignedGraph, ids=None) -> bool:
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    return incidence_rank(sg, ids) == len(ids)


def forest_rank(sg: SignedGraph, ids=None) -> int:
    """The component formula read off a ``_SignedForest`` of the subset:
    |V(X)| - 1 per component X, plus 1 when X holds a negative cycle."""
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    forest = _SignedForest(*_edge_table(sg, ids))
    members, unbalanced = forest.members, forest.unbalanced
    return sum(len(members[r]) - 1 + unbalanced[r] for r, x in enumerate(forest.root) if r == x)


def union_rank_by_forests(labeled_sgs, subset, witness) -> int:
    """|S \\ X| + sum_i r_i(X) for a witness set X, with one fresh
    ``forest_rank`` per distinct labeling, which the pairs on it share."""
    xset = set(witness)
    inside = [e for e in subset if e in xset]
    ranks: dict[int, int] = {}
    for _, sg in labeled_sgs:
        if id(sg) not in ranks:
            ranks[id(sg)] = forest_rank(sg, inside)
    return len(subset) - len(inside) + sum(ranks[id(sg)] for _, sg in labeled_sgs)


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
    unassigned list, witness, first circuit and rank.

    Rank of an edge set in the union of signed-graphic matroids on a
    common ground set, via incremental augmenting paths in the exchange
    graph (breadth-first, deterministic tie-breaking).

    Returns the rank, a decomposition of a maximum independent subset, and
    the set X of elements reachable from the unassigned ones, which
    certifies optimality: rank = |S \\ X| + sum_i r_i(X).  That sum is
    evaluated here with the incidence ranks r_i(X) of ``incidence_rank``.
    The first circuit is the reach of the first failed search.
    """
    if not labeled_sgs:
        raise InputError("need at least one matroid")
    edge_maps = [{e.id: e for e in sg.edges} for _, sg in labeled_sgs]
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
    circuit: tuple[EdgeId, ...] = ()

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
        nonlocal circuit
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
        if not unassigned:
            # the first failed search: its reach, in element order
            circuit = tuple(e for e in elements if e in prev)
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
        unassigned=tuple(unassigned),
    )
    rank = len(part_of)
    witness = tuple(e for e in elements if e in reach)
    ranks = sum(incidence_rank(sg, witness) for _, sg in labeled_sgs)
    bound = len(elements) - len(witness) + ranks
    return UnionRankResult(rank, decomposition, witness, bound, circuit)


@dataclass(frozen=True)
class CountingViolation:
    edges: tuple[EdgeId, ...]
    size: int
    bound: int
    alphas: dict[PairLabel, int]


def check_counting_condition(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
) -> CountingViolation | None:
    """Brute-force check of the count ``|F| <= B|V(F)| - B + sum alpha(F)``
    for every nonempty subset F of the first graph's edges, with B the
    number of matroids.  Exponential.  Returns the first violation in
    subset-enumeration order, or None."""
    ids = [e.id for e in labeled_sgs[0][1].edges]
    tables = [_edge_table(sg, ids) for _, sg in labeled_sgs]
    first = tables[0][1]
    b = len(labeled_sgs)
    for mask in range(1, 1 << len(ids)):
        f = [k for k in range(len(ids)) if mask >> k & 1]
        verts = {v for k in f for v in first[k][1:3]}
        # the forest keeps one flag per component, set when it holds a negative cycle
        alphas = {
            label: int(any(_SignedForest(nv, (table[k] for k in f)).unbalanced))
            for (label, _), (nv, table) in zip(labeled_sgs, tables)
        }
        bound = b * len(verts) - b + sum(alphas.values())
        if len(f) > bound:
            return CountingViolation(tuple(ids[k] for k in f), len(f), bound, alphas)
    return None


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


def hodge_star_by_inversions(n: int, k: int, coords: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """The Hodge star of a grade-k vector of n-space, one basis element at a
    time: e_I goes to s e_J, J the complement of I in {1..n} and s the sign
    of the permutation (I, J) -> (1 .. n), from its inversion count."""
    out_idx = lex_index(n, n - k)
    out: list[Scalar] = [0] * len(out_idx)
    for c, t in zip(coords, lex_index(n, k).tuples()):
        comp = tuple(i for i in range(1, n + 1) if i not in t)
        seq = t + comp
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if seq[a] > seq[b])
        out[out_idx.position(comp)] = (-1) ** inversions * c
    return tuple(out)


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
        star = config.vector(e.id)
        basis = hinge_complement_basis(star)
        if len(basis) != m:
            raise InputError(f"complement of hinge {e.id!r} has dimension {len(basis)} != {m}")
        while True:
            coeffs = [[Fraction(rng.randint(-99, 99)) for _ in range(m)] for _ in range(m)]
            if rank_certified(coeffs, m) == m:
                break
        # a kernel vector of the one starred row has at most two nonzeros
        support = [[(c, x) for c, x in enumerate(v) if x] for v in basis]
        for t in range(1, m + 1):
            row = coeffs[t - 1]
            acc = [Fraction(0)] * len(star)
            for s, terms in enumerate(support):
                for c, x in terms:
                    acc[c] += row[s] * x
            vec = tuple(acc)
            pairing = sum(a * b for a, b in zip(vec, star))
            if pairing != 0:
                raise InputError(f"bar copy {t} of {e.id!r} is not orthogonal to the hinge")
            entries[(e.id, t)] = BarEntry(vector=vec, points=None)
    meta = dict(config.meta)
    meta["bar_seed"] = seed
    return multiplied, BarConfiguration(d=d, entries=entries, meta=meta)


def realified_by_powers(
    rows: Sequence[Mapping[int, int]], m: int, ncols: int
) -> list[tuple[int, ...]]:
    """The dense realification of sparse rows over Z[zeta_m], column
    t phi(m) + c holding coefficient c of entry t: per row, C_m^r applied
    to each entry's phi(m) coefficients for r = 0, ..., phi(m) - 1, that
    is the row times zeta_m^r, with ``ncols`` columns."""
    deg = root_of_unity_matrix(m, 0).n
    powers = [root_of_unity_matrix(m, r).rows for r in range(deg)]
    out = []
    for first in rows:
        dense = [0] * ncols
        for c, x in first.items():
            dense[c] = x
        for power in powers:
            out.append(tuple(
                sum(a * x for a, x in zip(coeffs, dense[k : k + deg]))
                for k in range(0, ncols, deg)
                for coeffs in power
            ))
    return out


def kernel_by_gauss_jordan(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[tuple[Fraction, ...]]:
    """The kernel basis of the reduced row echelon form, by Gauss-Jordan
    elimination in Fraction arithmetic: each pivot row is divided by its
    pivot and cleared from every other row.  Per free column fc in order,
    the vector that is 1 at fc, 0 at the other free columns, and minus the
    entry at fc of each pivot row at that row's pivot column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    out = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(int(c == fc)) for c in range(ncols)]
            for row, c in zip(m, pivots):
                v[c] = -row[fc]
            out.append(tuple(v))
    return out


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


def image(rep: PointRepresentation, g: Element) -> SquareMatrix:
    """The rational image of g, read from its integer image (D, N) as N / D."""
    den, n = rep.integer_images[g]
    return SquareMatrix(tuple(tuple(Fraction(x, den) for x in r) for r in n.rows))


def tau_hat(rep: PointRepresentation, g: Element) -> SquareMatrix:
    """The image of g augmented by a trailing 1: its action on homogeneous
    points."""
    zero, one = Fraction(0), Fraction(1)
    rows = tuple(r + (zero,) for r in image(rep, g).rows)
    return SquareMatrix(rows + ((zero,) * rep.d + (one,),))


def tau_hat_k(rep: PointRepresentation, g: Element, k: int) -> SquareMatrix:
    """The Fraction image of g on grade-k extensors: ``induced_rep`` of
    ``tau_hat``."""
    return induced_rep(tau_hat(rep, g), k)


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
        m = rep._twisted[key] = kron(tau_hat_k(rep, g, 2), root_of_unity_matrix(order, a))
    return m


def trivial_motion_dim(rep: PointRepresentation, j: Element) -> int:
    """Dimension over Q(zeta_m) of the fixed subspace of the twisted screw
    representation: the average over the group of the traces of the
    realified images, divided by phi(m).  A realified image is a Kronecker
    product, so its trace is the product of the factors' traces.  Always a
    nonnegative integer for a valid representation.  Cached on ``rep`` per
    j."""
    j = rep.group.canon(j)
    cache = rep.__dict__.setdefault("_oracle_trivial_dim", {})
    if j in cache:
        return cache[j]
    elems = rep.group.elements()
    m = rep.group.element_order(j)
    total = sum(
        tau_hat_k(rep, g, 2).trace()
        * root_of_unity_matrix(m, -character_power(rep.group, j, g) % m).trace()
        for g in elems
    )
    avg = Fraction(total, len(elems) * irrep_degree(rep.group, j))
    if avg.denominator != 1 or avg < 0:
        raise RepresentationError(f"trace average {avg} is not a nonnegative integer")
    cache[j] = dim = int(avg)
    return dim


def fixed_subspace_basis(rep: PointRepresentation, j: Element) -> list[tuple[int, ...]]:
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
    rows: list[tuple[Scalar, ...]] = []
    for g in rep.group.generators():
        for r, col in enumerate(tau_hat2_j(rep, j, g).transpose().rows):
            rows.append(tuple(x - int(c == r) for c, x in enumerate(col)))
    basis = list(kernel_vectors([r for r in rows if any(r)], size))
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
    cache = rep.__dict__.setdefault("_oracle_proven_dim", {})
    if j in cache:
        return cache[j]
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
    cache[j] = dim = len(basis) // irrep_degree(rep.group, j)
    return dim
