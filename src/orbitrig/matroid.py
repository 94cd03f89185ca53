"""Signed-graphic matroids and their union.

An edge set of a +-1-labeled multigraph is independent when every connected
component contains at most one cycle and that cycle, if present, has
negative sign product.  Rank follows the component formula
``sum(|V(X)| - 1 + alpha(X))`` where alpha marks components containing a
negative cycle.  The union over the C(d+1,2) induced labelings is computed
by an augmenting-path partition algorithm that emits a decomposition
certificate and, on the deficient side, a rank witness set.  A new element
that some part accepts goes into the first such part as one forest edge,
the path a search would find at its first step; only a longer augmenting
path rebuilds the forests of the parts it changes.

A search that finds no augmenting path marks its whole reach R saturated,
and no later search enters R.  Each x in R is spanned, in every part it is
not in, by that part's members inside R (its circuit there was reached),
however the part changes outside R, so a path entering R can neither leave
it nor end in a free slot: no augmentation touches R, and pruning R leaves
every search's path unchanged.  The saturated set is then exactly the set
X reachable from the unassigned elements.  It is tight,
rank = |S \\ X| + sum_i r_i(X): the elements outside X are all assigned,
and the parts restricted to X span X in every matroid.  The union checks
this equality before it returns.

All independence questions go through one rooted spanning forest,
``_SignedForest``, which keeps each vertex's root, sign to the root, parent
edge and depth, so a root lookup is O(1) and a tree path costs its own
length.  Its ``circuit`` query returns the unique circuit an edge
closes with an independent set: a positive (balanced) cycle, a theta's
balanced cycle, or a tight or loose handcuff (two negative cycles joined at
a vertex or by a path, possibly across two former components).  The
exchange arcs of the union algorithm from ``x`` into a part are exactly the
part's elements on that circuit, since ``I - y + x`` is independent iff
``y`` lies on the circuit of ``x`` in ``I``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import ConsistencyError, InputError
from .gaingraph import EdgeId, GainGraph, VertexId, remove_zero_loops
from .symmetry import (
    Element,
    PointRepresentation,
    induced_labeling,
    screw_pairs,
    trivial_motion_dim,
)

PairLabel = tuple[int, int]


@dataclass(frozen=True)
class SignedEdge:
    id: EdgeId
    tail: VertexId
    head: VertexId
    sign: int

    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class SignedGraph:
    vertices: tuple[VertexId, ...]
    edges: tuple[SignedEdge, ...]

    def __post_init__(self):
        for e in self.edges:
            if e.sign not in (1, -1):
                raise InputError(f"edge {e.id} sign must be +-1, got {e.sign}")

    def edge_map(self) -> dict[EdgeId, SignedEdge]:
        return {e.id: e for e in self.edges}

    @staticmethod
    def from_gain_graph(h: GainGraph, labeling: Mapping[Element, int]) -> "SignedGraph":
        edges = tuple(SignedEdge(e.id, e.tail, e.head, labeling[e.gain]) for e in h.edges)
        return SignedGraph(h.vertices, edges)


class _SignedForest:
    """Incremental tracker for signed-graphic independence.

    A rooted spanning forest of the inserted edges.  Per vertex it keeps
    the component root, the sign of the tree path to the root, the parent
    (tree edge, vertex) pair and the depth; per component (keyed by root)
    the member list, whether a non-tree edge closes a negative cycle, and
    the first non-tree edge with the edge ids of the cycle it closes (its
    root is a key of ``cycle`` exactly when it has one).  Joining two
    components re-roots the smaller one at its endpoint of the new edge
    and hangs it below the other endpoint, so ``find`` is two lookups and
    ``tree_path`` costs the length of the path.  ``circuit`` assumes the
    inserted edges are independent.
    """

    def __init__(self, edges: Iterable[SignedEdge] = ()):
        self.root: dict[VertexId, VertexId] = {}
        self.sign: dict[VertexId, int] = {}
        self.parent: dict[VertexId, tuple[EdgeId, VertexId] | None] = {}
        self.depth: dict[VertexId, int] = {}
        # tree adjacency, walked when a component is re-rooted
        self.tree: dict[VertexId, list[tuple[EdgeId, VertexId, int]]] = {}
        self.members: dict[VertexId, list[VertexId]] = {}
        self.unbalanced: dict[VertexId, bool] = {}
        self.cycle_edge: dict[VertexId, SignedEdge] = {}
        self.cycle: dict[VertexId, set[EdgeId]] = {}
        for e in edges:
            self.add(e)

    def _ensure(self, v: VertexId) -> None:
        self.root[v] = v
        self.sign[v] = 1
        self.parent[v] = None
        self.depth[v] = 0
        self.tree[v] = []
        self.members[v] = [v]
        self.unbalanced[v] = False

    def find(self, v: VertexId) -> tuple[VertexId, int]:
        """The root of v's component and the sign of the tree path to it."""
        if v not in self.root:
            self._ensure(v)
        return self.root[v], self.sign[v]

    def add(self, e: SignedEdge) -> None:
        """Insert an edge: a tree edge when it joins two components, else a
        cycle edge of its component (negative cycles mark it unbalanced)."""
        ru, su = self.find(e.tail)
        rv, sv = self.find(e.head)
        if ru == rv:
            if ru not in self.cycle_edge:
                self.cycle_edge[ru] = e
                self.cycle[ru] = set(self.tree_path(e.tail, e.head))
                self.cycle[ru].add(e.id)
            if su * e.sign * sv == -1:
                self.unbalanced[ru] = True
            return
        # hang the smaller component below the endpoint in the larger one
        if len(self.members[ru]) >= len(self.members[rv]):
            keep, drop, low, high = ru, rv, e.head, e.tail
        else:
            keep, drop, low, high = rv, ru, e.tail, e.head
        root, sign, parent, depth, tree = self.root, self.sign, self.parent, self.depth, self.tree
        root[low] = keep
        sign[low] = sign[high] * e.sign
        parent[low] = (e.id, high)
        depth[low] = depth[high] + 1
        stack = [low]
        while stack:
            x = stack.pop()
            for eid, y, s in tree[x]:
                if root[y] == drop:
                    root[y] = keep
                    sign[y] = sign[x] * s
                    parent[y] = (eid, x)
                    depth[y] = depth[x] + 1
                    stack.append(y)
        tree[e.tail].append((e.id, e.head, e.sign))
        tree[e.head].append((e.id, e.tail, e.sign))
        self.members[keep] += self.members.pop(drop)
        if self.unbalanced.pop(drop):
            self.unbalanced[keep] = True
        if drop in self.cycle_edge:
            edge, cycle = self.cycle_edge.pop(drop), self.cycle.pop(drop)
            if keep not in self.cycle_edge:
                self.cycle_edge[keep], self.cycle[keep] = edge, cycle

    def tree_path(self, u: VertexId, v: VertexId) -> list[EdgeId]:
        """Edge ids of the forest path from u to v (empty if u == v), by
        climbing from the deeper end to the common ancestor."""
        parent, depth = self.parent, self.depth
        up: list[EdgeId] = []
        down: list[EdgeId] = []
        du, dv = depth[u], depth[v]
        while du > dv:
            eid, u = parent[u]
            up.append(eid)
            du -= 1
        while dv > du:
            eid, v = parent[v]
            down.append(eid)
            dv -= 1
        while u != v:
            eid, u = parent[u]
            up.append(eid)
            eid, v = parent[v]
            down.append(eid)
        down.reverse()
        return up + down

    def _to_cycle(self, v: VertexId, root: VertexId) -> set[EdgeId]:
        """The negative cycle of ``root``'s component plus the tree path from
        ``v`` to it.  The path from ``v`` to one end of the cycle edge covers
        that path and part of the cycle; the cycle covers the rest."""
        return self.cycle[root].union(self.tree_path(v, self.cycle_edge[root].tail))

    def accepts(self, e: SignedEdge) -> bool:
        """Whether adding ``e`` keeps the inserted edges independent, i.e.
        ``circuit(e) is None``, from two root lookups and no tree path."""
        ru, su = self.find(e.tail)
        rv, sv = self.find(e.head)
        if ru != rv:
            return not (ru in self.cycle and rv in self.cycle)
        return su * e.sign * sv == -1 and ru not in self.cycle

    def circuit(self, e: SignedEdge) -> set[EdgeId] | None:
        """Edge ids of the unique circuit that ``e`` closes with the inserted
        (independent) edges, or None when adding ``e`` keeps them
        independent."""
        ru, su = self.find(e.tail)
        rv, sv = self.find(e.head)
        if ru != rv:
            if not (ru in self.cycle and rv in self.cycle):
                return None
            # handcuff across two components
            return {e.id} | self._to_cycle(e.tail, ru) | self._to_cycle(e.head, rv)
        positive = su * e.sign * sv == 1
        if not (positive or ru in self.cycle):
            return None
        closed = set(self.tree_path(e.tail, e.head))
        closed.add(e.id)
        if positive:
            return closed
        cycle = self.cycle[ru]
        if not closed.isdisjoint(cycle):
            # theta: the two negative cycles share a path, the third is balanced
            return closed ^ cycle
        # tight or loose handcuff inside one component
        return {e.id} | self._to_cycle(e.tail, ru) | self._to_cycle(e.head, ru)


@dataclass(frozen=True)
class DependenceWitness:
    kind: str  # 'positive_cycle' | 'second_cycle'
    edges: tuple[EdgeId, ...]


def is_independent_signed(
    sg: SignedGraph, subset: Iterable[EdgeId] | None = None
) -> tuple[bool, DependenceWitness | None]:
    """Signed-graphic independence of an edge subset, with the circuit of
    the first dependent edge (in subset order) as witness: a balanced
    cycle ('positive_cycle', as many edges as vertices) or a handcuff
    ('second_cycle', one edge more)."""
    emap = sg.edge_map()
    ids = [e.id for e in sg.edges] if subset is None else list(subset)
    forest = _SignedForest()
    for eid in ids:
        e = emap[eid]
        circuit = forest.circuit(e)
        if circuit is None:
            forest.add(e)
            continue
        verts = {v for x in circuit for v in (emap[x].tail, emap[x].head)}
        kind = "positive_cycle" if len(circuit) == len(verts) else "second_cycle"
        return False, DependenceWitness(kind, tuple(x for x in ids if x in circuit))
    return True, None


def signed_rank(sg: SignedGraph, subset: Iterable[EdgeId] | None = None) -> int:
    """Rank by the component formula: for every connected component X of the
    subset, |V(X)| - 1, plus 1 when X contains a negative cycle."""
    emap = sg.edge_map()
    ids = list(emap) if subset is None else list(subset)
    forest = _SignedForest(emap[eid] for eid in ids)
    return sum(len(vs) - 1 + forest.unbalanced[r] for r, vs in forest.members.items())


def incidence_matrix(sg: SignedGraph) -> list[list[Fraction]]:
    """Row per edge: -sign at the tail and 1 at the head for a non-loop,
    1 - sign at the vertex of a loop.  Row independence over the rationals
    matches signed-graphic independence."""
    vindex = {v: i for i, v in enumerate(sg.vertices)}
    rows = []
    for e in sg.edges:
        row = [Fraction(0)] * len(sg.vertices)
        if e.is_loop():
            row[vindex[e.tail]] = Fraction(1 - e.sign)
        else:
            row[vindex[e.tail]] = Fraction(-e.sign)
            row[vindex[e.head]] = Fraction(1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# matroid union


@dataclass(frozen=True)
class UnionDecomposition:
    """Assignment of an independent subset to the constituent matroids."""

    parts: dict[PairLabel, tuple[EdgeId, ...]]
    assignment: dict[EdgeId, PairLabel]
    unassigned: tuple[EdgeId, ...]

    def size(self) -> int:
        return len(self.assignment)

    def validate(self, labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]]) -> None:
        sg_by_label = dict(labeled_sgs)
        seen: set[EdgeId] = set()
        for label, ids in self.parts.items():
            for eid in ids:
                if eid in seen:
                    raise ConsistencyError(f"edge {eid!r} assigned twice")
                seen.add(eid)
                if self.assignment.get(eid) != label:
                    raise ConsistencyError(f"assignment map disagrees at {eid!r}")
            ok, witness = is_independent_signed(sg_by_label[label], ids)
            if not ok:
                raise ConsistencyError(f"part {label} not independent: {witness}")
        if seen != set(self.assignment):
            raise ConsistencyError("assignment map and parts disagree")


@dataclass(frozen=True)
class UnionRankResult:
    """Union rank plus certificates: a decomposition of a maximum
    independent subset, a witness set X, and ``witness_bound``, the
    |S \\ X| + sum_i r_i(X) evaluated from X, which equals the rank (tight
    by construction, and checked)."""

    rank: int
    decomposition: UnionDecomposition
    witness: tuple[EdgeId, ...]
    witness_bound: int


def matroid_union_rank(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
    elements: Sequence[EdgeId] | None = None,
) -> UnionRankResult:
    """Rank of an edge set in the union of signed-graphic matroids on a
    common ground set, via incremental augmenting paths in the exchange
    graph (breadth-first, deterministic tie-breaking).

    Returns the rank, a decomposition of a maximum independent subset, the
    set X of elements reachable from the unassigned ones (the saturated
    set), which certifies optimality, and |S \\ X| + sum_i r_i(X)
    evaluated from X, checked here to equal the rank.
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

    parts: list[list[EdgeId]] = [[] for _ in labeled_sgs]
    forests = [_SignedForest() for _ in labeled_sgs]
    part_of: dict[EdgeId, int] = {}
    unassigned: list[EdgeId] = []
    saturated: set[EdgeId] = set()

    def arcs_and_terminal(x: EdgeId, visited: set[EdgeId]):
        """Yield ('insert', i) for a free slot or ('arc', y) for exchanges:
        the members y of part i on the circuit x closes there, in part order."""
        for i, emap in enumerate(edge_maps):
            if part_of.get(x) == i:
                continue
            circuit = forests[i].circuit(emap[x])
            if circuit is None:
                yield ("insert", i)
                continue
            for y in parts[i]:
                if y in circuit and y not in visited:
                    yield ("arc", y)

    def try_augment(source: EdgeId) -> bool:
        # the source's first free part would end the search at its first
        # step, so it takes the source by one insertion and nothing is rebuilt
        for i, emap in enumerate(edge_maps):
            if forests[i].accepts(emap[source]):
                parts[i].append(source)
                part_of[source] = i
                forests[i].add(emap[source])
                return True
        prev: dict[EdgeId, EdgeId | None] = {source: None}
        q = deque([source])
        while q:
            x = q.popleft()
            for kind, val in arcs_and_terminal(x, prev.keys()):
                if kind == "insert":
                    _cascade(x, val, prev)
                    return True
                if val not in prev and val not in saturated:
                    prev[val] = x
                    q.append(val)
        saturated.update(prev)
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
            forest = forests[i] = _SignedForest()
            for y in parts[i]:
                if not forest.accepts(emap[y]):
                    raise ConsistencyError(f"augmentation broke part {labeled_sgs[i][0]}")
                forest.add(emap[y])

    for e in elements:
        if not try_augment(e):
            unassigned.append(e)

    decomposition = UnionDecomposition(
        parts={label: tuple(parts[i]) for i, (label, _) in enumerate(labeled_sgs)},
        assignment={eid: labeled_sgs[i][0] for eid, i in part_of.items()},
        unassigned=tuple(unassigned),
    )
    rank = len(part_of)
    witness = tuple(e for e in elements if e in saturated)
    witness_bound = union_rank_by_formula(labeled_sgs, elements, witness)
    if rank != witness_bound:
        raise ConsistencyError("union rank does not meet its witness bound")
    return UnionRankResult(rank, decomposition, witness, witness_bound)


def union_rank_by_formula(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
    subset: Sequence[EdgeId],
    witness: Sequence[EdgeId],
) -> int:
    """Evaluate |S \\ X| + sum_i r_i(X) for a witness set X."""
    xset = set(witness)
    inside = [e for e in subset if e in xset]
    return len(subset) - len(inside) + sum(signed_rank(sg, inside) for _, sg in labeled_sgs)


# ---------------------------------------------------------------------------
# the counting oracle and the full combinatorial verdict


@dataclass(frozen=True)
class CountingViolation:
    edges: tuple[EdgeId, ...]
    size: int
    bound: int
    alphas: dict[PairLabel, int]


def check_counting_condition(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
    subset: Sequence[EdgeId] | None = None,
    max_size: int = 20,
) -> CountingViolation | None:
    """Brute-force check of the per-subset count
    ``|F| <= B|V(F)| - B + sum alpha(F)`` with B the number of matroids.
    Exponential; guarded to small ground sets.  Returns the first violation
    in subset-enumeration order, or None."""
    edge_maps = [sg.edge_map() for _, sg in labeled_sgs]
    all_edges = labeled_sgs[0][1].edge_map()
    ids = list(all_edges) if subset is None else list(subset)
    if len(ids) > max_size:
        raise InputError(f"counting oracle limited to {max_size} edges, got {len(ids)}")
    b = len(labeled_sgs)
    for mask in range(1, 1 << len(ids)):
        f = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        verts = set()
        for eid in f:
            e = all_edges[eid]
            verts.add(e.tail)
            verts.add(e.head)
        # the forest keeps one flag per component, set when it holds a negative cycle
        alphas = {
            label: int(any(_SignedForest(edge_maps[i][e] for e in f).unbalanced.values()))
            for i, (label, _) in enumerate(labeled_sgs)
        }
        bound = b * len(verts) - b + sum(alphas.values())
        if len(f) > bound:
            return CountingViolation(tuple(f), len(f), bound, alphas)
    return None


@dataclass(frozen=True)
class CombinatorialVerdict:
    """Outcome of the signed-matroid union test for one character label.

    ``witness_bound`` is |S \\ X| + sum_i r_i(X) for the union's witness X
    on the labeled graphs, as the union evaluated it from X for its own
    check (``UnionRankResult``), never read from the union's count.
    Coordinate i of the character's orbit matrix is a row-scaled signed
    incidence matrix of labeled graph i, in columns of its own, so the
    rows of X span rank at most sum_i r_i(X) and the others at most
    |S \\ X|: the bound holds for the rank of the block at every
    configuration (the removed zero loops have zero rows).  It is not part
    of ``to_json``."""

    irrep: Element
    d: int
    edges: int
    target: int
    rank: int
    rigid: bool
    deficiency: int
    removed_loops: tuple[EdgeId, ...]
    decomposition: UnionDecomposition
    witness: tuple[EdgeId, ...]
    witness_bound: int

    @property
    def count_matches_target(self) -> bool:
        return self.edges == self.target

    def to_json(self) -> dict:
        return {
            "irrep": list(self.irrep),
            "edges": self.edges,
            "target": self.target,
            "rank": self.rank,
            "rigid": self.rigid,
            "deficiency": self.deficiency,
            "count_matches_target": self.count_matches_target,
            "removed_loops": [_edge_id_json(e) for e in self.removed_loops],
            "decomposition": {
                f"({label[0]},{label[1]})": [_edge_id_json(e) for e in ids]
                for label, ids in self.decomposition.parts.items()
            },
            "unassigned": [_edge_id_json(e) for e in self.decomposition.unassigned],
            "witness": [_edge_id_json(e) for e in self.witness],
        }


def _edge_id_json(eid: EdgeId):
    if isinstance(eid, tuple):
        return [_edge_id_json(x) for x in eid]
    return eid


def labeled_signed_graphs(
    h: GainGraph, rep: PointRepresentation, g: Element
) -> list[tuple[PairLabel, SignedGraph]]:
    """The C(d+1,2) signed graphs on ``h`` under the labelings induced by
    the twisted screw representation for character ``g``."""
    out = []
    for pair in screw_pairs(rep.d):
        labeling = induced_labeling(rep, g, pair)
        out.append((pair, SignedGraph.from_gain_graph(h, labeling)))
    return out


def combinatorial_verdict(h: GainGraph, rep: PointRepresentation, g: Element) -> CombinatorialVerdict:
    """Signed-matroid union test for one character label: remove the zero
    loops, build the induced labelings, compare the union rank of the
    remaining edges against the count of non-fixed screw dimensions."""
    rep.require_combinatorial()
    h.validate_gains(rep.group)
    h_g = remove_zero_loops(h, rep, g)
    kept = {e.id for e in h_g.edges}
    removed = tuple(e.id for e in h.edges if e.id not in kept)
    labeled = labeled_signed_graphs(h_g, rep, g)
    result = matroid_union_rank(labeled)
    result.decomposition.validate(labeled)
    target = comb(rep.d + 1, 2) * len(h.vertices) - trivial_motion_dim(rep, g)
    rank = result.rank
    return CombinatorialVerdict(
        irrep=g,
        d=rep.d,
        edges=len(h_g.edges),
        target=target,
        rank=rank,
        rigid=rank >= target,
        deficiency=max(0, target - rank),
        removed_loops=removed,
        decomposition=result.decomposition,
        witness=result.witness,
        witness_bound=result.witness_bound,
    )


def counting_violation(h: GainGraph, rep: PointRepresentation, g: Element) -> dict | None:
    """Brute-force counting check of one character label on the edges left
    after its zero loops are removed, labeled as in
    ``combinatorial_verdict`` (small inputs only): the first violation as a
    JSON document, or None."""
    violation = check_counting_condition(
        labeled_signed_graphs(remove_zero_loops(h, rep, g), rep, g)
    )
    if violation is None:
        return None
    return {
        "edges": [_edge_id_json(e) for e in violation.edges],
        "size": violation.size,
        "bound": violation.bound,
    }
