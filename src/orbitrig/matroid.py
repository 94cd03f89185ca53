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
``_SignedForest``, kept in lists over vertex indices 0..nv-1 with edges
given as (k, tail, head, sign) ints, k an element index.  It keeps each
vertex's root, sign to the root, parent edge and depth, so a root lookup
is one list read and a tree path costs its own length.  Its ``circuit``
query returns the unique circuit an edge closes with an independent set: a
positive (balanced) cycle, a theta's balanced cycle, or a tight or loose
handcuff (two negative cycles joined at a vertex or by a path, possibly
across two former components).  The exchange arcs of the union algorithm
from ``x`` into a part are exactly the part's elements on that circuit,
since ``I - y + x`` is independent iff ``y`` lies on the circuit of ``x``
in ``I``.

The union numbers its elements and their endpoints once per call, so its
parts, searches and saturated set hold ints, and edge ids come back only
in its results.  Pairs whose induced labelings agree share one
``SignedGraph`` (``labeled_signed_graphs``), and so one sign list in the
union and one forest in its witness formula.  The certificate checks,
``union_rank_by_formula`` and ``UnionDecomposition.validate``, index the
graphs again and build forests of their own, never the union's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class SignedEdge(NamedTuple):
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
        """The edges by id, built once per graph and shared: not to be
        modified."""
        return self._edge_map

    @cached_property
    def _edge_map(self) -> dict[EdgeId, SignedEdge]:
        return {e.id: e for e in self.edges}

    @staticmethod
    def from_gain_graph(h: GainGraph, labeling: Mapping[Element, int]) -> "SignedGraph":
        edges = tuple(SignedEdge(e.id, e.tail, e.head, labeling[e.gain]) for e in h.edges)
        return SignedGraph(h.vertices, edges)


def _edge_table(
    sg: SignedGraph, ids: Sequence[EdgeId]
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The edges ``ids`` of ``sg`` as (k, tail, head, sign), k the position
    in ``ids`` and the vertices numbered 0, 1, ... in order of first
    appearance, with the number of vertices: the form ``_SignedForest``
    takes."""
    emap = sg.edge_map()
    vindex: dict[VertexId, int] = {}
    table = []
    for k, eid in enumerate(ids):
        _, tail, head, sign = emap[eid]
        u = vindex.setdefault(tail, len(vindex))
        table.append((k, u, vindex.setdefault(head, len(vindex)), sign))
    return len(vindex), table


class _SignedForest:
    """Incremental tracker for signed-graphic independence on the vertices
    0 .. nv-1, with edges given as (k, tail, head, sign) ints, k an element
    index.

    A rooted spanning forest of the inserted edges, kept in lists indexed
    by vertex.  Per vertex: the component root, the sign of the tree path
    to the root, the parent vertex and tree edge (-1 at a root), the depth
    and the tree adjacency.  Per component, at its root: the member list,
    whether a non-tree edge closes a negative cycle (cleared when the root
    stops being one), and the element indices of the first cycle a
    non-tree edge closes with a vertex on it (``cycle`` is None while there
    is none).  Joining two components re-roots the smaller one at its
    endpoint of the new edge and hangs it below the other endpoint, so a
    root lookup is one list read and ``tree_path`` costs the length of the
    path.  ``circuit`` assumes the inserted edges are independent.
    """

    __slots__ = (
        "root", "sign", "parent", "pedge", "depth", "tree",
        "members", "unbalanced", "cycle", "cycle_at",
    )

    def __init__(self, nv: int, edges: Iterable[tuple[int, int, int, int]] = ()):
        self.root = list(range(nv))
        self.sign = [1] * nv
        self.parent = [-1] * nv
        self.pedge = [-1] * nv
        self.depth = [0] * nv
        # tree adjacency, walked when a component is re-rooted
        self.tree: list[list[tuple[int, int, int]]] = [[] for _ in range(nv)]
        self.members = [[v] for v in range(nv)]
        self.unbalanced = [False] * nv
        self.cycle: list[set[int] | None] = [None] * nv
        self.cycle_at = [0] * nv
        for e in edges:
            self.add(*e)

    def add(self, k: int, u: int, v: int, s: int) -> None:
        """Insert edge k: a tree edge when it joins two components, else a
        cycle edge of its component (negative cycles mark it unbalanced)."""
        root, sign = self.root, self.sign
        ru, rv = root[u], root[v]
        if ru == rv:
            if self.cycle[ru] is None:
                cycle = self.cycle[ru] = set(self.tree_path(u, v))
                cycle.add(k)
                self.cycle_at[ru] = u
            if sign[u] * s * sign[v] < 0:
                self.unbalanced[ru] = True
            return
        # hang the smaller component below the endpoint in the larger one
        members = self.members
        if len(members[ru]) >= len(members[rv]):
            keep, drop, low, high = ru, rv, v, u
        else:
            keep, drop, low, high = rv, ru, u, v
        parent, pedge, depth, tree = self.parent, self.pedge, self.depth, self.tree
        root[low] = keep
        sign[low] = sign[high] * s
        parent[low] = high
        pedge[low] = k
        depth[low] = depth[high] + 1
        stack = [low]
        while stack:
            x = stack.pop()
            for j, y, t in tree[x]:
                if root[y] == drop:
                    root[y] = keep
                    sign[y] = sign[x] * t
                    parent[y] = x
                    pedge[y] = j
                    depth[y] = depth[x] + 1
                    stack.append(y)
        tree[u].append((k, v, s))
        tree[v].append((k, u, s))
        members[keep] += members[drop]
        if self.unbalanced[drop]:
            self.unbalanced[keep] = True
            self.unbalanced[drop] = False
        if self.cycle[keep] is None:
            self.cycle[keep], self.cycle_at[keep] = self.cycle[drop], self.cycle_at[drop]

    def tree_path(self, u: int, v: int) -> list[int]:
        """Element indices of the forest path from u to v (empty if u == v),
        by climbing from the deeper end to the common ancestor."""
        parent, pedge, depth = self.parent, self.pedge, self.depth
        up: list[int] = []
        down: list[int] = []
        du, dv = depth[u], depth[v]
        while du > dv:
            up.append(pedge[u])
            u = parent[u]
            du -= 1
        while dv > du:
            down.append(pedge[v])
            v = parent[v]
            dv -= 1
        while u != v:
            up.append(pedge[u])
            u = parent[u]
            down.append(pedge[v])
            v = parent[v]
        down.reverse()
        return up + down

    def _to_cycle(self, v: int, root: int) -> set[int]:
        """The negative cycle of ``root``'s component plus the tree path from
        ``v`` to it.  The path from ``v`` to a vertex of the cycle covers
        that path and part of the cycle; the cycle covers the rest."""
        return self.cycle[root].union(self.tree_path(v, self.cycle_at[root]))

    def accepts(self, k: int, u: int, v: int, s: int) -> bool:
        """Whether adding edge k keeps the inserted edges independent, i.e.
        ``circuit(k, u, v, s) is None``, from two root lookups and no tree
        path."""
        ru, rv = self.root[u], self.root[v]
        cycle = self.cycle
        if ru != rv:
            return cycle[ru] is None or cycle[rv] is None
        return cycle[ru] is None and self.sign[u] * s * self.sign[v] < 0

    def circuit(self, k: int, u: int, v: int, s: int) -> set[int] | None:
        """Element indices of the unique circuit that edge k closes with the
        inserted (independent) edges, or None when adding it keeps them
        independent."""
        ru, rv = self.root[u], self.root[v]
        cycle = self.cycle
        if ru != rv:
            if cycle[ru] is None or cycle[rv] is None:
                return None
            # handcuff across two components
            return {k} | self._to_cycle(u, ru) | self._to_cycle(v, rv)
        positive = self.sign[u] * s * self.sign[v] > 0
        if not positive and cycle[ru] is None:
            return None
        closed = set(self.tree_path(u, v))
        closed.add(k)
        if positive:
            return closed
        if not closed.isdisjoint(cycle[ru]):
            # theta: the two negative cycles share a path, the third is balanced
            return closed ^ cycle[ru]
        # tight or loose handcuff inside one component
        return {k} | self._to_cycle(u, ru) | self._to_cycle(v, ru)

    def rank(self) -> int:
        """The component formula: |V(X)| - 1 per component X, plus 1 when X
        holds a negative cycle."""
        members, unbalanced = self.members, self.unbalanced
        return sum(len(members[r]) - 1 + unbalanced[r] for r, x in enumerate(self.root) if r == x)


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
    ids = [e.id for e in sg.edges] if subset is None else list(subset)
    nv, table = _edge_table(sg, ids)
    forest = _SignedForest(nv)
    for e in table:
        circuit = forest.circuit(*e)
        if circuit is None:
            forest.add(*e)
            continue
        verts = {v for k in circuit for v in table[k][1:3]}
        kind = "positive_cycle" if len(circuit) == len(verts) else "second_cycle"
        return False, DependenceWitness(kind, tuple(ids[k] for k in sorted(circuit)))
    return True, None


def signed_rank(sg: SignedGraph, subset: Iterable[EdgeId] | None = None) -> int:
    """Rank by the component formula: for every connected component X of the
    subset, |V(X)| - 1, plus 1 when X contains a negative cycle."""
    ids = [e.id for e in sg.edges] if subset is None else list(subset)
    return _SignedForest(*_edge_table(sg, ids)).rank()


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
    graph (breadth-first, deterministic tie-breaking).  The graphs differ
    only in their signs: the endpoints are read from the first.

    Returns the rank, a decomposition of a maximum independent subset, the
    set X of elements reachable from the unassigned ones (the saturated
    set), which certifies optimality, and |S \\ X| + sum_i r_i(X)
    evaluated from X, checked here to equal the rank.
    """
    if not labeled_sgs:
        raise InputError("need at least one matroid")
    first = labeled_sgs[0][1]
    emap = first.edge_map()
    if elements is None:
        elements = [e.id for e in first.edges]
    elements = list(elements)
    unknown = [e for e in elements if e not in emap]
    if unknown:
        raise InputError(f"elements not on the ground set: {unknown!r}")

    # one edge table: element k of ``elements`` has endpoints tails[k] and
    # heads[k], shared by every part, and sign signs[i][k] in part i; parts
    # on the same labeling share one sign list
    nv, table = _edge_table(first, elements)
    tails = [e[1] for e in table]
    heads = [e[2] for e in table]
    by_graph = {id(first): [e[3] for e in table]}
    signs = []
    for _, sg in labeled_sgs:
        if id(sg) not in by_graph:
            smap = sg.edge_map()
            by_graph[id(sg)] = [smap[x].sign for x in elements]
        signs.append(by_graph[id(sg)])
    m, nparts = len(elements), len(labeled_sgs)

    parts: list[list[int]] = [[] for _ in range(nparts)]
    forests = [_SignedForest(nv) for _ in range(nparts)]
    part_of = [-1] * m
    saturated = [False] * m
    unassigned: list[int] = []

    def arcs_and_terminal(x: int, visited: Mapping[int, int]):
        """Yield ('insert', i) for a free slot or ('arc', y) for exchanges:
        the members y of part i on the circuit x closes there, in part order."""
        u, v = tails[x], heads[x]
        for i in range(nparts):
            if part_of[x] == i:
                continue
            circuit = forests[i].circuit(x, u, v, signs[i][x])
            if circuit is None:
                yield ("insert", i)
                continue
            for y in parts[i]:
                if y in circuit and y not in visited:
                    yield ("arc", y)

    def try_augment(source: int) -> bool:
        # the source's first free part would end the search at its first
        # step, so it takes the source by one insertion and nothing is rebuilt
        u, v = tails[source], heads[source]
        for i in range(nparts):
            s = signs[i][source]
            if forests[i].accepts(source, u, v, s):
                parts[i].append(source)
                part_of[source] = i
                forests[i].add(source, u, v, s)
                return True
        prev = {source: -1}
        q = deque([source])
        while q:
            x = q.popleft()
            for kind, val in arcs_and_terminal(x, prev):
                if kind == "insert":
                    _cascade(x, val, prev)
                    return True
                if val not in prev and not saturated[val]:
                    prev[val] = x
                    q.append(val)
        for x in prev:
            saturated[x] = True
        return False

    def _cascade(x: int, target: int, prev: Mapping[int, int]) -> None:
        # every part that loses an element also gains one, so the targets
        # are all the parts the path changed; the others keep their forests
        touched = set()
        while True:
            old = part_of[x]
            if old >= 0:
                parts[old].remove(x)
            parts[target].append(x)
            part_of[x] = target
            touched.add(target)
            x, target = prev[x], old
            if x < 0:
                break
        for i in sorted(touched):
            sign = signs[i]
            forest = forests[i] = _SignedForest(nv)
            for y in parts[i]:
                if not forest.accepts(y, tails[y], heads[y], sign[y]):
                    raise ConsistencyError(f"augmentation broke part {labeled_sgs[i][0]}")
                forest.add(y, tails[y], heads[y], sign[y])

    for k in range(m):
        if not try_augment(k):
            unassigned.append(k)

    labels = [label for label, _ in labeled_sgs]
    decomposition = UnionDecomposition(
        parts={label: tuple(elements[k] for k in parts[i]) for i, label in enumerate(labels)},
        # an element is first assigned as the source of its own search, so
        # element order is the order of first assignment
        assignment={elements[k]: labels[i] for k, i in enumerate(part_of) if i >= 0},
        unassigned=tuple(elements[k] for k in unassigned),
    )
    rank = m - len(unassigned)
    witness = tuple(e for e, sat in zip(elements, saturated) if sat)
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
    # one fresh forest per distinct labeling; parts on one labeling share it
    ranks: dict[int, int] = {}
    for _, sg in labeled_sgs:
        if id(sg) not in ranks:
            ranks[id(sg)] = signed_rank(sg, inside)
    return len(subset) - len(inside) + sum(ranks[id(sg)] for _, sg in labeled_sgs)


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
    ids = [e.id for e in labeled_sgs[0][1].edges] if subset is None else list(subset)
    if len(ids) > max_size:
        raise InputError(f"counting oracle limited to {max_size} edges, got {len(ids)}")
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
    the twisted screw representation for character ``g``, one object per
    distinct labeling: pairs with the same labeling share it."""
    out = []
    built: list[tuple[dict[Element, int], SignedGraph]] = []
    for pair in screw_pairs(rep.d):
        labeling = induced_labeling(rep, g, pair)
        sg = next((sg for seen, sg in built if seen == labeling), None)
        if sg is None:
            sg = SignedGraph.from_gain_graph(h, labeling)
            built.append((labeling, sg))
        out.append((pair, sg))
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
