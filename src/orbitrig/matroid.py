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
this equality before it returns.  The first search that fails, at element
k, runs with S[:k] all assigned, so its reach is the one union circuit of
S[:k+1]; the union returns it as the first circuit, in element order.

A part whose members a search has all reached or saturated is closed to
it: an arc there would lead to an element the search never enqueues, so
it is asked only for a free slot (``accepts``), with no circuit query or
member scan.  Saturated members never leave their part, so the union
counts them per part, and each search counts the members it reached.

Every circuit comes from one rooted spanning forest, ``_SignedForest``,
over vertex indices 0..nv-1 with edges given as (k, tail, head, sign)
ints, k an element index.  Its ``circuit`` query returns the unique
circuit an edge closes with an independent set: a positive (balanced)
cycle, a theta's balanced cycle, or a tight or loose handcuff (two
negative cycles joined at a vertex or by a path, possibly across two
former components).  The exchange arcs of the union algorithm from ``x``
into a part are exactly the part's elements on that circuit, since
``I - y + x`` is independent iff ``y`` lies on the circuit of ``x`` in
``I``.  Every rank comes from the component formula on one spanning
forest of the edge set (``_formula_ranks``), which serves all labelings
at once: under each, the sign products of the tree paths from the roots
and one pass over the closing edges mark the unbalanced components.

The labeled graphs of one character share one ``EdgeIndex``, which
numbers its vertices and edges once, as int tuples; each distinct
labeling adds only a sign tuple, and pairs whose labelings agree share
one ``SignedGraph`` (``labeled_signed_graphs``).  The union, its witness
formula and ``UnionDecomposition.validate`` read these tuples, and edge
ids come back only in their results.  The two certificate checks share
nothing with the union, not even its algorithm: ``union_rank_by_formula``
ranks the witness under every distinct labeling from one forest, and
``validate`` checks each part by rank = size, asking
``is_independent_signed`` only to name the circuit of a part that fails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConsistencyError, InputError
from .gaingraph import EdgeId, GainEdge, GainGraph, VertexId, remove_zero_loops
from .symmetry import (
    Element,
    PointRepresentation,
    induced_signs,
    screw_pairs,
    trivial_motion_dim,
)

PairLabel = tuple[int, int]


class SignedEdge(NamedTuple):
    id: EdgeId
    tail: VertexId
    head: VertexId
    sign: int


@dataclass(frozen=True)
class EdgeIndex:
    """The vertices and edges of a multigraph, numbered once: edge k has id
    ``ids[k]`` and runs from vertex ``tails[k]`` to vertex ``heads[k]``,
    positions in ``vertices``.  The labeled graphs of one character share
    one index."""

    vertices: tuple[VertexId, ...]
    ids: tuple[EdgeId, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]

    @staticmethod
    def of(vertices: Sequence[VertexId], edges: Sequence[SignedEdge | GainEdge]) -> "EdgeIndex":
        """The index of ``edges``, whose endpoints must be ``vertices``."""
        vindex = {v: i for i, v in enumerate(vertices)}
        try:
            tails = tuple(vindex[e.tail] for e in edges)
            heads = tuple(vindex[e.head] for e in edges)
        except KeyError as exc:
            raise InputError(f"edge endpoint {exc.args[0]!r} is not a vertex") from None
        return EdgeIndex(tuple(vertices), tuple(e.id for e in edges), tails, heads)

    @cached_property
    def position(self) -> dict[EdgeId, int]:
        """Each edge id's k, built once per index and shared: not to be
        modified."""
        return {eid: k for k, eid in enumerate(self.ids)}


@dataclass(frozen=True)
class SignedGraph:
    """A +-1 labeling of an indexed multigraph: edge k of ``index`` has
    sign ``signs[k]``."""

    index: EdgeIndex
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != len(self.index.ids) or not set(self.signs) <= {1, -1}:
            raise InputError("a signed graph takes one sign, +1 or -1, per edge")

    @cached_property
    def edges(self) -> tuple[SignedEdge, ...]:
        """The edges as (id, tail, head, sign), built when first asked for."""
        ix = self.index
        vs = ix.vertices
        return tuple(
            SignedEdge(eid, vs[t], vs[h], s)
            for eid, t, h, s in zip(ix.ids, ix.tails, ix.heads, self.signs)
        )


def _ground_index(labeled_sgs: Sequence[tuple[PairLabel, "SignedGraph"]]) -> EdgeIndex:
    """The index that every labeled graph shares, by identity or by equal
    value: the ground set of a union, its edges numbered 0, 1, ..."""
    if not labeled_sgs:
        raise InputError("need at least one matroid")
    index = labeled_sgs[0][1].index
    if any(sg.index is not index and sg.index != index for _, sg in labeled_sgs):
        raise InputError("the labeled graphs do not share one edge index")
    return index


def _edge_table(
    sg: SignedGraph, ids: Sequence[EdgeId]
) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The edges ``ids`` of ``sg`` as (k, tail, head, sign), k the position
    in ``ids`` and the vertices numbered by the graph's index, with the
    number of its vertices: the form ``_SignedForest`` takes."""
    index, signs = sg.index, sg.signs
    tails, heads, position = index.tails, index.heads, index.position
    table = []
    for k, eid in enumerate(ids):
        j = position[eid]
        table.append((k, tails[j], heads[j], signs[j]))
    return len(index.vertices), table


def _formula_ranks(
    index: EdgeIndex, sign_lists: Sequence[Sequence[int]], ks: Iterable[int]
) -> list[int]:
    """The rank of the edges ``ks`` of ``index`` under each sign list, by
    the component formula: |V(X)| - 1 per component X, plus 1 when X holds
    a negative cycle.

    One spanning forest of the edges serves every sign list.  Under one,
    each vertex's potential is the sign product of its tree path from its
    root, so a component is balanced exactly when every closing edge
    (every edge off the forest, loops included) has potential(tail) *
    sign * potential(head) = 1."""
    tails, heads = index.tails, index.heads
    nv = len(index.vertices)
    adjacency: list[list[int]] = [[] for _ in range(nv)]
    ks = list(ks)
    for k in ks:
        adjacency[tails[k]].append(k)
        adjacency[heads[k]].append(k)
    # the forest by depth-first search: each vertex after its parent, as
    # (vertex, parent, tree edge), the parent -1 at a root
    steps: list[tuple[int, int, int]] = []
    root = [-1] * nv
    tree = set()
    for r in range(nv):
        if root[r] >= 0 or not adjacency[r]:
            continue
        root[r] = r
        steps.append((r, -1, -1))
        stack = [r]
        while stack:
            x = stack.pop()
            for k in adjacency[x]:
                y = heads[k] if tails[k] == x else tails[k]
                if root[y] < 0:
                    root[y] = r
                    tree.add(k)
                    steps.append((y, x, k))
                    stack.append(y)
    closing = [(tails[k], heads[k], k) for k in ks if k not in tree]
    base = len(steps) - sum(p < 0 for _, p, _ in steps)
    ranks = []
    for signs in sign_lists:
        potential = [0] * nv
        for v, p, k in steps:
            # a root starts its component's potentials at 1
            potential[v] = potential[p] * signs[k] if p >= 0 else 1
        unbalanced = {root[u] for u, v, k in closing if potential[u] * signs[k] * potential[v] < 0}
        ranks.append(base + len(unbalanced))
    return ranks


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
    ids = list(sg.index.ids if subset is None else subset)
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
    index = sg.index
    ks = range(len(index.ids)) if subset is None else [index.position[e] for e in subset]
    return _formula_ranks(index, [sg.signs], ks)[0]


# ---------------------------------------------------------------------------
# matroid union


@dataclass(frozen=True)
class UnionDecomposition:
    """Assignment of an independent subset to the constituent matroids;
    the parts and the unassigned edges partition the ground set, the
    edges of the index the labeled graphs share.  ``assignment`` maps each
    assigned edge to its part's label, read from ``parts``."""

    parts: dict[PairLabel, tuple[EdgeId, ...]]
    unassigned: tuple[EdgeId, ...]

    @cached_property
    def assignment(self) -> dict[EdgeId, PairLabel]:
        return {eid: label for label, ids in self.parts.items() for eid in ids}

    def validate(self, labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]]) -> None:
        """Check the partition, then each part's independence by rank =
        size; a dependent part's circuit is named in the error."""
        index = _ground_index(labeled_sgs)
        seen: set[EdgeId] = set()
        for label, ids in self.parts.items():
            for eid in ids:
                if eid in seen:
                    raise ConsistencyError(f"edge {eid!r} assigned twice")
                seen.add(eid)
        rest = set(self.unassigned)
        if len(rest) < len(self.unassigned):
            raise ConsistencyError("an unassigned edge is listed twice")
        if not rest.isdisjoint(seen):
            raise ConsistencyError("an edge is both assigned and unassigned")
        position = index.position
        if seen | rest != position.keys():
            raise ConsistencyError("parts and unassigned edges are not the ground set")
        sg_by_label = dict(labeled_sgs)
        for label, ids in self.parts.items():
            sg = sg_by_label[label]
            if _formula_ranks(index, [sg.signs], [position[e] for e in ids])[0] < len(ids):
                witness = is_independent_signed(sg, ids)[1]
                raise ConsistencyError(f"part {label} not independent: {witness}")


@dataclass(frozen=True)
class UnionRankResult:
    """Union rank plus certificates: a decomposition of a maximum
    independent subset, a witness set X, ``witness_bound``, the
    |S \\ X| + sum_i r_i(X) evaluated from X, which equals the rank (tight
    by construction, and checked), and ``circuit``, the reach of the first
    failed search in element order (empty when none failed), a subset of
    X."""

    rank: int
    decomposition: UnionDecomposition
    witness: tuple[EdgeId, ...]
    witness_bound: int
    circuit: tuple[EdgeId, ...]


def matroid_union_rank(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
) -> UnionRankResult:
    """Rank of the union of signed-graphic matroids on a common ground set,
    via incremental augmenting paths in the exchange graph (breadth-first,
    deterministic tie-breaking).  The graphs share one ``EdgeIndex``, the
    ground set: the endpoints are read from it, and each graph gives its
    signs.

    Returns the rank, a decomposition of a maximum independent subset, the
    set X of elements reachable from the unassigned ones (the saturated
    set), which certifies optimality, |S \\ X| + sum_i r_i(X) evaluated
    from X, checked here to equal the rank, and the first circuit: the
    reach of the first failed search.
    """
    # element k has endpoints tails[k] and heads[k], shared by every part,
    # and sign signs[i][k] in part i; parts on the same labeling share one
    # sign list
    index = _ground_index(labeled_sgs)
    elements, tails, heads = index.ids, index.tails, index.heads
    signs = [sg.signs for _, sg in labeled_sgs]
    nv, m, nparts = len(index.vertices), len(elements), len(labeled_sgs)

    parts: list[list[int]] = [[] for _ in range(nparts)]
    forests = [_SignedForest(nv) for _ in range(nparts)]
    part_of = [-1] * m
    saturated = [False] * m
    # saturated members per part, the last slot for the unassigned ones
    closed = [0] * (nparts + 1)
    unassigned: list[int] = []

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
        reached = [0] * nparts
        q = deque([source])
        while q:
            x = q.popleft()
            u, v = tails[x], heads[x]
            # in part order: a free slot ends the search, else the arcs are
            # the part's members on x's circuit there, unless it is closed
            for i in range(nparts):
                if part_of[x] == i:
                    continue
                part, s = parts[i], signs[i][x]
                if reached[i] + closed[i] < len(part):
                    circuit = forests[i].circuit(x, u, v, s)
                elif forests[i].accepts(x, u, v, s):
                    circuit = None
                else:
                    continue
                if circuit is None:
                    _cascade(x, i, prev)
                    return True
                for y in part:
                    if y in circuit and y not in prev and not saturated[y]:
                        prev[y] = x
                        reached[i] += 1
                        q.append(y)
        for x in prev:
            saturated[x] = True
            closed[part_of[x]] += 1
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

    circuit: tuple[EdgeId, ...] = ()
    for k in range(m):
        if not try_augment(k):
            if not unassigned:
                # nothing was saturated before this search: its reach
                circuit = tuple(e for e, sat in zip(elements, saturated) if sat)
            unassigned.append(k)

    decomposition = UnionDecomposition(
        parts={label: tuple(elements[k] for k in ks) for (label, _), ks in zip(labeled_sgs, parts)},
        unassigned=tuple(elements[k] for k in unassigned),
    )
    rank = m - len(unassigned)
    witness = tuple(e for e, sat in zip(elements, saturated) if sat)
    witness_bound = union_rank_by_formula(labeled_sgs, elements, witness)
    if rank != witness_bound:
        raise ConsistencyError("union rank does not meet its witness bound")
    return UnionRankResult(rank, decomposition, witness, witness_bound, circuit)


def union_rank_by_formula(
    labeled_sgs: Sequence[tuple[PairLabel, SignedGraph]],
    subset: Sequence[EdgeId],
    witness: Sequence[EdgeId],
) -> int:
    """Evaluate |S \\ X| + sum_i r_i(X) for a witness set X, every r_i(X)
    from one spanning forest of X: one rank per distinct labeling, which
    the pairs on it share."""
    index = _ground_index(labeled_sgs)
    xset = set(witness)
    inside = [e for e in subset if e in xset]
    distinct = list({id(sg): sg for _, sg in labeled_sgs}.values())
    position = index.position
    ranks = _formula_ranks(index, [sg.signs for sg in distinct], [position[e] for e in inside])
    rank_of = dict(zip(map(id, distinct), ranks))
    return len(subset) - len(inside) + sum(rank_of[id(sg)] for _, sg in labeled_sgs)


# ---------------------------------------------------------------------------
# the full combinatorial verdict and the first counting violation


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
    configuration (the removed zero loops have zero rows).  ``circuit`` is
    the union's first circuit (``UnionRankResult``).  Neither these two
    nor ``labeled``, the labeled graphs the union ran on, is part of
    ``to_json``."""

    irrep: Element
    edges: int
    target: int
    rank: int
    rigid: bool
    deficiency: int
    removed_loops: tuple[EdgeId, ...]
    decomposition: UnionDecomposition
    witness: tuple[EdgeId, ...]
    witness_bound: int
    circuit: tuple[EdgeId, ...]
    labeled: Sequence[tuple[PairLabel, SignedGraph]]

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
    distinct labeling: pairs with the same labeling share it.  A pair's
    labeling is compared as its tuple of signs over the group elements.
    The graph's vertices and edges are numbered once, in one
    ``EdgeIndex`` that every labeling shares."""
    signs = induced_signs(rep, g)
    index = EdgeIndex.of(h.vertices, h.edges)
    gains = [e.gain for e in h.edges]
    built: dict[tuple[int, ...], SignedGraph] = {}
    out = []
    for pos, pair in enumerate(screw_pairs(rep.d)):
        key = tuple(s[pos] for s in signs.values())
        sg = built.get(key)
        if sg is None:
            labeling = dict(zip(signs, key))
            sg = built[key] = SignedGraph(index, tuple(map(labeling.__getitem__, gains)))
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
        edges=len(h_g.edges),
        target=target,
        rank=rank,
        rigid=rank >= target,
        deficiency=max(0, target - rank),
        removed_loops=removed,
        decomposition=result.decomposition,
        witness=result.witness,
        witness_bound=result.witness_bound,
        circuit=result.circuit,
        labeled=labeled,
    )


def counting_violation(verdict: CombinatorialVerdict) -> dict | None:
    """The first edge set F, in subset-enumeration order of the ground set
    S of the verdict's labeled graphs, that violates the count
    ``|F| <= B|V(F)| - B + sum_i alpha_i(F)``, as a JSON document, or None.
    B is the number of labeled graphs and alpha_i(F) = 1 when F holds a
    negative cycle in graph i.

    A set violates the count exactly when it is dependent in the union
    (Edmonds), so there is no violation when the union left nothing
    unassigned.  Else let k be the first unassigned element: S[:k] is
    independent, so S[:k+1] holds one union circuit C, and every violating
    subset of it contains C, which thus comes first.  The union's first
    failed search, at k, reached exactly the y for which S[:k] - y + k is
    independent, the elements of C, and the verdict carries them as
    ``circuit``.  C is connected, so sum_i r_i(C) is the bound; it is
    evaluated here and checked to fail."""
    circuit = verdict.circuit
    if not circuit:
        return None
    bound = union_rank_by_formula(verdict.labeled, circuit, circuit)
    if len(circuit) <= bound:
        raise ConsistencyError(f"union circuit {circuit!r} meets the count")
    return {"edges": [_edge_id_json(e) for e in circuit], "size": len(circuit), "bound": bound}
