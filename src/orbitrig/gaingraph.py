"""Gain graphs (quotients of symmetric multigraphs), covering lifts,
quotient construction, zero-loop removal, and parallel edge multiplication.

A gain graph is a directed multigraph whose edges carry group elements.  A
distinguished loop subset ``loops_l`` marks quotient loops whose edge orbit
upstairs is not free: such a loop lifts to half as many edges as a free one
and its gain must square to the identity.  Loops never carry the identity
gain (a body cannot be barred to itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InputError, RepresentationError, UnsupportedGroupError
from .symmetry import AbelianGroup, Element, PointRepresentation, character_power

VertexId = Hashable
EdgeId = Hashable


@dataclass(frozen=True)
class GainEdge:
    id: EdgeId
    tail: VertexId
    head: VertexId
    gain: Element

    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class GainGraph:
    vertices: tuple[VertexId, ...]
    edges: tuple[GainEdge, ...]
    loops_l: frozenset[EdgeId] = field(default_factory=frozenset)
    # the groups whose ``validate_gains`` check the gains have passed
    _valid_for: set[AbelianGroup] = field(
        default_factory=set, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate edge ids")
        vset = set(self.vertices)
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                raise InputError(f"edge {e.id} has unknown endpoint")
        unknown = self.loops_l - set(ids)
        if unknown:
            raise InputError(f"loop-set ids {sorted(map(str, unknown))} are not edges")

    def validate_gains(self, group: AbelianGroup) -> None:
        """Raise unless every gain is an element of ``group``, no loop has
        the identity gain and every non-free loop's gain has order two.
        Each group is checked once: a group that passed returns at once."""
        if group in self._valid_for:
            return
        for e in self.edges:
            if not group.contains(e.gain):
                raise InputError(f"edge {e.id} gain {e.gain} not in group {group.orders}")
            if e.is_loop() and e.gain == group.identity:
                raise InputError(f"loop {e.id} carries the identity gain")
            if e.id in self.loops_l:
                if not e.is_loop():
                    raise InputError(f"non-loop edge {e.id} marked as non-free")
                if group.add(e.gain, e.gain) != group.identity:
                    raise InputError(f"non-free loop {e.id} gain must have order 2")
        self._valid_for.add(group)

    @cached_property
    def _edge_by_id(self) -> dict[EdgeId, GainEdge]:
        return {e.id: e for e in self.edges}

    def edge(self, eid: EdgeId) -> GainEdge:
        e = self._edge_by_id.get(eid)
        if e is None:
            raise InputError(f"no edge with id {eid!r}")
        return e

    def loops_in_l(self) -> tuple[GainEdge, ...]:
        return tuple(e for e in self.edges if e.id in self.loops_l)


def make_gain_graph(
    vertices: Sequence[VertexId],
    edges: Iterable[tuple[EdgeId, VertexId, VertexId, Sequence[int]]],
    loops_l: Iterable[EdgeId] = (),
    group: AbelianGroup | None = None,
) -> GainGraph:
    gedges = tuple(GainEdge(eid, t, h, tuple(g)) for eid, t, h, g in edges)
    graph = GainGraph(tuple(vertices), gedges, frozenset(loops_l))
    if group is not None:
        graph.validate_gains(group)
    return graph


# ---------------------------------------------------------------------------
# covering graphs


@dataclass(frozen=True)
class LiftedEdge:
    id: tuple[EdgeId, Element]
    tail: tuple[VertexId, Element]
    head: tuple[VertexId, Element]
    base: EdgeId


@dataclass(frozen=True)
class CoveredGraph:
    """The symmetric multigraph covering a gain graph: vertices are
    (representative, group element) pairs and the group acts by left
    translation on the second component."""

    group: AbelianGroup
    vertices: tuple[tuple[VertexId, Element], ...]
    edges: tuple[LiftedEdge, ...]
    half_orbit_bases: frozenset[EdgeId]

    def edge_action(self, gamma: Element, e: LiftedEdge) -> LiftedEdge:
        base, delta = e.id
        moved = self.group.add(gamma, delta)
        if base in self.half_orbit_bases:
            gain_diff = self.group.add(self.group.inverse(e.tail[1]), e.head[1])
            moved = min(moved, self.group.add(moved, gain_diff))
        lifted = self._edge_by_id.get((base, moved))
        if lifted is None:
            raise InputError(f"no lifted edge {(base, moved)!r}")
        return lifted

    @cached_property
    def _edge_by_id(self) -> dict[tuple[EdgeId, Element], LiftedEdge]:
        return {e.id: e for e in self.edges}


def lift_cover(h: GainGraph, group: AbelianGroup) -> CoveredGraph:
    """Rebuild the symmetric multigraph from its quotient.

    A free edge orbit contributes |Gamma| lifted edges; a loop in the
    non-free set contributes one edge per coset of its order-2 gain, i.e.
    |Gamma|/2 edges.
    """
    h.validate_gains(group)
    elems = group.elements()
    vertices = tuple((v, g) for v in h.vertices for g in elems)
    edges: list[LiftedEdge] = []
    for e in h.edges:
        if e.id in h.loops_l:
            seen: set[Element] = set()
            for g in elems:
                partner = group.add(g, e.gain)
                rep = min(g, partner)
                if rep in seen:
                    continue
                seen.add(rep)
                edges.append(
                    LiftedEdge((e.id, rep), (e.tail, rep), (e.head, group.add(rep, e.gain)), e.id)
                )
        else:
            for g in elems:
                edges.append(
                    LiftedEdge((e.id, g), (e.tail, g), (e.head, group.add(g, e.gain)), e.id)
                )
    return CoveredGraph(group, vertices, tuple(edges), frozenset(h.loops_l))


def quotient(
    cov: CoveredGraph,
    representatives: Mapping[VertexId, Element] | None = None,
) -> GainGraph:
    """Quotient gain graph of a covered graph under the translation action.

    Vertex orbits keep their representative id; the representative group
    element defaults to the identity.  Edge orbits are recovered from the
    action; an orbit of size |Gamma|/2 lands in the non-free loop set.
    """
    group = cov.group
    ident = group.identity
    reps = {v: ident for v, _ in cov.vertices}
    if representatives is not None:
        for v, g in representatives.items():
            reps[v] = group.canon(g)
    order = group.order()

    seen: set[tuple[EdgeId, Element]] = set()
    out_edges: list[GainEdge] = []
    loops_l: list[EdgeId] = []
    for e in cov.edges:
        if e.id in seen:
            continue
        orbit = []
        for gamma in group.elements():
            img = cov.edge_action(gamma, e)
            if img.id not in seen:
                seen.add(img.id)
                orbit.append(img)
        rep_edge = min(orbit, key=lambda le: _sort_key(le.id))
        u, g1 = rep_edge.tail
        v, g2 = rep_edge.head
        gain = group.add(
            group.add(g2, group.inverse(g1)),
            group.add(reps[u], group.inverse(reps[v])),
        )
        out_edges.append(GainEdge(rep_edge.base, u, v, gain))
        if len(orbit) * 2 == order:
            loops_l.append(rep_edge.base)
        elif len(orbit) != order:
            raise UnsupportedGroupError(
                f"edge orbit of {rep_edge.base!r} has size {len(orbit)}; the action is not free"
            )
    vertex_list = tuple(dict.fromkeys(v for v, _ in cov.vertices))
    return GainGraph(vertex_list, tuple(out_edges), frozenset(loops_l))


def _sort_key(x) -> str:
    return repr(x)


def remove_zero_loops(h: GainGraph, rep: PointRepresentation, g: Element) -> GainGraph:
    """Drop the non-free loops whose gain has character value -1 under the
    label ``g``: their orbit-matrix rows vanish identically, so they carry
    no constraint in this block.  The vanishing argument needs a faithful
    representation, so unfaithful input is rejected here."""
    if not rep.is_faithful():
        raise RepresentationError("zero-loop removal requires a faithful representation")
    drop = set()
    for e in h.loops_in_l():
        if 2 * character_power(rep.group, g, e.gain) == rep.group.element_order(g):
            drop.add(e.id)
    if not drop:
        return h
    return GainGraph(
        h.vertices,
        tuple(e for e in h.edges if e.id not in drop),
        frozenset(h.loops_l - drop),
    )


def multiply_edges(h: GainGraph, m: int) -> GainGraph:
    """Replace every edge by ``m`` parallel copies with the same gain.

    Copy ids are (parent id, copy index) pairs.  The result has an empty
    non-free loop set: multiplication is used for frameworks whose group
    acts freely on edges.
    """
    if m < 1:
        raise InputError("multiplicity must be >= 1")
    edges = tuple(
        GainEdge((e.id, t), e.tail, e.head, e.gain) for e in h.edges for t in range(1, m + 1)
    )
    return GainGraph(h.vertices, edges, frozenset())
