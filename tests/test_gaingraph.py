from __future__ import annotations

import random
from collections import Counter

import pytest

from orbitrig.ensemble import random_gain_graph
from orbitrig.errors import InputError
from orbitrig.gaingraph import (
    lift_cover,
    make_gain_graph,
    multiply_edges,
    quotient,
    remove_zero_loops,
)
from orbitrig.symmetry import AbelianGroup
from conftest import identity, mirror_rep, stewart_graph, two_group


def edge_pairs(cov) -> Counter:
    return Counter(frozenset((e.tail, e.head)) for e in cov.edges)


class TestValidation:
    def test_identity_gain_loop_rejected(self):
        g = two_group(1)
        with pytest.raises(InputError):
            make_gain_graph(["v"], [(0, "v", "v", (0,))], group=g)

    def test_non_order2_gain_in_l_rejected(self):
        g = AbelianGroup((4,))
        with pytest.raises(InputError):
            make_gain_graph(["v"], [(0, "v", "v", (1,))], loops_l=[0], group=g)

    def test_non_loop_in_l_rejected(self):
        g = two_group(1)
        with pytest.raises(InputError):
            make_gain_graph(["u", "v"], [(0, "u", "v", (1,))], loops_l=[0], group=g)

    def test_unknown_endpoint(self):
        with pytest.raises(InputError):
            make_gain_graph(["u"], [(0, "u", "w", (0,))])


class TestGainsCheckedOnce:
    def test_failed_group_is_not_recorded_and_graphs_compare_without_it(self):
        h = make_gain_graph(["u"], [(0, "u", "u", (1,))], group=two_group(1))
        h.validate_gains(two_group(1))
        assert h == make_gain_graph(["u"], [(0, "u", "u", (1,))])
        for _ in range(2):  # a group that fails is not recorded
            with pytest.raises(InputError, match="not in group"):
                h.validate_gains(AbelianGroup((3, 2)))

    def test_crosscheck_instance_walks_once_per_graph_and_group(self, monkeypatch):
        """``validate_gains`` runs at every entry point of one ``crosscheck``
        instance, but walks the edges of a graph once per group."""
        from orbitrig.ensemble import crosscheck_instances
        from orbitrig.gaingraph import GainGraph

        contains, validate = AbelianGroup.contains, GainGraph.validate_gains
        counts = {"contains": 0}
        walks = Counter()
        calls = []

        def counting_contains(group, a):
            counts["contains"] += 1
            return contains(group, a)

        def recording_validate(graph, group):
            before = counts["contains"]
            validate(graph, group)
            calls.append(graph)
            walks[id(graph), group] += counts["contains"] > before

        monkeypatch.setattr(AbelianGroup, "contains", counting_contains)
        monkeypatch.setattr(GainGraph, "validate_gains", recording_validate)
        assert crosscheck_instances(1, (2, 2), 3, 7)["ok"]
        assert len(calls) >= 7
        assert set(walks.values()) == {1}


class TestLiftCover:
    def test_nonfree_loop_single_edge(self):
        """A non-free loop lifts to one edge between the two vertex copies."""
        g = two_group(1)
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], loops_l=[0], group=g)
        cov = lift_cover(h, g)
        assert len(cov.vertices) == 2
        assert len(cov.edges) == 1
        assert edge_pairs(cov) == Counter({frozenset({("v", (0,)), ("v", (1,))}): 1})

    def test_free_loop_two_parallel_edges(self):
        g = two_group(1)
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], group=g)
        cov = lift_cover(h, g)
        assert len(cov.edges) == 2
        assert edge_pairs(cov) == Counter({frozenset({("v", (0,)), ("v", (1,))}): 2})

    def test_fiber_sizes(self):
        rng = random.Random(13)
        for orders in ((2,), (3,), (4,), (2, 2)):
            group = AbelianGroup(orders)
            for _ in range(5):
                h = random_gain_graph(rng, group, 4, 8)
                cov = lift_cover(h, group)
                assert len(cov.vertices) == len(h.vertices) * group.order()
                expected = sum(
                    group.order() // 2 if e.id in h.loops_l else group.order()
                    for e in h.edges
                )
                assert len(cov.edges) == expected

    def test_mirror_symmetric_triangle_prism(self):
        """Three bodies and five bar orbits rebuild the six-vertex,
        nine-edge mirror-symmetric graph."""
        g = two_group(1)
        h = make_gain_graph(
            ["v1", "v2", "v3"],
            [
                (0, "v1", "v2", (0,)),
                (1, "v1", "v3", (0,)),
                (2, "v2", "v3", (0,)),
                (3, "v2", "v2", (1,)),
                (4, "v3", "v1", (1,)),
            ],
            loops_l=[3],
            group=g,
        )
        cov = lift_cover(h, g)
        assert len(cov.vertices) == 6
        assert len(cov.edges) == 9
        ident, s = (0,), (1,)
        expected = Counter(
            frozenset(pair)
            for pair in [
                {("v1", ident), ("v2", ident)},
                {("v1", s), ("v2", s)},
                {("v1", ident), ("v3", ident)},
                {("v1", s), ("v3", s)},
                {("v2", ident), ("v3", ident)},
                {("v2", s), ("v3", s)},
                {("v2", ident), ("v2", s)},
                {("v3", ident), ("v1", s)},
                {("v3", s), ("v1", ident)},
            ]
        )
        assert edge_pairs(cov) == expected

    def test_action_is_free_on_vertices(self):
        g = two_group(2)
        h = stewart_graph(two_group(1))
        h = make_gain_graph(
            [v for v in h.vertices], [(e.id, e.tail, e.head, (1, 0)) for e in h.edges],
            loops_l=h.loops_l, group=g,
        )
        cov = lift_cover(h, g)
        for gamma in g.elements():
            if gamma == g.identity:
                continue
            for v in cov.vertices:
                assert (v[0], cov.group.add(gamma, v[1])) != v


class TestQuotient:
    def test_round_trip_exact_with_default_reps(self):
        rng = random.Random(29)
        for orders in ((2,), (3,), (4,), (2, 2)):
            group = AbelianGroup(orders)
            for _ in range(8):
                h = random_gain_graph(rng, group, 5, 10)
                assert quotient(lift_cover(h, group)) == h

    def test_round_trip_up_to_representatives(self):
        rng = random.Random(31)
        group = two_group(1)
        for _ in range(8):
            h = random_gain_graph(rng, group, 4, 8)
            cov = lift_cover(h, group)
            reps = {v: rng.choice(group.elements()) for v in h.vertices}
            h2 = quotient(cov, representatives=reps)
            cov2 = lift_cover(h2, group)
            # compare up to the vertex relabeling induced by the choices
            remapped = Counter(
                frozenset(
                    {(u, group.add(a, reps[u])), (v, group.add(b, reps[v]))}
                )
                for ((u, a), (v, b)) in (
                    (e.tail, e.head) for e in cov2.edges
                )
            )
            assert remapped == edge_pairs(cov)

    def test_c2_stewart_quotient(self):
        """Two bodies and six bars with half-turn symmetry collapse to one
        vertex with four loops, two of them non-free."""
        g = two_group(1)
        h = stewart_graph(g)
        cov = lift_cover(h, g)
        assert len(cov.vertices) == 2
        assert len(cov.edges) == 6
        back = quotient(cov)
        assert back == h
        assert back.loops_l == frozenset({2, 3})


class TestRemoveZeroLoops:
    def test_cs_stewart_antisymmetric(self, cs_stewart):
        h, rep = cs_stewart
        h1 = remove_zero_loops(h, rep, (1,))
        assert [e.id for e in h1.edges] == [0, 1]
        assert h1.loops_l == frozenset()

    def test_cs_stewart_symmetric(self, cs_stewart):
        h, rep = cs_stewart
        h0 = remove_zero_loops(h, rep, (0,))
        assert h0 == h

    def test_no_l_unchanged(self):
        g = two_group(1)
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], group=g)
        rep = mirror_rep()
        for j in g.elements():
            assert remove_zero_loops(h, rep, j) == h


class TestMultiplyEdges:
    def test_parallel_copies(self):
        g = two_group(1)
        h = make_gain_graph(["u", "v"], [(0, "u", "v", (1,))], group=g)
        m = multiply_edges(h, 5)
        assert len(m.edges) == 5
        assert [e.id for e in m.edges] == [(0, t) for t in range(1, 6)]
        assert all(e.gain == (1,) for e in m.edges)

    def test_loop_copies_leave_l_empty(self):
        g = two_group(1)
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], group=g)
        m = multiply_edges(h, 3)
        assert len(m.edges) == 3
        assert m.loops_l == frozenset()

    def test_bad_multiplicity(self):
        h = make_gain_graph(["v"], [])
        with pytest.raises(InputError):
            multiply_edges(h, 0)


class TestEdgeActionFreeness:
    def test_free_on_edges_iff_no_nonfree_loops(self):
        rng = random.Random(73)
        group = two_group(1)
        for _ in range(10):
            h = random_gain_graph(rng, group, 3, 6)
            cov = lift_cover(h, group)
            fixed = [
                e
                for gamma in group.elements()
                if gamma != group.identity
                for e in cov.edges
                if cov.edge_action(gamma, e).id == e.id
            ]
            assert bool(fixed) == bool(h.loops_l)


class TestFaithfulnessGuard:
    def test_unfaithful_rep_rejected_for_zero_loop_removal(self):
        import pytest as _pytest

        from orbitrig.errors import RepresentationError
        from orbitrig.symmetry import PointRepresentation

        g = two_group(1)
        unfaithful = PointRepresentation.from_generators(g, 3, [identity(3)])
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], loops_l=[0], group=g)
        with _pytest.raises(RepresentationError):
            remove_zero_loops(h, unfaithful, (1,))
