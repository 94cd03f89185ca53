from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from orbitrig import matroid
from orbitrig.ensemble import random_diagonal_rep
from orbitrig.errors import InputError
from orbitrig.gaingraph import make_gain_graph, multiply_edges, remove_zero_loops
from orbitrig.matroid import (
    SignedEdge,
    _SignedForest,
    SignedGraph,
    check_counting_condition,
    combinatorial_verdict,
    incidence_matrix,
    is_independent_signed,
    labeled_signed_graphs,
    matroid_union_rank,
    signed_rank,
    union_rank_by_formula,
)
from orbitrig.symmetry import PointRepresentation, screw_pairs
from conftest import stewart_graph
from oracles import (
    incidence_rank,
    independent_by_incidence,
    matroid_union_rank_unpruned,
    max_independent_bruteforce,
    tree_path_bfs,
    union_rank_bruteforce,
    union_rank_minformula,
)


def sg(vertices, edges) -> SignedGraph:
    return SignedGraph(tuple(vertices), tuple(SignedEdge(*e) for e in edges))


def assert_matches_unpruned(labeled, res) -> None:
    """The union's output equals the unpruned search's, part order and
    witness order included."""
    ref = matroid_union_rank_unpruned(labeled)
    assert list(res.decomposition.parts.items()) == list(ref.decomposition.parts.items())
    assert res.decomposition.unassigned == ref.decomposition.unassigned
    assert res.witness == ref.witness
    assert res.rank == ref.rank


def random_signed_graph(rng, max_vertices=5, max_edges=12) -> SignedGraph:
    nv = rng.randint(1, max_vertices)
    vertices = list(range(nv))
    ne = rng.randint(1, max_edges)
    edges = []
    for eid in range(ne):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        edges.append((eid, u, v, rng.choice((1, -1))))
    return sg(vertices, edges)


class TestIndependence:
    def test_negative_loop_independent(self):
        g = sg([0], [(0, 0, 0, -1)])
        ok, witness = is_independent_signed(g)
        assert ok and witness is None

    def test_positive_loop_dependent(self):
        g = sg([0], [(0, 0, 0, 1)])
        ok, witness = is_independent_signed(g)
        assert not ok
        assert witness.kind == "positive_cycle"
        assert witness.edges == (0,)

    def test_two_negative_loops_dependent(self):
        g = sg([0], [(0, 0, 0, -1), (1, 0, 0, -1)])
        ok, witness = is_independent_signed(g)
        assert not ok
        assert witness.kind == "second_cycle"

    def test_parallel_pair(self):
        mixed = sg([0, 1], [(0, 0, 1, 1), (1, 0, 1, -1)])
        assert is_independent_signed(mixed)[0]
        same = sg([0, 1], [(0, 0, 1, 1), (1, 0, 1, 1)])
        ok, witness = is_independent_signed(same)
        assert not ok
        assert witness.kind == "positive_cycle"
        assert set(witness.edges) == {0, 1}

    def test_two_cycles_joined_by_path(self):
        edges = [
            (0, 0, 1, -1),
            (1, 0, 1, 1),   # negative 2-cycle on {0,1}
            (2, 1, 2, 1),   # path
            (3, 2, 3, -1),
            (4, 2, 3, 1),   # negative 2-cycle on {2,3}
        ]
        ok, witness = is_independent_signed(sg([0, 1, 2, 3], edges))
        assert not ok
        assert witness.kind == "second_cycle"

    def test_matches_incidence_rank_randomized(self):
        rng = random.Random(97)
        for _ in range(150):
            g = random_signed_graph(rng)
            ids = [e.id for e in g.edges]
            subset = [eid for eid in ids if rng.random() < 0.7]
            ours = is_independent_signed(g, subset)[0]
            oracle = independent_by_incidence(g, subset)
            assert ours == oracle


def oracle_circuit(g: SignedGraph, part, x):
    """The circuit of x in part by the matroid definition, with independence
    from incidence ranks: None when part + x is independent, else x plus
    every y of part such that part - y + x is independent."""
    if independent_by_incidence(g, part + [x]):
        return None
    return {x} | {
        y for y in part if independent_by_incidence(g, [z for z in part if z != y] + [x])
    }


def forest_circuit(g: SignedGraph, part, x):
    emap = g.edge_map()
    return _SignedForest(len(g.vertices), (emap[y] for y in part)).circuit(*emap[x])


def accepts_shape(forest: _SignedForest, e: SignedEdge, emap) -> str:
    """Check that ``forest.accepts(e)`` is ``circuit(e) is None`` and name
    the case: what e closes when accepted, the shape of its circuit when
    not."""
    circuit = forest.circuit(*e)
    assert forest.accepts(*e) == (circuit is None)
    ru, su = forest.root[e.tail], forest.sign[e.tail]
    rv, sv = forest.root[e.head], forest.sign[e.head]
    if circuit is None:
        if ru != rv:
            return "tree"
        return "negative-loop" if e.is_loop() else "negative-cycle"
    degree: dict = {}
    for x in circuit:
        for v in (emap[x].tail, emap[x].head):
            degree[v] = degree.get(v, 0) + 1
    if len(circuit) == len(degree):
        if e.is_loop():
            return "positive-loop"
        # a negative e that closes a balanced cycle meets the component's
        # negative cycle in a theta
        return "positive-cycle" if su * e.sign * sv == 1 else "theta"
    assert len(circuit) == len(degree) + 1
    return "tight-handcuff" if max(degree.values()) == 4 else "loose-handcuff"


ACCEPTS_SHAPES = {
    "tree", "negative-loop", "negative-cycle", "positive-loop", "positive-cycle", "theta",
    "tight-handcuff", "loose-handcuff",
}


class TestCircuit:
    @pytest.mark.parametrize(
        "vertices, part, x, circuit",
        [
            # negative triangle 0-1-2 plus a pendant; x closes the negative
            # 2-cycle on {1,2}: the balanced third cycle of the theta
            (5, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 0, 2, -1), (3, 2, 4, 1)],
             (4, 1, 2, -1), {0, 2, 4}),
            # negative 2-cycles on {0,1} and {1,2}, sharing vertex 1
            (4, [(0, 0, 1, 1), (1, 0, 1, -1), (2, 1, 2, 1), (3, 0, 3, 1)],
             (4, 1, 2, -1), {0, 1, 2, 4}),
            # negative 2-cycle on {0,1}, path 1-2, negative 2-cycle on {2,3}
            (5, [(0, 0, 1, 1), (1, 0, 1, -1), (2, 1, 2, 1), (3, 2, 3, 1), (4, 0, 4, 1)],
             (5, 2, 3, -1), {0, 1, 2, 3, 5}),
            # two unicyclic components joined through their pendant paths
            (6, [(0, 0, 1, 1), (1, 0, 1, -1), (2, 2, 3, 1), (3, 2, 3, -1), (4, 3, 4, 1),
                 (5, 2, 5, 1)],
             (6, 1, 4, 1), {0, 1, 2, 3, 4, 6}),
            # negative loop at the end of a path from a negative triangle
            (5, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 0, 2, -1), (3, 2, 3, 1), (4, 0, 4, 1)],
             (5, 3, 3, -1), {0, 1, 2, 3, 5}),
            # positive cycle in a unicyclic component
            (3, [(0, 0, 1, 1), (1, 1, 2, -1), (2, 0, 2, 1)],
             (3, 0, 1, 1), {0, 3}),
            # x joins a unicyclic component to a tree: no circuit
            (4, [(0, 0, 1, 1), (1, 0, 1, -1), (2, 2, 3, 1)], (3, 1, 2, -1), None),
        ],
        ids=[
            "theta", "tight-handcuff", "loose-handcuff", "handcuff-across-components",
            "negative-loop-on-unicyclic", "positive-cycle", "independent",
        ],
    )
    def test_named_shapes(self, vertices, part, x, circuit):
        g = sg(range(vertices), part + [x])
        ids = [e[0] for e in part]
        assert forest_circuit(g, ids, x[0]) == circuit
        assert oracle_circuit(g, ids, x[0]) == circuit

    def test_matches_oracle_randomized(self):
        rng = random.Random(131)
        dependent = 0
        for _ in range(400):
            g = random_signed_graph(rng, max_vertices=6, max_edges=10)
            ids = [e.id for e in g.edges]
            rng.shuffle(ids)
            part = []
            for eid in ids:
                if rng.random() < 0.8 and independent_by_incidence(g, part + [eid]):
                    part.append(eid)
            for x in ids:
                if x not in part:
                    expected = oracle_circuit(g, part, x)
                    assert forest_circuit(g, part, x) == expected
                    dependent += expected is not None
        assert dependent >= 1000

    def test_accepts_is_no_circuit_randomized(self):
        """``accepts`` answers ``circuit(e) is None`` for every edge outside
        seeded random parts, and every case of the circuit query occurs."""
        rng = random.Random(139)
        shapes: dict = {}
        for _ in range(400):
            g = random_signed_graph(rng, max_vertices=6, max_edges=10)
            emap = g.edge_map()
            ids = [e.id for e in g.edges]
            rng.shuffle(ids)
            forest = _SignedForest(len(g.vertices))
            part = []
            for eid in ids:
                if rng.random() < 0.8 and forest.accepts(*emap[eid]):
                    forest.add(*emap[eid])
                    part.append(eid)
            for x in ids:
                if x not in part:
                    shape = accepts_shape(forest, emap[x], emap)
                    shapes[shape] = shapes.get(shape, 0) + 1
        assert set(shapes) == ACCEPTS_SHAPES
        assert min(shapes.values()) >= 10, shapes

    def test_witness_is_a_circuit_randomized(self):
        rng = random.Random(137)
        witnesses = 0
        for _ in range(150):
            g = random_signed_graph(rng, max_vertices=6, max_edges=10)
            ids = [e.id for e in g.edges]
            subset = [eid for eid in ids if rng.random() < 0.8]
            ok, witness = is_independent_signed(g, subset)
            if ok:
                continue
            witnesses += 1
            edges = list(witness.edges)
            assert not independent_by_incidence(g, edges)
            for y in edges:
                assert independent_by_incidence(g, [z for z in edges if z != y])
        assert witnesses >= 50


class TestForestInvariants:
    """The rooted forest against a breadth-first reference after every
    insertion of a seeded random independent edge sequence."""

    @staticmethod
    def insert_and_check(rng, n, mode):
        """Insert up to 2n edges and check the forest after each one.  In
        mode 'random' joining edges pick random endpoints; in mode 'path'
        they link consecutive vertices of a random permutation in random
        order; in mode 'halves' they grow two paths and join them last at
        their far ends, which re-roots the shorter one at a deep vertex."""
        forest = _SignedForest(n)
        adjacency: dict = {}
        sign_of: dict = {}
        label: dict = {}  # reference component label per inserted vertex
        cyclic: set = set()
        order = list(range(n))
        rng.shuffle(order)
        mid = rng.randrange(2, n - 3)
        if mode == "halves":
            # link i joins order[i] and order[i + 1]; popped from the end, links
            # 0 .. mid-1 grow one path, n-2 down to mid+1 another, and mid joins them
            links = [mid] + list(range(mid + 1, n - 1)) + list(range(mid - 1, -1, -1))
        else:
            links = list(range(n - 1))
            rng.shuffle(links)
        merges = {"tail": 0, "head": 0, "deep": 0}
        for eid in range(2 * n):
            if label and (mode != "halves" or not links) and rng.random() < 0.2:
                # close the first (negative) cycle of a component
                u = rng.choice(sorted(label))
                if label[u] in cyclic:
                    continue
                v = rng.choice([w for w in label if label[w] == label[u]])
                path = tree_path_bfs(adjacency, u, v)
                sign = -math.prod(sign_of[x] for x in path)
            else:
                if mode != "random":
                    if not links:
                        continue
                    i = links.pop()
                    u, v = order[i], order[i + 1]
                else:
                    u, v = rng.randrange(n), rng.randrange(n)
                lu, lv = label.get(u, ("v", u)), label.get(v, ("v", v))
                if lu == lv or (lu in cyclic and lv in cyclic):
                    continue
                sign = rng.choice((1, -1))
            e = SignedEdge(eid, u, v, sign)
            assert forest.circuit(*e) is None
            before = {w: forest.root[w] for w in (u, v)}
            depth_before = list(forest.depth)
            forest.add(*e)
            # reference update
            lu, lv = label.setdefault(u, ("v", u)), label.setdefault(v, ("v", v))
            if lu == lv:
                cyclic.add(lu)
            else:
                for w in label:
                    if label[w] == lv:
                        label[w] = lu
                if lv in cyclic:
                    cyclic.discard(lv)
                    cyclic.add(lu)
                adjacency.setdefault(u, []).append((eid, v))
                adjacency.setdefault(v, []).append((eid, u))
                sign_of[eid] = sign
                low = u if forest.root[u] != before[u] else v
                merges["tail" if low == u else "head"] += 1
                merges["deep"] += depth_before[low] >= 3
            # invariants
            comps: dict = {}
            for w, lab in label.items():
                comps.setdefault(lab, []).append(w)
            # the vertices no edge has touched are single-vertex components
            components = [r for r, x in enumerate(forest.root) if r == x]
            assert len(components) == len(comps) + n - len(label)
            for lab, verts in comps.items():
                roots = {forest.root[w] for w in verts}
                assert len(roots) == 1
                (r,) = roots
                assert sorted(forest.members[r]) == sorted(verts)
                assert forest.unbalanced[r] == (lab in cyclic)
                for w in verts:
                    to_root = tree_path_bfs(adjacency, w, r)
                    assert forest.tree_path(w, r) == to_root
                    assert forest.depth[w] == len(to_root)
                    assert forest.sign[w] == math.prod(sign_of[x] for x in to_root)
            verts = sorted(label)
            for _ in range(20):
                a, b = rng.choice(verts), rng.choice(verts)
                if label[a] == label[b]:
                    assert forest.tree_path(a, b) == tree_path_bfs(adjacency, a, b)
            assert forest.tree_path(u, v) == (tree_path_bfs(adjacency, u, v) if u != v else [])
        return merges

    def test_random_sequences(self):
        rng = random.Random(307)
        merges = {"tail": 0, "head": 0, "deep": 0}
        for t in range(18):
            n = rng.randint(10, 40)
            mode = ("random", "path", "halves")[t % 3]
            for k, c in self.insert_and_check(rng, n, mode).items():
                merges[k] += c
        # both endpoints end up on the re-rooted side, and deep re-rootings occur
        assert merges["tail"] >= 50 and merges["head"] >= 50
        assert merges["deep"] >= 5

    def test_accepts_is_no_circuit_on_long_sequences(self):
        """On longer seeded insertion sequences, with deep trees that are
        re-rooted as they join, ``accepts`` answers ``circuit(e) is None``
        for random edges before every insertion."""
        rng = random.Random(313)
        shapes: dict = {}
        for _ in range(18):
            n = rng.randint(10, 40)
            forest = _SignedForest(n)
            emap: dict = {}
            for eid in range(4 * n):
                e = SignedEdge(eid, rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
                emap[eid] = e
                shape = accepts_shape(forest, e, emap)
                shapes[shape] = shapes.get(shape, 0) + 1
                if forest.accepts(*e):
                    forest.add(*e)
        assert set(shapes) == ACCEPTS_SHAPES
        assert min(shapes.values()) >= 5, shapes

    def test_signed_rank_matches_incidence_rank(self):
        rng = random.Random(311)
        for _ in range(25):
            n = rng.randint(10, 30)
            edges = [
                (eid, rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
                for eid in range(rng.randint(n // 2, 2 * n))
            ]
            g = sg(range(n), edges)
            subset = [e[0] for e in edges if rng.random() < 0.7]
            assert signed_rank(g) == incidence_rank(g)
            assert signed_rank(g, subset) == incidence_rank(g, subset)


class TestSignedRank:
    def test_spanning_tree(self):
        g = sg([0, 1, 2, 3], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, -1)])
        assert signed_rank(g) == 3

    def test_loops_saturate(self):
        g = sg([0], [(0, 0, 0, -1)])
        assert signed_rank(g) == 1
        g2 = sg([0], [(0, 0, 0, -1), (1, 0, 0, -1)])
        assert signed_rank(g2) == 1

    def test_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_signed_graph(rng, max_edges=10)
            assert signed_rank(g) == max_independent_bruteforce(g)


class TestIncidenceMatrix:
    def test_rows(self):
        g = sg(["u", "v"], [(0, "u", "v", 1), (1, "u", "v", -1)])
        rows = incidence_matrix(g)
        assert rows[0] == [Fraction(-1), Fraction(1)]
        assert rows[1] == [Fraction(1), Fraction(1)]

    def test_loop_rows(self):
        g = sg(["u"], [(0, "u", "u", -1), (1, "u", "u", 1)])
        rows = incidence_matrix(g)
        assert rows[0] == [Fraction(2)]
        assert rows[1] == [Fraction(0)]

    def test_rank_equals_signed_rank(self):
        from oracles import incidence_rank

        rng = random.Random(23)
        for _ in range(60):
            g = random_signed_graph(rng, max_edges=10)
            assert incidence_rank(g) == signed_rank(g)


class TestMatroidUnion:
    def test_empty_set(self):
        g = sg([0], [(0, 0, 0, -1)])
        res = matroid_union_rank([((1, 2), g)], elements=[])
        assert res.rank == 0
        assert res.decomposition.parts == {(1, 2): ()}

    def test_c2_stewart_sym_block(self, c2_rep):
        h = stewart_graph(c2_rep.group)
        labeled = labeled_signed_graphs(h, c2_rep, (0,))
        res = matroid_union_rank(labeled)
        assert res.rank == 4
        used = {label for label, ids in res.decomposition.parts.items() if ids}
        assert used == {(1, 2), (1, 3), (2, 4), (3, 4)}
        res.decomposition.validate(labeled)

    def test_all_positive_is_tree_packing(self):
        # simple connected graph, all labels +1: union of B graphic matroids
        edges = [(i, u, v, 1) for i, (u, v) in enumerate(
            [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (1, 2), (0, 2)]
        )]
        g = sg([0, 1, 2], edges)
        labeled = [((1, t + 2), g) for t in range(3)]  # 3 matroids ~ d=2
        res = matroid_union_rank(labeled)
        assert res.rank == 3 * (3 - 1) - 0  # 3 spanning trees of K3 multigraph
        assert res.rank == union_rank_bruteforce(labeled, [e.id for e in g.edges])

    def test_matches_bruteforce_and_minformula(self):
        rng = random.Random(41)
        for _ in range(40):
            nv = rng.randint(1, 4)
            ne = rng.randint(1, 8)
            vertices = list(range(nv))
            base = [(eid, rng.randrange(nv), rng.randrange(nv)) for eid in range(ne)]
            nmat = rng.randint(1, 3)
            labeled = []
            for t in range(nmat):
                edges = [(eid, u, v, rng.choice((1, -1))) for eid, u, v in base]
                labeled.append(((1, t + 2), sg(vertices, edges)))
            ids = [eid for eid, _, _ in base]
            res = matroid_union_rank(labeled)
            for label, part in res.decomposition.parts.items():
                gmap = dict(labeled)
                assert independent_by_incidence(gmap[label], part)
            assert res.rank == union_rank_bruteforce(labeled, ids)
            assert res.rank == union_rank_minformula(labeled, ids)
            assert res.rank == union_rank_by_formula(labeled, ids, res.witness)
            assert_matches_unpruned(labeled, res)

    def test_matches_unpruned_search_randomized(self):
        """Larger instances than the brute force reaches, with several
        failed searches each: pruning the saturated elements changes
        neither the paths found nor the witness."""
        rng = random.Random(43)
        failed = 0
        for _ in range(60):
            nv = rng.randint(2, 7)
            ne = rng.randint(4, 30)
            vertices = list(range(nv))
            base = [(eid, rng.randrange(nv), rng.randrange(nv)) for eid in range(ne)]
            labeled = []
            for t in range(rng.randint(1, 6)):
                edges = [(eid, u, v, rng.choice((1, -1))) for eid, u, v in base]
                labeled.append(((1, t + 2), sg(vertices, edges)))
            res = matroid_union_rank(labeled)
            res.decomposition.validate(labeled)
            assert_matches_unpruned(labeled, res)
            failed += len(res.decomposition.unassigned) >= 2
        assert failed >= 20

    def test_free_slot_costs_one_insertion(self, monkeypatch):
        """Six copies of a spanning tree under six all-positive labelings:
        copy k of each edge fits straight into part k, so the search builds
        one forest per part and inserts each element once.  The witness
        formula's own ``signed_rank`` forests are not counted."""
        rng = random.Random(53)
        n = 12
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        edges = [(k * n + i, u, v, 1) for k in range(6) for i, (u, v) in enumerate(tree)]
        g = sg(range(n), edges)
        labeled = [((1, t + 2), g) for t in range(6)]
        counting = [True]
        built = []
        inserted = []

        init, add = _SignedForest.__init__, _SignedForest.add

        def counted_init(self, nv, edges=()):
            if counting[0]:
                built.append(self)
            init(self, nv, edges)

        def counted_add(self, k, u, v, s):
            # k indexes the elements, here the edges in order
            if counting[0]:
                inserted.append(edges[k][0])
            add(self, k, u, v, s)

        formula = matroid.union_rank_by_formula

        def uncounted(*args):
            counting[0] = False
            try:
                return formula(*args)
            finally:
                counting[0] = True

        monkeypatch.setattr(_SignedForest, "__init__", counted_init)
        monkeypatch.setattr(_SignedForest, "add", counted_add)
        monkeypatch.setattr(matroid, "union_rank_by_formula", uncounted)
        res = matroid_union_rank(labeled)
        assert res.rank == len(edges)
        assert [list(ids) for ids in res.decomposition.parts.values()] == [
            [k * n + i for i in range(n - 1)] for k in range(6)
        ]
        assert len(built) == len(labeled)
        assert sorted(inserted) == sorted(e[0] for e in edges)

    def test_witness_is_tight(self, c2_rep):
        h = stewart_graph(c2_rep.group)
        for g in c2_rep.group.elements():
            labeled = labeled_signed_graphs(h, c2_rep, g)
            res = matroid_union_rank(labeled)
            ids = [e.id for e in h.edges]
            assert res.rank == union_rank_by_formula(labeled, ids, res.witness)


def medium_gain_graph(rng, group, n, extra):
    """Spanning cycle on n vertices plus random edges up to 6n + extra,
    with random gains; about one edge in eight is a loop, half of them
    non-free."""
    elems = group.elements()
    others = [g for g in elems if g != group.identity]
    edges = [(i, i, (i + 1) % n, rng.choice(elems)) for i in range(n)]
    loops_l = []
    for eid in range(n, 6 * n + extra):
        if rng.random() < 0.125:
            v = rng.randrange(n)
            edges.append((eid, v, v, rng.choice(others)))
            if rng.random() < 0.5:
                loops_l.append(eid)
        else:
            u, v = rng.sample(range(n), 2)
            edges.append((eid, u, v, rng.choice(elems)))
    return make_gain_graph(range(n), edges, loops_l, group=group)


class TestUnionMedium:
    """(2,2) and (2,2,2) gain graphs with 8 to 12 vertices, beyond the reach
    of the brute-force oracles: the decomposition validates, every part is
    independent by incidence rank, and the witness meets the rank formula,
    on rigid and deficient characters alike."""

    @pytest.mark.parametrize("orders, seed", [((2, 2), 401), ((2, 2, 2), 409)])
    def test_rank_meets_witness_formula(self, orders, seed):
        rng = random.Random(seed)
        deficient = full = 0
        for n, extra in ((8, -4), (10, 4), (12, -4)):
            rep = random_diagonal_rep(rng, orders, 3)
            h = medium_gain_graph(rng, rep.group, n, extra)
            for g in rep.group.elements():
                h_g = remove_zero_loops(h, rep, g)
                labeled = labeled_signed_graphs(h_g, rep, g)
                ids = [e.id for e in h_g.edges]
                res = matroid_union_rank(labeled)
                res.decomposition.validate(labeled)
                gmap = dict(labeled)
                for label, part in res.decomposition.parts.items():
                    assert independent_by_incidence(gmap[label], part)
                assert res.rank == union_rank_by_formula(labeled, ids, res.witness)
                assert_matches_unpruned(labeled, res)
                deficient += res.rank < len(ids)
                full += res.rank == len(ids)
        assert deficient >= 3 and full >= 1


class TestUnionEdgeTable:
    """The union numbers its elements and vertices once per call.  Its
    output equals the unpruned search's on edge ids that are tuples
    (``multiply_edges``, as for body-hinge inputs) and on (2) groups, whose
    six labelings per character are two shared graphs."""

    def test_multiplied_edges(self):
        rng = random.Random(419)
        deficient = full = 0
        # five copies of a spanning cycle, with or without more edges
        for n, extra in ((4, -20), (4, -16), (6, -30), (5, -20)):
            rep = random_diagonal_rep(rng, (2, 2), 3)
            h = multiply_edges(medium_gain_graph(rng, rep.group, n, extra), 5)
            for g in rep.group.elements():
                h_g = remove_zero_loops(h, rep, g)
                labeled = labeled_signed_graphs(h_g, rep, g)
                ids = [e.id for e in h_g.edges]
                assert all(isinstance(x, tuple) for x in ids)
                res = matroid_union_rank(labeled)
                res.decomposition.validate(labeled)
                assert res.rank == union_rank_by_formula(labeled, ids, res.witness)
                assert_matches_unpruned(labeled, res)
                deficient += res.rank < len(ids)
                full += res.rank == len(ids)
        assert deficient >= 3 and full >= 1

    def test_shared_labelings_of_z2(self):
        rng = random.Random(421)
        deficient = 0
        for n, extra in ((6, -4), (8, 4), (10, -4)):
            rep = random_diagonal_rep(rng, (2,), 3)
            h = medium_gain_graph(rng, rep.group, n, extra)
            for g in rep.group.elements():
                h_g = remove_zero_loops(h, rep, g)
                labeled = labeled_signed_graphs(h_g, rep, g)
                # two objects for six pairs, shared exactly when the signs agree
                assert len({id(sg) for _, sg in labeled}) == 2
                for _, a in labeled:
                    for _, b in labeled:
                        assert (a is b) == (a.edges == b.edges)
                ids = [e.id for e in h_g.edges]
                res = matroid_union_rank(labeled)
                res.decomposition.validate(labeled)
                assert res.rank == union_rank_by_formula(labeled, ids, res.witness)
                assert_matches_unpruned(labeled, res)
                deficient += res.rank < len(ids)
        assert deficient >= 3


def degree_balanced_gain_graph(rng, group, n, nedges):
    """Spanning cycle on n vertices, n // 4 non-free loops, then edges
    between two vertices of least degree up to ``nedges``, all with random
    gains: evenly braced, so 6n + 2 + n // 4 edges tend to be rigid."""
    elems = group.elements()
    others = [g for g in elems if g != group.identity]
    degree = [0] * n
    edges = []

    def add(u, v, gain):
        edges.append((len(edges), u, v, gain))
        degree[u] += 1
        degree[v] += 1

    def least(exclude=None):
        low = min(d for v, d in enumerate(degree) if v != exclude)
        return rng.choice([v for v, d in enumerate(degree) if d == low and v != exclude])

    for i in range(n):
        add(i, (i + 1) % n, rng.choice(elems))
    for _ in range(n // 4):
        v = least()
        add(v, v, rng.choice(others))
    loops_l = [eid for eid, _, _, _ in edges[n:]]
    while len(edges) < nedges:
        u = least()
        add(u, least(exclude=u), rng.choice(elems))
    return make_gain_graph(range(n), edges, loops_l, group=group)


class TestUnionRigidAndUnderBraced:
    """(2,2) with n = 16: an evenly braced graph with 6n + 2 + n/4 edges is
    rigid in every character, and one with 6n - 4 edges is flexible in at
    least one; on both the union's certificates equal the unpruned
    search's."""

    @pytest.mark.parametrize("under", [False, True], ids=["rigid", "under-braced"])
    def test_n16(self, under):
        rng = random.Random(431)
        rep = random_diagonal_rep(rng, (2, 2), 3)
        n = 16
        nedges = 6 * n - 4 if under else 6 * n + 2 + n // 4
        h = degree_balanced_gain_graph(rng, rep.group, n, nedges)
        rigid = []
        for g in rep.group.elements():
            verdict = combinatorial_verdict(h, rep, g)
            labeled = labeled_signed_graphs(remove_zero_loops(h, rep, g), rep, g)
            assert_matches_unpruned(labeled, matroid_union_rank(labeled))
            ids = [e.id for e in labeled[0][1].edges]
            assert verdict.rank == union_rank_by_formula(labeled, ids, verdict.witness)
            rigid.append(verdict.rigid)
        assert not all(rigid) if under else all(rigid)


class TestCountingCondition:
    def test_c2_sym_single_loop(self, c2_rep):
        h = stewart_graph(c2_rep.group)
        labeled = labeled_signed_graphs(h, c2_rep, (0,))
        # single non-free loop: 1 <= 6 - 6 + 4
        assert check_counting_condition(labeled, subset=[2]) is None

    def test_c2_anti_single_loop(self, c2_rep):
        from orbitrig.gaingraph import remove_zero_loops

        h = remove_zero_loops(stewart_graph(c2_rep.group), c2_rep, (1,))
        labeled = labeled_signed_graphs(h, c2_rep, (1,))
        assert check_counting_condition(labeled, subset=[0]) is None
        assert check_counting_condition(labeled) is None

    def test_cs_sym_full_set_violates(self, cs_rep):
        # four mirror loops on one body: 4 > 6*1 - 6 + 3
        h = stewart_graph(cs_rep.group)
        labeled = labeled_signed_graphs(h, cs_rep, (0,))
        violation = check_counting_condition(labeled)
        assert violation is not None
        assert violation.size == 4
        assert violation.bound == 3
        assert sum(violation.alphas.values()) == 3

    def test_size_guard(self):
        g = sg([0, 1], [(i, 0, 1, 1) for i in range(25)])
        with pytest.raises(InputError):
            check_counting_condition([((1, 2), g)])


class TestCombinatorialVerdict:
    def test_cs_stewart(self, cs_stewart):
        h, rep = cs_stewart
        v0 = combinatorial_verdict(h, rep, (0,))
        assert (v0.edges, v0.target, v0.rank) == (4, 3, 3)
        assert v0.rigid and v0.deficiency == 0
        assert not v0.count_matches_target
        v1 = combinatorial_verdict(h, rep, (1,))
        assert (v1.edges, v1.target, v1.rank) == (2, 3, 2)
        assert not v1.rigid and v1.deficiency == 1
        assert v1.removed_loops == (2, 3)

    def test_c2_stewart(self, c2_stewart):
        h, rep = c2_stewart
        v0 = combinatorial_verdict(h, rep, (0,))
        v1 = combinatorial_verdict(h, rep, (1,))
        assert v0.rigid and v1.rigid
        assert v0.count_matches_target and v1.count_matches_target
        used1 = {label for label, ids in v1.decomposition.parts.items() if ids}
        assert used1 <= {(1, 4), (2, 3)}

    def test_trivial_group_tay_count(self):
        rep = PointRepresentation.trivial(3)
        h = make_gain_graph(
            ["u", "v"], [(i, "u", "v", ()) for i in range(5)], group=rep.group
        )
        v = combinatorial_verdict(h, rep, ())
        assert v.target == 6 and v.rank == 5
        assert not v.rigid and v.deficiency == 1

    def test_verdict_json_shape(self, c2_stewart):
        h, rep = c2_stewart
        doc = combinatorial_verdict(h, rep, (1,)).to_json()
        assert doc["irrep"] == [1]
        assert doc["rigid"] is True
        assert set(doc["decomposition"]) == {
            f"({i},{j})" for i, j in screw_pairs(3)
        }


class TestSpanningSubgraphReduction:
    """Rigidity via union rank >= target coincides with the existence of an
    exactly-target-sized subset decomposable into independent parts (the
    spanning-subgraph reading), checked by brute force on small instances."""

    def test_small_instances(self):
        rng = random.Random(271)
        from itertools import combinations

        from orbitrig.ensemble import random_diagonal_rep, random_gain_graph
        from orbitrig.gaingraph import remove_zero_loops
        from orbitrig.symmetry import trivial_motion_dim

        checked = 0
        for _ in range(30):
            rep = random_diagonal_rep(rng, (2,), 3)
            h = random_gain_graph(rng, rep.group, 2, 7)
            for g in rep.group.elements():
                h_g = remove_zero_loops(h, rep, g)
                target = 6 * len(h.vertices) - trivial_motion_dim(rep, g)
                ids = [e.id for e in h_g.edges]
                if not 0 < target <= len(ids) or len(ids) > 8:
                    continue
                labeled = labeled_signed_graphs(h_g, rep, g)
                verdict = combinatorial_verdict(h, rep, g)
                exists = any(
                    union_rank_bruteforce(labeled, list(subset)) == target
                    for subset in combinations(ids, target)
                )
                assert verdict.rigid == exists
                checked += 1
        assert checked >= 10
