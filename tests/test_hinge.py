from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from orbitrig.algebra import Extensor, hodge_star, wedge
from orbitrig.errors import UnsupportedGroupError
from orbitrig.gaingraph import GainGraph, make_gain_graph, multiply_edges
from orbitrig.genframe import BarConfiguration, BarEntry
from orbitrig.hinge import (
    analyze_framework,
    analyze_hinge,
    bar_multiplicity,
    disagreements,
    hinge_complement_basis,
    hinge_to_bars,
    lift_hinges,
    random_generic_hinges,
)
from orbitrig.linalg import rank_exact
from orbitrig.matroid import combinatorial_verdict
from orbitrig.rigidity import orbit_matrix
from orbitrig.symmetry import PointRepresentation
from conftest import halfturn_rep, mirror_rep, stewart_graph


def hinge_quotient(group, n_loops: int) -> GainGraph:
    return make_gain_graph(
        ["v"], [(i, "v", "v", (1,)) for i in range(n_loops)], group=group
    )


def two_body_one_hinge():
    rep = PointRepresentation.trivial(3)
    h = make_gain_graph(["u", "v"], [(0, "u", "v", ())], group=rep.group)
    return h, rep


class TestComplement:
    def test_axis_hinge(self):
        hinge = wedge([[1, 0, 0, 0], [0, 1, 0, 0]], 3)
        basis = hinge_complement_basis(hinge)
        assert len(basis) == 5
        # star of e1^e2 is e3^e4: complement is everything with zero (3,4)-coordinate
        for vec in basis:
            assert vec[5] == 0
        assert rank_exact([list(v) for v in basis]) == 5

    def test_generic_hinge_bars(self):
        h, rep = two_body_one_hinge()
        hconf = random_generic_hinges(h, rep, seed=3)
        multiplied, bars = hinge_to_bars(h, hconf, seed=4)
        assert len(multiplied.edges) == bar_multiplicity(3) == 5
        star = hodge_star(hconf.extensor(0))
        vecs = [bars.vector(e.id) for e in multiplied.edges]
        assert rank_exact([list(v) for v in vecs]) == 5
        for v in vecs:
            assert sum(a * b for a, b in zip(v, star.coords)) == 0

    def test_zero_hinge_rejected(self):
        from orbitrig.errors import InputError

        with pytest.raises(InputError):
            hinge_complement_basis(Extensor(3, 2, (Fraction(0),) * 6))


class TestTwoBodyOneHinge:
    def test_rank_five(self):
        h, rep = two_body_one_hinge()
        report = analyze_hinge(h, rep, seed=11)
        r = report.numeric.irrep_report(())
        assert r.rank == 5
        assert r.flex == 1  # the rotation about the hinge line
        assert not report.rigid


class TestSymmetricHingeFixtures:
    def test_cs_three_loops(self):
        rep = mirror_rep()
        h = hinge_quotient(rep.group, 3)
        report = analyze_hinge(h, rep, seed=21)
        assert report.rigid
        assert report.consistent
        assert report.verdicts is not None
        for v in report.verdicts:
            assert v.rigid

    def test_c2_three_loops(self):
        rep = halfturn_rep()
        h = hinge_quotient(rep.group, 3)
        report = analyze_hinge(h, rep, seed=22)
        assert report.rigid and report.consistent
        # symmetric block packs two trees (empty on one vertex) + four
        # negative-loop parts; antisymmetric block two negative-loop parts
        v0 = next(v for v in report.verdicts if v.irrep == (0,))
        v1 = next(v for v in report.verdicts if v.irrep == (1,))
        assert (v0.rank, v0.target) == (4, 4)
        assert (v1.rank, v1.target) == (2, 2)

    def test_c2_two_loops_flexible(self):
        rep = halfturn_rep()
        h = hinge_quotient(rep.group, 2)
        report = analyze_hinge(h, rep, seed=23)
        assert report.consistent  # numeric and combinatorial agree either way

    def test_nonfree_edges_rejected(self):
        rep = mirror_rep()
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], loops_l=[0], group=rep.group)
        with pytest.raises(UnsupportedGroupError):
            random_generic_hinges(h, rep, seed=1)
        with pytest.raises(UnsupportedGroupError):
            analyze_hinge(h, rep, seed=1)


class TestHingeLift:
    def test_equivariance(self):
        rep = mirror_rep()
        h = hinge_quotient(rep.group, 3)
        hconf = random_generic_hinges(h, rep, seed=31)
        cov, lifted = lift_hinges(h, hconf, rep)
        assert len(cov.edges) == 6
        for gamma in rep.group.elements():
            mk = rep.tau_hat_k(gamma, rep.d - 1)
            for e in cov.edges:
                moved = cov.edge_action(gamma, e)
                assert lifted[moved.id].vector == mk.apply(lifted[e.id].vector)


class TestSpecialConfiguration:
    def test_decomposition_bars_reach_full_rank(self):
        """Axis-aligned bars read off a union decomposition make the
        assigned rows independent, and the matching axis-aligned hinges are
        orthogonal to every bar of their copies."""
        rep = halfturn_rep()
        h = hinge_quotient(rep.group, 3)
        multiplied = multiply_edges(h, bar_multiplicity(3))
        g = (0,)
        verdict = combinatorial_verdict(multiplied, rep, g)
        assigned = verdict.decomposition.assignment
        assert verdict.rank == len(assigned) == 4

        def basis_vector(pair):
            i, j = pair
            coords = [Fraction(0)] * 6
            from orbitrig.algebra import lex_index

            coords[lex_index(4, 2).position((i, j))] = Fraction(1)
            return tuple(coords)

        sub = GainGraph(
            multiplied.vertices,
            tuple(e for e in multiplied.edges if e.id in assigned),
            frozenset(),
        )
        entries = {eid: BarEntry(vector=basis_vector(pair)) for eid, pair in assigned.items()}
        om = orbit_matrix(sub, BarConfiguration(3, entries), rep, g)
        assert om.rank() == len(assigned)

        # per original edge, some pair has no copy assigned: the axis hinge
        # on its complement pairs to zero with every copy's bar
        for e in h.edges:
            used = {assigned[c.id] for c in multiplied.edges if c.id in assigned and c.id[0] == e.id}
            free_pairs = [p for p in om_pairs() if p not in used]
            assert free_pairs
            a, b = free_pairs[0]
            others = [i for i in range(1, 5) if i not in (a, b)]
            axis_hinge = wedge(
                [[Fraction(int(i == t)) for i in range(1, 5)] for t in others], 3
            )
            star = hodge_star(axis_hinge)
            for c in multiplied.edges:
                if c.id[0] == e.id and c.id in assigned:
                    vec = entries[c.id].vector
                    assert sum(x * y for x, y in zip(vec, star.coords)) == 0


def om_pairs():
    from orbitrig.symmetry import screw_pairs

    return screw_pairs(3)


class TestRandomCrosscheck:
    def test_numeric_matches_combinatorial(self):
        rng = random.Random(61)
        from orbitrig.ensemble import random_diagonal_rep, random_gain_graph

        for _ in range(8):
            rep = random_diagonal_rep(rng, (2,), 3)
            h = random_gain_graph(rng, rep.group, 3, 4)
            if h.loops_l:
                h = GainGraph(h.vertices, h.edges, frozenset())
            report = analyze_hinge(h, rep, seed=rng.randrange(2 ** 31), bound=999)
            assert report.consistent
            assert report.numeric.samples_agree


class TestTrivialGroupReduction:
    def test_six_tree_packing_of_quintupled_graph(self):
        """Without symmetry the hinge test reduces to packing six spanning
        trees into the five-fold multiplied graph (partition oracle)."""
        from oracles import tree_packing_exists

        rng = random.Random(5151)
        rep = PointRepresentation.trivial(3)
        for _ in range(12):
            nv = rng.randint(2, 4)
            vertices = [f"v{i}" for i in range(nv)]
            ne = rng.randint(1, 4)
            pairs = []
            for eid in range(ne):
                u, v = rng.sample(range(nv), 2)
                pairs.append((vertices[u], vertices[v]))
            h = make_gain_graph(
                vertices, [(i, u, v, ()) for i, (u, v) in enumerate(pairs)], group=rep.group
            )
            report = analyze_hinge(h, rep, seed=rng.randrange(2 ** 31), bound=9999)
            quintupled = [pair for pair in pairs for _ in range(5)]
            assert report.rigid == tree_packing_exists(vertices, quintupled, 6)
            assert report.consistent


class TestHingeDeterminism:
    def test_same_seed_same_hinges(self):
        rep = mirror_rep()
        h = hinge_quotient(rep.group, 2)
        a = random_generic_hinges(h, rep, seed=77)
        b = random_generic_hinges(h, rep, seed=77)
        assert {k: v.vector for k, v in a.entries.items()} == {
            k: v.vector for k, v in b.entries.items()
        }


class TestDimensionParameter:
    def test_single_hinge_leaves_one_freedom_in_d2_and_d4(self):
        for d in (2, 4):
            rep = PointRepresentation.trivial(d)
            h = make_gain_graph(["u", "v"], [(0, "u", "v", ())], group=rep.group)
            out = analyze_hinge(h, rep, seed=3)
            r = out.numeric.irrep_report(())
            assert r.rank == bar_multiplicity(d)
            assert r.flex == 1


class TestDisagreements:
    """Agreement means equal counts per character, numeric flex against
    combinatorial deficiency, and not just the same rigid/flexible verdict."""

    def test_flexible_both_sides_with_unequal_counts_is_flagged(self):
        rep = mirror_rep()
        result = analyze_framework("body-bar", stewart_graph(rep.group), rep, seed=5)
        assert result.consistent and disagreements(result.numeric, result.verdicts) == []
        anti = result.numeric.irrep_report((1,))
        verdict = next(v for v in result.verdicts if v.irrep == (1,))
        assert (anti.flex, verdict.deficiency) == (1, 1)

        # one more numeric flex: still flexible on both sides
        more = replace(anti, rank=anti.rank - 1, flex=anti.flex + 1)
        numeric = replace(
            result.numeric, irreps=tuple(more if r is anti else r for r in result.numeric.irreps)
        )
        assert not more.rigid and not verdict.rigid
        assert disagreements(numeric, result.verdicts) == [(more, verdict)]
