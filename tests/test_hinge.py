from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from orbitrig.algebra import SquareMatrix, hodge_star, wedge
from orbitrig.cli import parse_configuration
from orbitrig.errors import UnsupportedGroupError
from orbitrig.gaingraph import GainGraph, make_gain_graph, multiply_edges
from orbitrig.genframe import BarConfiguration, BarEntry, HingeConfiguration, lift_bars
from orbitrig.hinge import (
    analyze_framework,
    analyze_hinge,
    bar_multiplicity,
    body_bar_quotient,
    disagreements,
    hinge_complement_basis,
    hinge_to_bars,
    random_generic_hinges,
)
from orbitrig.linalg import rank_exact
from orbitrig.matroid import combinatorial_verdict
from orbitrig.rigidity import analyze, orbit_matrix
from orbitrig.symmetry import AbelianGroup, PointRepresentation
import oracles
from conftest import (
    halfturn_rep, irrep_report, mirror_rep, mirror_rep_d, reflection9, rotation9, stewart_graph,
)


def hinge_quotient(group, n_loops: int) -> GainGraph:
    return make_gain_graph(
        ["v"], [(i, "v", "v", (1,)) for i in range(n_loops)], group=group
    )


def two_body_one_hinge(d: int = 3):
    rep = PointRepresentation.trivial(d)
    h = make_gain_graph(["u", "v"], [(0, "u", "v", ())], group=rep.group)
    return h, rep


class TestComplement:
    def test_axis_hinge(self):
        hinge = wedge([[1, 0, 0, 0], [0, 1, 0, 0]], 3)
        basis = hinge_complement_basis(hodge_star(hinge).coords)
        assert len(basis) == 5
        # star of e1^e2 is e3^e4: complement is everything with zero (3,4)-coordinate
        for vec in basis:
            assert vec[5] == 0
        assert rank_exact([list(v) for v in basis]) == 5

    def test_generic_hinge_bars(self):
        """A hinge's C(d+1,2)-1 bar copies are independent and orthogonal to
        the starred hinge, which the entry holds, for d = 2..6."""
        for d in range(2, 7):
            h, rep = two_body_one_hinge(d)
            hconf = random_generic_hinges(h, rep, seed=3)
            multiplied = body_bar_quotient("body-hinge", h, d)
            bars = hinge_to_bars(h, hconf)
            assert len(multiplied.edges) == len(bars.entries) == bar_multiplicity(d)
            assert bar_multiplicity(3) == 5
            star = hconf.vector(0)
            assert star == hodge_star(wedge(list(hconf.points(0)), d)).coords
            vecs = [bars.vector(e.id) for e in multiplied.edges]
            assert rank_exact([list(v) for v in vecs]) == bar_multiplicity(d)
            for v in vecs:
                assert sum(a * b for a, b in zip(v, star)) == 0

    def test_zero_hinge_rejected(self):
        from orbitrig.errors import InputError

        with pytest.raises(InputError):
            hinge_complement_basis((Fraction(0),) * 6)


class TestTwoBodyOneHinge:
    def test_rank_five(self):
        h, rep = two_body_one_hinge()
        report = analyze_hinge(h, rep, seed=11)
        r = irrep_report(report.numeric, ())
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


def random_hinge_graph(rng: random.Random, rep: PointRepresentation, n: int, m: int) -> GainGraph:
    """m hinge orbits between consecutive bodies of a cycle on n body
    orbits, with random gains."""
    orders = rep.group.orders
    return make_gain_graph(
        [f"v{i}" for i in range(n)],
        [(i, f"v{i % n}", f"v{(i + 1) % n}", tuple(rng.randrange(k) for k in orders))
         for i in range(m)],
        group=rep.group,
    )


def explicit_hinges(rng: random.Random, h: GainGraph, rep: PointRepresentation):
    """An explicit hinge configuration as the CLI parses it, with points of
    coordinates -1, 0 and 1, so that special positions are common."""
    hinges = {}
    for e in h.edges:
        while True:
            pts = [[str(rng.randint(-1, 1)) for _ in range(rep.d)] for _ in range(rep.d - 1)]
            if any(wedge([[Fraction(x) for x in p] + [1] for p in pts], rep.d).coords):
                hinges[str(e.id)] = {"points": pts}
                break
    return parse_configuration({"hinges": hinges}, h, rep, HingeConfiguration)


def quarter_turn_rep() -> PointRepresentation:
    return PointRepresentation.from_generators(
        AbelianGroup((4,)), 3, [SquareMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])]
    )


def klein_rep() -> PointRepresentation:
    return PointRepresentation.from_generators(
        AbelianGroup((2, 2)), 3,
        [SquareMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
         SquareMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])],
    )


class TestComplementBasisInvariance:
    """A bar copy's orbit rows are linear in its bar, so every block rank
    depends on the hinge alone and not on the basis of its complement:
    the reference expansion's random invertible recombinations give the
    same report as the basis itself."""

    @staticmethod
    def summary(h: GainGraph, rep: PointRepresentation, bars: BarConfiguration):
        return [(r.irrep, r.rank, r.trivial, r.flex) for r in analyze(h, rep, bars).irreps]

    @pytest.mark.parametrize("make_rep, n, m", [
        pytest.param(halfturn_rep, 3, 3, id="(2)"),
        pytest.param(klein_rep, 3, 3, id="(2,2)"),
        pytest.param(quarter_turn_rep, 3, 3, id="(4)"),
        pytest.param(lambda: PointRepresentation.trivial(2), 3, 3, id="d=2"),
        pytest.param(lambda: PointRepresentation.trivial(4), 3, 2, id="d=4"),
    ])
    def test_ranks_match_recombined_bars(self, make_rep, n, m):
        from oracles import hinge_to_bars as recombined_hinge_to_bars

        rep = make_rep()
        for seed in (1, 2):
            rng = random.Random(seed)
            h = random_hinge_graph(rng, rep, n, m)
            for hconf in (random_generic_hinges(h, rep, seed), explicit_hinges(rng, h, rep)):
                multiplied = body_bar_quotient("body-hinge", h, rep.d)
                bars = hinge_to_bars(h, hconf)
                assert hinge_to_bars(h, hconf) == bars
                expected = self.summary(multiplied, rep, bars)
                for bar_seed in (4, 5, 6):
                    ref_multiplied, ref_bars = recombined_hinge_to_bars(h, hconf, bar_seed)
                    assert self.summary(ref_multiplied, rep, ref_bars) == expected


def _lift_rep(name: str, d: int) -> PointRepresentation:
    """A representation in d-space: the mirror and the half-turn negate the
    last and the first two coordinates; ``reflection9`` (det -1) and
    ``rotation9`` act on the first three, d >= 3, and fix the others."""
    if name == "mirror":
        return mirror_rep_d(d)
    if name == "half-turn":
        rows = [[(-1 if i < 2 else 1) * (i == j) for j in range(d)] for i in range(d)]
        return PointRepresentation.from_generators(AbelianGroup((2,)), d, [SquareMatrix.from_rows(rows)])
    group, m = {"reflection9": (AbelianGroup((2,)), reflection9()),
                "rotation9": (AbelianGroup((4,)), rotation9())}[name]
    rows = [list(r) + [0] * (d - 3) for r in m.rows]
    rows += [[0] * 3 + [int(i == j) for j in range(d - 3)] for i in range(d - 3)]
    return PointRepresentation.from_generators(group, d, [SquareMatrix.from_rows(rows)])


class TestHingeLift:
    def test_equivariance(self):
        """A lifted hinge, at grade d-1, moves under gamma by the grade-(d-1)
        image of gamma (the oracle), and without an oracle it is the wedge of
        its moved points over D^(d-1), D the denominator of gamma's image:
        for d = 2..6, under mirrors and reflections (det -1), half-turns and
        quarter turns, with denominators 1, 3 and 9."""
        cases = [(n, d) for n in ("mirror", "half-turn") for d in range(2, 7)]
        cases += [(n, d) for n in ("reflection9", "rotation9") for d in range(3, 7)]
        for name, d in cases:
            rep = _lift_rep(name, d)
            h = hinge_quotient(rep.group, 3)
            hconf = random_generic_hinges(h, rep, seed=31)
            cov, lifted = lift_bars(h, hconf, rep)
            assert len(cov.edges) == 3 * rep.group.order()
            value = {eid: tuple(Fraction(x, e.den) for x in e.vector) for eid, e in lifted.items()}
            for gamma in rep.group.elements():
                mk = oracles.tau_hat_k(rep, gamma, d - 1)
                for e in cov.edges:
                    assert value[cov.edge_action(gamma, e).id] == mk.apply(value[e.id]), (name, d)
            for eid, e in lifted.items():
                scale = rep.integer_images[eid[1]][0] ** (d - 1)
                wedged = wedge(list(e.points), d).coords
                assert value[eid] == tuple(Fraction(x, scale) for x in wedged), (name, d)


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
            report = analyze_hinge(h, rep, seed=rng.randrange(2 ** 31))
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
            report = analyze_hinge(h, rep, seed=rng.randrange(2 ** 31))
            quintupled = [pair for pair in pairs for _ in range(5)]
            assert report.rigid == tree_packing_exists(vertices, quintupled, 6)
            assert report.consistent


class TestHingeSampling:
    def test_witness_proven_flexible_input_is_sampled_once(self, monkeypatch):
        """Two (2,2)-symmetric bodies joined by two hinge orbits: every block
        is deficient and meets its witness bound at sample 0, so no second
        hinge or bar configuration is drawn."""
        from orbitrig import hinge
        from orbitrig.symmetry import AbelianGroup

        rep = PointRepresentation.from_generators(
            AbelianGroup((2, 2)), 3,
            [SquareMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
             SquareMatrix.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])],
        )
        h = make_gain_graph(
            ["u", "v"], [(0, "u", "v", (0, 0)), (1, "u", "v", (1, 0))], group=rep.group
        )
        calls = []
        for name in ("random_generic_hinges", "hinge_to_bars"):
            original = getattr(hinge, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(hinge, name, counting)
        out = analyze_hinge(h, rep, seed=3)
        assert not out.rigid and out.consistent and out.numeric.samples_agree
        assert [(r.proof, r.sample_ranks) for r in out.numeric.irreps] == [
            ("witness", (10,)), ("witness", (10,)), ("witness", (8,)), ("witness", (8,))
        ]
        assert calls == ["random_generic_hinges", "hinge_to_bars"]


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
            r = irrep_report(out.numeric, ())
            assert r.rank == bar_multiplicity(d)
            assert r.flex == 1


class TestDisagreements:
    """Agreement means equal counts per character, numeric flex against
    combinatorial deficiency, and not just the same rigid/flexible verdict."""

    def test_flexible_both_sides_with_unequal_counts_is_flagged(self):
        rep = mirror_rep()
        result = analyze_framework("body-bar", stewart_graph(rep.group), rep, seed=5)
        assert result.consistent and disagreements(result.numeric, result.verdicts) == []
        anti = irrep_report(result.numeric, (1,))
        verdict = next(v for v in result.verdicts if v.irrep == (1,))
        assert (anti.flex, verdict.deficiency) == (1, 1)

        # one more numeric flex: still flexible on both sides
        more = replace(anti, rank=anti.rank - 1, flex=anti.flex + 1)
        numeric = replace(
            result.numeric, irreps=tuple(more if r is anti else r for r in result.numeric.irreps)
        )
        assert not more.rigid and not verdict.rigid
        assert disagreements(numeric, result.verdicts) == [(more, verdict)]
