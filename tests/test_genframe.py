from __future__ import annotations

import random
from fractions import Fraction

from orbitrig.algebra import wedge
from orbitrig.ensemble import random_diagonal_rep, random_gain_graph
from orbitrig.gaingraph import make_gain_graph
from orbitrig.genframe import lift_bars, random_generic_bars, verify_loop_form
from conftest import mirror_rep, two_group


class TestRandomGenericBars:
    def test_deterministic(self, cs_stewart):
        h, rep = cs_stewart
        a = random_generic_bars(h, rep, seed=42)
        b = random_generic_bars(h, rep, seed=42)
        assert {k: v.vector for k, v in a.entries.items()} == {
            k: v.vector for k, v in b.entries.items()
        }
        assert a.meta["prng"] == "python-random-mt19937"

    def test_distinct_decomposable_bars(self):
        g = two_group(1)
        rep = mirror_rep()
        h = make_gain_graph(
            ["u", "v"], [(i, "u", "v", (0,) if i % 2 else (1,)) for i in range(6)], group=g
        )
        config = random_generic_bars(h, rep, seed=5)
        vectors = [config.vector(e.id) for e in h.edges]
        assert len(set(vectors)) == len(vectors)
        for e in h.edges:
            pts = config.points(e.id)
            assert pts is not None and len(pts) == 2
            assert tuple(wedge(list(pts), 3).coords) == config.vector(e.id)

    def test_loop_form(self, cs_stewart):
        """Mirror image of (a,b,c,1) is (a,b,-c,1); the loop bar wedges the
        point with its image."""
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=6)
        verify_loop_form(h, rep, config)
        (p,) = config.points(2)
        mirrored = (p[0], p[1], -p[2], Fraction(1))
        assert config.vector(2) == tuple(wedge([p, mirrored], 3).coords)


class TestLiftBars:
    def test_identity_group_lift_is_same(self):
        from orbitrig.symmetry import PointRepresentation

        rep = PointRepresentation.trivial(3)
        h = make_gain_graph(["u", "v"], [(0, "u", "v", ())], group=rep.group)
        config = random_generic_bars(h, rep, seed=7)
        cov, bars = lift_bars(h, config, rep)
        assert len(cov.edges) == 1
        assert bars[(0, ())].vector == config.vector(0)

    def test_cs_stewart_six_bars_two_bodies(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=8)
        cov, bars = lift_bars(h, config, rep)
        assert len(cov.vertices) == 2
        assert len(cov.edges) == 6
        assert len(bars) == 6

    def test_equivariance(self):
        """Bars commute with the action: the image of a lifted bar under a
        group element is the bar of the moved edge (up to the orientation
        sign on non-free orbits)."""
        rng = random.Random(17)
        for _ in range(10):
            orders = rng.choice(((2,), (2, 2)))
            rep = random_diagonal_rep(rng, orders, 3)
            h = random_gain_graph(rng, rep.group, 3, 6)
            config = random_generic_bars(h, rep, rng.randrange(2 ** 31), bound=99)
            cov, bars = lift_bars(h, config, rep)
            for gamma in rep.group.elements():
                m2 = rep.tau_hat2(gamma)
                for e in cov.edges:
                    moved = cov.edge_action(gamma, e)
                    got = bars[moved.id].vector
                    want = m2.apply(bars[e.id].vector)
                    if e.base in h.loops_l:
                        assert got == want or got == tuple(-x for x in want)
                    else:
                        assert got == want
