"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from orbitrig.algebra import Extensor, SquareMatrix, cap_product, hodge_star, induced_rep
from orbitrig.ensemble import random_diagonal_rep, random_gain_graph
from orbitrig.gaingraph import make_gain_graph
from orbitrig.genframe import random_generic_bars
from orbitrig.hinge import analyze_hinge
from orbitrig.matroid import (
    combinatorial_verdict,
    is_independent_signed,
    labeled_signed_graphs,
    matroid_union_rank,
)
from orbitrig.rigidity import analyze_generic, crosscheck_block_ranks, orbit_matrix
from orbitrig.symmetry import PointRepresentation, irrep_value
from conftest import halfturn_rep, mirror_rep
from oracles import (
    independent_by_incidence,
    tree_packing_exists,
    union_rank_bruteforce,
    union_rank_minformula,
)
from test_matroid import random_signed_graph


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


# ---------------------------------------------------------------------------
# shared randomized ensemble for criteria 4 and 5


@pytest.fixture(scope="module")
def body_bar_ensemble():
    """100 random two-group instances with exact ranks at two seeds, the
    lifted rank, and the union rank per character."""
    rng = random.Random(20240)
    results = []
    t0 = time.perf_counter()
    for orders in ((2,), (2, 2)):
        for _ in range(50):
            rep = random_diagonal_rep(rng, orders, 3)
            h = random_gain_graph(rng, rep.group, 4, 10)
            seed = rng.randrange(2 ** 31)
            config1 = random_generic_bars(h, rep, seed, bound=10 ** 6)
            config2 = random_generic_bars(h, rep, seed + 1, bound=10 ** 6)
            cc = crosscheck_block_ranks(h, config1, rep)
            ranks2 = {
                g: orbit_matrix(h, config2, rep, g).rank() for g in rep.group.elements()
            }
            union = {
                g: combinatorial_verdict(h, rep, g).rank for g in rep.group.elements()
            }
            results.append(
                {
                    "rep": rep,
                    "h": h,
                    "lifted_rank": cc.lifted_rank,
                    "ranks1": cc.block_ranks,
                    "ranks2": ranks2,
                    "union": union,
                }
            )
    elapsed = time.perf_counter() - t0
    return results, elapsed


class TestAcceptance:
    def test_criterion_1_cs_stewart(self, cs_stewart):
        with criterion(1, "C_s Stewart platform: anti-symmetric flex, count mismatch 4 > 3"):
            h, rep = cs_stewart
            t0 = time.perf_counter()
            report = analyze_generic(h, rep, seed=42)
            v0 = combinatorial_verdict(h, rep, (0,))
            v1 = combinatorial_verdict(h, rep, (1,))
            elapsed = time.perf_counter() - t0
            assert not report.rigid
            r1 = report.irrep_report((1,))
            assert (r1.rank, r1.trivial, r1.flex) == (2, 3, 1)
            assert (v0.edges, v0.target) == (4, 3)
            assert not v0.count_matches_target
            assert not v1.rigid and v1.deficiency == 1
            assert elapsed < 1.0

    def test_criterion_2_c2_stewart(self, c2_stewart):
        with criterion(2, "C_2 Stewart platform: isostatic, exact loop decompositions"):
            h, rep = c2_stewart
            t0 = time.perf_counter()
            report = analyze_generic(h, rep, seed=42)
            v0 = combinatorial_verdict(h, rep, (0,))
            v1 = combinatorial_verdict(h, rep, (1,))
            elapsed = time.perf_counter() - t0
            assert report.rigid and report.isostatic
            assert all(r.flex == 0 for r in report.irreps)
            used0 = {label for label, ids in v0.decomposition.parts.items() if ids}
            assert used0 == {(1, 2), (1, 3), (2, 4), (3, 4)}
            assert v0.rank == 4 and len(v0.decomposition.assignment) == 4
            used1 = {label for label, ids in v1.decomposition.parts.items() if ids}
            assert used1 <= {(1, 4), (2, 3)} and v1.rank == 2
            labeled0 = labeled_signed_graphs(h, rep, (0,))
            v0.decomposition.validate(labeled0)
            assert elapsed < 1.0

    def test_criterion_3_zero_loops(self):
        with criterion(3, "zero-loop rows vanish exactly when the character value is -1"):
            rng = random.Random(314)
            for _ in range(200):
                orders = rng.choice(((2,), (2, 2)))
                rep = random_diagonal_rep(rng, orders, 3)
                h = random_gain_graph(rng, rep.group, 4, 8, require_loop_l=True)
                assert h.loops_l
                seed = rng.randrange(2 ** 31)
                configs = [
                    random_generic_bars(h, rep, seed, bound=10 ** 6),
                    random_generic_bars(h, rep, seed + 1, bound=10 ** 6),
                ]
                for g in rep.group.elements():
                    oms = [orbit_matrix(h, c, rep, g) for c in configs]
                    for e in h.edges:
                        if not e.is_loop():
                            continue
                        rows = [om.row_of(e.id) for om in oms]
                        if e.id in h.loops_l and irrep_value(rep.group, g, e.gain) == -1:
                            assert all(all(x == 0 for x in row) for row in rows)
                        else:
                            assert any(any(x != 0 for x in row) for row in rows)

    def test_criterion_4_rank_additivity(self, body_bar_ensemble):
        with criterion(4, "lifted rank equals the sum of orbit-matrix ranks (100 instances)"):
            results, elapsed = body_bar_ensemble
            assert len(results) == 100
            for r in results:
                assert r["lifted_rank"] == sum(r["ranks1"].values())
            assert elapsed < 60.0

    def test_criterion_5_union_equals_orbit_rank(self, body_bar_ensemble):
        with criterion(5, "matroid union rank equals orbit rank per character (100 instances)"):
            results, _ = body_bar_ensemble
            for r in results:
                for g, union_rank in r["union"].items():
                    numeric = max(r["ranks1"][g], r["ranks2"][g])
                    assert r["ranks1"][g] == r["ranks2"][g]  # two-seed agreement
                    assert union_rank == numeric

    def test_criterion_6_matroid_self_consistency(self):
        with criterion(6, "signed oracle matches incidence rank; union matches subset oracle"):
            rng = random.Random(2718)
            for _ in range(500):
                g = random_signed_graph(rng, max_vertices=5, max_edges=12)
                ids = [e.id for e in g.edges]
                assert is_independent_signed(g, ids)[0] == independent_by_incidence(g, ids)
                subset = [eid for eid in ids if rng.random() < 0.75]
                assert is_independent_signed(g, subset)[0] == independent_by_incidence(g, subset)
            for _ in range(100):
                nv = rng.randint(1, 4)
                ne = rng.randint(1, 10)
                base = [(eid, rng.randrange(nv), rng.randrange(nv)) for eid in range(ne)]
                nmat = rng.randint(1, 3)
                labeled = []
                for t in range(nmat):
                    from orbitrig.matroid import SignedEdge, SignedGraph

                    edges = tuple(
                        SignedEdge(eid, u, v, rng.choice((1, -1))) for eid, u, v in base
                    )
                    labeled.append(((1, t + 2), SignedGraph(tuple(range(nv)), edges)))
                ids = [eid for eid, _, _ in base]
                ours = matroid_union_rank(labeled, ids).rank
                assert ours == union_rank_bruteforce(labeled, ids)
                assert ours == union_rank_minformula(labeled, ids)

    def test_criterion_7_six_tree_packing(self):
        with criterion(7, "generic rank 6(|V|-1) iff six edge-disjoint spanning trees (200 graphs)"):
            rng = random.Random(1618)
            rep = PointRepresentation.trivial(3)
            for _ in range(200):
                nv = rng.randint(2, 4)
                vertices = [f"v{i}" for i in range(nv)]
                ne = rng.randint(1, 14)
                pairs = []
                for eid in range(ne):
                    u, v = rng.sample(range(nv), 2)
                    pairs.append((vertices[u], vertices[v]))
                h = make_gain_graph(
                    vertices, [(i, u, v, ()) for i, (u, v) in enumerate(pairs)], group=rep.group
                )
                seed = rng.randrange(2 ** 31)
                rank = max(
                    orbit_matrix(h, random_generic_bars(h, rep, seed + t), rep, ()).rank()
                    for t in range(2)
                )
                packing = tree_packing_exists(vertices, pairs, 6)
                assert (rank == 6 * (nv - 1)) == packing

    def test_criterion_8_body_hinge(self):
        with criterion(8, "body-hinge: one hinge leaves one freedom; verdicts agree (50 graphs)"):
            t0 = time.perf_counter()
            rep = PointRepresentation.trivial(3)
            h = make_gain_graph(["u", "v"], [(0, "u", "v", ())], group=rep.group)
            report = analyze_hinge(h, rep, seed=8)
            assert report.numeric.irrep_report(()).rank == 5

            for fixture_rep in (mirror_rep(), halfturn_rep()):
                hq = make_gain_graph(
                    ["v"], [(i, "v", "v", (1,)) for i in range(3)], group=fixture_rep.group
                )
                rep_out = analyze_hinge(hq, fixture_rep, seed=9)
                assert rep_out.consistent and rep_out.rigid

            rng = random.Random(424242)
            for t in range(50):
                grp_rep = mirror_rep() if t % 2 == 0 else halfturn_rep()
                hr = random_gain_graph(rng, grp_rep.group, 3, 5)
                if hr.loops_l:
                    from orbitrig.gaingraph import GainGraph

                    hr = GainGraph(hr.vertices, hr.edges, frozenset())
                out = analyze_hinge(hr, grp_rep, seed=rng.randrange(2 ** 31))
                assert out.numeric.samples_agree
                assert out.consistent
                by_irrep = {v.irrep: v for v in out.verdicts}
                for r in out.numeric.irreps:
                    assert by_irrep[r.irrep].rigid == r.rigid
            assert time.perf_counter() - t0 < 120.0

    def test_criterion_9_exterior_algebra(self):
        with criterion(9, "dimension-3 star/pairing formulas and both induced diagonals"):
            q = Extensor(3, 2, tuple(Fraction(x) for x in (2, 3, 5, 7, 11, 13)))
            assert hodge_star(q).coords == (13, -11, 7, 5, -3, 2)
            p = Extensor(3, 2, tuple(Fraction(x) for x in (17, 19, 23, 29, 31, 37)))
            assert cap_product(p, q) == (
                17 * 13 - 19 * 11 + 23 * 7 + 29 * 5 - 31 * 3 + 37 * 2
            )
            mirror = SquareMatrix.from_rows(
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
            )
            assert induced_rep(mirror, 2).diagonal() == (1, -1, 1, -1, 1, -1)
            halfturn = SquareMatrix.from_rows(
                [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
            )
            assert induced_rep(halfturn, 2).diagonal() == (-1, -1, 1, 1, -1, -1)
