from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from orbitrig import rigidity
from orbitrig.algebra import SquareMatrix
from orbitrig.ensemble import random_diagonal_rep, random_gain_graph
from orbitrig.errors import InputError
from orbitrig.gaingraph import lift_cover, make_gain_graph
from orbitrig.genframe import BarConfiguration, BarEntry, lift_bars, random_generic_bars
from orbitrig.linalg import matrix_rank, prime_with_root, rank_complex, rank_exact
from orbitrig.rigidity import (
    analyze,
    analyze_generic,
    crosscheck_block_ranks,
    extract_flex,
    flex_residuals,
    orbit_matrix,
    rigidity_matrix,
    trivial_space_vectors,
)
from orbitrig.symmetry import (
    AbelianGroup,
    PointRepresentation,
    irrep_value,
    proven_trivial_dim,
    trivial_motion_dim,
)
from conftest import stewart_graph


def trivial_framework(n_bars: int):
    rep = PointRepresentation.trivial(3)
    h = make_gain_graph(
        ["u", "v"], [(i, "u", "v", ()) for i in range(n_bars)], group=rep.group
    )
    return h, rep


class TestMatrixRank:
    def test_zero_matrix(self):
        assert matrix_rank([[Fraction(0)] * 4 for _ in range(3)]) == 0

    def test_identity(self):
        eye = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
        assert matrix_rank(eye) == 6

    def test_forced_rank_two(self):
        rng = random.Random(5)
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)] for _ in range(6)]
        b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)] for _ in range(2)]
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(6)] for i in range(6)
        ]
        assert matrix_rank(prod) == 2

    def test_complex_rank(self):
        # [[1, i], [2, 2i]] over Q(i), each entry x + y i realified as the
        # multiplication block [[x, -y], [y, x]] in the basis 1, i
        rows = [[1, 0, 0, -1], [0, 1, 1, 0], [2, 0, 0, -2], [0, 2, 2, 0]]
        assert rank_complex(rows, 4, 2) == 1


class TestRigidityMatrix:
    def test_two_bodies_one_bar(self):
        h, rep = trivial_framework(1)
        config = random_generic_bars(h, rep, seed=1)
        cov, bars = lift_bars(h, config, rep)
        m = rigidity_matrix(cov, bars, 3)
        assert len(m) == 1 and len(m[0]) == 12
        assert rank_exact(m) == 1

    def test_two_bodies_six_bars_rigid(self):
        h, rep = trivial_framework(6)
        config = random_generic_bars(h, rep, seed=2)
        cov, bars = lift_bars(h, config, rep)
        assert rank_exact(rigidity_matrix(cov, bars, 3)) == 6

    def test_lifted_cs_stewart_rank_five(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=3)
        cov, bars = lift_bars(h, config, rep)
        m = rigidity_matrix(cov, bars, 3)
        assert len(m) == 6 and len(m[0]) == 12
        assert rank_exact(m) == 5

    def test_missing_bar(self):
        h, rep = trivial_framework(1)
        cov = lift_cover(h, rep.group)
        with pytest.raises(InputError):
            rigidity_matrix(cov, {}, 3)


class TestOrbitMatrix:
    def test_cs_antisymmetric_zero_rows(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=4)
        om = orbit_matrix(h, config, rep, (1,))
        assert len(om.rows) == 4 and om.ncols == 6
        assert all(x == 0 for x in om.row_of(2))
        assert all(x == 0 for x in om.row_of(3))
        assert any(x != 0 for x in om.row_of(0))
        assert om.rank() == 2

    def test_identity_group_matches_rigidity_matrix(self):
        h, rep = trivial_framework(4)
        config = random_generic_bars(h, rep, seed=6)
        om = orbit_matrix(h, config, rep, ())
        cov, bars = lift_bars(h, config, rep)
        assert [list(r) for r in om.rows] == rigidity_matrix(cov, bars, 3)

    def test_loop_form_enforced(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=7)
        # replace the non-free loop bar with a free wedge: must be rejected
        from orbitrig.genframe import bar_from_points

        bad = dict(config.entries)
        bad[2] = bar_from_points(3, (1, 2, 3, 1), (4, 5, 6, 1))
        with pytest.raises(InputError):
            orbit_matrix(h, BarConfiguration(3, bad), rep, (0,))

    def test_zero_loop_rows_iff_character_minus_one(self):
        """Non-free loops have identically-zero rows exactly in the blocks
        where their gain's character value is -1."""
        rng = random.Random(90)
        from orbitrig.ensemble import random_diagonal_rep, random_gain_graph

        for _ in range(25):
            orders = rng.choice(((2,), (2, 2)))
            rep = random_diagonal_rep(rng, orders, 3)
            h = random_gain_graph(rng, rep.group, 3, 6, require_loop_l=True)
            config = random_generic_bars(h, rep, rng.randrange(2 ** 31), bound=999)
            for g in rep.group.elements():
                om = orbit_matrix(h, config, rep, g)
                for e in h.loops_in_l():
                    row = om.row_of(e.id)
                    if irrep_value(rep.group, g, e.gain) == -1:
                        assert all(x == 0 for x in row)
                    else:
                        assert any(x != 0 for x in row)

    def test_trivial_motions_in_kernel(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=8)
        for g in rep.group.elements():
            om = orbit_matrix(h, config, rep, g)
            for t in trivial_space_vectors(rep, g, len(h.vertices)):
                assert all(
                    sum(a * b for a, b in zip(row, t)) == 0 for row in om.rows
                )


class TestAnalyze:
    def test_cs_stewart_flexible(self, cs_stewart):
        h, rep = cs_stewart
        report = analyze_generic(h, rep, seed=42)
        assert not report.rigid
        r0 = report.irrep_report((0,))
        r1 = report.irrep_report((1,))
        assert (r0.rank, r0.trivial, r0.flex) == (3, 3, 0)
        assert (r1.rank, r1.trivial, r1.flex) == (2, 3, 1)
        assert report.samples_agree

    def test_c2_stewart_isostatic(self, c2_stewart):
        h, rep = c2_stewart
        report = analyze_generic(h, rep, seed=42)
        assert report.rigid and report.isostatic
        assert report.irrep_report((0,)).rank == 4
        assert report.irrep_report((1,)).rank == 2

    def test_trivial_rigid(self):
        h, rep = trivial_framework(6)
        report = analyze_generic(h, rep, seed=42)
        assert report.rigid and report.isostatic

    def test_rank_stable_across_seeds(self, cs_stewart):
        h, rep = cs_stewart
        ranks = []
        for seed in (1, 100, 20000):
            config = random_generic_bars(h, rep, seed)
            ranks.append([orbit_matrix(h, config, rep, g).rank() for g in rep.group.elements()])
        assert ranks[0] == ranks[1] == ranks[2]


class TestExtractFlex:
    def test_cs_antisymmetric_flex(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=9)
        om = orbit_matrix(h, config, rep, (1,))
        flex = extract_flex(om, rep)
        assert flex is not None
        assert any(any(x != 0 for x in vec) for vec in flex.assignment.values())
        assert all(x == 0 for x in flex_residuals(om, flex))
        # orthogonal to the trivial space
        for t in trivial_space_vectors(rep, (1,), 1):
            assert sum(a * b for a, b in zip(flex.stacked(), t)) == 0

    def test_c2_no_flex(self, c2_stewart):
        h, rep = c2_stewart
        config = random_generic_bars(h, rep, seed=10)
        for g in rep.group.elements():
            om = orbit_matrix(h, config, rep, g)
            assert extract_flex(om, rep) is None

    def test_trivial_rigid_no_flex(self):
        h, rep = trivial_framework(6)
        config = random_generic_bars(h, rep, seed=11)
        assert extract_flex(orbit_matrix(h, config, rep, ()), rep) is None


class TestCrosscheck:
    def test_cs_additivity(self, cs_stewart):
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=12)
        cc = crosscheck_block_ranks(h, config, rep)
        assert cc.lifted_rank == 5
        assert cc.block_ranks == {(0,): 3, (1,): 2}
        assert cc.additive

    def test_c2_additivity(self, c2_stewart):
        h, rep = c2_stewart
        config = random_generic_bars(h, rep, seed=13)
        cc = crosscheck_block_ranks(h, config, rep)
        assert cc.lifted_rank == 6
        assert cc.block_ranks == {(0,): 4, (1,): 2}

    def test_identity_group(self):
        h, rep = trivial_framework(5)
        config = random_generic_bars(h, rep, seed=14)
        cc = crosscheck_block_ranks(h, config, rep)
        assert cc.block_ranks == {(): cc.lifted_rank}


CYCLE = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
COMPLEX_GROUPS = [
    ((3,), 3, CYCLE),
    ((4,), 3, [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
    ((6,), 3, [[-x for x in row] for row in CYCLE]),
    ((8,), 4, [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
]


def _complex_rep(orders, d, generator) -> PointRepresentation:
    return PointRepresentation.from_generators(
        AbelianGroup(orders), d, [SquareMatrix.from_rows(generator)]
    )


class TestComplexCharacters:
    """Groups with a factor of order >= 3 have complex characters.  Their
    blocks are realified over Q, one per Galois orbit, and ranked exactly;
    the sum of the block ranks is checked against the lifted rank."""

    def test_quarter_turn_cycle_of_bodies(self):
        from orbitrig.symmetry import AbelianGroup

        group = AbelianGroup((4,))
        rot = __import__("orbitrig").SquareMatrix.from_rows(
            [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        )
        rep = PointRepresentation.from_generators(group, 3, [rot])
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], group=group)
        report = analyze_generic(h, rep, seed=5)
        assert [r.rank for r in report.irreps] == [1, 1, 1, 1]
        assert [r.trivial for r in report.irreps] == [2, 2, 0, 2]
        assert not report.rigid
        # rank additivity holds over the complex field too
        config = random_generic_bars(h, rep, 5)
        cov, bars = lift_bars(h, config, rep)
        assert rank_exact(rigidity_matrix(cov, bars, 3)) == sum(
            r.rank for r in report.irreps
        )

    @pytest.mark.parametrize("orders, d, generator", COMPLEX_GROUPS, ids=["z3", "z4", "z6", "z8"])
    def test_block_ranks_add_up_to_lifted_rank(self, orders, d, generator):
        """The exact oracle for complex characters: the lifted rigidity
        matrix is rational, and its rank is the sum of the block ranks."""
        from orbitrig.ensemble import random_gain_graph

        rep = _complex_rep(orders, d, generator)
        rng = random.Random(31 + orders[0])
        for t in range(5):
            # up to 2 bodies and enough bars that some blocks saturate
            h = random_gain_graph(rng, rep.group, 2, 8 if d == 3 else 14)
            config = random_generic_bars(h, rep, t, bound=50)
            report = analyze(h, rep, config)
            cov, bars = lift_bars(h, config, rep)
            assert rank_exact(rigidity_matrix(cov, bars, d)) == sum(r.rank for r in report.irreps)

    @pytest.mark.parametrize("orders, d, generator", COMPLEX_GROUPS, ids=["z3", "z4", "z6", "z8"])
    def test_galois_conjugates_agree(self, orders, d, generator):
        """``analyze`` ranks one block per Galois orbit; ranked and counted
        each on its own, every conjugate agrees with that report, and the
        constant assignments of its fixed screws lie in the kernel of its
        realified orbit matrix."""
        from orbitrig.ensemble import random_gain_graph
        from orbitrig.symmetry import fixed_subspace_basis

        rep = _complex_rep(orders, d, generator)
        h = random_gain_graph(random.Random(7), rep.group, 2, 8 if d == 3 else 14)
        config = random_generic_bars(h, rep, 3, bound=50)
        report = analyze(h, rep, config)
        for r in report.irreps:
            om = orbit_matrix(h, config, rep, r.irrep)
            assert om.rank() == r.rank
            assert trivial_motion_dim(rep, r.irrep) == r.trivial
            for s in fixed_subspace_basis(rep, r.irrep):
                stacked = tuple(s) * len(h.vertices)
                assert all(sum(a * x for a, x in zip(row, stacked)) == 0 for row in om.rows)

    def test_crosscheck_requires_real_characters(self):
        from orbitrig.symmetry import AbelianGroup

        group = AbelianGroup((4,))
        rot = __import__("orbitrig").SquareMatrix.from_rows(
            [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        )
        rep = PointRepresentation.from_generators(group, 3, [rot])
        h = make_gain_graph(["v"], [(0, "v", "v", (1,))], group=group)
        config = random_generic_bars(h, rep, 6)
        with pytest.raises(InputError):
            crosscheck_block_ranks(h, config, rep)


def _block_groups():
    """The complex groups, and (2,2) acting by a diagonal +-1
    representation."""
    reps = [_complex_rep(*spec) for spec in COMPLEX_GROUPS]
    return reps + [random_diagonal_rep(random.Random(3), (2, 2), 3)]


BLOCK_GROUP_IDS = ["z3", "z4", "z6", "z8", "z2xz2"]


def _with_parallel_copy(h, config):
    """``h`` with a copy of its first edge that carries the same bar, so
    the two rows are equal in every block."""
    e = h.edges[0]
    copy = max(x.id for x in h.edges) + 1
    edges = [(x.id, x.tail, x.head, x.gain) for x in h.edges] + [(copy, e.tail, e.head, e.gain)]
    loops_l = set(h.loops_l) | ({copy} if e.id in h.loops_l else set())
    entries = dict(config.entries)
    entries[copy] = config.entries[e.id]
    return make_gain_graph(h.vertices, edges, loops_l), BarConfiguration(config.d, entries)


@pytest.fixture
def fallbacks(monkeypatch):
    """The characters whose block ``_block_rank`` had to build as an
    ``OrbitMatrix``."""
    built = []
    build = rigidity.orbit_matrix

    def counting(h, config, rep, g):
        built.append(g)
        return build(h, config, rep, g)

    monkeypatch.setattr(rigidity, "orbit_matrix", counting)
    return built


class TestUnrealifiedBlocks:
    """``_block_rank`` ranks one unrealified row per edge over F_p, with
    zeta_m sent to a primitive m-th root of unity; checked against the
    realified Bareiss rank ``OrbitMatrix.rank``."""

    @pytest.mark.parametrize("rep", _block_groups(), ids=BLOCK_GROUP_IDS)
    def test_equals_realified_bareiss(self, rep, fallbacks):
        rng = random.Random(17 + rep.group.order())
        b = comb(rep.d + 1, 2)
        kinds = set()
        for t in range(16 if rep.d == 3 else 6):
            h = random_gain_graph(rng, rep.group, 2, rng.choice((b // 2, b, 2 * b, 4 * b)))
            config = random_generic_bars(h, rep, t, bound=9)
            if t % 2:
                h, config = _with_parallel_copy(h, config)
            for g in rep.group.elements():
                om = rigidity.orbit_matrix(h, config, rep, g)
                del fallbacks[:]
                rank = rigidity._block_rank(h, config, rep, g)
                assert rank == om.rank()
                nonzero = sum(1 for row in om.rows if any(row)) // om.degree
                bound = b * len(h.vertices) - proven_trivial_dim(rep, g)
                if rank == min(nonzero, bound):
                    # certified over F_p: no realified block is built
                    assert fallbacks == []
                    kinds.add("saturated" if rank == bound else "full row rank")
                else:
                    assert fallbacks == [g]
                    kinds.add("deficient")
        assert kinds == {"saturated", "full row rank", "deficient"}

    @pytest.mark.parametrize("rep", _block_groups(), ids=BLOCK_GROUP_IDS)
    def test_bars_vanishing_mod_p_or_dividing_by_p(self, rep, fallbacks):
        """A bar scaled by the block's prime p has the same rational rank
        but a row that vanishes mod p, so a block of independent rows falls
        short over F_p; a bar divided by p puts p in a denominator.  Both
        fall back to the realified block."""
        rng = random.Random(23 + rep.group.order())
        checked = 0
        for t in range(6 if rep.d == 3 else 2):
            h = random_gain_graph(rng, rep.group, 2, 5)
            config = random_generic_bars(h, rep, t, bound=9)
            free = [e.id for e in h.edges if e.id not in h.loops_l]
            if not free:
                continue
            for g in rep.group.elements():
                p, _ = prime_with_root(rep.group.element_order(g))
                om = rigidity.orbit_matrix(h, config, rep, g)
                expected = om.rank()
                independent = expected * om.degree == sum(1 for row in om.rows if any(row))
                for scale in (p, Fraction(1, p)):
                    entries = dict(config.entries)
                    entries[free[0]] = BarEntry(tuple(x * scale for x in config.vector(free[0])))
                    scaled = BarConfiguration(config.d, entries)
                    del fallbacks[:]
                    assert rigidity._block_rank(h, scaled, rep, g) == expected
                    if independent or scale != p:
                        assert fallbacks == [g]
                checked += independent
        assert checked >= 8


class TestMultiVertexFlex:
    def test_underbraced_two_bodies(self):
        h, rep = trivial_framework(5)
        config = random_generic_bars(h, rep, seed=77)
        om = orbit_matrix(h, config, rep, ())
        flex = extract_flex(om, rep)
        assert flex is not None
        assert all(x == 0 for x in flex_residuals(om, flex))
        for t in trivial_space_vectors(rep, (), 2):
            assert sum(a * b for a, b in zip(flex.stacked(), t)) == 0


class TestOtherDimensions:
    def test_crosscheck_holds_for_d2_and_d4(self):
        from orbitrig.ensemble import crosscheck_instances

        for d in (2, 4):
            summary = crosscheck_instances(
                count=10, orders=(2,), d=d, seed=11, max_vertices=3, max_edges=6, bound=999
            )
            assert summary["ok"]
