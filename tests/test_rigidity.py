from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from orbitrig import linalg, matroid, rigidity
from orbitrig.algebra import SquareMatrix
from orbitrig.ensemble import random_diagonal_rep, random_gain_graph
from orbitrig.errors import ConsistencyError, InputError
from orbitrig.gaingraph import lift_cover, make_gain_graph, remove_zero_loops
from orbitrig.genframe import (
    BarConfiguration,
    BarEntry,
    bar_from_points,
    lift_bars,
    random_generic_bars,
)
from orbitrig.hinge import HingeConfiguration, analyze_framework, analyze_hinge
from orbitrig.matroid import combinatorial_verdict, labeled_signed_graphs, union_rank_by_formula
from orbitrig.linalg import kernel_vectors, prime_with_root, rank_complex, rank_exact
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
    character_power,
    proven_trivial_dim,
    trivial_motion_dim,
)
import oracles
from conftest import irrep_report, loop_l_gain_graph
from conftest import mirror_rep, reflection9_rep, rotation9_rep, stewart_graph


def trivial_framework(n_bars: int):
    rep = PointRepresentation.trivial(3)
    h = make_gain_graph(
        ["u", "v"], [(i, "u", "v", ()) for i in range(n_bars)], group=rep.group
    )
    return h, rep


class TestMatrixRank:
    def test_zero_matrix(self):
        assert rank_exact([[Fraction(0)] * 4 for _ in range(3)]) == 0

    def test_identity(self):
        eye = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
        assert rank_exact(eye) == 6

    def test_forced_rank_two(self):
        rng = random.Random(5)
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)] for _ in range(6)]
        b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)] for _ in range(2)]
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(6)] for i in range(6)
        ]
        assert rank_exact(prod) == 2

    def test_complex_rank(self):
        # [[1, i], [2, 2i]] over Q(i), each entry x + y i realified as the
        # multiplication block [[x, -y], [y, x]] in the basis 1, i
        rows = [[1, 0, 0, -1], [0, 1, 1, 0], [2, 0, 0, -2], [0, 2, 2, 0]]
        assert rank_complex(rows, 2) == 1


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
        assert om.edge_ids == (0, 1, 2, 3)
        assert all(x == 0 for x in om.rows[2])
        assert all(x == 0 for x in om.rows[3])
        assert any(x != 0 for x in om.rows[0])
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
        for _ in range(25):
            orders = rng.choice(((2,), (2, 2)))
            rep = random_diagonal_rep(rng, orders, 3)
            h = loop_l_gain_graph(rng, rep.group, 3, 6)
            config = random_generic_bars(h, rep, rng.randrange(2 ** 31), bound=999)
            for g in rep.group.elements():
                om = orbit_matrix(h, config, rep, g)
                for e in h.loops_in_l():
                    row = om.rows[om.edge_ids.index(e.id)]
                    if 2 * character_power(rep.group, g, e.gain) == rep.group.element_order(g):
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
        r0 = irrep_report(report, (0,))
        r1 = irrep_report(report, (1,))
        assert (r0.rank, r0.trivial, r0.flex) == (3, 3, 0)
        assert (r1.rank, r1.trivial, r1.flex) == (2, 3, 1)
        assert report.samples_agree

    def test_c2_stewart_isostatic(self, c2_stewart):
        h, rep = c2_stewart
        report = analyze_generic(h, rep, seed=42)
        assert report.rigid and report.isostatic
        assert irrep_report(report, (0,)).rank == 4
        assert irrep_report(report, (1,)).rank == 2

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

    def test_missing_loop_bar(self, cs_stewart):
        """A configuration without the bar of a non-free loop is an input
        error, as a missing free bar is."""
        h, rep = cs_stewart
        with pytest.raises(InputError, match="no bar for edge 2"):
            analyze(h, rep, BarConfiguration(3, {}))


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

    def test_no_kernel_vector_is_drawn_after_the_flex(self, cs_stewart, monkeypatch):
        """The first kernel vector outside the trivial space is the third of
        four here; the fourth is never computed."""
        h, rep = cs_stewart
        config = random_generic_bars(h, rep, seed=9)
        om = orbit_matrix(h, config, rep, (1,))
        kernel = list(rigidity.kernel_vectors(om.rows, om.ncols))
        trivial = [list(t) for t in trivial_space_vectors(rep, (1,), 1)]
        outside = [rank_exact(trivial + [list(k)]) > rank_exact(trivial) for k in kernel]
        assert outside == [False, False, True, False]
        drawn = []

        def counting(rows, ncols):
            for k in kernel_vectors(rows, ncols):
                drawn.append(k)
                yield k

        monkeypatch.setattr(rigidity, "kernel_vectors", counting)
        flex = extract_flex(om, rep)
        assert drawn == kernel[:3]
        # the flex is that vector's part orthogonal to the trivial space
        stacked = flex.stacked()
        assert rank_exact(trivial + [stacked]) > rank_exact(trivial)
        assert rank_exact(trivial + [stacked, list(kernel[2])]) == rank_exact(trivial) + 1

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

    @pytest.mark.parametrize("orders, d, generator", COMPLEX_GROUPS, ids=["z3", "z4", "z6", "z8"])
    def test_crosscheck_is_additive(self, orders, d, generator):
        """``crosscheck_block_ranks`` takes complex characters: the lifted
        matrix is rational for any representation, and each block rank is
        exact over Q(zeta_m).  The first instance is one body with a loop
        of gain 1."""
        rep = _complex_rep(orders, d, generator)
        rng = random.Random(59 + orders[0])
        graphs = [make_gain_graph(["v"], [(0, "v", "v", (1,))], group=rep.group)]
        graphs += [random_gain_graph(rng, rep.group, 3, 8 if d == 3 else 14) for _ in range(4)]
        for t, h in enumerate(graphs):
            config = random_generic_bars(h, rep, t, bound=50)
            cc = crosscheck_block_ranks(h, config, rep)
            assert cc.additive
            assert cc.block_ranks == {r.irrep: r.rank for r in analyze(h, rep, config).irreps}


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


def _unrealified_instances(rep):
    """(h, config) pairs of ``rep``: random gain graphs on 2 vertices with
    b/2 to 4b edges (b = C(d+1,2)) and bars from [-9, 9], every second one
    with a parallel copy of its first edge."""
    rng = random.Random(17 + rep.group.order())
    b = comb(rep.d + 1, 2)
    for t in range(16 if rep.d == 3 else 6):
        h = random_gain_graph(rng, rep.group, 2, rng.choice((b // 2, b, 2 * b, 4 * b)))
        config = random_generic_bars(h, rep, t, bound=9)
        yield _with_parallel_copy(h, config) if t % 2 else (h, config)


def _witness_instances():
    """(rep, h, configs) for random diagonal (2), (2,2) and (2,2,2)
    representations, d = 2-4, on 3 vertices; the three configurations
    have coordinates from [-1, 1], [-2, 2] and [-1000, 1000], so many of
    the first two sit in special position and the last almost never."""
    rng = random.Random(29)
    for orders, d in WITNESS_SPECS:
        b = comb(d + 1, 2)
        for _ in range(6):
            rep = random_diagonal_rep(rng, orders, d)
            h = random_gain_graph(rng, rep.group, 3, rng.choice((b, 2 * b, 3 * b)))
            yield rep, h, [
                random_generic_bars(h, rep, rng.randrange(2 ** 32), coordinate_bound)
                for coordinate_bound in (1, 2, 1000)
            ]


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
        b = comb(rep.d + 1, 2)
        kinds = set()
        for h, config in _unrealified_instances(rep):
            for g in rep.group.elements():
                om = rigidity.orbit_matrix(h, config, rep, g)
                del fallbacks[:]
                rank, _ = rigidity._block_rank(h, config, rep, g)
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
        short over F_p and falls back to the realified block.  A bar divided
        by p gives the same integer row once its denominator is cleared, so
        it takes the same path as the unscaled bar."""
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
                del fallbacks[:]
                assert rigidity._block_rank(h, config, rep, g)[0] == expected
                unscaled = list(fallbacks)
                for scale in (p, Fraction(1, p)):
                    entries = dict(config.entries)
                    entries[free[0]] = BarEntry(tuple(x * scale for x in config.vector(free[0])))
                    scaled = BarConfiguration(config.d, entries)
                    del fallbacks[:]
                    assert rigidity._block_rank(h, scaled, rep, g)[0] == expected
                    if scale != p:
                        assert fallbacks == unscaled
                    elif independent:
                        assert fallbacks == [g]
                checked += independent
        assert checked >= 8

    def test_non_integer_data(self):
        """A reflection with denominator 9 and bars divided by 2 to 9: the
        integer rows rank like the realified block, and the block ranks add
        up to the rank of the lifted rigidity matrix, assembled on its own."""
        rep = reflection9_rep()
        rng = random.Random(47)
        for t in range(8):
            h = random_gain_graph(rng, rep.group, 3, rng.choice((4, 8, 12)))
            config = random_generic_bars(h, rep, t, bound=9)
            entries = {
                eid: entry if h.edge(eid).is_loop()
                else BarEntry(tuple(Fraction(x, rng.randint(2, 9)) for x in entry.vector))
                for eid, entry in config.entries.items()
            }
            config = BarConfiguration(config.d, entries)
            ranks = []
            for g in rep.group.elements():
                ranks.append(rigidity._block_rank(h, config, rep, g)[0])
                assert ranks[-1] == orbit_matrix(h, config, rep, g).rank()
            assert sum(ranks) == rank_exact(rigidity_matrix(*lift_bars(h, config, rep), rep.d))


WITNESS_SPECS = [((2,), 2), ((2,), 3), ((2,), 4), ((2, 2), 2), ((2, 2), 3), ((2, 2), 4),
                 ((2, 2, 2), 3), ((2, 2, 2), 4)]  # (orders, d) with a faithful diagonal image


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The row counts of the matrices ``_block_rank`` ranked by Bareiss."""
    calls = []
    exact = linalg.rank_exact

    def counting(rows):
        calls.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(linalg, "rank_exact", counting)
    return calls


class TestWitnessBound:
    """The matroid union's |S \\ X| + sum_i r_i(X) bounds the rank of a
    two-group block at every configuration, generic or not; ``_block_rank``
    returns an F_p rank equal to it, rejects one above it and sends one
    below it to Bareiss."""

    def test_bareiss_rank_never_exceeds_the_bound(self):
        """Random (2), (2,2) and (2,2,2) instances, d = 2-4; coordinates
        drawn from [-1, 1] and [-2, 2] put many configurations in special
        position, [-1000, 1000] almost none."""
        tight = below = 0
        for rep, h, configs in _witness_instances():
            verdicts = [combinatorial_verdict(h, rep, g) for g in rep.group.elements()]
            for config in configs:
                for v in verdicts:
                    exact = orbit_matrix(h, config, rep, v.irrep).rank()
                    assert exact <= v.witness_bound == v.rank
                    rank, _ = rigidity._block_rank(h, config, rep, v.irrep, v.witness_bound)
                    assert rank == exact
                    tight += exact == v.witness_bound
                    below += exact < v.witness_bound
        assert tight >= 100 and below >= 10, (tight, below)

    def test_generic_blocks_need_no_bareiss(self, fallbacks, bareiss_calls):
        """Sampled (2,2) frameworks with an over-braced pair of bodies and an
        under-braced third: their blocks fall short of min(nonzero rows,
        cokernel bound), so without the witness bound they go to Bareiss;
        with it they are certified over F_p, at the same ranks."""
        rng = random.Random(41)
        deficient = 0
        for _ in range(4):
            rep = random_diagonal_rep(rng, (2, 2), 3)
            gains = rep.group.elements()
            edges = [(i, "u", "v", rng.choice(gains)) for i in range(14)]
            edges += [(14 + i, "v", "w", rng.choice(gains)) for i in range(rng.randint(1, 4))]
            h = make_gain_graph(["u", "v", "w"], edges, group=rep.group)
            config = random_generic_bars(h, rep, rng.randrange(2 ** 32))
            bounds = {g: combinatorial_verdict(h, rep, g).witness_bound for g in gains}
            without = analyze(h, rep, config)
            deficient += len(fallbacks)
            del fallbacks[:], bareiss_calls[:]
            assert analyze(h, rep, config, bounds) == without
            assert fallbacks == [] and bareiss_calls == []
        assert deficient >= 8, deficient

    def test_lines_through_one_point_go_to_bareiss(self, fallbacks, bareiss_calls):
        """Six bars between two bodies, all through the origin, span only
        the three rotations about it: rank_p = 3 falls below the witness
        bound 6, and Bareiss decides the rank."""
        h, rep = trivial_framework(6)
        origin = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        rng = random.Random(3)
        entries = {}
        for i in range(6):
            q = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3)) + (Fraction(1),)
            entries[i] = bar_from_points(3, origin, q)
        config = BarConfiguration(3, entries)
        verdict = combinatorial_verdict(h, rep, ())
        assert verdict.witness_bound == 6
        assert rigidity._block_rank(h, config, rep, (), verdict.witness_bound) == (3, None)
        assert fallbacks == [()] and bareiss_calls == [6]

    def test_collinear_explicit_hinges_go_to_bareiss(self, fallbacks, bareiss_calls):
        """Two explicit hinges on one line leave the rotation about it, so
        the block has rank 5 below the witness bound 6; an explicit
        configuration is ranked once."""
        rep = PointRepresentation.trivial(3)
        h = make_gain_graph(["u", "v"], [(0, "u", "v", ()), (1, "u", "v", ())], group=rep.group)
        entries = {}
        for eid, xs in ((0, (0, 1)), (1, (2, 5))):
            pts = [tuple(map(Fraction, (x, 0, 0, 1))) for x in xs]
            entries[eid] = HingeConfiguration.entry(h, rep, eid, pts)
        config = HingeConfiguration(d=3, entries=entries)
        result = analyze_hinge(h, rep, seed=1, config=config)
        assert [v.witness_bound for v in result.verdicts] == [6]
        assert [(r.rank, r.flex) for r in result.numeric.irreps] == [(5, 1)]
        assert fallbacks == [()] and bareiss_calls == [10]

    def test_bound_one_too_low_is_inconsistent(self):
        """An F_p rank above the bound is reported, not returned: this also
        fails when elimination stops at the bound."""
        rng = random.Random(8)
        checked = 0
        for _ in range(4):
            rep = random_diagonal_rep(rng, (2, 2), 3)
            h = random_gain_graph(rng, rep.group, 3, 12)
            config = random_generic_bars(h, rep, rng.randrange(2 ** 32))
            bounds = {g: combinatorial_verdict(h, rep, g).witness_bound for g in rep.group.elements()}
            for g, bound in bounds.items():
                if bound == 0:
                    continue
                with pytest.raises(ConsistencyError):
                    rigidity._block_rank(h, config, rep, g, bound - 1)
                with pytest.raises(ConsistencyError):
                    analyze(h, rep, config, {**bounds, g: bound - 1})
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("miscount", [-1, 1])
    def test_bound_is_evaluated_from_the_witness(self, monkeypatch, fallbacks, miscount):
        """A union that miscounts its rank leaves the witness bound, and so
        the numeric report, unchanged; only the agreement check sees it."""
        rep = PointRepresentation.from_generators(
            AbelianGroup((2,)), 3, [SquareMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])]
        )
        h = stewart_graph(rep.group)
        honest = analyze_framework("body-bar", h, rep, seed=5)
        union = matroid.matroid_union_rank

        def miscounting(*args):
            result = union(*args)
            return replace(result, rank=result.rank + miscount)

        monkeypatch.setattr(matroid, "matroid_union_rank", miscounting)
        del fallbacks[:]
        result = analyze_framework("body-bar", h, rep, seed=5)
        assert [v.rank - miscount for v in result.verdicts] == [v.rank for v in honest.verdicts]
        assert [v.witness_bound for v in result.verdicts] == [v.witness_bound for v in honest.verdicts]
        assert result.numeric == honest.numeric
        assert fallbacks == []
        assert not result.consistent


class TestCertificatesOnce:
    """Each certificate is evaluated once, where it is first needed:
    ``_block_rank`` returns the proof beside the rank, and a verdict
    carries the witness bound the union evaluated for its own check."""

    def test_proof_names_the_bound_the_rank_meets(self):
        """The proof is "bound" when the rank is the columns minus the
        proven fixed screws, else "witness" when it is the witness bound,
        else None.  Among the None ones are blocks of full row rank below
        the bound, which a proof keyed on the elimination target would
        count as proven."""
        kinds = []

        def check(h, config, rep, g, witness_bound=None):
            rank, proof = rigidity._block_rank(h, config, rep, g, witness_bound)
            bound = comb(rep.d + 1, 2) * len(h.vertices) - proven_trivial_dim(rep, g)
            expected = "bound" if rank == bound else "witness" if rank == witness_bound else None
            assert proof == expected
            nonzero = sum(1 for row in rigidity._block_rows(h, config, rep, g) if row)
            kinds.append("full row rank" if proof is None and rank == nonzero else proof)

        for rep in _block_groups():
            for h, config in _unrealified_instances(rep):
                for g in rep.group.elements():
                    check(h, config, rep, g)
        for rep, h, configs in _witness_instances():
            bounds = {g: combinatorial_verdict(h, rep, g).witness_bound for g in rep.group.elements()}
            for config in configs:
                for g, bound in bounds.items():
                    check(h, config, rep, g, bound)
        counts = {k: kinds.count(k) for k in ("bound", "witness", "full row rank", None)}
        assert all(n >= 50 for n in counts.values()), counts

    def test_witness_bound_is_evaluated_from_the_witness(self):
        """Every verdict's ``witness_bound`` is |S \\ X| + sum_i r_i(X) for
        its witness X on the labeled graphs, rebuilt here."""
        instances = [(rep, h) for rep in _block_groups() if rep.is_combinatorial()
                     for h, _ in _unrealified_instances(rep)]
        instances += [(rep, h) for rep, h, _ in _witness_instances()]
        for rep, h in instances:
            for g in rep.group.elements():
                v = combinatorial_verdict(h, rep, g)
                labeled = labeled_signed_graphs(remove_zero_loops(h, rep, g), rep, g)
                ids = [e.id for e in labeled[0][1].edges]
                assert v.witness_bound == union_rank_by_formula(labeled, ids, v.witness)
        assert len(instances) >= 60


class TestLazySampling:
    """``analyze_generic`` ranks a block again only while no bound proves
    its rank, at the configurations of the sampler that ranked every block
    at every sample (``oracles.analyze_generic``), so its ranks are that
    sampler's."""

    def test_matches_the_sampler_that_ranks_every_block(self):
        """Diagonal (2), (2,2), (2,2,2) and the quarter turn (4), d = 3;
        coordinates in [-1, 1] and [-2, 2] put many samples in special
        position, so that some blocks are sampled again."""
        rng = random.Random(83)
        reps = [random_diagonal_rep(rng, orders, 3) for orders in ((2,), (2, 2), (2, 2, 2))]
        reps.append(_complex_rep(*COMPLEX_GROUPS[1]))
        resampled = unproven = 0
        for rep in reps:
            for _ in range(3):
                h = random_gain_graph(rng, rep.group, 3, rng.choice((3, 6, 12)))
                bounds = None
                if rep.is_combinatorial():
                    bounds = {
                        g: combinatorial_verdict(h, rep, g).witness_bound
                        for g in rep.group.elements()
                    }
                for coordinate_bound in (1, 2, 10 ** 6):
                    for samples in (1, 2, 3):
                        seed = rng.randrange(2 ** 32)
                        args = (h, rep, seed, samples, coordinate_bound, bounds)
                        lazy = analyze_generic(*args)
                        eager = oracles.analyze_generic(*args)
                        assert [(r.irrep, r.rank, r.flex, r.rigid) for r in lazy.irreps] == [
                            (r.irrep, r.rank, r.flex, r.rigid) for r in eager.irreps
                        ]
                        assert lazy.rigid == eager.rigid and lazy.meta == eager.meta
                        assert lazy.samples_agree or not eager.samples_agree
                        for r in lazy.irreps:
                            assert r.rank == max(r.sample_ranks)
                            assert 1 <= len(r.sample_ranks) <= samples
                            if r.proof is None:
                                assert len(r.sample_ranks) == samples
                            resampled += len(r.sample_ranks) > 1
                            unproven += r.proof is None
        assert resampled >= 30 and unproven >= 40, (resampled, unproven)

    def test_only_the_unproven_block_is_sampled_again(self, monkeypatch):
        """Sample 0 puts the six loop bars of a mirror-symmetric body
        through one point off the mirror: block (0,) still meets its bound
        3, block (1,) has rank 2.  Sample 1 ranks block (1,) alone, and its
        rank 3 meets the bound."""
        rep = mirror_rep()
        h = make_gain_graph(["v"], [(i, "v", "v", (1,)) for i in range(6)], group=rep.group)
        point = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
        rng = random.Random(3)
        special = BarConfiguration(3, {
            i: bar_from_points(3, point, tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
                               + (Fraction(1),))
            for i in range(6)
        })
        draw = rigidity.random_generic_bars
        monkeypatch.setattr(
            rigidity, "random_generic_bars",
            lambda h, rep, seed, bound: special if seed == 5 else draw(h, rep, seed, bound),
        )
        ranked = []
        block_rank = rigidity._block_rank

        def recording(h, config, rep, g, witness_bound=None):
            ranked.append((config is special, g))
            return block_rank(h, config, rep, g, witness_bound)

        monkeypatch.setattr(rigidity, "_block_rank", recording)
        bounds = {g: combinatorial_verdict(h, rep, g).witness_bound for g in rep.group.elements()}
        report = analyze_generic(h, rep, seed=5, witness_bounds=bounds)
        assert ranked == [(True, (0,)), (True, (1,)), (False, (1,))]
        assert [(r.rank, r.sample_ranks, r.proof) for r in report.irreps] == [
            (3, (3,), "bound"), (3, (2, 3), "bound")
        ]
        assert report.rigid and not report.samples_agree


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
            summary = crosscheck_instances(count=10, orders=(2,), d=d, seed=11, max_vertices=3, max_edges=6)
            assert summary["ok"]


def test_crosscheck_draws_each_configuration_once(monkeypatch):
    """The lifted rank is taken at the analysis's sample 0, so an instance
    draws one configuration per sample it analyzes: one alone when no
    block is sampled again."""
    from orbitrig import ensemble, genframe

    draws, samples = [], []
    draw, analyze_framework = genframe.random_configuration, ensemble.analyze_framework

    def counted_draw(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    def analyze(*args, **kwargs):
        result = analyze_framework(*args, **kwargs)
        samples.append(max(len(r.sample_ranks) for r in result.numeric.irreps))
        return result

    monkeypatch.setattr(genframe, "random_configuration", counted_draw)
    monkeypatch.setattr(ensemble, "analyze_framework", analyze)
    assert ensemble.crosscheck_instances(5, (2, 2), 3, 7)["ok"]
    assert len(samples) == 5 and 1 in samples
    assert len(draws) == sum(samples)


def _lifted_oracle_reps():
    """Diagonal (2), (2,2) and (2,2,2), the quarter turn, the Z/3 and Z/6
    cycles, and the quarter turn about (1, 2, 2) with denominator 9."""
    rng = random.Random(67)
    reps = [random_diagonal_rep(rng, orders, 3) for orders in ((2,), (2, 2), (2, 2, 2))]
    reps += [_complex_rep(orders, d, gen) for orders, d, gen in COMPLEX_GROUPS[:3]]
    return reps + [rotation9_rep()]


class TestLiftedRankOracle:
    """``lifted_rank`` ranks one sparse integer row per lifted edge; its
    oracle is Bareiss on the dense Fraction matrix of the lifted bars."""

    @staticmethod
    def _oracle(h, config, rep):
        return rank_exact(rigidity_matrix(*lift_bars(h, config, rep), rep.d))

    def test_seeded_gain_graphs(self):
        rng = random.Random(71)
        for rep in _lifted_oracle_reps():
            for t in range(4):
                h = random_gain_graph(rng, rep.group, 4, 10)
                config = random_generic_bars(h, rep, t, bound=50)
                assert rigidity.lifted_rank(h, config, rep) == self._oracle(h, config, rep)

    def test_deficient_lifts_fall_back(self, bareiss_calls):
        """Twenty bars between u and v and one from v to w: more lifted rows
        than the bound b (|V| |G| - 1), and a rank below both."""
        rng = random.Random(73)
        for rep in _lifted_oracle_reps():
            elems = rep.group.elements()
            edges = [(i, "u", "v", rng.choice(elems)) for i in range(20)]
            h = make_gain_graph(["u", "v", "w"], edges + [(20, "v", "w", rng.choice(elems))])
            config = random_generic_bars(h, rep, 5, bound=9)
            bound = 6 * (3 * rep.group.order() - 1)
            assert len(lift_cover(h, rep.group).edges) > bound
            del bareiss_calls[:]
            rank = rigidity.lifted_rank(h, config, rep)
            assert rank == self._oracle(h, config, rep) < bound
            assert len(bareiss_calls) == 1

    def test_rows_vanishing_mod_p_still_count(self, bareiss_calls):
        """Bars whose coordinates are multiples of PRIME: their lifted rows
        vanish mod p but not over Q, so they count toward the target, the
        F_p rank falls short of it and Bareiss gives the rank."""
        rng = random.Random(79)
        for rep in _lifted_oracle_reps():
            others = [g for g in rep.group.elements() if g != rep.group.identity]
            edges = [(0, "u", "v", rep.group.identity)] + [
                (i, "u", "v", rng.choice(others)) for i in (1, 2)
            ]
            h = make_gain_graph(["u", "v"], edges)
            config = random_generic_bars(h, rep, 3, bound=50)
            entries = dict(config.entries)
            entries[0] = BarEntry(tuple(x * linalg.PRIME for x in config.vector(0)))
            scaled = BarConfiguration(config.d, entries)
            del bareiss_calls[:]
            rank = rigidity.lifted_rank(h, scaled, rep)
            assert rank == self._oracle(h, scaled, rep) == self._oracle(h, config, rep)
            assert rank == 3 * rep.group.order()
            assert len(bareiss_calls) == 1
