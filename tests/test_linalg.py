"""The sparse prime-field rank engine and the certified rank against the
Bareiss oracle, the prime and root chosen per character order, and the
exact kernel proof that supplies the bound on orbit matrices."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orbitrig import linalg, symmetry
from orbitrig.ensemble import random_diagonal_rep, random_gain_graph
from orbitrig.errors import ConsistencyError
from orbitrig.genframe import random_generic_bars
from orbitrig.linalg import PRIME, prime_with_root, rank_certified, rank_exact, rank_mod_p
from orbitrig.rigidity import analyze, orbit_matrix
from orbitrig.symmetry import proven_trivial_dim, trivial_motion_dim
from conftest import halfturn_rep, mirror_rep, stewart_graph

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the calls of ``rank_certified`` into ``rank_exact``."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return rank_exact(rows)

    monkeypatch.setattr(linalg, "rank_exact", counting)
    return calls


def _product_matrix(rng: random.Random, m: int, n: int, r: int) -> list[list[int]]:
    """An m x n integer matrix of rank at most r: an m x r times an r x n
    factor."""
    left = [[rng.randint(-50, 50) for _ in range(r)] for _ in range(m)]
    right = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


class TestRankCertified:
    def test_full_rank_random_matrices(self, fallbacks):
        rng = random.Random(5)
        for _ in range(40):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(m)]
            assert rank_certified(rows, n) == rank_exact(rows) == min(m, n)
        assert fallbacks == []

    def test_deficient_random_matrices(self, fallbacks):
        rng = random.Random(6)
        for _ in range(40):
            m, n = rng.randint(2, 12), rng.randint(2, 12)
            r = rng.randint(1, min(m, n) - 1)
            rows = _product_matrix(rng, m, n, r)
            expected = rank_exact(rows)
            # the product form proves rank <= r: certified without Bareiss
            # whenever the factors have full rank
            before = len(fallbacks)
            assert rank_certified(rows, r) == expected
            assert len(fallbacks) == before + (expected < r)
            # with only the trivial bound a deficiency needs the fallback
            nonzero = sum(1 for row in rows if any(row))
            assert rank_certified(rows, n) == expected
            assert len(fallbacks) == before + (expected < r) + (expected < min(nonzero, n))

    def test_rational_entries(self):
        rng = random.Random(7)
        for _ in range(20):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            rows = [
                [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)]
                for _ in range(m)
            ]
            assert rank_certified(rows, n) == rank_exact(rows)

    def test_entry_vanishing_mod_p_falls_back(self, fallbacks):
        assert rank_certified([[PRIME, 0], [0, 1]], 2) == 2
        assert rank_certified([[2 * PRIME, PRIME], [1, 1]], 2) == 2
        assert len(fallbacks) == 2

    def test_denominator_divisible_by_p(self, fallbacks):
        assert rank_certified([[Fraction(1, PRIME), 0], [0, 1]], 2) == 2
        assert rank_certified([[Fraction(1, PRIME), Fraction(2, PRIME)], [1, 2]], 2) == 1
        assert len(fallbacks) == 2

    def test_zero_rows_do_not_count_toward_the_bound(self, fallbacks):
        rows = [[0, 0, 0], [1, 2, 3], [Fraction(0)] * 3, [2, 4, 7]]
        assert rank_certified(rows, 3) == 2
        assert rank_certified([[0, 0], [0, 0]], 2) == 0
        assert rank_certified([], 0) == 0
        assert fallbacks == []

    def test_orbit_blocks_match_bareiss(self):
        """Every rank ``analyze`` reports equals Bareiss on the same block,
        over random two-group instances, rigid and flexible."""
        rng = random.Random(11)
        flexible = 0
        for t in range(12):
            rep = random_diagonal_rep(rng, (2, 2) if t % 2 else (2,), 3)
            h = random_gain_graph(rng, rep.group, 4, 10)
            config = random_generic_bars(h, rep, t, bound=1000)
            report = analyze(h, rep, config)
            for r in report.irreps:
                assert r.rank == orbit_matrix(h, config, rep, r.irrep).rank()
            flexible += not report.rigid
        assert flexible > 0


def _sparse(rows, p: int = PRIME) -> list[dict[int, int]]:
    return [{c: x % p for c, x in enumerate(row) if x % p} for row in rows]


# small integer matrices: every minor is far below PRIME in absolute value,
# so their rank mod PRIME is their rational rank
small_matrices = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=9)
)
entries = st.one_of(
    st.integers(-5, 5),
    st.integers(-3, 3).map(lambda k: k * PRIME),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.sampled_from([Fraction(1, PRIME), Fraction(-2, PRIME), Fraction(PRIME, 3)]),
)
mixed_matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), max_size=7)
)


class TestRankModP:
    @settings(max_examples=200, deadline=None)
    @given(small_matrices, st.integers(0, 10))
    def test_equals_bareiss_up_to_target(self, rows, target):
        assert rank_mod_p(_sparse(rows), target, PRIME) == min(target, rank_exact(rows))

    @settings(max_examples=200, deadline=None)
    @given(mixed_matrices, st.integers(0, 3))
    def test_certified_rank_equals_bareiss(self, rows, slack):
        """Entries that vanish mod p, p in a denominator and zero rows
        included, with any proven bound at or above the rank."""
        expected = rank_exact(rows)
        assert rank_certified(rows, expected + slack) == expected

    def test_seeded_matrices_with_every_shape_of_rank(self):
        rng = random.Random(9)
        kinds = set()
        for _ in range(60):
            m, n = rng.randint(1, 30), rng.randint(1, 30)
            r = rng.randint(1, min(m, n))
            rows = _product_matrix(rng, m, n, r)
            for i in rng.sample(range(m), rng.randint(0, m // 3)):
                rows[i] = [0] * n  # zero rows
            expected = rank_exact(rows)
            kinds.add("full" if expected == min(m, n) else "deficient")
            assert rank_mod_p(_sparse(rows), min(m, n), PRIME) == expected
            assert rank_certified(rows, r) == expected
        assert kinds == {"full", "deficient"}

    def test_rows_are_consumed_and_empty_rows_ignored(self):
        rows = [{}, {0: 1, 1: 2}, {}, {1: 5}]
        assert rank_mod_p(rows, 5, PRIME) == 2
        assert rank_mod_p([], 3, PRIME) == 0
        assert rank_mod_p([{0: 1}], 0, PRIME) == 0

    def test_other_primes(self):
        rng = random.Random(10)
        for m in (4, 5, 8):
            p, _ = prime_with_root(m)
            for _ in range(10):
                rows = _product_matrix(rng, 8, 9, rng.randint(1, 8))
                assert rank_mod_p(_sparse(rows, p), 8, p) == rank_exact(rows)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


class TestPrimeWithRoot:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_root_has_order_exactly_m(self, m):
        p, w = prime_with_root(m)
        assert p < 2 ** 31 and (p - 1) % m == 0 and _is_prime(p)
        assert pow(w, m, p) == 1
        assert all(pow(w, k, p) != 1 for k in range(1, m))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_largest_such_prime(self, m):
        p, _ = prime_with_root(m)
        assert not any(_is_prime(q) for q in range(p + m, 2 ** 31, m))

    def test_word_prime_serves_small_orders(self):
        assert prime_with_root(1)[0] == prime_with_root(2)[0] == PRIME
        assert prime_with_root(4)[0] != PRIME


class TestKernelProof:
    def test_matches_trivial_motion_dim(self):
        for rep in (mirror_rep(), halfturn_rep()):
            for j in rep.group.elements():
                assert proven_trivial_dim(rep, j) == trivial_motion_dim(rep, j)

    def test_non_fixed_screw_is_refused(self, monkeypatch):
        rep = mirror_rep()
        # the mirror fixes the screw coordinates 0, 2, 4 in the symmetric block
        not_fixed = (Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        monkeypatch.setattr(symmetry, "fixed_subspace_basis", lambda rep, j: [not_fixed])
        with pytest.raises(ConsistencyError):
            proven_trivial_dim(rep, (0,))

    def test_analyze_refuses_an_unproven_bound(self, monkeypatch):
        rep = mirror_rep()
        h = stewart_graph(rep.group)
        config = random_generic_bars(h, rep, 1)
        monkeypatch.setattr(
            symmetry, "fixed_subspace_basis", lambda rep, j: [(Fraction(1),) * 6]
        )
        with pytest.raises(ConsistencyError):
            analyze(h, rep, config)


def test_oracles_use_bareiss():
    assert oracles.rank_exact is rank_exact


@pytest.mark.parametrize(
    "code",
    [
        "import orbitrig.cli",
        "from orbitrig.cli import main; assert main(['crosscheck', '--count', '3', '--group', '2x2']) == 0",
        "from orbitrig import AbelianGroup, PointRepresentation, SquareMatrix, analyze_generic, "
        "make_gain_graph\n"
        "rot = SquareMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])\n"
        "rep = PointRepresentation.from_generators(AbelianGroup((4,)), 3, [rot])\n"
        "h = make_gain_graph(['v'], [(0, 'v', 'v', (1,))], group=rep.group)\n"
        "assert [r.rank for r in analyze_generic(h, rep, seed=5).irreps] == [1, 1, 1, 1]",
    ],
    ids=["import", "crosscheck", "quarter-turn-analyze"],
)
def test_numpy_not_imported(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    check = code + "\nimport sys\nassert 'numpy' not in sys.modules, 'numpy imported'"
    proc = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
