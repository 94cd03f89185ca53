from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from orbitrig.algebra import (
    Extensor,
    LexIndex,
    SquareMatrix,
    cap_product,
    det,
    compound,
    hodge_star,
    lex_index,
    wedge,
)
from orbitrig.errors import InputError
from conftest import diagonal, identity
from oracles import hodge_star_by_inversions


def rand_vec(rng, n, lo=-9, hi=9):
    return [Fraction(rng.randint(lo, hi)) for _ in range(n)]


def dot(x: Extensor, y: Extensor):
    return sum(a * b for a, b in zip(x.coords, y.coords))


class TestLexIndex:
    def test_round_trip(self):
        idx = LexIndex(5, 3)
        assert len(idx) == comb(5, 3)
        for i, t in enumerate(idx.tuples()):
            assert idx.position(t) == i
            assert idx.tuples()[i] == t

    def test_d3_grade2_order(self):
        assert lex_index(4, 2).tuples() == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_bad_tuple(self):
        with pytest.raises(InputError):
            lex_index(4, 2).position((2, 1))


class TestWedge:
    def test_unit_vectors(self):
        w = wedge([[1, 0, 0, 0], [0, 1, 0, 0]], 3)
        assert w.coords == (1, 0, 0, 0, 0, 0)

    def test_repeated_vector_is_zero(self):
        p = [1, 2, 3, 1]
        assert not any(wedge([p, p], 3).coords)

    def test_swap_negates(self):
        p, q = [1, 2, 3, 1], [4, 5, 6, 1]
        assert wedge([q, p], 3).coords == tuple(-x for x in wedge([p, q], 3).coords)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            wedge([[1, 2, 3]], 3)

    def test_multilinearity_random(self):
        rng = random.Random(101)
        for _ in range(25):
            d = rng.randint(2, 5)
            u = rand_vec(rng, d + 1)
            v = rand_vec(rng, d + 1)
            w = rand_vec(rng, d + 1)
            a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            lhs = wedge([[a * x + b * y for x, y in zip(u, v)], w], d)
            rhs_u = wedge([u, w], d).coords
            rhs_v = wedge([v, w], d).coords
            assert lhs.coords == tuple(a * x + b * y for x, y in zip(rhs_u, rhs_v))

    def test_bar_coordinates_are_the_two_by_two_minors(self):
        """A bar's coordinates are the minors det [[p_i, q_i], [p_j, q_j]],
        i < j in lex order, for int and Fraction entries alike (zeros
        included, which make the elimination swap rows); int points, here
        7 times the drawn ones, give int coordinates."""
        rng = random.Random(12)
        def entry():
            return rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))

        for _ in range(30):
            d = rng.randint(1, 5)
            p = [entry() for _ in range(d + 1)]
            q = [entry() for _ in range(d + 1)]
            minors = tuple(
                det([[p[i - 1], q[i - 1]], [p[j - 1], q[j - 1]]])
                for i, j in lex_index(d + 1, 2).tuples()
            )
            coords = wedge([p, q], d).coords
            assert coords == minors
            ints = wedge([[int(7 * x) for x in p], [int(7 * x) for x in q]], d).coords
            assert ints == tuple(49 * x for x in minors)
            assert all(type(x) is int for x in ints)

    def test_dependent_set_is_zero(self):
        rng = random.Random(55)
        for _ in range(20):
            d = rng.randint(2, 5)
            k = rng.randint(2, d + 1)
            vecs = [rand_vec(rng, d + 1) for _ in range(k - 1)]
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in vecs]
            dep = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(d + 1)]
            assert not any(wedge(vecs + [dep], d).coords)


class TestHodgeStar:
    def test_d3_star_coordinates(self):
        q = Extensor(3, 2, tuple(Fraction(x) for x in (12, 13, 14, 23, 24, 34)))
        assert hodge_star(q).coords == (34, -24, 23, 14, -13, 12)

    def test_basis_element(self):
        w = wedge([[1, 0, 0, 0], [0, 1, 0, 0]], 3)
        assert hodge_star(w).coords == (0, 0, 0, 0, 0, 1)

    def test_involution_on_grade2_d3(self):
        for pos in range(6):
            coords = [Fraction(0)] * 6
            coords[pos] = Fraction(1)
            x = Extensor(3, 2, tuple(coords))
            assert hodge_star(hodge_star(x)).coords == x.coords

    def test_isometry_grade2_d3(self):
        idx = lex_index(4, 2)
        for i in range(len(idx)):
            for j in range(len(idx)):
                x = Extensor(3, 2, tuple(Fraction(int(t == i)) for t in range(6)))
                y = Extensor(3, 2, tuple(Fraction(int(t == j)) for t in range(6)))
                assert dot(hodge_star(x), hodge_star(y)) == dot(x, y)


class TestStarTable:
    """``hodge_star`` and ``cap_product`` read one signed permutation per
    (n, k); every basis vector's image under it is pinned against
    ``oracles.hodge_star_by_inversions`` for n = 2..13 and every grade."""

    @pytest.mark.parametrize("n", range(2, 14))
    def test_star_of_each_basis_vector(self, n):
        for k in range(n + 1):
            size = comb(n, k)
            # the star permutes coordinates with signs, so with distinct
            # coordinates each coordinate of the image names the basis
            # vector it comes from and the sign that vector takes
            x = Extensor(n - 1, k, tuple(range(1, size + 1)))
            star = hodge_star_by_inversions(n, k, x.coords)
            assert hodge_star(x).coords == star
            y = Extensor(n - 1, n - k, tuple(range(2, 2 * size + 1, 2)))
            assert cap_product(x, y) == sum(a * b for a, b in zip(star, y.coords))
            if size <= 70:
                for pos in range(size):
                    e = tuple(int(i == pos) for i in range(size))
                    assert hodge_star(Extensor(n - 1, k, e)).coords == (
                        hodge_star_by_inversions(n, k, e)
                    )


class TestCapProduct:
    def test_d3_pairing_expansion(self):
        p = Extensor(3, 2, tuple(Fraction(x) for x in (2, 3, 5, 7, 11, 13)))
        q = Extensor(3, 2, tuple(Fraction(x) for x in (17, 19, 23, 29, 31, 37)))
        expected = 2 * 37 - 3 * 31 + 5 * 29 + 7 * 23 - 11 * 19 + 13 * 17
        assert cap_product(p, q) == expected

    def test_shared_vector_vanishes(self):
        a, b, c = [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]
        assert cap_product(wedge([a, b], 3), wedge([a, c], 3)) == 0

    def test_determinant_oracle(self):
        vecs = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]
        p = wedge(vecs[:2], 3)
        q = wedge(vecs[2:], 3)
        oracle = det(list(map(list, zip(*vecs))))  # columns are the defining vectors
        assert cap_product(p, q) == oracle

    def test_determinant_oracle_random(self):
        rng = random.Random(7)
        for _ in range(30):
            d = rng.randint(2, 4)
            k = rng.randint(1, d)
            ps = [rand_vec(rng, d + 1) for _ in range(k)]
            qs = [rand_vec(rng, d + 1) for _ in range(d + 1 - k)]
            p = wedge(ps, d)
            q = wedge(qs, d)
            oracle = det(list(map(list, zip(*(ps + qs)))))
            assert cap_product(p, q) == oracle

    def test_star_pairing_identity_d3(self):
        rng = random.Random(8)
        for _ in range(10):
            ps = [rand_vec(rng, 4) for _ in range(2)]
            qs = [rand_vec(rng, 4) for _ in range(2)]
            p, q = wedge(ps, 3), wedge(qs, 3)
            assert cap_product(p, q) == dot(p, hodge_star(q))

    def test_grade_mismatch(self):
        p = wedge([[1, 0, 0, 1]], 3)
        with pytest.raises(InputError):
            cap_product(p, p)


def induced(a: SquareMatrix) -> SquareMatrix:
    """The grade-2 compound of ``a`` as a matrix."""
    return SquareMatrix.from_rows(compound(a.rows))


class TestInducedRep:
    """The action induced on the grade-2 exterior power: ``compound``."""

    def test_mirror_diagonal(self):
        a = SquareMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        assert diagonal(induced(a)) == (1, -1, 1, -1, 1, -1)

    def test_halfturn_diagonal(self):
        a = SquareMatrix.from_rows(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        assert diagonal(induced(a)) == (-1, -1, 1, 1, -1, -1)

    def test_identity(self):
        assert induced(identity(4)) == identity(6)

    def test_compatible_with_wedge(self):
        rng = random.Random(3)
        for _ in range(10):
            a = SquareMatrix.from_rows([rand_vec(rng, 4) for _ in range(4)])
            p, q = rand_vec(rng, 4), rand_vec(rng, 4)
            lhs = induced(a).apply(wedge([p, q], 3).coords)
            rhs = wedge([a.apply(p), a.apply(q)], 3).coords
            assert tuple(lhs) == rhs

    def test_homomorphism_and_transpose(self):
        rng = random.Random(4)
        for _ in range(10):
            a = SquareMatrix.from_rows([rand_vec(rng, 4) for _ in range(4)])
            b = SquareMatrix.from_rows([rand_vec(rng, 4) for _ in range(4)])
            assert induced(a @ b) == induced(a) @ induced(b)
            assert induced(a.transpose()) == induced(a).transpose()

    def test_orthogonal_stays_orthogonal(self):
        a = SquareMatrix.from_rows(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert a.transpose() @ a == identity(4)
        assert induced(a).transpose() @ induced(a) == identity(6)


def leibniz(m) -> Fraction:
    """Determinant as the signed sum over all permutations."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def rand_square(rng, n):
    """Entries 0 (often, so pivots are missing and rows swap), ints and
    Fractions; a third of the matrices get a row that is a combination of
    two others, so they are singular."""
    def entry():
        rational = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.choice((0, 0, rng.randint(-9, 9), rational))

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if n >= 3 and rng.random() < 1 / 3:
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-3, 3)
        m[rng.randrange(n)] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


class TestDet:
    """``det`` reads ``linalg.echelon``: the sign of its row swaps times its
    last pivot over the multipliers that cleared denominators."""

    def test_against_leibniz(self):
        rng = random.Random(31)
        singular = 0
        for _ in range(300):
            m = rand_square(rng, rng.randint(0, 4))
            value = det(m)
            assert type(value) is Fraction
            assert value == leibniz(m)
            singular += value == 0
        assert singular > 20

    def test_row_swaps(self):
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert det([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]) == 1
        m = [[0, 2, 3], [4, 5, 6], [7, 8, 10]]
        assert det(m) == leibniz(m) == -5

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[0, 0], [0, 0]]) == 0
        assert det([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
        assert det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0  # no pivot in column 0

    def test_product_rule(self):
        rng = random.Random(32)
        for _ in range(60):
            n = rng.randint(1, 5)
            a, b = rand_square(rng, n), rand_square(rng, n)
            ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
            assert det(ab) == det(a) * det(b)

    def test_shape(self):
        assert det([]) == 1
        with pytest.raises(InputError):
            det([[1, 2], [3]])
        with pytest.raises(InputError):
            det([[1, 2, 3], [4, 5, 6]])


class TestInducedRepMinors:
    def test_grade_two_entries_are_the_minors(self):
        """The direct 2 x 2 minors equal ``det`` of each minor, for int and
        Fraction entries alike."""
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(2, 5)
            a = rand_square(rng, n)
            idx = lex_index(n, 2)
            for r, (i1, i2) in zip(compound(a), idx.tuples()):
                for x, (j1, j2) in zip(r, idx.tuples()):
                    minor = [[a[i - 1][j - 1] for j in (j1, j2)] for i in (i1, i2)]
                    assert x == det(minor)
