from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm

import pytest

from orbitrig import symmetry
from orbitrig.algebra import SquareMatrix, _integer_image, lex_index
from orbitrig.cli import parse_framework
from orbitrig.ensemble import random_diagonal_rep
from orbitrig.linalg import kernel_vectors
from orbitrig.errors import ConsistencyError, RepresentationError, UnsupportedGroupError
from orbitrig.symmetry import (
    AbelianGroup,
    PointRepresentation,
    character_power,
    fixed_subspace_basis,
    galois_representative,
    induced_signs,
    irrep_degree,
    proven_trivial_dim,
    root_of_unity_matrix,
    screw_pairs,
    tau_hat_int,
    tau_hat2_j,
    trivial_motion_dim,
)
import oracles
from conftest import (
    FIXTURE_DIR,
    diagonal,
    halfturn_rep,
    identity,
    mirror_rep,
    reflection9_rep,
    rotation9_rep,
    two_group,
)


def labeling(rep, g, pair):
    """The signs of ``induced_signs`` at the position of ``pair``."""
    pos = screw_pairs(rep.d).index(pair)
    return {gamma: s[pos] for gamma, s in induced_signs(rep, g).items()}


class TestAbelianGroup:
    def test_trivial_group(self):
        g = AbelianGroup(())
        assert g.order() == 1
        assert g.elements() == [()]
        assert g.identity == ()

    def test_arithmetic(self):
        g = AbelianGroup((2, 3))
        assert g.order() == 6
        assert g.add((1, 2), (1, 2)) == (0, 1)
        assert g.inverse((1, 2)) == (1, 1)
        assert g.element_order((0, 1)) == 3
        assert g.generators() == [(1, 0), (0, 1)]

    def test_two_group_flag(self):
        assert two_group(2).is_two_group()
        assert not AbelianGroup((2, 4)).is_two_group()


class TestIrrepValue:
    """Character values are exact: the value of character j at i is
    zeta_m^a for a = ``character_power``, m the order of j."""

    def test_z2(self):
        g = AbelianGroup((2,))
        assert character_power(g, (1,), (1,)) == 1  # -1 = zeta_2
        assert character_power(g, (0,), (1,)) == 0  # order 1: the value 1
        assert g.element_order((0,)) == 1

    def test_z2xz2(self):
        g = two_group(2)
        assert g.element_order((1, 1)) == 2
        assert character_power(g, (1, 1), (1, 0)) == 1
        assert character_power(g, (1, 1), (1, 1)) == 0

    def test_z4_complex(self):
        g = AbelianGroup((4,))
        # the quarter turn: zeta_4 = i, power 1 of order 4
        assert g.element_order((1,)) == 4
        assert character_power(g, (1,), (1,)) == 1
        assert character_power(g, (1,), (2,)) == 2  # i^2 = -1
        assert character_power(g, (1,), (3,)) == 3
        assert character_power(g, (2,), (1,)) == 1 and g.element_order((2,)) == 2
        assert irrep_degree(g, (1,)) != 1
        assert irrep_degree(g, (2,)) == 1

    def test_multiplicative(self):
        """Values multiply: their exponents add mod the order of j."""
        for g in (AbelianGroup((2, 2)), AbelianGroup((4,))):
            for j in g.elements():
                m = g.element_order(j)
                for a in g.elements():
                    for b in g.elements():
                        lhs = character_power(g, j, g.add(a, b))
                        assert lhs == (character_power(g, j, a) + character_power(g, j, b)) % m


class TestRealification:
    def test_root_of_unity_matrices(self):
        """C_m^a multiplies like zeta_m^a, and C_m has order exactly m."""
        for m in range(1, 13):
            c = root_of_unity_matrix(m, 1)
            power = identity(c.n)
            for a in range(1, m + 1):
                power = power @ c
                assert power == root_of_unity_matrix(m, a % m)
                assert (power == identity(c.n)) == (a == m)

    def test_degrees_and_galois_orbits(self):
        g = AbelianGroup((8,))
        assert [irrep_degree(g, (j,)) for j in range(8)] == [1, 4, 2, 4, 1, 4, 2, 4]
        assert [galois_representative(g, (j,))[0] for j in range(8)] == [0, 1, 2, 1, 4, 1, 2, 1]
        assert galois_representative(AbelianGroup((2, 4)), (1, 3)) == (1, 1)


class TestPointRepresentation:
    def test_validates_homomorphism(self):
        g = AbelianGroup((2,))
        bad = SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # order 3
        with pytest.raises(RepresentationError):
            PointRepresentation.from_generators(g, 3, [bad])

    def test_rejects_noncommuting_generators(self):
        # two coordinate swaps: each has order 2, their product has order 3
        swap_xy = SquareMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        swap_yz = SquareMatrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        with pytest.raises(RepresentationError, match="violate homomorphism"):
            PointRepresentation.from_generators(AbelianGroup((2, 2)), 3, [swap_xy, swap_yz])

    def test_rejects_generator_images_of_the_wrong_shape(self):
        square = SquareMatrix.from_rows([[1, 0], [0, -1]])
        with pytest.raises(RepresentationError, match=r"image of \(1,\) is 2x2, expected 3x3"):
            PointRepresentation.from_generators(AbelianGroup((2,)), 3, [square])

    def test_checks_images_with_denominators(self):
        """The validation scales each image to integers.  A reflection with
        denominators 9 passes; a rotation by the angle with cosine 3/5 is
        orthogonal but of infinite order; squeezing its z axis breaks
        orthogonality."""
        assert oracles.image(reflection9_rep(), (1,)).rows[0][0] == Fraction(7, 9)
        cos, sin = Fraction(3, 5), Fraction(4, 5)
        rotation = [[cos, -sin, 0], [sin, cos, 0], [0, 0, 1]]
        with pytest.raises(RepresentationError, match="violate homomorphism"):
            PointRepresentation.from_generators(two_group(1), 3, [SquareMatrix.from_rows(rotation)])
        squeezed = rotation[:2] + [[0, 0, Fraction(1, 2)]]
        with pytest.raises(RepresentationError, match="not orthogonal"):
            PointRepresentation.from_generators(two_group(1), 3, [SquareMatrix.from_rows(squeezed)])

    def test_rejects_non_rational_images(self):
        quarter = SquareMatrix.from_rows([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(RepresentationError, match="not rational"):
            PointRepresentation.from_generators(AbelianGroup((4,)), 3, [quarter])

    def test_images_are_ordered_generator_products(self, monkeypatch):
        """Each image is the product of the generators' powers in generator
        order: the l orthogonality checks and one walk of |G| l products,
        which builds each image the first time it reaches it and checks it
        every later time."""
        mirror = SquareMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        quarter = SquareMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        group = AbelianGroup((2, 4))
        products = []
        matmul = SquareMatrix.__matmul__

        def counting(a, b):
            products.append(1)
            return matmul(a, b)

        monkeypatch.setattr(SquareMatrix, "__matmul__", counting)
        rep = PointRepresentation.from_generators(group, 3, [mirror, quarter])
        assert len(products) == group.order() * 2 + 2
        monkeypatch.undo()
        for a, b in group.elements():
            power = identity(3)
            for m in [mirror] * a + [quarter] * b:
                power = power @ m
            assert oracles.image(rep, (a, b)) == power

    def test_faithful(self):
        rep = mirror_rep()
        assert rep.is_faithful()
        g = AbelianGroup((2,))
        ident = identity(3)
        unfaithful = PointRepresentation.from_generators(g, 3, [ident])
        assert not unfaithful.is_faithful()

    def test_tau_hat2_mirror(self, cs_rep):
        den, terms = tau_hat_int(cs_rep, (1,))
        assert den == 1
        assert tuple(dict(ts).get(t, 0) for t, ts in enumerate(terms)) == (1, -1, 1, -1, 1, -1)

    def test_tau_hat2_j_values(self, cs_rep, c2_rep):
        assert diagonal(tau_hat2_j(cs_rep, (1,), (1,))) == (-1, 1, -1, 1, -1, 1)
        assert diagonal(tau_hat2_j(c2_rep, (0,), (1,))) == (-1, -1, 1, 1, -1, -1)
        assert diagonal(tau_hat2_j(c2_rep, (1,), (1,))) == (1, 1, -1, -1, 1, 1)

    def test_tau_hat2_j_identity(self, cs_rep):
        assert tau_hat2_j(cs_rep, (1,), (0,)) == identity(6)

    def test_tau_hat2_j_homomorphism(self):
        for rep in (mirror_rep(), halfturn_rep(), _z2z2_rep()):
            group = rep.group
            for j in group.elements():
                for a in group.elements():
                    for b in group.elements():
                        lhs = tau_hat2_j(rep, j, group.add(a, b))
                        rhs = tau_hat2_j(rep, j, a) @ tau_hat2_j(rep, j, b)
                        assert lhs == rhs


def _z2z2_rep() -> PointRepresentation:
    return PointRepresentation.from_generators(
        two_group(2),
        3,
        [
            SquareMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
            SquareMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        ],
    )


class TestTrivialMotionDim:
    def test_mirror_values(self, cs_rep):
        assert trivial_motion_dim(cs_rep, (0,)) == 3
        assert trivial_motion_dim(cs_rep, (1,)) == 3

    def test_halfturn_values(self, c2_rep):
        assert trivial_motion_dim(c2_rep, (0,)) == 2
        assert trivial_motion_dim(c2_rep, (1,)) == 4

    def test_trivial_group(self):
        rep = PointRepresentation.trivial(3)
        assert trivial_motion_dim(rep, ()) == comb(4, 2)

    def test_partition_of_screw_space(self):
        for rep in (mirror_rep(), halfturn_rep(), _z2z2_rep()):
            total = sum(trivial_motion_dim(rep, j) for j in rep.group.elements())
            assert total == comb(rep.d + 1, 2)


class TestFixedSubspace:
    def test_trivial_group_full_basis(self):
        rep = PointRepresentation.trivial(3)
        basis = fixed_subspace_basis(rep, ())
        assert len(basis) == 6
        assert basis == [tuple(Fraction(int(i == t)) for i in range(6)) for t in range(6)]

    def test_mirror_fixed_positions(self, cs_rep):
        basis = fixed_subspace_basis(cs_rep, (0,))
        assert len(basis) == 3
        support = sorted({i for vec in basis for i, x in enumerate(vec) if x != 0})
        assert support == [0, 2, 4]  # pairs (1,2), (1,4), (2,4)

    def test_halfturn_antisymmetric_dim(self, c2_rep):
        basis = fixed_subspace_basis(c2_rep, (1,))
        assert len(basis) == 4
        m = tau_hat2_j(c2_rep, (1,), (1,))
        for vec in basis:
            assert m.apply(vec) == tuple(vec)

    def test_dim_matches_count(self):
        for rep in (mirror_rep(), halfturn_rep(), _z2z2_rep()):
            for j in rep.group.elements():
                assert len(fixed_subspace_basis(rep, j)) == trivial_motion_dim(rep, j)


class TestFixedSubspaceFromGenerators:
    """``fixed_subspace_basis`` stacks A^T - I for the generators only; the
    kernel, and so the basis, is that of the system over every element."""

    @staticmethod
    def _all_elements_basis(rep, j):
        size = comb(rep.d + 1, 2) * irrep_degree(rep.group, j)
        rows = [
            [x - int(c == t) for c, x in enumerate(r)]
            for g in rep.group.elements()
            if g != rep.group.identity
            for t, r in enumerate(tau_hat2_j(rep, j, g).transpose().rows)
        ]
        return list(kernel_vectors([r for r in rows if any(r)], size))

    @staticmethod
    def _reps():
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            yield parse_framework(json.loads(path.read_text()))["rep"]
        quarter = SquareMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        yield PointRepresentation.from_generators(AbelianGroup((4,)), 3, [quarter])
        rng = random.Random(51)
        for orders in ((2,), (2, 2), (2, 2, 2)):
            for d in (3, 4):
                for _ in range(3):
                    yield random_diagonal_rep(rng, orders, d)

    def test_equals_the_all_element_system(self):
        count = 0
        for rep in self._reps():
            for j in rep.group.elements():
                assert fixed_subspace_basis(rep, j) == self._all_elements_basis(rep, j)
                count += 1
        assert count > 90


class TestInducedLabeling:
    def test_halfturn_sym_block(self, c2_rep):
        negatives = [
            pair
            for pair in screw_pairs(3)
            if labeling(c2_rep, (0,), pair)[(1,)] == -1
        ]
        assert negatives == [(1, 2), (1, 3), (2, 4), (3, 4)]

    def test_halfturn_anti_block(self, c2_rep):
        negatives = [
            pair
            for pair in screw_pairs(3)
            if labeling(c2_rep, (1,), pair)[(1,)] == -1
        ]
        assert negatives == [(1, 4), (2, 3)]

    def test_identity_always_positive(self, cs_rep):
        for g in cs_rep.group.elements():
            for pair in screw_pairs(3):
                assert labeling(cs_rep, g, pair)[(0,)] == 1

    def test_values_multiply(self):
        rep = _z2z2_rep()
        group = rep.group
        for g in group.elements():
            for pair in screw_pairs(3):
                lab = labeling(rep, g, pair)
                for a in group.elements():
                    for b in group.elements():
                        assert lab[group.add(a, b)] == lab[a] * lab[b]

    def test_rejects_non_two_group(self):
        g = AbelianGroup((4,))
        rot = SquareMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        rep = PointRepresentation.from_generators(g, 3, [rot])
        with pytest.raises(UnsupportedGroupError):
            labeling(rep, (0,), (1, 2))

    def test_equals_diagonal_of_twisted_image(self):
        """The sign read from the generators' diagonals is the diagonal
        entry of the twisted screw image, on every fixture representation
        that admits the combinatorial path and on random faithful diagonal
        +-1 representations of (2), (2,2) and (2,2,2) in d = 2..4."""
        rng = random.Random(12)
        reps = [r for r in _fixture_reps() if r.group.is_two_group()]
        for d in (2, 3, 4):
            for orders in ((2,), (2, 2), (2, 2, 2)):
                if len(orders) <= d:
                    reps += [random_diagonal_rep(rng, orders, d) for _ in range(3)]
        assert len(reps) >= 30
        for rep in reps:
            index = lex_index(rep.d + 1, 2)
            for g in rep.group.elements():
                for pair in screw_pairs(rep.d):
                    pos = index.position(pair)
                    assert labeling(rep, g, pair) == {
                        gamma: tau_hat2_j(rep, g, gamma).rows[pos][pos]
                        for gamma in rep.group.elements()
                    }


class TestRequireCombinatorial:
    def test_checks_run_once(self, monkeypatch):
        rep = _z2z2_rep()
        calls = []
        check = PointRepresentation.is_diagonal_pm_one

        def counting(self):
            calls.append(self)
            return check(self)

        monkeypatch.setattr(PointRepresentation, "is_diagonal_pm_one", counting)
        for _ in range(5):
            rep.require_combinatorial()
        assert calls == [rep]

    @pytest.mark.parametrize(
        "orders, generator, error, message",
        [
            ((4,), [[0, -1, 0], [1, 0, 0], [0, 0, 1]], UnsupportedGroupError, "products of Z/2Z"),
            ((2,), [[0, 1, 0], [1, 0, 0], [0, 0, 1]], UnsupportedGroupError, "diagonal"),
            ((2,), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], RepresentationError, "faithful"),
        ],
        ids=["not-two-group", "not-diagonal", "not-faithful"],
    )
    def test_every_call_raises_the_same_error(self, orders, generator, error, message):
        rep = PointRepresentation.from_generators(
            AbelianGroup(orders), 3, [SquareMatrix.from_rows(generator)]
        )
        raised = []
        for _ in range(3):
            with pytest.raises(error, match=message) as info:
                rep.require_combinatorial()
            assert type(info.value) is error
            raised.append(info.value)
        assert len({str(e) for e in raised}) == 1
        assert len({id(e) for e in raised}) == 3

    @pytest.mark.parametrize(
        "orders, generator, expected",
        [
            ((2,), [[1, 0, 0], [0, -1, 0], [0, 0, -1]], True),
            ((4,), [[0, -1, 0], [1, 0, 0], [0, 0, 1]], False),
            ((2,), [[0, 1, 0], [1, 0, 0], [0, 0, 1]], False),
            ((2,), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], False),
        ],
        ids=["half-turn", "not-two-group", "not-diagonal", "not-faithful"],
    )
    def test_is_combinatorial_answers_the_same_rule(self, orders, generator, expected):
        rep = PointRepresentation.from_generators(
            AbelianGroup(orders), 3, [SquareMatrix.from_rows(generator)]
        )
        assert rep.is_combinatorial() is expected
        if expected:
            rep.require_combinatorial()


def _diagonal(signs) -> SquareMatrix:
    return SquareMatrix.from_rows(
        [[s if i == j else 0 for j, s in enumerate(signs)] for i in range(len(signs))]
    )


class TestInternRepresentation:
    """``from_generators`` shares one instance per group orders, d and
    integer generator images; each test starts from an empty table (see
    ``conftest.empty_intern_table``)."""

    def test_equal_integer_images_give_one_object(self):
        group = AbelianGroup((2, 2))
        spelled = [
            [_diagonal((1, -1, -1)), _diagonal((-1, 1, -1))],
            [_diagonal((Fraction(1), Fraction(-1), Fraction(-1))),
             _diagonal((Fraction(-1), 1, Fraction(-1)))],
        ]
        first, second = (PointRepresentation.from_generators(group, 3, gens) for gens in spelled)
        assert first is second
        assert len(symmetry._interned) == 1

    def test_different_images_or_d_give_different_objects(self):
        group = AbelianGroup((2,))
        mirror = PointRepresentation.from_generators(group, 3, [_diagonal((1, 1, -1))])
        halfturn = PointRepresentation.from_generators(group, 3, [_diagonal((1, -1, -1))])
        mirror4 = PointRepresentation.from_generators(group, 4, [_diagonal((1, 1, -1, 1))])
        assert len({id(mirror), id(halfturn), id(mirror4)}) == 3
        assert PointRepresentation.from_generators(group, 3, [_diagonal((1, 1, -1))]) is mirror
        assert trivial_motion_dim(mirror, (1,)) == 3 and trivial_motion_dim(halfturn, (1,)) == 4

    def test_float_images_are_refused_after_their_integer_twin(self):
        group = AbelianGroup((4,))
        quarter = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        rep = PointRepresentation.from_generators(group, 3, [SquareMatrix.from_rows(quarter)])
        floats = SquareMatrix.from_rows([[float(x) for x in row] for row in quarter])
        with pytest.raises(RepresentationError, match="not rational"):
            PointRepresentation.from_generators(group, 3, [floats])
        assert list(symmetry._interned.values()) == [rep]

    def test_failed_construction_is_not_kept(self):
        swap = SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # order 3
        for _ in range(2):
            with pytest.raises(RepresentationError, match="violate homomorphism"):
                PointRepresentation.from_generators(AbelianGroup((2,)), 3, [swap])
        assert symmetry._interned == {}

    def test_table_never_exceeds_its_cap(self):
        group = AbelianGroup((2,))
        patterns = list(product((1, -1), repeat=9))[: symmetry.INTERN_CAP + 20]
        reps = []
        for signs in patterns:
            reps.append(PointRepresentation.from_generators(group, 9, [_diagonal(signs)]))
            assert len(symmetry._interned) <= symmetry.INTERN_CAP
        assert len(symmetry._interned) == symmetry.INTERN_CAP
        # the oldest entries went first; the newest are still shared
        assert PointRepresentation.from_generators(group, 9, [_diagonal(patterns[-1])]) is reps[-1]
        assert PointRepresentation.from_generators(group, 9, [_diagonal(patterns[0])]) is not reps[0]


def _quarter_turn_rep() -> PointRepresentation:
    rot = SquareMatrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    return PointRepresentation.from_generators(AbelianGroup((4,)), 3, [rot])


def _fixture_reps() -> list[PointRepresentation]:
    docs = sorted(FIXTURE_DIR.glob("*.json"))
    assert docs
    return [parse_framework(json.loads(p.read_text()))["rep"] for p in docs] + [_quarter_turn_rep()]


class TestCaches:
    def test_cached_values_equal_uncached(self):
        for rep in _fixture_reps():

            def fresh() -> PointRepresentation:
                return _fresh(rep)

            elems = rep.group.elements()
            for j in elems:
                for g in elems:
                    first = tau_hat2_j(rep, j, g)
                    assert tau_hat2_j(rep, j, g) is first
                    assert first == tau_hat2_j(fresh(), j, g)
                dim = trivial_motion_dim(rep, j)
                basis = fixed_subspace_basis(rep, j)
                for _ in range(2):
                    assert trivial_motion_dim(rep, j) == dim == trivial_motion_dim(fresh(), j)
                    assert fixed_subspace_basis(rep, j) == basis == fixed_subspace_basis(fresh(), j)

    def test_cached_basis_is_not_shared_mutable_state(self, cs_rep):
        basis = fixed_subspace_basis(cs_rep, (0,))
        basis.clear()
        assert len(fixed_subspace_basis(cs_rep, (0,))) == 3

    def test_representations_do_not_share_entries(self):
        cs, c2 = mirror_rep(), halfturn_rep()
        assert cs.group == c2.group
        for rep in (cs, c2, cs):
            for j in rep.group.elements():
                trivial_motion_dim(rep, j)
                fixed_subspace_basis(rep, j)
        assert diagonal(tau_hat2_j(cs, (1,), (1,))) == (-1, 1, -1, 1, -1, 1)
        assert diagonal(tau_hat2_j(c2, (1,), (1,))) == (1, 1, -1, -1, 1, 1)
        assert [trivial_motion_dim(cs, j) for j in ((0,), (1,))] == [3, 3]
        assert [trivial_motion_dim(c2, j) for j in ((0,), (1,))] == [2, 4]
        assert fixed_subspace_basis(cs, (1,)) != fixed_subspace_basis(c2, (1,))


class TestReadoutsWithoutKron:
    def test_trivial_motion_dim_is_the_trace_average(self):
        """The product of the factors' traces equals the trace of the
        realified (Kronecker) image."""
        for rep in _fixture_reps() + [_complex_order_rep(3), _complex_order_rep(6)]:
            elems = rep.group.elements()
            for j in elems:
                total = sum(tau_hat2_j(rep, j, g).trace() for g in elems)
                assert trivial_motion_dim(rep, j) * len(elems) * irrep_degree(rep.group, j) == total

    def test_reduced_images(self):
        """``tau_hat_int`` gives the least common denominator D of
        tau_hat2 and the nonzero entries of D tau_hat2 row by row; a
        reflection with denominator 9 keeps D = 9."""
        rep9 = reflection9_rep()
        for rep in _fixture_reps() + [rep9]:
            for g in rep.group.elements():
                den, terms = tau_hat_int(rep, g)
                dense = [[den * x for x in row] for row in oracles.tau_hat_k(rep, g, 2).rows]
                assert all(isinstance(x, int) for row in terms for _, x in row)
                assert terms == tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in dense)
                assert all(x.denominator == 1 for row in dense for x in row)
                assert tau_hat_int(rep, g) is tau_hat_int(rep, g)
        assert tau_hat_int(rep9, (1,))[0] == 9
        assert tau_hat_int(rep9, (0,))[0] == 1

    def test_integer_images_are_least(self):
        """The constructor builds each integer image (D, D M) as a product
        of generator images divided by its gcd: they equal
        ``_integer_image`` of the image, D the least common denominator.
        The quarter turn about (1, 2, 2) / 3 multiplies denominators 9 into
        81, which the gcd takes back to 9.  ``tau_hat_int``, from the
        integer compound, is reduced alike."""
        quarter = rotation9_rep()
        for rep in _fixture_reps() + [quarter, reflection9_rep()]:
            for g in rep.group.elements():
                assert rep.integer_images[g] == _integer_image(oracles.image(rep, g))
                den, terms = tau_hat_int(rep, g)
                assert gcd(den, *(x for row in terms for _, x in row)) == 1
        assert [quarter.integer_images[g][0] for g in quarter.group.elements()] == [1, 9, 9, 9]


def _complex_order_rep(m: int) -> PointRepresentation:
    """Z/m acting by the cyclic coordinate permutation, negated for m = 6."""
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    sign = -1 if m == 6 else 1
    return PointRepresentation.from_generators(
        AbelianGroup((m,)), 3, [SquareMatrix.from_rows([[sign * x for x in r] for r in cycle])]
    )


def _screw_image_reps() -> list[PointRepresentation]:
    """Diagonal (2), (2,2) and (2,2,2), the quarter turn, the Z/3 and Z/6
    cycles, a reflection and a quarter turn with denominator 9, and a
    diagonal (2,2) in d = 4."""
    rng = random.Random(83)
    reps = [random_diagonal_rep(rng, orders, 3) for orders in ((2,), (2, 2), (2, 2, 2))]
    reps += [_quarter_turn_rep(), _complex_order_rep(3), _complex_order_rep(6)]
    return reps + [reflection9_rep(), rotation9_rep(), random_diagonal_rep(rng, (2, 2), 4)]


def _fresh(rep: PointRepresentation) -> PointRepresentation:
    """A copy of ``rep`` that shares no cache with it."""
    generators = [rep.integer_images[g] for g in rep.group.generators()]
    return PointRepresentation(rep.group, rep.d, generators)


class TestIntegerScrewImages:
    """The integer screw images against the Fraction-matrix functions they
    replaced (``oracles``), each run on its own copy of the representation
    so that no cache is shared."""

    def test_equal_to_the_fraction_versions(self):
        for rep in _screw_image_reps():
            old = _fresh(rep)
            for j in rep.group.elements():
                for g in rep.group.elements():
                    assert tau_hat2_j(rep, j, g) == oracles.tau_hat2_j(old, j, g)
                assert fixed_subspace_basis(rep, j) == oracles.fixed_subspace_basis(old, j)
                assert trivial_motion_dim(rep, j) == oracles.trivial_motion_dim(old, j)
                assert proven_trivial_dim(rep, j) == oracles.proven_trivial_dim(old, j)

    def test_screw_image_is_the_cleared_compound(self):
        """``tau_hat_int`` is the Fraction grade-2 compound cleared by its
        least common denominator."""
        dens = set()
        for rep in _screw_image_reps():
            for g in rep.group.elements():
                compound = oracles.tau_hat_k(rep, g, 2).rows
                den = lcm(*(x.denominator for row in compound for x in row))
                terms = tuple(
                    tuple((c, int(den * x)) for c, x in enumerate(row) if x) for row in compound
                )
                assert tau_hat_int(rep, g) == (den, terms)
                dens.add(den)
        assert dens == {1, 9}

    def test_images_with_denominators_are_generator_products(self):
        rep = rotation9_rep()
        power = identity(3)
        for g in rep.group.elements():
            assert oracles.image(rep, g) == power
            assert all(isinstance(x, int) for row in rep.integer_images[g][1].rows for x in row)
            power = power @ oracles.image(rep, (1,))

    def test_unfixed_screw_is_refused_with_a_denominator(self, monkeypatch):
        """With D = 9 the proof reads N^T s = D s: the fixed screws pass it
        and a screw that is not fixed is refused."""
        rep = rotation9_rep()
        assert tau_hat_int(rep, (1,))[0] == 9
        for j in rep.group.elements():
            assert proven_trivial_dim(rep, j) == trivial_motion_dim(rep, j)
        image = oracles.tau_hat2_j(_fresh(rep), (0,), (1,)).transpose()
        screw = tuple(Fraction(int(t == 0)) for t in range(6))
        assert image.apply(screw) != screw
        monkeypatch.setattr(symmetry, "fixed_subspace_basis", lambda rep, j: [screw])
        with pytest.raises(ConsistencyError, match="is not fixed"):
            proven_trivial_dim(_fresh(rep), (0,))
