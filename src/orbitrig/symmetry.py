"""Abelian point groups, their characters, and the representations they
induce on screw space (grade-2 coordinates).

Groups are products Z/k_1 x ... x Z/k_l written additively; an element is an
integer tuple reduced componentwise.  The trivial group is the empty product
``AbelianGroup(())``.  Characters are labeled by group elements; for
two-groups (every k_t = 2) every character value is an exact +-1 and the
whole pipeline stays in rational arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Mapping, Sequence

from .algebra import Scalar, SquareMatrix, block_diag_one, induced_rep, is_exact, lex_index
from .errors import ConsistencyError, InputError, RepresentationError, UnsupportedGroupError
from .linalg import nullspace_exact, rank_certified

Element = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    """Z/k_1 x ... x Z/k_l with componentwise addition."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any(k < 2 for k in self.orders):
            raise InputError("cyclic factor orders must be >= 2")

    @property
    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def order(self) -> int:
        n = 1
        for k in self.orders:
            n *= k
        return n

    def elements(self) -> list[Element]:
        return [tuple(e) for e in product(*(range(k) for k in self.orders))]

    def contains(self, a: Sequence[int]) -> bool:
        return len(a) == len(self.orders) and all(0 <= x < k for x, k in zip(a, self.orders))

    def canon(self, a: Sequence[int]) -> Element:
        if len(a) != len(self.orders):
            raise InputError(f"element {tuple(a)} has wrong arity for orders {self.orders}")
        return tuple(x % k for x, k in zip(a, self.orders))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % k for x, y, k in zip(a, b, self.orders))

    def inverse(self, a: Element) -> Element:
        return tuple((-x) % k for x, k in zip(a, self.orders))

    def element_order(self, a: Element) -> int:
        cur = self.canon(a)
        n = 1
        while cur != self.identity:
            cur = self.add(cur, a)
            n += 1
        return n

    def generators(self) -> list[Element]:
        l = len(self.orders)
        return [tuple(1 if t == s else 0 for t in range(l)) for s in range(l)]

    def is_two_group(self) -> bool:
        return all(k == 2 for k in self.orders)


def irrep_value(group: AbelianGroup, j: Element, i: Element) -> Scalar:
    """Value of the character labeled by j at the element i: the product of
    the per-factor roots of unity.  Returns an exact Fraction(+-1) whenever
    the accumulated phase is 0 or 1/2, complex otherwise."""
    j = group.canon(j)
    i = group.canon(i)
    phase = Fraction(0)
    for jt, it, kt in zip(j, i, group.orders):
        phase += Fraction(jt * it, kt)
    phase %= 1
    if phase == 0:
        return Fraction(1)
    if phase == Fraction(1, 2):
        return Fraction(-1)
    return cmath.exp(2j * cmath.pi * float(phase))


def irrep_is_real(group: AbelianGroup, j: Element) -> bool:
    """True when every value of the character labeled by j is +-1."""
    return all((2 * jt) % kt == 0 for jt, kt in zip(group.canon(j), group.orders))


class PointRepresentation:
    """An orthogonal action of an Abelian group on d-space, given by the
    images of the factor generators.

    Images of all elements are derived from the generators and the
    homomorphism property is verified exhaustively; the group is finite.

    The instance also caches what the module functions derive from it per
    character label j: twisted screw images per (j, g), the fixed-screw
    dimension, the fixed-screw basis and its kernel proof.  Images are
    immutable ``SquareMatrix`` values, so cached entries are shared safely.
    """

    def __init__(self, group: AbelianGroup, d: int, images: Mapping[Element, SquareMatrix]):
        self.group = group
        self.d = d
        self.images = dict(images)
        self._hat2: dict[Element, SquareMatrix] = {}
        self._hat_k: dict[tuple[Element, int], SquareMatrix] = {}
        self._twisted: dict[tuple[Element, Element], SquareMatrix] = {}
        self._trivial_dim: dict[Element, int] = {}
        self._fixed: dict[Element, tuple[tuple[Scalar, ...], ...]] = {}
        self._proven_dim: dict[Element, int] = {}
        self._validate()

    @classmethod
    def from_generators(
        cls, group: AbelianGroup, d: int, generator_images: Sequence[SquareMatrix]
    ) -> "PointRepresentation":
        gens = group.generators()
        if len(generator_images) != len(gens):
            raise RepresentationError(
                f"expected {len(gens)} generator images, got {len(generator_images)}"
            )
        images: dict[Element, SquareMatrix] = {}
        for elem in group.elements():
            m = SquareMatrix.identity(d)
            for t, mult in enumerate(elem):
                for _ in range(mult):
                    m = m @ generator_images[t]
            images[elem] = m
        return cls(group, d, images)

    @classmethod
    def trivial(cls, d: int) -> "PointRepresentation":
        group = AbelianGroup(())
        return cls(group, d, {(): SquareMatrix.identity(d)})

    def _validate(self) -> None:
        elems = self.group.elements()
        if set(self.images) != set(elems):
            raise RepresentationError("images must be given for every group element")
        for g in elems:
            m = self.images[g]
            if m.n != self.d:
                raise RepresentationError(f"image of {g} is {m.n}x{m.n}, expected {self.d}x{self.d}")
            if not m.is_orthogonal():
                raise RepresentationError(f"image of {g} is not orthogonal")
        for a in elems:
            for b in elems:
                if self.images[self.group.add(a, b)] != self.images[a] @ self.images[b]:
                    raise RepresentationError(f"images violate homomorphism at {a}+{b}")

    def tau(self, g: Element) -> SquareMatrix:
        return self.images[self.group.canon(g)]

    def tau_hat(self, g: Element) -> SquareMatrix:
        return block_diag_one(self.tau(g))

    def tau_hat2(self, g: Element) -> SquareMatrix:
        g = self.group.canon(g)
        if g not in self._hat2:
            self._hat2[g] = induced_rep(self.tau_hat(g), 2)
        return self._hat2[g]

    def tau_hat_k(self, g: Element, k: int) -> SquareMatrix:
        g = self.group.canon(g)
        key = (g, k)
        if key not in self._hat_k:
            self._hat_k[key] = induced_rep(self.tau_hat(g), k)
        return self._hat_k[key]

    def is_exact(self) -> bool:
        """True when every image has int/Fraction entries only."""
        return all(is_exact(x) for m in self.images.values() for row in m.rows for x in row)

    def is_faithful(self) -> bool:
        ident = SquareMatrix.identity(self.d)
        return all(self.images[g] != ident for g in self.group.elements() if g != self.group.identity)

    def is_diagonal_pm_one(self) -> bool:
        return all(m.is_diagonal_pm_one() for m in self.images.values())

    def require_combinatorial(self) -> None:
        """Guard for the signed-matroid path: two-group, diagonal +-1 images,
        faithful."""
        if not self.group.is_two_group():
            raise UnsupportedGroupError(
                "combinatorial analysis is available only for products of Z/2Z"
            )
        if not self.is_diagonal_pm_one():
            raise UnsupportedGroupError(
                "combinatorial analysis needs diagonal +-1 generator images; "
                "conjugate the representation to diagonal form first (ranks are preserved)"
            )
        if not self.is_faithful():
            raise RepresentationError("representation must be faithful")


def tau_hat2_j(rep: PointRepresentation, j: Element, g: Element) -> SquareMatrix:
    """The screw-space representation twisted by the character labeled j:
    rho_j(g)^{-1} times the grade-2 induced matrix of the augmented image.
    Cached on ``rep`` per (j, g)."""
    key = (tuple(j), tuple(g))
    m = rep._twisted.get(key)
    if m is None:
        rho = irrep_value(rep.group, j, g)
        rho_inv = rho if is_exact(rho) else 1 / rho
        m = rep._twisted[key] = rep.tau_hat2(g).scale(rho_inv)
    return m


def trivial_motion_dim(rep: PointRepresentation, j: Element) -> int:
    """Dimension of the fixed subspace of the twisted screw representation:
    the average over the group of the traces.  Always a nonnegative integer
    for a valid representation.  Cached on ``rep`` per j."""
    j = rep.group.canon(j)
    if j in rep._trivial_dim:
        return rep._trivial_dim[j]
    elems = rep.group.elements()
    total: Scalar = sum(tau_hat2_j(rep, j, g).trace() for g in elems)
    n = len(elems)
    if is_exact(total):
        avg = Fraction(total, n) if isinstance(total, int) else total / n
        if avg.denominator != 1 or avg < 0:
            raise RepresentationError(f"trace average {avg} is not a nonnegative integer")
        dim = int(avg)
    else:
        avg_c = complex(total) / n
        nearest = round(avg_c.real)
        if abs(avg_c - nearest) > 1e-9 or nearest < 0:
            raise RepresentationError(f"trace average {avg_c} is not a nonnegative integer")
        dim = int(nearest)
    rep._trivial_dim[j] = dim
    return dim


def fixed_subspace_basis(rep: PointRepresentation, j: Element) -> list[tuple[Scalar, ...]]:
    """Basis of the screws fixed by every twisted image, i.e. the space of
    j-symmetric trivial motions on the quotient.  Length equals
    ``trivial_motion_dim``.  Cached on ``rep`` per j; each call returns a
    new list."""
    j = rep.group.canon(j)
    if j in rep._fixed:
        return list(rep._fixed[j])
    b = comb(rep.d + 1, 2)
    rows: list[list[Scalar]] = []
    exact = True
    ident = SquareMatrix.identity(b)
    for g in rep.group.elements():
        if g == rep.group.identity:
            continue
        m = tau_hat2_j(rep, j, g) - ident
        exact = exact and all(is_exact(x) for r in m.rows for x in r)
        rows.extend(list(r) for r in m.rows)
    if not rows:
        basis = [tuple(Fraction(1) if i == t else Fraction(0) for i in range(b)) for t in range(b)]
    elif exact:
        basis = nullspace_exact([r for r in rows if any(r)], b)
    else:
        import numpy as np

        arr = np.array([[complex(x) for x in r] for r in rows], dtype=complex)
        _, s, vh = np.linalg.svd(arr)
        tol = max(arr.shape) * (s[0] if s.size else 0.0) * 2.0 ** -40
        rank = int((s > tol).sum())
        basis = [tuple(vh[r].conj()) for r in range(rank, vh.shape[0])]
    dim = trivial_motion_dim(rep, j)
    if len(basis) != dim:
        raise RepresentationError(
            f"fixed subspace dimension {len(basis)} != trace average {dim}"
        )
    rep._fixed[j] = tuple(basis)
    return list(basis)


def proven_trivial_dim(rep: PointRepresentation, j: Element) -> int:
    """Number of fixed screws of character j, after proving in exact
    arithmetic that A^T s = s for every fixed screw s and every twisted
    image A, and that the screws are independent.  An orbit-matrix row of
    character j pairs a screw s, assigned to every vertex, with
    vec . (s - A^T s); so the fixed screws give that many independent kernel
    vectors of every orbit matrix of j, and its column count minus this
    number bounds its rank.  Needs exact images and a real character.
    Raises ``ConsistencyError`` when the check fails.  Cached on ``rep``
    per j."""
    j = rep.group.canon(j)
    if j in rep._proven_dim:
        return rep._proven_dim[j]
    basis = fixed_subspace_basis(rep, j)
    if rank_certified(basis, len(basis)) != len(basis):
        raise ConsistencyError(f"fixed screws of irrep {j} are linearly dependent")
    b = comb(rep.d + 1, 2)
    for g in rep.group.elements():
        rows = tau_hat2_j(rep, j, g).rows
        for s in basis:
            # A^T s as the sum of x times row r of A over the support of s
            support = [(rows[r], x) for r, x in enumerate(s) if x]
            if [sum(row[c] * x for row, x in support) for c in range(b)] != list(s):
                raise ConsistencyError(
                    f"screw {tuple(map(str, s))} is not fixed by the transposed "
                    f"image of {g} in irrep {j}"
                )
    rep._proven_dim[j] = len(basis)
    return len(basis)


def induced_labeling(rep: PointRepresentation, g: Element, pair: tuple[int, int]) -> dict[Element, int]:
    """The one-dimensional +-1 representation carried by a coordinate pair
    (i, j) of screw space under the twisted representation, as a map from
    group elements to signs.  Requires a two-group acting by diagonal +-1
    matrices."""
    rep.require_combinatorial()
    pos = lex_index(rep.d + 1, 2).position(pair)
    out: dict[Element, int] = {}
    for gamma in rep.group.elements():
        val = tau_hat2_j(rep, g, gamma).entry(pos, pos)
        if val == 1:
            out[gamma] = 1
        elif val == -1:
            out[gamma] = -1
        else:
            raise UnsupportedGroupError(f"non +-1 diagonal value {val} at {pair}")
    return out


def screw_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The C(d+1,2) coordinate pairs (i, j), 1 <= i < j <= d+1, in lex order."""
    return lex_index(d + 1, 2).tuples()
