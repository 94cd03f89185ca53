"""Abelian point groups, their characters, and the representations they
induce on screw space (grade-2 coordinates).

Groups are products Z/k_1 x ... x Z/k_l written additively; an element is an
integer tuple reduced componentwise.  The trivial group is the empty product
``AbelianGroup(())``.  Characters are labeled by group elements.  A
character j of order m takes values in the powers of zeta_m; it is real
(values +-1) when m <= 2.  The exact constructions here (twisted images,
fixed screws and their kernel proof) handle every character over Q through
its realification; the prime-field block ranks of ``rigidity`` instead
send zeta_m to a root of unity mod p.  Q(zeta_m) is a Q-vector space of
dimension phi(m) with basis 1, zeta_m, ..., zeta_m^(phi(m)-1), and
multiplication by zeta_m^a is the integer matrix C_m^a, C_m the companion
matrix of the cyclotomic polynomial Phi_m.  Real characters have phi = 1
and C = [+-1], so their twisted images are the plain scaled ones.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, gcd, lcm
from typing import Mapping, Sequence

from .algebra import Scalar, SquareMatrix, block_diag_one, induced_rep, kron, lex_index
from .errors import ConsistencyError, InputError, RepresentationError, UnsupportedGroupError
from .linalg import nullspace_exact, rank_certified, residue

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
        return lcm(*(k // gcd(x, k) for x, k in zip(self.canon(a), self.orders)))

    def generators(self) -> list[Element]:
        l = len(self.orders)
        return [tuple(1 if t == s else 0 for t in range(l)) for s in range(l)]

    def is_two_group(self) -> bool:
        return all(k == 2 for k in self.orders)


def _phase(group: AbelianGroup, j: Element, i: Element) -> Fraction:
    """The character labeled by j at the element i is exp(2 pi i phase)."""
    phase = Fraction(0)
    for jt, it, kt in zip(group.canon(j), group.canon(i), group.orders):
        phase += Fraction(jt * it, kt)
    return phase % 1


def irrep_value(group: AbelianGroup, j: Element, i: Element) -> Fraction | complex:
    """Value of the character labeled by j at the element i, for display and
    for telling +-1 apart: the product of the per-factor roots of unity.
    Returns an exact Fraction(+-1) whenever the accumulated phase is 0 or
    1/2, complex otherwise.  No rank or dimension is computed from the
    complex value; see ``tau_hat2_j``."""
    phase = _phase(group, j, i)
    if phase == 0:
        return Fraction(1)
    if phase == Fraction(1, 2):
        return Fraction(-1)
    return cmath.exp(2j * cmath.pi * float(phase))


def character_power(group: AbelianGroup, j: Element, i: Element) -> int:
    """The exponent a, 0 <= a < m, with value zeta_m^a of the character
    labeled by j at the element i, m the order of j: the phase of
    ``_phase`` times m, where each j_t m / k_t is an integer."""
    m = group.element_order(j)
    return sum(x * y * m // k for x, y, k in zip(group.canon(j), group.canon(i), group.orders)) % m


def irrep_is_real(group: AbelianGroup, j: Element) -> bool:
    """True when every value of the character labeled by j is +-1."""
    return irrep_degree(group, j) == 1


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_m, constant term first:
    x^m - 1 divided exactly by Phi_e for every proper divisor e of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            div = cyclotomic(e)
            quot = [0] * (len(poly) - len(div) + 1)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = c = poly[k + len(div) - 1]
                for i, x in enumerate(div):
                    poly[k + i] -= c * x
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def root_of_unity_matrix(m: int, a: int) -> SquareMatrix:
    """Multiplication by zeta_m^a on Q(zeta_m) in the basis 1, zeta_m, ...,
    zeta_m^(phi-1), i.e. C_m^a: column c holds the coefficients of
    x^(a+c) reduced modulo Phi_m."""
    phi = cyclotomic(m)
    power = [1] + [0] * (len(phi) - 2)
    cols = []
    for t in range(a % m + len(power)):
        if t >= a % m:
            cols.append(power)
        top = power[-1]  # x * power, with x^deg replaced by x^deg - Phi_m
        power = [p - top * c for p, c in zip([0] + power[:-1], phi)]
    return SquareMatrix.from_rows(list(zip(*cols)))


def irrep_degree(group: AbelianGroup, j: Element) -> int:
    """phi(m) for the order m of the character labeled j: the size of the
    rational block that stands for one complex entry of its orbit matrices.
    1 exactly for real characters."""
    return len(cyclotomic(group.element_order(j))) - 1


def galois_representative(group: AbelianGroup, j: Element) -> Element:
    """Least label of the Galois orbit {c j : gcd(c, m) = 1} of j, m its
    order.  The orbit matrices of c j are those of j with zeta_m replaced by
    zeta_m^c, a field automorphism of Q(zeta_m), so the members of an orbit
    share rank and fixed-screw dimension."""
    m = group.element_order(j)
    return min(group.canon([c * x for x in j]) for c in range(1, m + 1) if gcd(c, m) == 1)


class PointRepresentation:
    """An orthogonal action of an Abelian group on d-space by rational
    matrices, given by the images of the factor generators.

    Images of all elements are derived from the generators and the
    homomorphism property is verified exhaustively; the group is finite.

    The instance also caches the exterior-power images per (g, k), and what
    the module functions derive from it: per character label j the twisted
    screw images per (j, g), the fixed-screw dimension, the fixed-screw
    basis and its kernel proof; per (g, p) the screw image reduced mod p;
    and the outcome of ``require_combinatorial``.  Cached entries are
    immutable, so they are shared safely.
    """

    def __init__(self, group: AbelianGroup, d: int, images: Mapping[Element, SquareMatrix]):
        self.group = group
        self.d = d
        self.images = dict(images)
        self._hat_k: dict[tuple[Element, int], SquareMatrix] = {}
        self._twisted: dict[tuple[Element, Element], SquareMatrix] = {}
        self._trivial_dim: dict[Element, int] = {}
        self._fixed: dict[Element, tuple[tuple[Scalar, ...], ...]] = {}
        self._proven_dim: dict[Element, int] = {}
        self._hat2_mod: dict[tuple[Element, int], tuple | None] = {}
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
            if not all(isinstance(x, (int, Fraction)) for row in m.rows for x in row):
                raise RepresentationError(f"image of {g} has entries that are not rational")
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
        return self.tau_hat_k(g, 2)

    def tau_hat_k(self, g: Element, k: int) -> SquareMatrix:
        g = self.group.canon(g)
        key = (g, k)
        if key not in self._hat_k:
            self._hat_k[key] = induced_rep(self.tau_hat(g), k)
        return self._hat_k[key]

    def is_faithful(self) -> bool:
        ident = SquareMatrix.identity(self.d)
        return all(self.images[g] != ident for g in self.group.elements() if g != self.group.identity)

    def is_diagonal_pm_one(self) -> bool:
        return all(m.is_diagonal_pm_one() for m in self.images.values())

    def is_combinatorial(self) -> bool:
        """Whether the signed-matroid path applies (see
        ``require_combinatorial``)."""
        return self._combinatorial_error is None

    def require_combinatorial(self) -> None:
        """Guard for the signed-matroid path: two-group, diagonal +-1 images,
        faithful.  Checked once; later calls repeat the outcome, raising a
        new exception of the same type and message."""
        err = self._combinatorial_error
        if err is not None:
            raise type(err)(*err.args)

    @cached_property
    def _combinatorial_error(self) -> InputError | None:
        if not self.group.is_two_group():
            return UnsupportedGroupError(
                "combinatorial analysis is available only for products of Z/2Z"
            )
        if not self.is_diagonal_pm_one():
            return UnsupportedGroupError(
                "combinatorial analysis needs diagonal +-1 generator images; "
                "conjugate the representation to diagonal form first (ranks are preserved)"
            )
        if not self.is_faithful():
            return RepresentationError("representation must be faithful")
        return None


def tau_hat2_j(rep: PointRepresentation, j: Element, g: Element) -> SquareMatrix:
    """The screw-space representation twisted by the character labeled j,
    realified over Q: the grade-2 induced matrix of the augmented image,
    Kronecker times C_m^(-a), the matrix of rho_j(g)^{-1} on Q(zeta_m) for
    the character value rho_j(g) = zeta_m^a.  Row and column (t, c) sit at
    t * phi + c.  For a real character this is rho_j(g) times the induced
    matrix.  Cached on ``rep`` per (j, g)."""
    key = (tuple(j), tuple(g))
    m = rep._twisted.get(key)
    if m is None:
        order = rep.group.element_order(j)
        a = -character_power(rep.group, j, g) % order
        m = rep._twisted[key] = kron(rep.tau_hat2(g), root_of_unity_matrix(order, a))
    return m


def tau_hat2_mod(
    rep: PointRepresentation, g: Element, p: int
) -> tuple[tuple[tuple[int, int], ...], ...] | None:
    """The screw image tau_hat2(g) reduced mod the prime p, as one tuple
    of (column, residue) pairs per row over its entries nonzero mod p; None
    when p divides a denominator.  Cached on ``rep`` per (g, p)."""
    key = (rep.group.canon(g), p)
    if key not in rep._hat2_mod:
        rows = []
        for row in rep.tau_hat2(g).rows:
            terms = [(c, residue(x, p)) for c, x in enumerate(row) if x]
            if any(r is None for _, r in terms):
                rows = None
                break
            rows.append(tuple((c, r) for c, r in terms if r))
        rep._hat2_mod[key] = None if rows is None else tuple(rows)
    return rep._hat2_mod[key]


def trivial_motion_dim(rep: PointRepresentation, j: Element) -> int:
    """Dimension over Q(zeta_m) of the fixed subspace of the twisted screw
    representation: the average over the group of the traces of the
    realified images, divided by phi(m).  A realified image is a Kronecker
    product, so its trace is the product of the factors' traces.  Always a
    nonnegative integer for a valid representation.  Cached on ``rep`` per
    j."""
    j = rep.group.canon(j)
    if j in rep._trivial_dim:
        return rep._trivial_dim[j]
    elems = rep.group.elements()
    m = rep.group.element_order(j)
    total = sum(
        rep.tau_hat2(g).trace()
        * root_of_unity_matrix(m, -character_power(rep.group, j, g) % m).trace()
        for g in elems
    )
    avg = Fraction(total, len(elems) * irrep_degree(rep.group, j))
    if avg.denominator != 1 or avg < 0:
        raise RepresentationError(f"trace average {avg} is not a nonnegative integer")
    rep._trivial_dim[j] = dim = int(avg)
    return dim


def fixed_subspace_basis(rep: PointRepresentation, j: Element) -> list[tuple[Fraction, ...]]:
    """Basis of the realified screws s with A^T s = s for every twisted image
    A, i.e. the space of j-symmetric trivial motions on the quotient (see
    ``proven_trivial_dim``).  For a real character A^T is the image of the
    inverse, so these are the screws fixed by every image.  Length equals
    ``phi(m) * trivial_motion_dim``.  Cached on ``rep`` per j; each call
    returns a new list."""
    j = rep.group.canon(j)
    if j in rep._fixed:
        return list(rep._fixed[j])
    size = comb(rep.d + 1, 2) * irrep_degree(rep.group, j)
    ident = SquareMatrix.identity(size)
    rows: list[list[Scalar]] = []
    for g in rep.group.elements():
        if g != rep.group.identity:
            rows.extend(list(r) for r in (tau_hat2_j(rep, j, g).transpose() - ident).rows)
    basis = nullspace_exact([r for r in rows if any(r)], size)
    dim = trivial_motion_dim(rep, j) * irrep_degree(rep.group, j)
    if len(basis) != dim:
        raise RepresentationError(
            f"fixed subspace dimension {len(basis)} != trace average {dim}"
        )
    rep._fixed[j] = tuple(basis)
    return list(basis)


def proven_trivial_dim(rep: PointRepresentation, j: Element) -> int:
    """Number of fixed screws of character j over Q(zeta_m), after proving
    in exact arithmetic that A^T s = s for every realified fixed screw s and
    every twisted image A, and that those screws are independent.  A
    realified orbit-matrix row of character j is a realified bar vec paired
    with the tail screw and A vec paired with the head screw, so it pairs a
    screw s, assigned to every vertex, with vec . (s - A^T s); the fixed
    screws thus give phi(m) times this many independent kernel vectors of
    every realified orbit matrix of j, and its column count minus that
    bounds its rank.  Raises ``ConsistencyError`` when the check fails.
    Cached on ``rep`` per j."""
    j = rep.group.canon(j)
    if j in rep._proven_dim:
        return rep._proven_dim[j]
    basis = fixed_subspace_basis(rep, j)
    if rank_certified(basis, len(basis)) != len(basis):
        raise ConsistencyError(f"fixed screws of irrep {j} are linearly dependent")
    for g in rep.group.elements():
        rows = tau_hat2_j(rep, j, g).rows
        for s in basis:
            # A^T s as the sum of x times row r of A over the support of s
            support = [(rows[r], x) for r, x in enumerate(s) if x]
            if [sum(row[c] * x for row, x in support) for c in range(len(s))] != list(s):
                raise ConsistencyError(
                    f"screw {tuple(map(str, s))} is not fixed by the transposed "
                    f"image of {g} in irrep {j}"
                )
    rep._proven_dim[j] = dim = len(basis) // irrep_degree(rep.group, j)
    return dim


def induced_labeling(rep: PointRepresentation, g: Element, pair: tuple[int, int]) -> dict[Element, int]:
    """The one-dimensional +-1 representation carried by a coordinate pair
    (i, j) of screw space under the twisted representation, as a map from
    group elements to signs.  Requires a two-group acting by diagonal +-1
    matrices.  The induced image of diag(s_1, ..., s_d, 1) is diagonal with
    entry s_i s_j at the pair (i, j), so the sign under gamma is
    s_i(gamma) s_j(gamma) rho_g(gamma), with s_(d+1) = 1: the diagonal entry
    of ``tau_hat2_j(rep, g, gamma)``, read without building it."""
    rep.require_combinatorial()
    i, j = pair
    out: dict[Element, int] = {}
    for gamma in rep.group.elements():
        s = rep.tau(gamma).diagonal() + (1,)
        out[gamma] = int(s[i - 1] * s[j - 1]) * (-1) ** character_power(rep.group, g, gamma)
    return out


def screw_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The C(d+1,2) coordinate pairs (i, j), 1 <= i < j <= d+1, in lex order."""
    return lex_index(d + 1, 2).tuples()
