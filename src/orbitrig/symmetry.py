"""Abelian point groups, their characters, and the representations they
induce on screw space (grade-2 coordinates).

Groups are products Z/k_1 x ... x Z/k_l written additively; an element is an
integer tuple reduced componentwise, checked where it enters (``contains``,
``GainGraph.validate_gains``) or built by the group; nothing here reduces it
again, and ``canon`` is only for arithmetic that leaves it unreduced.  The
trivial group is the empty product ``AbelianGroup(())``.  Characters are
labeled by group elements.  A character j of order m takes values in the
powers of zeta_m; it is real (values +-1) when m <= 2.  A value is kept
exactly, as its exponent a for zeta_m^a (``character_power``).  The exact
constructions here handle every character over Q through its realification
(the prime-field block ranks of ``rigidity`` send zeta_m to a root of unity
mod p instead): Q(zeta_m) has the basis 1, zeta_m, ..., zeta_m^(phi(m)-1), and
multiplication by zeta_m^a is the integer matrix C_m^a, C_m the companion
matrix of the cyclotomic polynomial Phi_m (C = [+-1] for a real character).
Screw images are kept as integers over a common denominator (``tau_hat2_int``,
``_twisted_int``), and the trace average, fixed screws and kernel proof read
only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, gcd, lcm
from typing import Mapping, Sequence

from .algebra import (
    SquareMatrix,
    _integer_image,
    block_diag_one,
    compound2,
    induced_rep,
    kron,
    lex_index,
)
from .errors import ConsistencyError, InputError, RepresentationError, UnsupportedGroupError
from .linalg import _cleared, nullspace_exact, rank_certified

Element = tuple[int, ...]
MAX_D = 12  # the largest d taken: the work grows like d^4 (screw space is C(d+1, 2))


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
        return lcm(*(k // gcd(x, k) for x, k in zip(a, self.orders)))

    def generators(self) -> list[Element]:
        l = len(self.orders)
        return [tuple(1 if t == s else 0 for t in range(l)) for s in range(l)]

    def is_two_group(self) -> bool:
        return all(k == 2 for k in self.orders)


def character_power(group: AbelianGroup, j: Element, i: Element) -> int:
    """The exponent a, 0 <= a < m, with value zeta_m^a of the character
    labeled by j at the element i, m the order of j: the value is
    exp(2 pi i sum_t j_t i_t / k_t), and each j_t m / k_t is an integer.
    The value is -1 exactly when 2a = m."""
    m = group.element_order(j)
    return sum(x * y * m // k for x, y, k in zip(j, i, group.orders)) % m


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
    homomorphism property is verified on every element times every
    generator; the group is finite.

    The instance also caches the exterior-power images per (g, k), and what
    the module functions derive from it: per g the screw image as integer
    terms over a common denominator; per character label j the integer and
    rational twisted screw images per (j, g), the fixed-screw dimension,
    basis and kernel proof, and the signs of ``induced_labeling``; and the
    outcome of ``require_combinatorial``.  Cached entries are shared safely.
    """

    def __init__(
        self,
        group: AbelianGroup,
        d: int,
        images: Mapping[Element, SquareMatrix],
        integer_images: Mapping[Element, tuple[int, SquareMatrix]] | None = None,
    ):
        self.group = group
        self.d = d
        self.images = dict(images)
        self._hat_k: dict[tuple[Element, int], SquareMatrix] = {}
        self._twisted: dict[tuple[Element, Element], SquareMatrix] = {}
        self._twisted_int: dict[tuple[Element, Element], tuple[int, SquareMatrix]] = {}
        self._trivial_dim: dict[Element, int] = {}
        self._fixed: dict[Element, tuple[tuple[Fraction, ...], ...]] = {}
        self._proven_dim: dict[Element, int] = {}
        self._hat2_int: dict[Element, tuple[int, tuple]] = {}
        self._signs: dict[Element, dict[Element, tuple[int, ...]]] = {}
        self._validate(integer_images)

    @classmethod
    def from_generators(
        cls, group: AbelianGroup, d: int, generator_images: Sequence[SquareMatrix]
    ) -> "PointRepresentation":
        if d > MAX_D:  # checked before any image is built
            raise RepresentationError(f"d = {d} is above the supported limit MAX_D = {MAX_D}")
        gens = group.generators()
        if len(generator_images) != len(gens):
            raise RepresentationError(
                f"expected {len(gens)} generator images, got {len(generator_images)}"
            )
        # as in ``_validate``: the last non-rational generator's image comes first
        for g, m in reversed(list(zip(gens, generator_images))):
            _require_rational(g, m)
        # an image is one generator image times the image of the element
        # with its last nonzero coordinate decreased by one, which comes
        # earlier in the lexicographic order of elements(); the products are
        # taken on the integer images (D, D M) of ``_integer_image``, and
        # each product is divided by the gcd of D and its entries, which
        # leaves D the least common denominator, as ``_integer_image`` has it
        factors = [_integer_image(m) for m in generator_images]
        images = {group.identity: SquareMatrix.identity(d)}
        scaled = {group.identity: _integer_image(images[group.identity])}
        for elem in group.elements()[1:]:
            t = max(s for s, x in enumerate(elem) if x)
            (da, na), (db, nb) = scaled[elem[:t] + (elem[t] - 1,) + elem[t + 1 :]], factors[t]
            den, n = da * db, (na @ nb).rows
            f = gcd(den, *(x for r in n for x in r))
            den, n = den // f, tuple(tuple(x // f for x in r) for r in n)
            scaled[elem] = den, SquareMatrix(n)
            images[elem] = SquareMatrix(tuple(tuple(Fraction(x, den) for x in r) for r in n))
        return cls(group, d, images, scaled)

    @classmethod
    def trivial(cls, d: int) -> "PointRepresentation":
        group = AbelianGroup(())
        return cls(group, d, {(): SquareMatrix.identity(d)})

    def _validate(
        self, integer_images: Mapping[Element, tuple[int, SquareMatrix]] | None
    ) -> None:
        elems = self.group.elements()
        if set(self.images) != set(elems):
            raise RepresentationError("images must be given for every group element")
        for g in elems:
            m = self.images[g]
            if m.n != self.d:
                raise RepresentationError(f"image of {g} is {m.n}x{m.n}, expected {self.d}x{self.d}")
            _require_rational(g, m)
        # each image M as (D, N), N = D M an integer matrix and D the least
        # common denominator (kept as ``integer_images``; ``from_generators``
        # passes the ones it built), so that the products below are integer
        if integer_images is None:
            integer_images = {g: _integer_image(m) for g, m in self.images.items()}
        scaled = self.integer_images = dict(integer_images)
        gens = sorted(self.group.generators())  # in element order
        for g in gens:
            den, n = scaled[g]
            # N N^T = D^2 I exactly when M is orthogonal
            square = (n @ n.transpose()).rows
            if any(
                x != (den * den if i == j else 0)
                for i, row in enumerate(square)
                for j, x in enumerate(row)
            ):
                raise RepresentationError(f"image of {g} is not orthogonal")
        # With I at the identity and invertible generator images, the
        # products below give G_s G_t = G_t G_s and G_t^(k_t) = I, and make
        # every image a product of generator images: a homomorphism.
        # M_(a+b) = M_a M_b reads D_a D_b N_(a+b) = D_(a+b) N_a N_b.
        e = self.group.identity
        if self.images[e] != SquareMatrix.identity(self.d):
            raise RepresentationError(f"images violate homomorphism at {e}+{e}")
        for a in elems:
            da, na = scaled[a]
            for b in gens:
                db, nb = scaled[b]
                dc, nc = scaled[self.group.add(a, b)]
                if any(
                    da * db * x != dc * y
                    for row, prow in zip(nc.rows, (na @ nb).rows)
                    for x, y in zip(row, prow)
                ):
                    raise RepresentationError(f"images violate homomorphism at {a}+{b}")

    def tau(self, g: Element) -> SquareMatrix:
        return self.images[g]

    def tau_hat(self, g: Element) -> SquareMatrix:
        return block_diag_one(self.tau(g))

    def tau_hat2(self, g: Element) -> SquareMatrix:
        return self.tau_hat_k(g, 2)

    def tau_hat_k(self, g: Element, k: int) -> SquareMatrix:
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


def _require_rational(g: Element, m: SquareMatrix) -> None:
    if not all(isinstance(x, (int, Fraction)) for row in m.rows for x in row):
        raise RepresentationError(f"image of {g} has entries that are not rational")


def tau_hat2_j(rep: PointRepresentation, j: Element, g: Element) -> SquareMatrix:
    """The screw-space representation twisted by the character labeled j,
    realified over Q: the grade-2 induced matrix of the augmented image,
    Kronecker times C_m^(-a), the matrix of rho_j(g)^{-1} on Q(zeta_m) for
    the character value rho_j(g) = zeta_m^a.  Row and column (t, c) sit at
    t * phi + c.  For a real character this is rho_j(g) times the induced
    matrix.  A rational view of ``_twisted_int``, cached on ``rep`` per (j, g)."""
    m = rep._twisted.get((j, g))
    if m is None:
        den, n = _twisted_int(rep, j, g)
        rows = tuple(tuple(Fraction(x, den) for x in row) for row in n.rows)
        m = rep._twisted[j, g] = SquareMatrix(rows)
    return m


def _twisted_int(rep: PointRepresentation, j: Element, g: Element) -> tuple[int, SquareMatrix]:
    """``tau_hat2_j(rep, j, g)`` as (D, N), N = D tau_hat2_j: the dense screw
    image of ``tau_hat2_int(rep, g)``, integer over its denominator D,
    Kronecker times C_m^(-a).  Cached on ``rep`` per (j, g)."""
    out = rep._twisted_int.get((j, g))
    if out is None:
        den, terms = tau_hat2_int(rep, g)
        rows = []
        for ts in terms:
            row = [0] * len(terms)
            for c, x in ts:
                row[c] = x
            rows.append(tuple(row))
        order = rep.group.element_order(j)
        power = root_of_unity_matrix(order, -character_power(rep.group, j, g) % order)
        out = rep._twisted_int[j, g] = den, kron(SquareMatrix(tuple(rows)), power)
    return out


def tau_hat2_int(
    rep: PointRepresentation, g: Element
) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The screw image tau_hat2(g) as (D, terms): D the least common
    denominator of its entries, and per row of D tau_hat2(g) the
    (column, integer) pairs of its nonzero entries.  With (E, N) the
    integer image of tau(g), E^2 tau_hat2(g) is the integer compound of N
    augmented by a trailing E, and dividing it and E^2 by the gcd of them
    all leaves D.  Cached on ``rep`` per g."""
    if g not in rep._hat2_int:
        den, n = rep.integer_images[g]
        compound = compound2([list(r) + [0] for r in n.rows] + [[0] * rep.d + [den]])
        f = gcd(den * den, *(x for r in compound for x in r))
        rep._hat2_int[g] = den * den // f, tuple(
            tuple((c, x // f) for c, x in enumerate(r) if x) for r in compound
        )
    return rep._hat2_int[g]


def trivial_motion_dim(rep: PointRepresentation, j: Element) -> int:
    """Dimension over Q(zeta_m) of the fixed subspace of the twisted screw
    representation: the average over the group of the traces of the
    realified images, divided by phi(m).  A realified image is a Kronecker
    product, so its trace is the product of the factors' traces.  Always a
    nonnegative integer for a valid representation.  Cached on ``rep`` per
    j."""
    if j in rep._trivial_dim:
        return rep._trivial_dim[j]
    elems = rep.group.elements()
    m = rep.group.element_order(j)
    scale = lcm(*(tau_hat2_int(rep, g)[0] for g in elems))
    total = 0  # scale times the sum of the traces, from the integer terms
    for g in elems:
        den, terms = tau_hat2_int(rep, g)
        c = root_of_unity_matrix(m, -character_power(rep.group, j, g) % m).trace()
        total += scale // den * c * sum(x for t, ts in enumerate(terms) for s, x in ts if s == t)
    n = scale * len(elems) * irrep_degree(rep.group, j)
    if total % n or total < 0:
        avg = Fraction(total, n)
        raise RepresentationError(f"trace average {avg} is not a nonnegative integer")
    rep._trivial_dim[j] = dim = total // n
    return dim


def fixed_subspace_basis(rep: PointRepresentation, j: Element) -> list[tuple[Fraction, ...]]:
    """Basis of the realified screws s with A^T s = s for every twisted image
    A, i.e. the space of j-symmetric trivial motions on the quotient (see
    ``proven_trivial_dim``).  For a real character A^T is the image of the
    inverse, so these are the screws fixed by every image.  The twisted
    images form a representation, so a screw fixed by the images of the
    generators is fixed by every image: only their A^T - I are stacked,
    which leaves the kernel, and so its basis, as it is.  Each A^T - I is
    stacked as the integer rows N^T - D I of ``_twisted_int``.  Length
    equals ``phi(m) * trivial_motion_dim``.  Cached on ``rep`` per j; each
    call returns a new list."""
    if j in rep._fixed:
        return list(rep._fixed[j])
    size = comb(rep.d + 1, 2) * irrep_degree(rep.group, j)
    rows: list[tuple[int, ...]] = []
    for g in rep.group.generators():
        den, n = _twisted_int(rep, j, g)
        for r, col in enumerate(n.transpose().rows):
            rows.append(tuple(x - den if c == r else x for c, x in enumerate(col)))
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
    bounds its rank.  With s cleared of denominators and (D, N) the integer
    image of ``_twisted_int``, A^T s = s is checked as N^T s = D s.  Raises
    ``ConsistencyError`` when the check fails.  Cached on ``rep`` per j."""
    if j in rep._proven_dim:
        return rep._proven_dim[j]
    basis = fixed_subspace_basis(rep, j)
    cleared = [_cleared(s)[1] for s in basis]
    if rank_certified(cleared, len(basis)) != len(basis):
        raise ConsistencyError(f"fixed screws of irrep {j} are linearly dependent")
    for g in rep.group.elements():
        den, n = _twisted_int(rep, j, g)
        for s, si in zip(basis, cleared):
            # N^T s as the sum of x times row r of N over the support of s
            support = [(n.rows[r], x) for r, x in enumerate(si) if x]
            image = [sum(row[c] * x for row, x in support) for c in range(len(si))]
            if image != [den * x for x in si]:
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
    of ``tau_hat2_j(rep, g, gamma)``, read from the diagonal of
    ``tau_hat2_int(rep, gamma)`` without building it.  The signs of every
    pair are cached on ``rep`` per g."""
    rep.require_combinatorial()
    signs = rep._signs.get(g)
    if signs is None:
        signs = rep._signs[g] = {}
        for gamma in rep.group.elements():
            sign = (-1) ** character_power(rep.group, g, gamma)
            signs[gamma] = tuple(sign * row[0][1] for row in tau_hat2_int(rep, gamma)[1])
    pos = lex_index(rep.d + 1, 2).position(pair)
    return {gamma: s[pos] for gamma, s in signs.items()}


def screw_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The C(d+1,2) coordinate pairs (i, j), 1 <= i < j <= d+1, in lex order."""
    return lex_index(d + 1, 2).tuples()
