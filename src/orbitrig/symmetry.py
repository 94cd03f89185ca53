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
(``linalg.rank_certified`` sends zeta_m to a root of unity mod p instead):
Q(zeta_m) has the basis 1, zeta_m, ..., zeta_m^(phi(m)-1), and
multiplication by zeta_m^a is the integer matrix C_m^a, C_m the companion
matrix of the cyclotomic polynomial Phi_m (``linalg.cyclotomic``; C = [+-1]
for a real character).
A representation holds each element's image M only as the integer image
(D, N = D M) over its least common denominator, and its image on screws
(grade 2, the one exterior power taken; a hinge is held starred) only as
the integer compound of that over a common denominator (``tau_hat_int``);
the fixed screws (found, checked and proven by ``fixed_subspace_basis``
alone), lifts and orbit-matrix rows read only those.

A representation depends on its generator images alone, and so does all
that is cached on it.  ``PointRepresentation.from_generators`` builds one
from generator images: it keys a process-wide table on (group orders, d,
the integer images (D, D M) of the generators) and hands back the object
already built for an equal key, so each distinct representation is
validated, and its fixed screws proven, once per process.  The table keeps
the ``INTERN_CAP`` newest entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, gcd, lcm
from typing import Sequence

from .algebra import SquareMatrix, _integer_image, compound, kron, lex_index
from .errors import ConsistencyError, InputError, RepresentationError, UnsupportedGroupError
from .linalg import cyclotomic, kernel_vectors, rank_certified

Element = tuple[int, ...]
MAX_D = 12  # the largest d taken: the work grows like d^4 (screw space is C(d+1, 2))
MAX_ORDER = 2 ** MAX_D  # the largest group order taken, that of (Z/2)^MAX_D: every element is listed
INTERN_CAP = 256  # representations kept by ``from_generators``; the oldest goes first
_interned: dict[tuple, PointRepresentation] = {}  # the table of ``from_generators``, oldest first


@dataclass(frozen=True)
class AbelianGroup:
    """Z/k_1 x ... x Z/k_l with componentwise addition."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any(k < 2 for k in self.orders):
            raise InputError("cyclic factor orders must be >= 2")
        # each factor is at least 2, so more than MAX_D of them exceed MAX_ORDER
        if len(self.orders) > MAX_D or self.order() > MAX_ORDER:
            raise InputError(f"group order is above the supported limit MAX_ORDER = {MAX_ORDER}")

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
    matrices, held as integer images: the image M of each element as
    (D, N), N = D M an integer matrix and D the least common denominator
    of M.  Built from the integer images of the factor generators (see
    ``from_generators``); the group is finite.

    The instance also caches, per g, the integer screw image of
    ``tau_hat_int``, and what the module functions derive from it: per
    character label j the rational twisted screw images of ``tau_hat2_j``
    per (j, g), the proven fixed-screw basis, and the signs of
    ``induced_signs``; and the outcome of ``require_combinatorial``.  The
    dense integer twisted images are not kept: the fixed-screw basis and
    its proof, which read them, run once per character.  Cached entries
    are shared safely, also between the callers of ``from_generators``,
    which hands one instance to every caller with the same integer
    generator images.
    """

    def __init__(
        self, group: AbelianGroup, d: int, generators: Sequence[tuple[int, SquareMatrix]]
    ):
        """``generators`` holds the integer image (D, N) of each factor
        generator, D > 0 and gcd(D, entries of N) = 1, in the order of
        ``group.generators()``.  Each must be d x d with N N^T = D^2 I, that
        is orthogonal; the last that is not is named first.  Then one walk
        over the elements a and generators b builds the image of a + b, the
        first time it is reached, as the product of the images of a and b
        divided by the gcd of its denominator and entries, and checks it
        against that product every later time.  With I at the identity, this
        gives every image as a product of generator images and proves
        G_s G_t = G_t G_s and G_t^(k_t) = I: a homomorphism."""
        self.group = group
        self.d = d
        self._hat: dict[Element, tuple[int, tuple]] = {}
        self._twisted: dict[tuple[Element, Element], SquareMatrix] = {}
        self._fixed: dict[Element, tuple[tuple[int, ...], ...]] = {}
        self._signs: dict[Element, dict[Element, tuple[int, ...]]] = {}
        gens = list(zip(group.generators(), generators, strict=True))
        for g, (den, n) in reversed(gens):
            if n.n != d:
                raise RepresentationError(f"image of {g} is {n.n}x{n.n}, expected {d}x{d}")
            square = enumerate((n @ n.transpose()).rows)
            if any(x != den * den * (i == j) for i, r in square for j, x in enumerate(r)):
                raise RepresentationError(f"image of {g} is not orthogonal")
        ident = SquareMatrix(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))
        images = self.integer_images = {group.identity: (1, ident)}
        for a in group.elements():
            da, na = images[a]
            for b, (db, nb) in gens:
                den, n = da * db, (na @ nb).rows
                f = gcd(den, *(x for r in n for x in r))
                image = den // f, SquareMatrix(tuple(tuple(x // f for x in r) for r in n))
                c = group.add(a, b)
                if images.setdefault(c, image) != image:
                    raise RepresentationError(f"images violate homomorphism at {a}+{b}")

    @classmethod
    def from_generators(
        cls, group: AbelianGroup, d: int, generator_images: Sequence[SquareMatrix]
    ) -> "PointRepresentation":
        """The representation with these generator images, shared per
        process: the instance already built for the same group orders, d and
        integer generator images (D, D M) when there is one, so that what it
        caches is computed once.  The images are checked to be rational,
        the last that is not named first, before the key is taken, since it
        would not tell 0.0 from 0.  A construction that raises is not kept,
        and the table drops its oldest entry beyond ``INTERN_CAP``."""
        if d > MAX_D:  # checked before any image is built
            raise RepresentationError(f"d = {d} is above the supported limit MAX_D = {MAX_D}")
        gens = group.generators()
        if len(generator_images) != len(gens):
            raise RepresentationError(
                f"expected {len(gens)} generator images, got {len(generator_images)}"
            )
        for g, m in reversed(list(zip(gens, generator_images))):
            if not all(isinstance(x, (int, Fraction)) for row in m.rows for x in row):
                raise RepresentationError(f"image of {g} has entries that are not rational")
        key = (group.orders, d, tuple(_integer_image(m) for m in generator_images))
        rep = _interned.get(key)
        if rep is None:
            rep = cls(group, d, key[2])
            if len(_interned) >= INTERN_CAP:
                del _interned[next(iter(_interned))]
            _interned[key] = rep
        return rep

    @classmethod
    def trivial(cls, d: int) -> "PointRepresentation":
        return cls.from_generators(AbelianGroup(()), d, [])

    def is_faithful(self) -> bool:
        """Whether only the identity acts as I, that is has the integer
        image (1, I).  Checked once."""
        return self._faithful

    @cached_property
    def _faithful(self) -> bool:
        e = self.group.identity
        ident = self.integer_images[e]
        return all(m != ident for g, m in self.integer_images.items() if g != e)

    def is_diagonal_pm_one(self) -> bool:
        return all(den == 1 and n.is_diagonal_pm_one() for den, n in self.integer_images.values())

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
    matrix.  A rational view of ``_twisted_int``, cached on ``rep`` per (j, g)."""
    m = rep._twisted.get((j, g))
    if m is None:
        den, n = _twisted_int(rep, j, g)
        rows = tuple(tuple(Fraction(x, den) for x in row) for row in n.rows)
        m = rep._twisted[j, g] = SquareMatrix(rows)
    return m


def _twisted_int(rep: PointRepresentation, j: Element, g: Element) -> tuple[int, SquareMatrix]:
    """``tau_hat2_j(rep, j, g)`` as (D, N), N = D tau_hat2_j: the dense screw
    image of ``tau_hat_int(rep, g)``, integer over its denominator D,
    Kronecker times C_m^(-a).  Built on each call and not kept."""
    den, terms = tau_hat_int(rep, g)
    rows = []
    for ts in terms:
        row = [0] * len(terms)
        for c, x in ts:
            row[c] = x
        rows.append(tuple(row))
    order = rep.group.element_order(j)
    power = root_of_unity_matrix(order, -character_power(rep.group, j, g) % order)
    return den, kron(SquareMatrix(tuple(rows)), power)


def tau_hat_int(
    rep: PointRepresentation, g: Element
) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """The screw image T of g, its image on grade-2 extensors, as (D, terms):
    D the least common denominator of its entries, and per row of D T the
    (column, integer) pairs of its nonzero entries.  With (E, N) the integer
    image of g, E^2 T is the integer ``compound`` of N augmented by a
    trailing E, and dividing it and E^2 by the gcd of them all leaves D.
    Cached on ``rep`` per g."""
    if g not in rep._hat:
        den, n = rep.integer_images[g]
        c = compound([list(r) + [0] for r in n.rows] + [[0] * rep.d + [den]])
        f = gcd(den * den, *(x for r in c for x in r))
        rep._hat[g] = den * den // f, tuple(
            tuple((col, x // f) for col, x in enumerate(r) if x) for r in c
        )
    return rep._hat[g]


def trivial_motion_dim(rep: PointRepresentation, j: Element) -> int:
    """Dimension over Q(zeta_m) of the fixed subspace of the twisted screw
    representation: the number of proven fixed screws of
    ``fixed_subspace_basis`` divided by phi(m)."""
    return len(fixed_subspace_basis(rep, j)) // irrep_degree(rep.group, j)


def _trace_average(rep: PointRepresentation, j: Element) -> int:
    """Dimension over Q(zeta_m) of the fixed subspace of the twisted screw
    representation, counted as the average over the group of the traces of
    the realified images, divided by phi(m).  A realified image is a
    Kronecker product, so its trace is the product of the factors' traces.
    Always a nonnegative integer for a valid representation."""
    elems = rep.group.elements()
    m = rep.group.element_order(j)
    scale = lcm(*(tau_hat_int(rep, g)[0] for g in elems))
    total = 0  # scale times the sum of the traces, from the integer terms
    for g in elems:
        den, terms = tau_hat_int(rep, g)
        c = root_of_unity_matrix(m, -character_power(rep.group, j, g) % m).trace()
        total += scale // den * c * sum(x for t, ts in enumerate(terms) for s, x in ts if s == t)
    n = scale * len(elems) * irrep_degree(rep.group, j)
    if total % n or total < 0:
        avg = Fraction(total, n)
        raise RepresentationError(f"trace average {avg} is not a nonnegative integer")
    return total // n


def fixed_subspace_basis(rep: PointRepresentation, j: Element) -> list[tuple[int, ...]]:
    """Basis of the realified screws s with A^T s = s for every twisted image
    A, i.e. the space of j-symmetric trivial motions on the quotient: the
    one place where they are found, checked and proven.  For a real
    character A^T is the image of the inverse, so these are the screws
    fixed by every image.  The twisted images form a representation, so a
    screw fixed by the images of the generators is fixed by every image:
    only their A^T - I are stacked, as the integer rows N^T - D I of
    ``_twisted_int``, and the screws are the integer vectors of
    ``kernel_vectors``.  Their number is checked against the trace average
    (``RepresentationError``), and then proven in exact arithmetic
    (``ConsistencyError``): the screws are independent, and N^T s = D s
    for every screw s and twisted image A = N / D.  A realified
    orbit-matrix row of character j is a realified bar vec paired with the
    tail screw and A vec paired with the head screw, so it pairs a screw s,
    assigned to every vertex, with vec . (s - A^T s); the fixed screws thus
    are independent kernel vectors of every realified orbit matrix of j,
    and its column count minus their number bounds its rank.  Cached on
    ``rep`` per j once proven; each call returns a new list."""
    if j in rep._fixed:
        return list(rep._fixed[j])
    size = comb(rep.d + 1, 2) * irrep_degree(rep.group, j)
    rows: list[tuple[int, ...]] = []
    for g in rep.group.generators():
        den, n = _twisted_int(rep, j, g)
        for r, col in enumerate(n.transpose().rows):
            rows.append(tuple(x - den if c == r else x for c, x in enumerate(col)))
    basis = list(kernel_vectors([r for r in rows if any(r)], size))
    dim = _trace_average(rep, j) * irrep_degree(rep.group, j)
    if len(basis) != dim:
        raise RepresentationError(
            f"fixed subspace dimension {len(basis)} != trace average {dim}"
        )
    if rank_certified(basis, len(basis)) != len(basis):
        raise ConsistencyError(f"fixed screws of irrep {j} are linearly dependent")
    for g in rep.group.elements():
        den, n = _twisted_int(rep, j, g)
        for s in basis:
            # N^T s as the sum of x times row r of N over the support of s
            support = [(n.rows[r], x) for r, x in enumerate(s) if x]
            image = [sum(row[c] * x for row, x in support) for c in range(len(s))]
            if image != [den * x for x in s]:
                raise ConsistencyError(
                    f"screw {tuple(map(str, s))} is not fixed by the transposed "
                    f"image of {g} in irrep {j}"
                )
    rep._fixed[j] = tuple(basis)
    return list(basis)


def induced_signs(rep: PointRepresentation, g: Element) -> dict[Element, tuple[int, ...]]:
    """Per group element gamma, the +-1 sign under gamma of every pair
    (i, j) of ``screw_pairs(rep.d)``, in its order: the one-dimensional
    representation that the pair carries under the twisted screw
    representation.  Requires a two-group acting by diagonal +-1 matrices.
    The induced image of diag(s_1, ..., s_d, 1) is diagonal with entry
    s_i s_j at the pair (i, j), so the sign under gamma is
    s_i(gamma) s_j(gamma) rho_g(gamma), with s_(d+1) = 1: the diagonal
    entry of ``tau_hat2_j(rep, g, gamma)``, read from the diagonal of
    ``tau_hat_int(rep, gamma)`` without building it.  Cached on ``rep``
    per g and shared: not to be modified."""
    rep.require_combinatorial()
    signs = rep._signs.get(g)
    if signs is None:
        signs = rep._signs[g] = {}
        for gamma in rep.group.elements():
            sign = (-1) ** character_power(rep.group, g, gamma)
            signs[gamma] = tuple(sign * row[0][1] for row in tau_hat_int(rep, gamma)[1])
    return signs


def screw_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The C(d+1,2) coordinate pairs (i, j), 1 <= i < j <= d+1, in lex order."""
    return lex_index(d + 1, 2).tuples()
