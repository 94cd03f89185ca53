"""Exterior-algebra substrate: wedge products, Hodge star, the duality
pairing, and representations induced on exterior powers.

Conventions used throughout the package:

* points of d-space are handled in homogeneous coordinates, i.e. as vectors
  of length d+1 (last coordinate 1 for affine points);
* a grade-k element is stored as its coordinate vector of length C(d+1, k),
  indexed by strictly increasing k-tuples of {1, ..., d+1} in lexicographic
  order;
* scalars are exact ``fractions.Fraction`` values (or ints); complex
  characters are realified over Q instead of introducing complex entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import InputError
from .linalg import Scalar, _cleared, echelon


# ---------------------------------------------------------------------------
# lexicographic indexing of strictly increasing tuples


class LexIndex:
    """Bijection between strictly increasing k-tuples of {1, ..., n} and
    positions 0 .. C(n, k)-1 in lexicographic order."""

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise InputError(f"grade {k} out of range for n={n}")
        self.n = n
        self.k = k
        self._tuples = tuple(combinations(range(1, n + 1), k))
        self._pos = {t: i for i, t in enumerate(self._tuples)}

    def __len__(self) -> int:
        return len(self._tuples)

    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return self._tuples

    def position(self, t: Sequence[int]) -> int:
        try:
            return self._pos[tuple(t)]
        except KeyError:
            raise InputError(f"{tuple(t)} is not an increasing {self.k}-tuple of 1..{self.n}")

    def tuple_at(self, i: int) -> tuple[int, ...]:
        return self._tuples[i]


@lru_cache(maxsize=None)
def lex_index(n: int, k: int) -> LexIndex:
    return LexIndex(n, k)


def complement_sign(index_tuple: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """Complement of an increasing tuple in {1..n} and the sign of the
    permutation (i_1 .. i_k j_1 .. j_{n-k}) -> (1 .. n)."""
    chosen = set(index_tuple)
    comp = tuple(i for i in range(1, n + 1) if i not in chosen)
    seq = index_tuple + comp
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq)) if seq[a] > seq[b])
    return comp, (-1) ** inversions


# ---------------------------------------------------------------------------
# small exact determinants


def det(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant of a square rational matrix from ``linalg.echelon``:
    the sign of its row swaps times its last pivot, over the multipliers
    that cleared the denominators; 0 when a column has no pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    e = echelon(rows, n)
    if len(e.pivots) < n:
        return Fraction(0)
    return Fraction((-1) ** e.swaps * e.rows[-1][-1], e.scale)


# ---------------------------------------------------------------------------
# extensors


@dataclass(frozen=True)
class Extensor:
    """A grade-k element of the exterior power of R^{d+1}, stored as its
    length-C(d+1,k) coordinate vector in lex order."""

    d: int
    k: int
    coords: tuple[Scalar, ...]

    def __post_init__(self):
        expected = comb(self.d + 1, self.k)
        if len(self.coords) != expected:
            raise InputError(
                f"grade-{self.k} extensor in dimension {self.d} needs "
                f"{expected} coordinates, got {len(self.coords)}"
            )

    @property
    def index(self) -> LexIndex:
        return lex_index(self.d + 1, self.k)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def __add__(self, other: "Extensor") -> "Extensor":
        self._check_shape(other)
        return Extensor(self.d, self.k, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: Scalar) -> "Extensor":
        return Extensor(self.d, self.k, tuple(c * a for a in self.coords))

    def dot(self, other: "Extensor") -> Scalar:
        """Plain coordinatewise inner product of two same-grade elements."""
        self._check_shape(other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def _check_shape(self, other: "Extensor") -> None:
        if (self.d, self.k) != (other.d, other.k):
            raise InputError("extensor shape mismatch")


def wedge(vectors: Sequence[Sequence[Scalar]], d: int) -> Extensor:
    """Wedge product of k vectors of R^{d+1}: the coordinate at the
    increasing tuple (i_1,...,i_k) is the k x k minor of the stacked-column
    matrix on those rows, a ``det`` Fraction, except that a bar (k = 2)
    takes each minor p_i q_j - p_j q_i directly, an int for int points."""
    k = len(vectors)
    if not 1 <= k <= d + 1:
        raise InputError(f"cannot wedge {k} vectors in dimension d={d}")
    for v in vectors:
        if len(v) != d + 1:
            raise InputError(f"expected homogeneous vectors of length {d + 1}, got {len(v)}")
    if k == 2:
        p, q = vectors
        coords = tuple(p[i] * q[j] - p[j] * q[i] for i, j in combinations(range(d + 1), 2))
        return Extensor(d, 2, coords)
    idx = lex_index(d + 1, k)
    coords = []
    for t in idx.tuples():
        rows = [[vectors[c][i - 1] for c in range(k)] for i in t]
        coords.append(det(rows))
    return Extensor(d, k, tuple(coords))


def hodge_star(x: Extensor) -> Extensor:
    """Hodge star: grade k -> grade d+1-k, with the sign of the permutation
    sending (I, complement(I)) to (1, ..., d+1) on each basis element."""
    n = x.d + 1
    out_idx = lex_index(n, n - x.k)
    out = [Fraction(0)] * len(out_idx)
    for pos, t in enumerate(x.index.tuples()):
        comp, sign = complement_sign(t, n)
        out[out_idx.position(comp)] = sign * x.coords[pos]
    return Extensor(x.d, n - x.k, tuple(out))


def cap_product(p: Extensor, q: Extensor) -> Scalar:
    """Duality pairing of complementary grades:
    sum over increasing tuples I of sign(I, complement) * p_I * q_{comp(I)}.

    For decomposable arguments this equals the determinant of the
    (d+1) x (d+1) matrix assembling the defining vectors.
    """
    if p.d != q.d or p.k + q.k != p.d + 1:
        raise InputError("cap product needs complementary grades in the same dimension")
    n = p.d + 1
    q_idx = q.index
    total: Scalar = Fraction(0)
    for pos, t in enumerate(p.index.tuples()):
        comp, sign = complement_sign(t, n)
        total += sign * p.coords[pos] * q.coords[q_idx.position(comp)]
    return total


# ---------------------------------------------------------------------------
# square matrices and induced representations


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable square matrix over the rationals."""

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise InputError("square matrix rows have inconsistent lengths")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "SquareMatrix":
        return SquareMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "SquareMatrix":
        return SquareMatrix(
            tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise InputError("matrix size mismatch")
        cols = list(zip(*other.rows))
        return SquareMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows
            )
        )

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.n:
            raise InputError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(tuple(zip(*self.rows)))

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise InputError("matrix size mismatch")
        return SquareMatrix(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        )

    def trace(self) -> Scalar:
        return sum(self.rows[i][i] for i in range(self.n))

    def diagonal(self) -> tuple[Scalar, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    def is_identity(self) -> bool:
        return self == SquareMatrix.identity(self.n)

    def is_orthogonal(self) -> bool:
        return (self.transpose() @ self).is_identity()

    def is_diagonal_pm_one(self) -> bool:
        for i in range(self.n):
            for j in range(self.n):
                x = self.rows[i][j]
                if i == j:
                    if x not in (1, -1):
                        return False
                elif x != 0:
                    return False
        return True


def block_diag_one(a: SquareMatrix) -> SquareMatrix:
    """Augment a d x d matrix to (d+1) x (d+1) by a trailing 1 (homogeneous
    coordinates fix the last axis)."""
    n = a.n
    rows = [tuple(a.rows[i]) + (Fraction(0),) for i in range(n)]
    rows.append(tuple(Fraction(0) for _ in range(n)) + (Fraction(1),))
    return SquareMatrix(tuple(rows))


def kron(a: SquareMatrix, k: SquareMatrix) -> SquareMatrix:
    """Kronecker product: entry [(t, r), (s, c)] = a[t][s] * k[r][c], with
    the pair (t, r) at position t * k.n + r."""
    return SquareMatrix(
        tuple(tuple(x * y for x in ra for y in rk) for ra in a.rows for rk in k.rows)
    )


def _integer_image(m: SquareMatrix) -> tuple[int, SquareMatrix]:
    """(D, D m) for a rational matrix m, D the lcm of its denominators."""
    den, flat = _cleared([x for row in m.rows for x in row])
    return den, SquareMatrix(tuple(tuple(flat[i : i + m.n]) for i in range(0, len(flat), m.n)))


def induced_rep(a: SquareMatrix, k: int) -> SquareMatrix:
    """Action induced on the grade-k exterior power: entry [I, J] is the
    k x k minor of ``a`` on rows I and columns J, a Fraction.  The minors
    are taken over the integers, of the integer matrix D a (D the lcm of
    the denominators of ``a``), and divided by D^k; for k = 2 each minor
    n_ik n_jl - n_il n_jk is taken directly, as ``wedge`` does for bars.
    Satisfies (A B)^(k) = A^(k) B^(k) and
    A^(k)(v_1 ^ ... ^ v_k) = (A v_1) ^ ... ^ (A v_k).
    """
    den, n = _integer_image(a)
    n, scale = n.rows, den ** k
    if k == 2:
        return SquareMatrix(tuple(tuple(Fraction(x, scale) for x in r) for r in compound2(n)))
    idx = lex_index(a.n, k)
    return SquareMatrix(
        tuple(
            tuple(det([[n[i - 1][j - 1] for j in J] for i in I]) / scale for J in idx.tuples())
            for I in idx.tuples()
        )
    )


def compound2(n: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """The grade-2 compound of a square matrix, integer for an integer one:
    entry [I, J] is the 2 x 2 minor n_ik n_jl - n_il n_jk on rows I = (i, j)
    and columns J = (k, l), both in lex order."""
    pairs = list(combinations(range(len(n)), 2))
    return [[n[i][k] * n[j][l] - n[i][l] * n[j][k] for k, l in pairs] for i, j in pairs]
