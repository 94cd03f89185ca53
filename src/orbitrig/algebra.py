"""Exterior-algebra substrate: wedge products, Hodge star, the duality
pairing, and the grade-2 compound that carries a matrix to screw space.

Conventions used throughout the package:

* points of d-space are handled in homogeneous coordinates, i.e. as vectors
  of length d+1 (last coordinate 1 for affine points);
* a grade-k element is stored as its coordinate vector of length C(d+1, k),
  indexed by strictly increasing k-tuples of {1, ..., d+1} in lexicographic
  order;
* scalars are exact: ints, or ``fractions.Fraction`` values where a
  denominator is kept (a rational matrix is mostly held as the integer
  matrix D M beside its denominator D); complex characters are realified
  over Q instead of introducing complex entries.
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


@lru_cache(maxsize=None)
def lex_index(n: int, k: int) -> LexIndex:
    return LexIndex(n, k)


@lru_cache(maxsize=None)
def _star_table(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """Per increasing k-tuple I of {1..n}, in lex order: the position of its
    complement J among the (n-k)-tuples, and the sign of the permutation
    (I, J) -> (1 .. n).  The m-th element i of I (m from 1) comes before
    the i - m elements of J below it, so the sign is
    (-1)^(sum(I) - k(k+1)/2)."""
    out_idx = lex_index(n, n - k)
    out = []
    for t in lex_index(n, k).tuples():
        comp = tuple(i for i in range(1, n + 1) if i not in t)
        out.append((out_idx.position(comp), -1 if (sum(t) - k * (k + 1) // 2) % 2 else 1))
    return tuple(out)


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
    """Hodge star: grade k -> grade d+1-k, the signed permutation of
    ``_star_table``."""
    out = [0] * comb(x.d + 1, x.k)
    for c, (j, sign) in zip(x.coords, _star_table(x.d + 1, x.k)):
        out[j] = sign * c
    return Extensor(x.d, x.d + 1 - x.k, tuple(out))


def cap_product(p: Extensor, q: Extensor) -> Scalar:
    """Duality pairing of complementary grades:
    sum over increasing tuples I of sign(I, complement) * p_I * q_{comp(I)}.

    For decomposable arguments this equals the determinant of the
    (d+1) x (d+1) matrix assembling the defining vectors.
    """
    if p.d != q.d or p.k + q.k != p.d + 1:
        raise InputError("cap product needs complementary grades in the same dimension")
    table = _star_table(p.d + 1, p.k)
    return sum(sign * c * q.coords[j] for c, (j, sign) in zip(p.coords, table))


# ---------------------------------------------------------------------------
# square matrices and compounds


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

    @property
    def n(self) -> int:
        return len(self.rows)

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

    def trace(self) -> Scalar:
        return sum(self.rows[i][i] for i in range(self.n))

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


def compound(n: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """The grade-2 compound of a square matrix, the one exterior power the
    package takes, integer for an integer one: entry [(i, j), (k, l)] is
    the minor n_ik n_jl - n_il n_jk, pairs in lex order, as ``wedge`` takes
    it for bars.  The compound of A B is that of A times that of B, and
    that of A maps v ^ w to (A v) ^ (A w)."""
    pairs = list(combinations(range(len(n)), 2))
    return [[n[i][a] * n[j][b] - n[i][b] * n[j][a] for a, b in pairs] for i, j in pairs]
