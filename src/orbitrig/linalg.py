"""Exact rank and nullspace computations on dense rational matrices.

Matrices are plain lists of rows.  ``rank_certified`` is the exact rank
engine for orbit and lifted rigidity matrices: it reduces the matrix modulo
the word-size prime ``PRIME = 2**31 - 1`` and eliminates over that field.
The rank over F_p never exceeds the rank over Q, and the caller supplies an
upper bound U on the rational rank that it has proven in exact arithmetic,
so an F_p rank equal to min(nonzero rows, U) is the rational rank.  Any
other outcome (a deficient matrix, an entry that vanishes mod p, or p
dividing a denominator) falls back to ``rank_exact``: row denominators are
cleared (rank is invariant under row scaling) and fraction-free Bareiss
elimination runs over the integers.  Every rank these return is exact.
Blocks of complex characters come realified (each entry of Q(zeta_m)
replaced by its phi(m) x phi(m) rational multiplication block), and
``rank_complex`` divides their certified rational rank by phi(m).  No
floating-point value is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .algebra import Scalar
from .errors import ConsistencyError, InputError

PRIME = 2 ** 31 - 1


def _integer_rows(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        denom = 1
        for x in fr:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) for x in fr])
    return out


def rank_exact(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    m = _integer_rows(rows)
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    if any(len(r) != ncols for r in m):
        raise InputError("ragged matrix")
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        for i in range(row + 1, nrows):
            mi, mr = m[i], m[row]
            f = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (mi[j] * pivot - f * mr[j]) // prev
            mi[col] = 0
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_certified(rows: Sequence[Sequence[Scalar]], bound: int) -> int:
    """Rank over the rationals of a matrix with int or Fraction entries,
    given ``bound``, an upper bound on that rank which the
    caller has proven exactly.

    Rows that are zero over Q are skipped.  The rest are reduced mod PRIME
    and eliminated; since rank_p <= rank_Q <= min(nonzero rows, bound), an
    F_p rank reaching that minimum is returned as it is.  Otherwise, or when
    PRIME divides a denominator, the result is ``rank_exact(rows)``."""
    reduced = []
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise InputError("ragged matrix")
        out = []
        nonzero = False
        for x in row:
            if not x:
                out.append(0)
                continue
            nonzero = True
            num, den = x.as_integer_ratio()
            if den == 1:
                out.append(num % PRIME)
            elif den % PRIME:
                out.append(num * pow(den, -1, PRIME) % PRIME)
            else:
                return rank_exact(rows)
        if nonzero:
            reduced.append(out)
    target = min(len(reduced), bound)
    if _rank_mod_p(reduced, target) == target:
        return target
    return rank_exact(rows)


def _rank_mod_p(rows: list[list[int]], target: int) -> int:
    """Rank over F_PRIME of equal-length rows of residues, by Gaussian
    elimination that stops once the rank reaches ``target``.  Each step
    drops the leading column, so ``rows`` always holds the columns not yet
    eliminated; rows that become zero are dropped."""
    rank = 0
    while rank < target and rows and rows[0]:
        for i, r in enumerate(rows):
            if r[0]:
                break
        else:
            rows = [r[1:] for r in rows]
            continue
        pivot = rows.pop(i)
        inv = pow(pivot[0], -1, PRIME)
        pivot = [x * inv % PRIME for x in pivot[1:]]
        rank += 1
        remaining = []
        for r in rows:
            f = r[0]
            if f:
                r = [(a - f * b) % PRIME for a, b in zip(r[1:], pivot)]
                if any(r):
                    remaining.append(r)
            else:
                remaining.append(r[1:])
        rows = remaining
    return rank


def rref_exact(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (rref, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for i in range(nrows):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def nullspace_exact(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Deterministic rational basis of the right kernel (one vector per free
    column of the RREF)."""
    if not rows:
        return [
            tuple(Fraction(1) if i == t else Fraction(0) for i in range(ncols))
            for t in range(ncols)
        ]
    rref, pivots = rref_exact(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


def rank_complex(rows: Sequence[Sequence[Scalar]], bound: int, degree: int) -> int:
    """Rank over Q(zeta_m) of a matrix given in realified form, ``degree``
    being phi(m): its rational rank, certified against ``bound`` as in
    ``rank_certified``, divided by ``degree``.  Realifying multiplies every
    rank by the degree, so a remainder means the input was not realified."""
    rank, rest = divmod(rank_certified(rows, bound), degree)
    if rest:
        raise ConsistencyError(f"realified rank is not a multiple of the degree {degree}")
    return rank


matrix_rank = rank_exact
