"""Exact linear algebra: one fraction-free elimination over the rationals
and one sparse elimination engine over a prime field.

``echelon`` is the only rational elimination.  It clears each row's
denominators (scaling rows changes neither the rank nor the kernel, and
the determinant by the product of the multipliers) and runs Bareiss's
fraction-free forward pass over the integers: every division is exact,
and the k-th pivot is the k x k minor of the scaled, row-permuted matrix
on the first k pivot columns.  Everything exact reads that one pass:
``rank_exact`` is its pivot count, ``algebra.det`` its sign times its last
pivot over the row multipliers, and ``kernel_vectors`` back-substitutes on
its rows, one kernel vector per free column.

``rank_mod_p`` is the only prime-field engine.  It ranks rows given as
``{column: x mod p}`` dicts, choosing pivots by Markowitz's rule (the
sparsest row, then the sparsest column in it), and stops once a target
rank is reached.  The rank over F_p never exceeds the rank over Q (nor, for
rows over Z[zeta_m] sent to F_p by zeta_m -> w, the rank over Q(zeta_m)),
so when the caller supplies an upper bound U that it has proven in exact
arithmetic, an F_p rank equal to min(nonzero rows, U) is the exact rank.
The same holds for any other proven upper bound that the F_p rank meets;
``rigidity._block_rank`` uses the matroid union's witness bound that way,
after eliminating up to min(nonzero rows, U) so that an F_p rank above the
witness bound is caught rather than hidden.
``prime_with_root(m)`` gives the prime for characters of order m: the
largest prime p < 2**31 with p = 1 (mod m), and a primitive m-th root of
unity w mod p.  Every input reaches F_p as integer rows: the orbit blocks
and the lifted framework are assembled that way, and ``rank_certified``
clears the rows of a dense rational matrix of their denominators before
reducing them mod ``PRIME`` = 2**31 - 1; a matrix it cannot certify
(deficient, or with a row that vanishes mod p) falls back to Bareiss.
``rank_complex`` ranks a realified block of a complex character, each
entry of Q(zeta_m) replaced by its phi(m) x phi(m) integer multiplication
block, as its Bareiss rank divided by phi(m).  Every rank these return is
exact; no floating-point value is involved.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import ConsistencyError, InputError

Scalar = Union[Fraction, int]

PRIME = 2 ** 31 - 1


class Echelon(NamedTuple):
    """The outcome of ``echelon``: its integer rows with a pivot each, in
    pivot order, the pivot columns, the number of row swaps, and the
    product of the multipliers that cleared the rows' denominators."""

    rows: list[list[int]]
    pivots: list[int]
    swaps: int
    scale: int


def echelon(rows: Sequence[Sequence[Scalar]], ncols: int) -> Echelon:
    """Fraction-free row echelon form of a rational matrix with ``ncols``
    columns.  Each row is multiplied by the least common multiple of its
    denominators; then, column by column, the first row holding a nonzero
    entry becomes the pivot row and every row below it is replaced by
    (row * pivot - entry * pivot row) / previous pivot, a division that is
    exact (Bareiss 1968).  Raises ``InputError`` on a row that does not
    have ``ncols`` entries."""
    m = []
    scale = 1
    for row in rows:
        if len(row) != ncols:
            raise InputError("ragged matrix")
        denom, ints = _cleared(row)
        m.append(ints)
        scale *= denom
    nrows = len(m)
    pivots: list[int] = []
    swaps = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            swaps += 1
        pivot = m[row][col]
        mr = m[row]
        for i in range(row + 1, nrows):
            mi = m[i]
            f = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (mi[j] * pivot - f * mr[j]) // prev
            mi[col] = 0
        prev = pivot
        pivots.append(col)
        row += 1
    return Echelon(m[:row], pivots, swaps, scale)


def _cleared(row: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(L, L row) for a rational row, L the lcm of its denominators."""
    denom = lcm(*(x.denominator for x in row))
    return denom, [x.numerator * (denom // x.denominator) for x in row]


def rank_exact(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals: the pivot count of ``echelon``."""
    return len(echelon(rows, len(rows[0]) if rows else 0).pivots)


def kernel_vectors(rows: Sequence[Sequence[Scalar]], ncols: int) -> Iterator[tuple[Fraction, ...]]:
    """The basis of the right kernel read off the reduced row echelon form,
    drawn lazily: for each free column fc in order, the vector that is 1 at
    fc, 0 at the other free columns, and solves the system at the pivot
    columns.  Only the k pivot rows left of fc constrain it, and by
    Cramer's rule D times it is integral, D being the k-th pivot of
    ``echelon`` (the minor on those rows and pivot columns), so it is
    back-substituted over the integers as D * x and divided by D last."""
    e = echelon(rows, ncols)
    pivot_set = set(e.pivots)
    zero = Fraction(0)
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        k = bisect(e.pivots, fc)
        d = e.rows[k - 1][e.pivots[k - 1]] if k else 1
        scaled = []  # (column, D * x) for the pivot columns right of the current row
        vec = [zero] * ncols
        vec[fc] = Fraction(1)
        for i in range(k - 1, -1, -1):
            r = e.rows[i]
            total = r[fc] * d + sum(r[c] * y for c, y in scaled)
            y = -total // r[e.pivots[i]]
            scaled.append((e.pivots[i], y))
            vec[e.pivots[i]] = Fraction(y, d)
        yield tuple(vec)


def orthogonal_part(vec: Sequence[Scalar], ortho: Sequence[Sequence[int]]) -> list[int]:
    """A positive integer multiple of ``vec`` minus its projections onto
    the pairwise orthogonal integer vectors ``ortho``, fraction-free:
    ``vec`` cleared of denominators, then per u the step
    v <- (u.u) v - (v.u) u, divided by the gcd of its entries.  A multiple
    of u projects as u does, so the parts this returns can serve as
    ``ortho`` themselves."""
    v = _cleared(vec)[1]
    for u in ortho:
        vu = sum(a * b for a, b in zip(v, u))
        if vu:
            uu = sum(a * a for a in u)
            v = [uu * a - vu * b for a, b in zip(v, u)]
            f = gcd(*v)
            if f > 1:
                v = [a // f for a in v]
    return v


def rank_certified(rows: Sequence[Sequence[Scalar] | dict[int, int]], bound: int) -> int:
    """Rank over the rationals of a matrix, given ``bound``, an upper bound
    on that rank which the caller has proven exactly.  The rows are sparse
    integer rows, dicts from column to nonzero integer, or dense rows of
    ints or Fractions, each multiplied by the lcm of its denominators.
    Rows zero over Q are skipped and the others reduced mod PRIME for
    ``rank_mod_p``; a row that vanishes mod PRIME still counts.  Since
    rank_p <= rank_Q <= min(nonzero rows, bound), an F_p rank reaching that
    minimum is returned as it is; otherwise ``rank_exact`` of the integer
    rows."""
    sparse = bool(rows) and isinstance(rows[0], dict)
    if not sparse and any(len(row) != len(rows[0]) for row in rows):
        raise InputError("ragged matrix")
    ints = rows if sparse else [{c: x for c, x in enumerate(_cleared(r)[1]) if x} for r in rows]
    reduced = [{c: r for c, x in row.items() if (r := x % PRIME)} for row in ints if row]
    target = min(len(reduced), bound)
    if rank_mod_p(reduced, target, PRIME) == target:
        return target
    ncols = 1 + max(c for row in ints for c in row)
    return rank_exact([[row.get(c, 0) for c in range(ncols)] for row in ints])


def rank_mod_p(rows: list[dict[int, int]], target: int, p: int) -> int:
    """Rank over F_p of sparse rows, each a dict from column to nonzero
    value mod p, by Gaussian elimination that stops once the rank reaches
    ``target``.  Pivots follow Markowitz's rule: the sparsest row, then
    the column of that row shared with the fewest other rows, which keeps
    the fill-in of incidence-like matrices small.  The dicts are consumed."""
    count: dict[int, int] = {}  # column -> rows holding it
    for r in rows:
        for c in r:
            count[c] = count.get(c, 0) + 1
    rows = [r for r in rows if r]
    rank = 0
    while rank < target and rows:
        pivot = min(rows, key=len)
        col = min(pivot, key=count.__getitem__)
        rows.remove(pivot)
        inv = pow(pivot.pop(col), -1, p)
        for c in pivot:
            count[c] -= 1
        # adding f * w to a row holding f at col clears that entry
        update = [(c, (p - x) * inv % p) for c, x in pivot.items()]
        rank += 1
        remaining = []
        for r in rows:
            f = r.pop(col, 0)
            if f:
                for c, w in update:
                    x = r.get(c)
                    if x is None:
                        r[c] = f * w % p
                        count[c] += 1
                    else:
                        x = (x + f * w) % p
                        if x:
                            r[c] = x
                        else:
                            del r[c]
                            count[c] -= 1
                if not r:
                    continue
            remaining.append(r)
        rows = remaining
    return rank


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5, 7 decide every
    n < 3,215,031,751."""
    if n < 11:
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def prime_with_root(m: int) -> tuple[int, int]:
    """The largest prime p < 2**31 with p = 1 (mod m), and a primitive
    m-th root of unity w mod p: the first g**((p-1)/m), g = 2, 3, ..., whose
    order is exactly m.  Then zeta_m -> w maps Z[zeta_m] to F_p as a ring
    homomorphism.  The prime is PRIME itself when m divides PRIME - 1
    (m = 1, 2, 3, 6, 7, ...)."""
    p = (2 ** 31 - 2) // m * m + 1
    while not _is_prime(p):
        p -= m
    factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    g = 2
    while True:
        w = pow(g, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in factors):
            return p, w
        g += 1


def rank_complex(rows: Sequence[Sequence[Scalar]], degree: int) -> int:
    """Rank over Q(zeta_m) of a matrix given in realified form, ``degree``
    being phi(m): its Bareiss rank divided by ``degree``.  Realifying
    multiplies every rank by the degree, so a remainder means the input
    was not realified."""
    rank, rest = divmod(rank_exact(rows), degree)
    if rest:
        raise ConsistencyError(f"realified rank is not a multiple of the degree {degree}")
    return rank
