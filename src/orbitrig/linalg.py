"""Exact ranks: one sparse elimination engine over a prime field, with
exact rational rank and nullspace computations behind it.

``rank_mod_p`` is the only prime-field engine.  It ranks rows given as
``{column: residue}`` dicts, choosing pivots by Markowitz's rule (the
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
unity w mod p.  ``rank_certified`` applies the certificate to dense
rational matrices with p = ``PRIME`` = 2**31 - 1; any other outcome (a
deficient matrix, a row that vanishes mod p, or p dividing a denominator)
falls back to ``rank_exact``: row denominators are cleared (rank is
invariant under row scaling) and fraction-free Bareiss elimination runs over
the integers.  ``rank_complex`` ranks a realified block of a complex
character, each entry of Q(zeta_m) replaced by its phi(m) x phi(m) rational
multiplication block, as its certified rational rank divided by phi(m).
Every rank these return is exact; no floating-point value is involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


def residue(x: Scalar, p: int) -> int | None:
    """``x`` reduced mod the prime ``p``, or None when p divides its
    denominator."""
    num, den = x.as_integer_ratio()
    if den == 1:
        return num % p
    if den % p:
        return num * pow(den, -1, p) % p
    return None


def rank_certified(rows: Sequence[Sequence[Scalar]], bound: int) -> int:
    """Rank over the rationals of a matrix with int or Fraction entries,
    given ``bound``, an upper bound on that rank which the
    caller has proven exactly.

    Rows that are zero over Q are skipped.  The rest are reduced mod PRIME
    to sparse rows and ranked by ``rank_mod_p``; since rank_p <= rank_Q <=
    min(nonzero rows, bound), an F_p rank reaching that minimum is returned
    as it is.  Otherwise, or when PRIME divides a denominator, the result
    is ``rank_exact(rows)``."""
    reduced = []
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise InputError("ragged matrix")
        out = {}
        nonzero = False
        for c, x in enumerate(row):
            if x:
                nonzero = True
                r = residue(x, PRIME)
                if r is None:
                    return rank_exact(rows)
                if r:
                    out[c] = r
        if nonzero:
            reduced.append(out)
    target = min(len(reduced), bound)
    if rank_mod_p(reduced, target, PRIME) == target:
        return target
    return rank_exact(rows)


def rank_mod_p(rows: list[dict[int, int]], target: int, p: int) -> int:
    """Rank over F_p of sparse rows, each a dict from column to nonzero
    residue, by Gaussian elimination that stops once the rank reaches
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
