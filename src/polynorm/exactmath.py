"""Exact integer linear algebra.

Everything in this package is decided in exact arithmetic on
arbitrary-precision integers; the eliminations are fraction-free.  No routine
here ever touches floating point.
"""

from __future__ import annotations

import operator
from math import gcd

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def vec(coords) -> Vector:
    """Coerce an iterable into an integer vector, rejecting non-integers."""
    out = tuple(coords)
    for c in out:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"lattice coordinates must be integers, got {c!r}")
    return out


def add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vectors of different lengths")
    return tuple(map(operator.add, u, v))


def sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vectors of different lengths")
    return tuple(map(operator.sub, u, v))


def neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def scale(c: int, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("vectors of different lengths")
    return sum(map(operator.mul, u, v))


def primitive(v) -> Vector:
    """Divide an integer vector (a tuple or a list) by the gcd of its
    entries, keeping direction; the result is always a tuple."""
    g = gcd(*v) if v else 0
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("no primitive direction for the zero vector")
    return tuple(a // g for a in v)


def det_exact(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every division performed is exact, so the result is correct for integer
    matrices of any size and magnitude.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _reduce(basis: list[tuple[int, Vector]], v):
    """v reduced against an echelon basis: (pivot column, what is left),
    or None when nothing is left.

    Each step v <- row[c]·v - v[c]·row, one per basis row whose pivot
    column c is nonzero in v, clears that column and keeps the columns the
    earlier rows cleared, since row is zero there.  It scales v by
    row[c] != 0 and subtracts a multiple of the row, so what is left is
    zero in every pivot column, and it is the zero vector exactly when v
    lies in the span of the rows.  Its first nonzero column is the pivot.
    No step divides.
    """
    for c, row in basis:
        x = v[c]
        if x:
            a = row[c]
            v = [a * y - x * z for y, z in zip(v, row)]
    for pivot, x in enumerate(v):
        if x:
            return pivot, v
    return None


def extend_echelon(basis: list[tuple[int, Vector]], v) -> bool:
    """Reduce v, of the rows' length, against an echelon basis by `_reduce`
    and append what is left, if anything, as a new (pivot column,
    primitive row); True when the basis grew."""
    left = _reduce(basis, v)
    if left is None:
        return False
    basis.append((left[0], primitive(left[1])))
    return True


def echelon(vectors) -> list[tuple[int, Vector]]:
    """Echelon basis of the span of integer vectors, as (pivot column, row).

    The vectors are reduced in order by `extend_echelon`: the pivots are
    distinct, and every row is zero in the pivot columns of the rows before
    it.  Vectors of different lengths are rejected before any is reduced.
    """
    vectors = list(vectors)
    if len(set(map(len, vectors))) > 1:
        raise ValueError("vectors of different lengths")
    basis = []
    for v in vectors:
        extend_echelon(basis, v)
    return basis


def rank(m) -> int:
    """Rank over the rationals: the size of an echelon basis of the rows."""
    return len(echelon(m))


def reaches_rank(vectors, r: int) -> bool:
    """True when vectors of one length span a space of dimension at least r.

    One fraction-free elimination: each vector is reduced in order by
    `_reduce` against the rows kept so far, and what is left is kept as it
    is.  The rows are not made primitive, since only their number is read;
    a step adds at most the bit length of the row's entries, plus one, to
    v's, so over the few rows of a rank check the entries stay small.  No
    vector is read once r rows are kept; a caller that knows the rank
    cannot exceed r gets the same answer as comparing `rank` with r.
    """
    if r <= 0:
        return True
    basis = []
    for v in vectors:
        left = _reduce(basis, v)
        if left is not None:
            basis.append(left)
            if len(basis) == r:
                return True
    return False
