"""Exact integer linear algebra.

Everything in this package is decided in exact arithmetic on
arbitrary-precision integers; the eliminations are fraction-free.  No routine
here ever touches floating point.
"""

from __future__ import annotations

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
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def scale(c: int, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def primitive(v: Vector) -> Vector:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = gcd(*v) if v else 0
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


def rank(m) -> int:
    """Rank over the rationals, by fraction-free integer row elimination."""
    rows = [list(r) for r in m if any(x != 0 for x in r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [pr[c] * x - f * y for x, y in zip(rows[i], pr)]
        r += 1
        if r == len(rows):
            break
    return r
