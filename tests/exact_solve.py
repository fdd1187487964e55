"""Exact rational solving and row elimination for the test oracles.

The pipeline reads volumes off integer forward differences and edge
coefficients off facet slacks; the Vandermonde volume, the reciprocity
counts and the edge-fan coefficients that check those shortcuts solve their
systems here, in `Fraction`s.  `exactmath.rank` counts the rows of the
hull's echelon basis; the row elimination it replaced checks it here.
"""

from fractions import Fraction

NO_SOLUTION = "no solution"
UNDERDETERMINED = "underdetermined"


def solve_rational(a, b):
    """Solve a·x = b exactly over the rationals.

    Returns the unique solution as a list of Fractions, or the sentinel
    NO_SOLUTION for an inconsistent system, or UNDERDETERMINED for a
    consistent rank-deficient one.
    """
    nrows = len(a)
    if nrows != len(b):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(a[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pr = aug[r]
        inv = 1 / pr[c]
        aug[r] = [x * inv for x in pr]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return NO_SOLUTION
    if len(pivots) < ncols:
        return UNDERDETERMINED
    return [aug[i][ncols] for i in range(ncols)]


def rank_by_elimination(m) -> int:
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
