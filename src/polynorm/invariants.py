"""Core combinatorial invariants of lattice polytopes.

k-normality is decided by explicit iterated Minkowski sumsets of the lattice
points, built one level at a time in a memo on the polytope, with every point
packed into one int by a linear map so that a vector sum is an int sum; the
decomposition thresholds d_P and nu_P come out of the finite
failure ranges k <= dim-2 and k <= dim-1 (for a d-dimensional polytope the map
P∩M + kP∩M -> (k+1)P∩M is onto for every k >= d-1, and V + kP∩M -> (k+1)P∩M
is onto for every k >= d, so larger k never fail).  The vertex bound is
Carathéodory's theorem: a lattice point x of (k+1)P is (k+1)·Σλ_i v_i with at
most d+1 nonzero λ_i, so some λ_i >= 1/(d+1), and for k >= d the point x - v_i
has the nonnegative coefficients (k+1)λ_j - [j = i] summing to k, hence lies in
kP∩M.  Normalized volume is computed by two independent routes, point-count
interpolation and pulling triangulation, which the test suite requires to
agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import mul

from .exactmath import Vector, det_exact, rank, solve_rational, sub
# unused here; perfbench's tracer test reads it as an aliased import
from .polytope import Polytope, from_points


class InvariantError(ValueError):
    """An invariant was requested outside its domain of definition."""


class SearchCapExceeded(RuntimeError):
    """The k-normality scan was stopped by the configured safety cap."""


@dataclass(frozen=True)
class NormalityScan:
    """Aggregated k-normality data for one polytope.

    per_k maps k to (is_k_normal, holes); k_P is None when the polytope is
    not very ample (then no threshold exists).
    """

    name: str | None
    per_k: dict
    d_P: int
    nu_P: int
    k_P: int | None

    def __post_init__(self):
        if not 1 <= self.d_P <= self.nu_P:
            raise AssertionError("threshold ordering violated (bug)")
        for k, (flag, holes) in self.per_k.items():
            if flag != (not holes):
                raise AssertionError(f"flag/hole mismatch at k={k} (bug)")
            nxt = self.per_k.get(k + 1)
            if flag and k >= self.d_P and nxt is not None and not nxt[0]:
                raise AssertionError(f"normality lost from k={k} to {k + 1} (bug)")


@dataclass(frozen=True)
class SmoothData:
    """Smoothness flag, with gamma and m_prime for a smooth polytope (None
    otherwise)."""

    is_smooth: bool
    gamma: int | None
    m_prime: int | None


# -- packed sumsets and the k-normality tower ---------------------------------

# Levels a fresh tower's packing serves at least; a deeper request re-packs
# from scratch with twice the depth, so the radix never has to wrap.
_MIN_LEVELS = 64


def _weights(p: Polytope, levels: int) -> tuple[int, ...]:
    """Weights (1, R, R^2, ...) of a packing that is injective on jP∩M for
    every j <= levels.

    R is the least power of two above levels·w, w the widest side of the
    bounding box of P.  Two points x != y of jP differ by at most j·w < R in
    every coordinate.  At the lowest index i where they differ,
    pack(x) - pack(y) is R^i·(x_i - y_i) plus a multiple of R^(i+1), and R
    does not divide 0 < |x_i - y_i| < R, so pack(x) != pack(y).  Packing is
    linear, so pack(x + y) = pack(x) + pack(y) and a Minkowski sum of packed
    sets is a set of int sums.
    """
    width = max((max(c) - min(c) for c in zip(*p.vertices)), default=0)
    radix = 1 << (levels * width).bit_length()
    return tuple(radix ** i for i in range(p.dim))


def _pack(point: Vector, weights: tuple[int, ...]) -> int:
    return sum(map(mul, point, weights))


def _sumset(a, b) -> frozenset[int]:
    """Minkowski sum {x + y : x in a, y in b} of two sets of packed points."""
    return frozenset(x + y for x in a for y in b)


@dataclass(frozen=True)
class _Tower:
    """Immutable state of one polytope's k-normality memo.

    top is the packed j-fold sumset S_j of P∩M, j = len(holes), and
    holes[i] is the hole set of (i+1)P; the lower levels S_i are not kept.
    weights pack injectively on every level up to capacity.
    """

    weights: tuple[int, ...]
    capacity: int
    base: frozenset[int]
    top: frozenset[int]
    holes: tuple[frozenset[Vector], ...]

    def extended(self, p: Polytope) -> "_Tower":
        """The tower one level up: S_i = S_(i-1) + P∩M, i = j+1, and its holes.

        S_i lies in iP∩M and the packing is injective there, so iP has no
        holes exactly when |S_i| = |iP∩M|; otherwise the holes are the
        points of iP∩M whose packed form is not in S_i.
        """
        top = _sumset(self.top, self.base)
        points = p.lattice_points(len(self.holes) + 1)
        if len(top) == len(points):
            holes = frozenset()
        else:
            holes = frozenset(x for x in points if _pack(x, self.weights) not in top)
        return _Tower(self.weights, self.capacity, self.base, top, self.holes + (holes,))


def _holes(p: Polytope, k: int) -> frozenset[Vector]:
    """Holes of kP, read from the polytope's tower and extending it to level
    k if needed; each extension is published by one assignment."""
    tower = p._tower
    if tower is not None and k <= len(tower.holes):
        return tower.holes[k - 1]
    if tower is None or k > tower.capacity:
        capacity = max(2 * k, _MIN_LEVELS)
        weights = _weights(p, capacity)
        base = frozenset(_pack(x, weights) for x in p.lattice_points(1))
        tower = _Tower(weights, capacity, base, frozenset({0}), ())
    while len(tower.holes) < k:
        tower = tower.extended(p)
        p._tower = tower
    return tower.holes[k - 1]


def _fills_next_dilate(p: Polytope, summand, k: int) -> bool:
    """Whether summand + kP∩M = (k+1)P∩M, summand a set of lattice points of P.

    The sum lies in (k+1)P∩M and the packing is injective there, so the two
    sets are equal exactly when the packed sum has |(k+1)P∩M| elements.
    """
    weights = _weights(p, k + 1)
    image = _sumset([_pack(x, weights) for x in p.lattice_points(k)],
                    [_pack(x, weights) for x in summand])
    return len(image) == len(p.lattice_points(k + 1))


def is_k_normal(p: Polytope, k: int):
    """Whether every lattice point of kP is a sum of k lattice points of P.

    Returns (flag, holes); holes are the unreachable points of kP.  The
    answer is read from the polytope's memoized sumset tower, which builds
    each level S_j = S_(j-1) + P∩M at most once, so scanning k = 1..K costs
    K sumsets, not K²/2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    holes = _holes(p, k)
    return (not holes, holes)


def compute_d_P(p: Polytope) -> int:
    """Smallest n with P∩M + kP∩M = (k+1)P∩M for every k >= n.

    Only k <= dim-2 can fail, so the scan is finite; dimensions <= 2 always
    give 1.
    """
    pts = p.lattice_points(1)
    last_failing = 0
    for k in range(1, p.dim - 1):
        if not _fills_next_dilate(p, pts, k):
            last_failing = k
    return last_failing + 1


def compute_nu_P(p: Polytope) -> int:
    """Analogue of d_P with the vertex set as the added summand.

    Only k <= dim-1 can fail, so nu_P <= max(dim, 1).  By Carathéodory a
    lattice point x of (k+1)P is (k+1)·Σλ_i v_i with at most dim+1 nonzero
    λ_i, so some λ_i >= 1/(dim+1); for k >= dim, x - v_i = Σμ_j v_j with
    μ_i = (k+1)λ_i - 1 >= 0, the other μ_j = (k+1)λ_j and Σμ_j = k, so
    x - v_i is a lattice point of kP.  Since n >= dim+1, this range is never
    longer than the k <= n-2 that the same argument gives with n in place of
    dim+1.
    """
    last_failing = 0
    for k in range(1, p.dim):
        if not _fills_next_dilate(p, p.vertices, k):
            last_failing = k
    return last_failing + 1


def compute_k_P(p: Polytope, m_P: int, d_P: int, max_k: int | None = None) -> int:
    """Smallest k0 such that P is k-normal for all k >= k0.

    Requires a very ample polytope (finite m_P): the scan is certified to
    terminate at or before (m_P - d_P)*n + 1, and once some k >= d_P is
    normal every larger k is as well, so the scan stops there and returns
    one past the largest failing k.
    """
    if m_P is None:
        raise InvariantError("k_P undefined: polytope is not very ample")
    cap = (m_P - d_P) * p.num_vertices + 1
    k = 1
    last_failing = 0
    while True:
        if _holes(p, k):
            last_failing = k
        elif k >= d_P:
            break
        k += 1
        if k > cap:
            raise AssertionError("k-normality scan exceeded its certified cap (bug)")
        if max_k is not None and k > max_k:
            raise SearchCapExceeded(
                f"k-normality scan reached the safety cap max_k={max_k}")
    return last_failing + 1


def scan_normality(p: Polytope, max_k: int | None = None,
                   through_k: int | None = None) -> NormalityScan:
    """Thresholds plus per-k normality flags and holes, in one scan.

    Records k = 1 .. max(k_P, through_k); for a polytope that is not very
    ample (k_P undefined) the recorded window is through_k or d_P + 1.
    """
    from .semigroup import compute_m_P

    d_P = compute_d_P(p)
    nu_P = compute_nu_P(p)
    mres = compute_m_P(p, d_P)
    k_P = compute_k_P(p, mres.m_P, d_P, max_k=max_k) if mres.very_ample else None
    if k_P is None:
        limit = through_k if through_k is not None else d_P + 1
    else:
        limit = max(k_P, through_k or 1)
    per_k = {k: is_k_normal(p, k) for k in range(1, limit + 1)}
    return NormalityScan(p.name, per_k, d_P, nu_P, k_P)


def decompose_point(p: Polytope, u: Vector, k: int, d_P: int):
    """Split u in kP∩M as x + (k - d_P) lattice points of P with x in d_P·P∩M.

    Greedy: at each level some unit always works because the level is at or
    above d_P; ties are broken lexicographically so the result is
    deterministic.
    """
    if k < d_P:
        raise InvariantError(f"k={k} must be >= d_P={d_P}")
    if not p.contains(u, k):
        raise InvariantError(f"{u} is not a lattice point of {k}P")
    units = []
    current = u
    pts = sorted(p.lattice_points(1))
    for level in range(k, d_P, -1):
        for w in pts:
            remainder = sub(current, w)
            if p.contains(remainder, level - 1):
                units.append(w)
                current = remainder
                break
        else:
            raise AssertionError("no unit peels off although level >= d_P (bug)")
    return current, tuple(units)


def dilate_normality_profile(p: Polytope, d_P: int):
    """Normality of the dilates mP for m = 1..d_P, and the least threshold.

    mP is normal exactly when its own decomposition threshold is 1; beyond
    d_P every dilate is normal, so the least n with "kP normal for all
    k >= n" is found by walking m downward from d_P while dilates stay
    normal.  Returns (threshold, {m: is_normal}).
    """
    flags = {m: compute_d_P(p.dilate(m)) == 1 for m in range(1, d_P + 1)}
    if not flags[d_P]:
        raise AssertionError(f"{d_P}P is not normal although m >= d_P (bug)")
    threshold = d_P
    for m in range(d_P - 1, 0, -1):
        if not flags[m]:
            break
        threshold = m
    return threshold, flags


def degree(p: Polytope) -> int:
    """Degree of P: dim if P has interior lattice points, else the smallest i
    such that kP is interior-point-free for 1 <= k <= dim - i."""
    d = p.dim
    for k in range(1, d + 1):
        if p.interior_lattice_points(k):
            return d - (k - 1)
    return 0


def volume_ehrhart(p: Polytope) -> int:
    """Normalized volume dim!·vol(P) via exact interpolation of |kP∩M|.

    The counts for k = 0..dim determine the degree-dim counting polynomial;
    the normalized volume is dim! times its leading coefficient.
    """
    d = p.dim
    counts = [1] + [len(p.lattice_points(k)) for k in range(1, d + 1)]
    vandermonde = tuple(tuple(k ** j for j in range(d + 1)) for k in range(d + 1))
    coeffs = solve_rational(vandermonde, tuple(counts))
    if isinstance(coeffs, str):
        raise AssertionError(f"point-count interpolation failed: {coeffs} (bug)")
    vol = coeffs[-1] * factorial(d)
    if vol.denominator != 1 or vol <= 0:
        raise AssertionError(f"normalized volume {vol} is not a positive integer (bug)")
    return int(vol)


def volume_triangulation(p: Polytope) -> int:
    """Normalized volume as a sum of |det| over a pulling triangulation."""
    total = 0
    for simplex in _triangulate(p, p.vertices, p.dim):
        edges = tuple(sub(v, simplex[0]) for v in simplex[1:])
        total += abs(det_exact(edges))
    return total


def _triangulate(p: Polytope, face: tuple[Vector, ...], dim: int):
    """Pulling triangulation of a dim-dimensional face of P, given as the
    tuple of its vertices in the order of p.vertices, from its first vertex v0.

    The facets of the face that avoid v0 are read off the facets of P: a
    facet G of the face is a face of P, hence the intersection of the facets
    of P that contain it, and not all of those contain the face, so some
    facet f of P meets the face exactly in G, and f.slack(v0) > 0 because v0
    is not in G.  Conversely each f with f.slack(v0) > 0 meets the face in
    the face {v : f.slack(v) == 0}, which is a facet of it when its vertices
    have affine rank dim - 1.  Several f can cut the same G, so the vertex
    tuples are deduplicated.
    """
    if len(face) == dim + 1:
        return [face]
    v0 = face[0]
    facets = {}
    for f in p.facets:
        if f.slack(v0) == 0:
            continue
        sub_face = tuple(v for v in face if f.slack(v) == 0)
        if len(sub_face) >= dim and rank(
                tuple(sub(v, sub_face[0]) for v in sub_face[1:])) == dim - 1:
            facets[sub_face] = None
    return [(v0,) + cell for sub_face in facets
            for cell in _triangulate(p, sub_face, dim - 1)]


def smooth_data(p: Polytope) -> SmoothData:
    """Smoothness flag, gamma and m_prime, read off the facets in one pass.

    P is smooth when the primitive edge directions at every vertex form a
    lattice basis.  Such a vertex v is simple: exactly dim facets are tight
    there, and their normals are minus the dual basis of the edge
    directions, so they have |det| = 1.  Conversely dim tight normals with
    |det| = 1 span a unimodular simplicial cone, whose dual, the tangent
    cone at v, is unimodular too, so the count and the determinant decide
    smoothness.  In the dual basis the edge coefficients of u - v are
    -normal·(u - v) = f.slack(u) over the facets f tight at v.  gamma is the
    largest coefficient sum over pairs of vertices (the least scaling of
    every vertex corner simplex that contains P), and m_prime the largest
    single coefficient over vertices v and lattice points u != v.  Each of
    the dim coefficients is at most m_prime, so gamma <= dim * m_prime.
    """
    if p.dim == 0:
        return SmoothData(True, 1, 1)
    corners = []
    for v in p.vertices:
        tight = [f for f in p.facets if f.slack(v) == 0]
        if len(tight) != p.dim or abs(det_exact(tuple(f.normal for f in tight))) != 1:
            return SmoothData(False, None, None)
        corners.append((v, tight))
    points = p.lattice_points(1)
    g = max(sum(f.slack(u) for f in tight)
            for v, tight in corners for u in p.vertices if u != v)
    mp = max(f.slack(u) for v, tight in corners for u in points if u != v for f in tight)
    if g > p.dim * mp:
        raise AssertionError(f"gamma={g} exceeds dim*m_prime={p.dim * mp} (bug)")
    return SmoothData(True, g, mp)
