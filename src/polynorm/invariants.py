"""Core combinatorial invariants of lattice polytopes.

k-normality is decided by explicit iterated Minkowski sumsets of the lattice
points, built one level at a time in a memo on the polytope.  Each level
S_j = S_(j-1) + P∩M is one int bitmask: a lattice point x of jP is packed
into a bit position by a mixed-radix map that is linear across levels, so
S_j is the OR of the shifts of S_(j-1) by the packed points of P∩M and |S_j|
is its bit count.  jP has no holes exactly when that count is |jP∩M|, which
is read off the Ehrhart polynomial at every level j alike; the polynomial
comes from the levels up to ceil(dim/2), listed, and by Ehrhart-Macdonald
reciprocity from the interior points of the levels up to floor(dim/2),
counted on the same row scans that list those levels, so each node of the
polynomial costs one scan and no level above ceil(dim/2) is listed.  Hole
points are decoded only when asked for.  The same shifted union decides the
decomposition thresholds d_P and nu_P, on one chain of masks of jP∩M,
j = 1..dim-1, under one packing: the mask of level j is that of level j-1
shifted by the packed points of P∩M, which lies in jP∩M and is kept when
its count is |jP∩M|.  That count is the d_P test at k = j-1, and jP is
listed only when it falls short, for j <= d_P; nu_P shifts the kept masks
by the packed vertices.  The thresholds come out of the finite failure
ranges k <= dim-2 and k <= dim-1 (for a d-dimensional polytope the map
P∩M + kP∩M -> (k+1)P∩M is onto for every k >= d-1, and V + kP∩M -> (k+1)P∩M
is onto for every k >= d, so larger k never fail).  The vertex bound is
Carathéodory's theorem: a lattice point x of (k+1)P is (k+1)·Σλ_i v_i with at
most d+1 nonzero λ_i, so some λ_i >= 1/(d+1), and for k >= d the point x - v_i
has the nonnegative coefficients (k+1)λ_j - [j = i] summing to k, hence lies in
kP∩M.  A dilate mP is normal when its threshold is 1, which the same test
decides at level m on P's own lattice points, each test under a packing of
its own, on a chain from level ceil(dim/2) or below.  Normalized volume is
computed by two independent routes, point-count interpolation and pulling
triangulation, which the test suite requires to agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .exactmath import Vector, det_exact, dot, rank, sub
# unused here; perfbench's tracer test reads it as an aliased import
from .polytope import Polytope, from_points


class InvariantError(ValueError):
    """An invariant was requested outside its domain of definition."""


class SearchCapExceeded(RuntimeError):
    """The k-normality scan was stopped by the configured safety cap."""


@dataclass(frozen=True)
class SmoothData:
    """Smoothness flag, with gamma and m_prime for a smooth polytope (None
    otherwise)."""

    is_smooth: bool
    gamma: int | None
    m_prime: int | None


# -- bitmask sumsets and the k-normality tower --------------------------------

# Levels a fresh packing serves at least; a deeper request rebuilds the tower
# under a packing for twice that depth, so no digit ever outgrows its radix.
_MIN_LEVELS = 4


@dataclass(frozen=True)
class _Packing:
    """pack(x, j) = Σ (x_i - j·lo_i)·W_i = W·x - j·origin, injective on jP∩M
    for every level j <= capacity.

    lo is the least corner of the bounding box of P and w its widths.  The
    weights are mixed-radix place values: coordinate i gets the radix
    capacity·w_i + 1, and the first coordinate is the most significant
    place.  A point x of jP has digits 0 <= x_i - j·lo_i <= j·w_i < that
    radix, so pack(x, j) is a numeral and distinct points of jP get distinct
    values in [0, top(j)].  Packed order is then lexicographic order, so a
    row of jP (fixed prefix, last coordinate running) is a run of
    consecutive values.  Packing is linear across levels:
    pack(x, i) + pack(b, j) = pack(x + b, i + j).

    The place order does not change the box: C·w_i·W_i, with C the capacity
    and W_i the product of the radices C·w_l + 1 below place i, is the
    product up to i minus the product below i, so Σ w_i·W_i telescopes to
    (Π (C·w_i + 1) - 1) / C in any order.

    pack takes W·x by `sum(map(mul, ...))`, with no length check: every
    caller passes a point of some dilate of P, whose length Polytope's
    validation and the row scan have fixed at dim.
    """

    widths: tuple[int, ...]
    capacity: int
    weights: tuple[int, ...]
    origin: int

    def pack(self, x: Vector, j: int) -> int:
        return sum(map(mul, x, self.weights)) - j * self.origin

    def top(self, j: int) -> int:
        """pack of the top corner of the box of jP, the largest value."""
        return j * dot(self.widths, self.weights)


def _packing(p: Polytope, capacity: int) -> _Packing:
    columns = list(zip(*p.vertices))
    widths = tuple(max(c) - min(c) for c in columns)
    weights = [0] * p.dim
    place = 1
    for i in reversed(range(p.dim)):
        weights[i] = place
        place *= capacity * widths[i] + 1
    origin = dot(tuple(map(min, columns)), weights)
    return _Packing(widths, capacity, tuple(weights), origin)


def _bitmask(positions) -> int:
    """The int whose set bits are exactly the given positions."""
    positions = list(positions)
    buf = bytearray(max(positions, default=0) // 8 + 1)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _shifted_union(mask: int, shifts) -> int:
    """OR of mask << s over the shifts.

    With mask the bitmask of a packed set A at level i and shifts the packed
    points B at level j, this is the bitmask of A + B at level i+j, because
    packing is linear across levels.
    """
    union = 0
    for s in shifts:
        union |= mask << s
    return union


@dataclass(frozen=True)
class _Tower:
    """Immutable state of one polytope's k-normality memo: masks[j] is the
    bitmask of the j-fold sumset S_j of P∩M (S_0 = {0}) for j < len(masks),
    bit packing.pack(x, j) set exactly when x is in S_j, and shifts are the
    packed points of P∩M at level 1.

    Size.  The mask of S_j has at most top(j) + 1 bits: the box of jP with
    every digit but the most significant one widened to the capacity C, so
    a level j built under C spans about (C/j)^(dim-1) times the box of jP.
    C is twice the level whose query built the tower, or _MIN_LEVELS, so
    C/j stays small on the levels a scan builds.  |S_j| <= |jP∩M| of the
    bits are set.  A frozenset of tuples spends on the order of a hundred
    bytes per point, the mask one bit per box point, so the mask is the
    smaller unless the box of P holds hundreds of times more lattice points
    than P, as for a thin simplex along a diagonal.
    """

    packing: _Packing
    shifts: tuple[int, ...]
    masks: tuple[int, ...]


def _level(p: Polytope, k: int) -> tuple[_Packing, int]:
    """The packing and the bitmask of S_k, under a packing injective up to
    level k.  A level above the capacity builds the tower again from S_0
    under a packing for max(2k, _MIN_LEVELS) levels, so the capacity at
    least doubles and a deepest level K costs at most
    log2(K / _MIN_LEVELS) + 1 rebuilds; each build and each shifted union
    S_(j+1) = S_j + P∩M is published by one assignment of a new _Tower."""
    tower = p._tower
    if tower is None or k > tower.packing.capacity:
        packing = _packing(p, max(2 * k, _MIN_LEVELS))
        shifts = tuple(sorted(packing.pack(x, 1) for x in p.lattice_points(1)))
        tower = p._tower = _Tower(packing, shifts, (1,))
    while len(tower.masks) <= k:
        top = _shifted_union(tower.masks[-1], tower.shifts)
        tower = p._tower = _Tower(tower.packing, tower.shifts, tower.masks + (top,))
    return tower.packing, tower.masks[k]


def _ehrhart(p: Polytope) -> tuple[int, ...]:
    """Forward differences Δ^i L(0), i = 0..dim, of L(k) = |kP∩M|, memoized.

    By Ehrhart's theorem L is a polynomial of degree dim in k with L(0) = 1,
    and by Ehrhart-Macdonald reciprocity L(-k) = (-1)^dim·|int(kP)∩M|.  With
    h = floor(dim/2), the dim+1 nodes k = -h..ceil(dim/2) fix L: the levels
    1..ceil(dim/2) are listed, and since h <= ceil(dim/2) the interior
    counts of levels 1..h are read off the memo that the same row scans
    fill, `Polytope._interior`, so each node costs one scan.  The
    forward differences at the node -h are integers, and since E^h = (1+Δ)^h
    the base moves to 0 by Δ^i L(0) = Σ_j C(h, j)·Δ^(i+j) L(-h), where
    Δ^(i+j) vanishes above dim.  Newton's form then writes
    L(k) = Σ Δ^i L(0)·C(k, i) in integers.
    """
    deltas = p._ehrhart
    if deltas is None:
        d = p.dim
        h = d // 2
        listed = [len(p.lattice_points(k)) for k in range(1, d - h + 1)]
        row = [(-1) ** d * p._interior[k] for k in range(h, 0, -1)] + [1] + listed
        shifted = []
        while row:
            shifted.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        deltas = p._ehrhart = tuple(
            sum(comb(h, j) * shifted[i + j] for j in range(min(h, d - i) + 1))
            for i in range(d + 1))
    return deltas


def _point_count(p: Polytope, k: int) -> int:
    """|kP∩M|, evaluated from the forward differences of `_ehrhart`: the
    levels 1..ceil(dim/2) are listed once, and no level above ever is for a
    count."""
    return sum(delta * comb(k, i) for i, delta in enumerate(_ehrhart(p)))


def iter_holes(p: Polytope, k: int):
    """The holes of kP in lexicographic order.

    A level already in the point cache is decoded by one bit test per listed
    point against the mask of S_k, and only the holes are sorted.  Any other
    level is decoded lazily off the rows of `Polytope._rows`: they come in
    lexicographic order, and a row is a run of consecutive packed values,
    so it is a slice of the mask's bits, read from the few bytes of the mask
    that hold it, least significant first; its zeros are holes.
    """
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    listed = p._point_cache.get(k)
    packing, mask = _level(p, k)
    buf = mask.to_bytes(packing.top(k) // 8 + 1, "little")
    if listed is not None:
        holes = []
        for x in listed:
            i = packing.pack(x, k)
            if not buf[i >> 3] >> (i & 7) & 1:
                holes.append(x)
        yield from sorted(holes)
        return
    for prefix, lo, hi, _ in p._rows(k):
        start = packing.pack(prefix + (lo,), k)
        n = hi - lo + 1
        bits = int.from_bytes(buf[start >> 3:((start + n - 1) >> 3) + 1], "little")
        row = format((bits >> (start & 7)) & ((1 << n) - 1), f"0{n}b")[::-1]
        i = row.find("0")
        while i >= 0:
            yield prefix + (lo + i,)
            i = row.find("0", i + 1)


def hole_count(p: Polytope, k: int) -> int:
    """Number of holes of kP, the lattice points that are not sums of k
    lattice points of P.

    S_k lies in kP∩M and the packing is injective there, so the count is
    |kP∩M| minus the number of set bits of the mask of S_k.  The tower keeps
    its levels, and the towers a rebuild drops held fewer than 2K levels in
    all, so counting k = 1..K costs under 3K shifted unions, not K²/2.
    """
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    _, mask = _level(p, k)
    return _point_count(p, k) - mask.bit_count()


def translate_scan(p: Polytope, d: int, vertices, holes, last: int | None = None):
    """Decide, one tower level j > d at a time, which translates
    x + (j - d)·v lie in S_j.

    holes is a sorted list of lattice points x of dP, paired with each
    lattice point v of P in vertices.  For j = d + 1, d + 2, ..., through
    last when given, the generator yields j and a dict that maps each v
    with pairs open before level j, in the order of vertices, to two sorted
    lists: the x decided at level j and the x still open after it.  It
    returns once no pair is open, and reads no level when last <= d.

    With q = pack(x, d), a pair is decided at level j when bit
    q + (j - d)·pack(v, 1) of S_j is set, read from the level's bytes.  By
    linearity that position is pack(x + (j - d)·v, j), and the point lies
    in jP, as x lies in dP and v in P.  The level is read under a packing
    for at least j > d levels, injective on jP, so the bit is set exactly
    when the point is in S_j, and the position lies in [0, top(j)], so the
    read needs no bound test.  The positions q of holes and the steps
    pack(v, 1) are computed again only when the tower is rebuilt under a
    new packing.
    """
    open_xs = {v: holes for v in vertices if holes}
    packing = None
    j = d
    while open_xs and (last is None or j < last):
        j += 1
        level_packing, mask = _level(p, j)
        if level_packing is not packing:
            packing = level_packing
            steps = {v: packing.pack(v, 1) for v in open_xs}
            positions = {x: packing.pack(x, d) for x in holes}
        buf = mask.to_bytes(packing.top(j) // 8 + 1, "little")
        decided = {}
        for v, xs in open_xs.items():
            offset = (j - d) * steps[v]
            hits, misses = [], []
            for x in xs:
                i = positions[x] + offset
                if buf[i >> 3] >> (i & 7) & 1:
                    hits.append(x)
                else:
                    misses.append(x)
            decided[v] = hits, misses
        del buf  # not alive while the next level is built
        open_xs = {v: misses for v, (_, misses) in decided.items() if misses}
        yield j, decided


def _dilate_masks(p: Polytope, packing: _Packing, first: int, top: int):
    """Yield (j, the bitmask of jP∩M, fills) for j = first..max(first, top),
    under packing, injective on every level yielded.

    Level first is packed from the listed points, and its fills is False.
    Each higher level is the mask of the level below shifted by the packed
    points of P∩M.  That union is (j-1)P∩M + P∩M, which lies in jP∩M, where
    the packing is injective, so it is jP∩M exactly when it has |jP∩M| bits
    set.  It is kept then, and fills is True; only otherwise is jP listed
    and packed.  So fills at j > first is the d_P test at k = j - 1,
    P∩M + (j-1)P∩M = jP∩M.  For j - 1 >= d_P the sum is onto, so no level
    above max(d_P, first) is listed; with first <= ceil(dim/2), which
    `_ehrhart` lists anyway, none above max(d_P, ceil(dim/2)) is.
    """
    mask = _bitmask(packing.pack(x, first) for x in p.lattice_points(first))
    yield first, mask, False
    shifts = [packing.pack(b, 1) for b in p.lattice_points(1)]
    for j in range(first + 1, top + 1):
        mask = _shifted_union(mask, shifts)
        fills = mask.bit_count() == _point_count(p, j)
        if not fills:
            mask = _bitmask(packing.pack(x, j) for x in p.lattice_points(j))
        yield j, mask, fills


def decomposition_thresholds(p: Polytope) -> tuple[int, int]:
    """(d_P, nu_P).  d_P is the smallest n with P∩M + kP∩M = (k+1)P∩M for
    every k >= n, and nu_P its analogue with the vertex set as the added
    summand.

    Only k <= dim-2 can fail for d_P and only k <= dim-1 for nu_P, so both
    scans are finite.  By Carathéodory a lattice point x of (k+1)P is
    (k+1)·Σλ_i v_i with at most dim+1 nonzero λ_i, so some λ_i >= 1/(dim+1);
    for k >= dim, x - v_i = Σμ_j v_j with μ_i = (k+1)λ_i - 1 >= 0, the other
    μ_j = (k+1)λ_j and Σμ_j = k, so x - v_i is a lattice point of kP.  Since
    n >= dim+1, this range is never longer than the k <= n-2 that the same
    argument gives with n in place of dim+1.

    One packing for dim levels serves both.  The chain of `_dilate_masks`
    from level 1 to dim - 1 counts the d_P test at every k <= dim - 2 as it
    builds the masks, so d_P is the highest level whose union falls short,
    or 1, the chain's first level.  nu_P shifts the kept mask of kP∩M by
    the packed vertices, for k = dim-1 down to the first k whose image
    misses a point of (k+1)P∩M.
    """
    packing = _packing(p, p.dim)
    chain = list(_dilate_masks(p, packing, 1, p.dim - 1))
    shifts = [packing.pack(v, 1) for v in p.vertices]
    # in dim 1 the chain is level 1 alone, and no k is tested
    nu_P = next((k + 1 for k, mask, _ in reversed(chain[:p.dim - 1])
                 if _shifted_union(mask, shifts).bit_count() != _point_count(p, k + 1)), 1)
    return max(j for j, _, fills in chain if not fills), nu_P


def _fills_next_dilate(p: Polytope, summand, k: int, m: int) -> bool:
    """Whether summand + kmP∩M = (k+1)mP∩M, summand a set of lattice points
    of mP.

    The sum lies in (k+1)mP∩M.  Packing is linear across levels,
    pack(x, km) + pack(b, m) = pack(x + b, (k+1)m), so under a packing
    injective up to level (k+1)m the packed sum is the shifted union of the
    mask of kmP∩M by the packed summand, and the two sets are equal exactly
    when it has |(k+1)mP∩M| bits set.  The mask of kmP∩M is the last of the
    `_dilate_masks` chain under that packing from level min(km, ceil(dim/2)),
    so the levels above max(d_P, ceil(dim/2)) are never listed.  A plain
    loop takes it, so no level below the one built from stays alive.
    """
    packing = _packing(p, (k + 1) * m)
    for _, mask, _ in _dilate_masks(p, packing, min(k * m, (p.dim + 1) // 2), k * m):
        pass
    image = _shifted_union(mask, [packing.pack(b, m) for b in summand])
    return image.bit_count() == _point_count(p, (k + 1) * m)


def compute_k_P(p: Polytope, m_P: int, d_P: int, max_k: int | None = None) -> int:
    """Smallest k0 such that P is k-normal for all k >= k0.

    Requires a very ample polytope (finite m_P): the scan is certified to
    terminate at or before (m_P - d_P)*n + 1, and once some k >= d_P is
    normal every larger k is as well, so the scan stops there and returns
    one past the largest failing k.

    d_P = 1 returns 1 with no tower built: S_1 = P∩M has no holes and
    k = 1 >= d_P, so the scan would stop at its first level and return 1.
    """
    if m_P is None:
        raise InvariantError("k_P undefined: polytope is not very ample")
    if d_P == 1:
        return 1
    cap = (m_P - d_P) * p.num_vertices + 1
    k = 1
    last_failing = 0
    while True:
        if hole_count(p, k):
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


def dilate_is_normal(p: Polytope, m: int) -> bool:
    """Whether the dilate mP is normal.

    mP is normal exactly when its own decomposition threshold is 1, that is
    when mP∩M + kmP∩M = (k+1)mP∩M for k = 1..dim-2, which is decided on P's
    own lattice points.  Any order of k gives that answer, so the scan runs
    upward, from the cheapest level, and stops at the first failing k;
    decomposition_thresholds scans nu_P down because it needs the largest
    one.
    """
    summand = p.lattice_points(m)
    return all(_fills_next_dilate(p, summand, k, m) for k in range(1, p.dim - 1))


def degree(p: Polytope) -> int:
    """Degree of P: dim if P has interior lattice points, else the smallest i
    such that kP is interior-point-free for 1 <= k <= dim - i.

    The interior points are counted, not listed, by Ehrhart-Macdonald
    reciprocity: |int(kP)∩M| = (-1)^dim·L(-k), and in the forward-difference
    form of `_ehrhart`, L(-k) = Σ Δ^i L(0)·C(-k, i) with
    C(-k, i) = (-1)^i·C(k+i-1, i), all in integers.
    """
    d = p.dim
    deltas = _ehrhart(p)
    for k in range(1, d + 1):
        if sum((-1) ** (d + i) * delta * comb(k + i - 1, i)
               for i, delta in enumerate(deltas)):
            return d - (k - 1)
    return 0


def volume_ehrhart(p: Polytope) -> int:
    """Normalized volume dim!·vol(P) via exact interpolation of |kP∩M|.

    The counts |kP∩M| for k = 0..ceil(dim/2) and, by reciprocity, the
    interior counts for k = 1..floor(dim/2) determine the degree-dim Ehrhart
    polynomial, whose leading coefficient is vol(P); in the
    forward-difference form of `_ehrhart` that coefficient is
    Δ^dim L(0) / dim!, so the normalized volume is the last difference.
    """
    vol = _ehrhart(p)[-1]
    if vol <= 0:
        raise AssertionError(f"normalized volume {vol} is not positive (bug)")
    return vol


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
    facet f of P meets the face exactly in G, and s_f(v0) > 0 because v0
    is not in G.  Conversely each f with s_f(v0) > 0 meets the face in
    the face {v : s_f(v) == 0}, which is a facet of it when its vertices
    have affine rank dim - 1.  Several f can cut the same G, so the vertex
    tuples are deduplicated.  Slacks are read off `Polytope.slack_table`.
    """
    if len(face) == dim + 1:
        return [face]
    slacks = p.slack_table()
    v0 = face[0]
    facets = {}
    for i, s in enumerate(slacks[v0]):
        if s == 0:
            continue
        sub_face = tuple(v for v in face if slacks[v][i] == 0)
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
    -normal·(u - v) = s_f(u) over the facets f tight at v.  gamma is the
    largest coefficient sum over pairs of vertices (the least scaling of
    every vertex corner simplex that contains P), and m_prime the largest
    single coefficient over vertices v and lattice points u != v.  Each of
    the dim coefficients is at most m_prime, so gamma <= dim * m_prime.
    Every slack is read off `Polytope.slack_table`.
    """
    slacks = p.slack_table()
    corners = []
    for v in p.vertices:
        tight = [i for i, s in enumerate(slacks[v]) if s == 0]
        if len(tight) != p.dim or abs(det_exact(tuple(p.facets[i].normal for i in tight))) != 1:
            return SmoothData(False, None, None)
        corners.append((v, tight))
    g = max(sum(slacks[u][i] for i in tight)
            for v, tight in corners for u in p.vertices if u != v)
    mp = max(slacks[u][i] for v, tight in corners for u in slacks if u != v for i in tight)
    if g > p.dim * mp:
        raise AssertionError(f"gamma={g} exceeds dim*m_prime={p.dim * mp} (bug)")
    return SmoothData(True, g, mp)
