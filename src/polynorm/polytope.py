"""Exact lattice-polytope geometry.

Polytopes are stored with both representations: the extreme points and the
full facet list (primitive inward inequalities normal·x <= offset).  All
constructions are validated; everything is full-dimensional by design, and
all predicates are decided in exact integer or rational arithmetic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import mul

from .exactmath import (
    Vector,
    echelon,
    extend_echelon,
    neg,
    primitive,
    reaches_rank,
    sub,
    vec,
)


class GeometryError(ValueError):
    """Degenerate or invalid geometric input."""


@dataclass(frozen=True, order=True)
class HalfSpace:
    """One facet inequality normal·x <= offset, with primitive normal.  The
    slack s_f(x) = offset - normal·x of a point x is >= 0 inside, 0 if
    tight."""

    normal: Vector
    offset: int


class Polytope:
    """Full-dimensional lattice polytope.

    Immutable after construction except for five internal memos, all safe
    for concurrent readers: the lattice points per dilation factor and,
    next to them, the number of lattice points in the interior of each
    listed dilate, both filled idempotently by one row scan, the count
    before the points, so a reader who finds the points finds the count;
    the facet-slack table of `slack_table` and the Ehrhart
    polynomial of `invariants`, each computed the same way by every caller
    and set by one assignment; and the k-normality tower of `invariants`,
    an immutable state that is replaced whole by one assignment, so a
    reader sees the old tower or the extended or rebuilt one and never a
    half-built one.
    """

    __slots__ = ("vertices", "dim", "facets", "name", "_vertex_set", "_point_cache",
                 "_interior", "_slacks", "_ehrhart", "_tower")

    def __init__(self, vertices: tuple[Vector, ...], dim: int,
                 facets: tuple[HalfSpace, ...], name: str | None = None):
        self.vertices = vertices
        self.dim = dim
        self.facets = facets
        self.name = name
        self._validate()
        self._vertex_set = frozenset(vertices)
        self._point_cache: dict[int, frozenset[Vector]] = {}
        self._interior: dict[int, int] = {}
        self._slacks = None
        self._ehrhart = None
        self._tower = None

    # -- construction invariants -------------------------------------------

    def _validate(self):
        """Check the construction invariants, in this order.

        1. Shapes: the polytope has vertices and facets; every vertex is a
           tuple of d integers; every facet normal is a nonzero tuple of d
           integers and its offset an integer.  Integers follow the rule of
           `vec`, so bool is not one.
        2. Facet by facet: its normal is primitive, no vertex violates it,
           and it is tight at d affinely independent vertices.
        3. Vertex by vertex: it is extreme, the normals of the facets tight
           at it having rank d.
        4. No vertex and no facet is listed twice.

        Each check raises a GeometryError that names the vertex or facet.
        The types and lengths are read in one pass over all of them, and
        item by item only when one is off, to name the first offender.  A
        normal is primitive when the gcd of its entries is 1.  The slack of
        each vertex in each facet is computed once, by `sum(map(mul, ...))`:
        the shapes are checked, so no length is checked again.  The facet
        pass lists, for each vertex, the normals of the facets tight at it,
        which the vertex pass reads.

        Each rank check is one `reaches_rank` elimination over a list, and
        it stops at the rank it needs, which it cannot exceed.  A facet is
        tight at d affinely independent vertices exactly when the lifts
        (v, 1) of its tight vertices v reach rank d, since the rank of the
        lifts is one more than the affine rank of the points; every lift is
        orthogonal to (n, -c), for the facet's nonzero normal n and offset
        c, so d is the largest rank they can have.  Normals lie in Z^d, so
        d is theirs.  So stopping early accepts and rejects exactly what
        the full rank does; the shape checks come first because that
        argument needs them.  The repeat checks come last, so an input with
        a repeat and another fault is named by that fault.  Two facets that
        pass the facet checks with one normal have one offset too, as each
        is tight at a vertex that the other holds, so a repeated facet is
        found by its normal.
        """
        d = self.dim
        vertices, facets = self.vertices, self.facets
        if not vertices or not facets:
            raise GeometryError("polytope needs vertices and facets")
        normals = [f.normal for f in facets]
        odd = ({*map(type, vertices), *map(type, normals)} != {tuple}
               or {*map(type, chain(chain.from_iterable(vertices), chain.from_iterable(normals),
                                    [f.offset for f in facets]))} != {int})
        if odd or {*map(len, vertices), *map(len, normals)} != {d} or not all(map(any, normals)):
            for v in vertices:
                if odd and not _integer_tuple(v):
                    raise GeometryError(f"vertex {v} is not a tuple of integers")
                if len(v) != d:
                    raise GeometryError(f"vertex {v} does not have {d} coordinates")
            for f in facets:
                if odd and not _integer_tuple(f.normal):
                    raise GeometryError(f"facet {f} has a normal that is not a tuple of integers")
                if len(f.normal) != d:
                    raise GeometryError(f"facet {f} does not have a normal of {d} coordinates")
                if not any(f.normal):
                    raise GeometryError(f"facet {f} has the zero normal")
                if odd and not _integer_tuple((f.offset,)):
                    raise GeometryError(f"facet {f} has an offset that is not an integer")
        lifted = [v + (1,) for v in vertices]
        tight_at = [[] for _ in vertices]  # the normals of the facets tight at each vertex
        for f, n in zip(facets, normals):
            if gcd(*n) != 1:
                raise GeometryError(f"facet normal {n} is not primitive")
            c = f.offset
            slacks = [c - sum(map(mul, n, v)) for v in vertices]
            if min(slacks) < 0:
                v = next(v for v, s in zip(vertices, slacks) if s < 0)
                raise GeometryError(f"vertex {v} violates facet {f}")
            tight = [j for j, s in enumerate(slacks) if not s]
            if len(tight) < d or not reaches_rank([lifted[j] for j in tight], d):
                raise GeometryError(f"facet {f} is not tight at d affinely independent vertices")
            for j in tight:
                tight_at[j].append(n)
        for v, active in zip(vertices, tight_at):
            if not reaches_rank(active, d):
                raise GeometryError(f"listed point {v} is not extreme")
        for kind, items, keys in (("vertex", vertices, vertices), ("facet", facets, normals)):
            if len(set(keys)) < len(keys):
                seen = set()
                for x in items:
                    if x in seen:
                        raise GeometryError(f"{kind} {x} is listed twice")
                    seen.add(x)

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def is_vertex(self, point: Vector) -> bool:
        return point in self._vertex_set

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (f"<Polytope{label} dim={self.dim} vertices={self.num_vertices} "
                f"facets={len(self.facets)}>")

    # -- lattice points ------------------------------------------------------

    def lattice_points(self, k: int = 1) -> frozenset[Vector]:
        """All lattice points of the k-th dilate, read off the rows of `_rows`,
        whose interior lengths are summed into the memo `_interior[k]`,
        |int(kP)∩M|, on the same scan."""
        if k < 1:
            raise ValueError("dilation factor must be >= 1")
        cached = self._point_cache.get(k)
        if cached is not None:
            return cached
        rows = list(self._rows(k))
        points = frozenset(prefix + (z,) for prefix, lo, hi, _ in rows
                           for z in range(lo, hi + 1))
        # setdefault keeps the fill idempotent under concurrent callers; the
        # count is published first, so a reader of the points finds it
        self._interior.setdefault(k, sum(row[3] for row in rows))
        return self._point_cache.setdefault(k, points)

    def slack_table(self) -> dict[Vector, tuple[int, ...]]:
        """{u: (s_f(u) for each facet f, in facet order)} over the lattice
        points u of P, memoized."""
        table = self._slacks
        if table is None:
            facets = [(f.normal, f.offset) for f in self.facets]
            table = self._slacks = {
                u: tuple(c - sum(map(mul, a, u)) for a, c in facets)
                for u in self.lattice_points(1)}
        return table

    def _rows(self, k: int):
        """The lattice points of kP as rows (prefix, lo, hi, inner): the
        points prefix + (z,) for lo <= z <= hi, in lexicographic order, where
        the prefix is the first dim-1 coordinates and no row is empty, and
        inner is the number of the row's points that lie in the interior of
        kP.  The rows come one at a time, so a reader that stops early scans
        no further.

        The scan walks the prefixes depth first over the coordinates x_0,
        x_1, ... and carries each facet's residual r_f = k·c_f - a_f·prefix,
        so fixing a coordinate subtracts one column of the normals.  Let
        floor_f(i+1) = Σ_{j>i} min(a_{f,j}·k·lo_j, a_{f,j}·k·hi_j) be the
        least value of the rest of a_f·x over the bounding box of kP.  At
        depth i, x_i runs over the box range cut by every facet:
        r_f - a_{f,i}·x_i >= floor_f(i+1), that is
        x_i <= (r_f - floor) // a when a = a_{f,i} > 0 and
        x_i >= -((r_f - floor) // -a) when a < 0, in exact integer division;
        a facet with a = 0 either admits every x_i (r_f >= floor) or none.
        A value outside that range violates facet f for every completion
        inside the box, so no point is lost, and since the values inside it
        are visited in increasing order the rows come out in lexicographic
        order, each non-empty row exactly once.  At the last coordinate
        floor_f = 0, so its range is exactly the row.

        One generator frame walks the prefixes over an explicit stack:
        prefix[i] is x_i, ends[i] the top of its range and residual[i] the
        residuals once x_0 .. x_(i-1) are fixed, so stepping x_i subtracts
        one column from residual[i+1].  The cuts are plain loops over the
        facets that bound a coordinate from above, from below or not at all.
        The interior of a row is exact too: normals and offsets are
        integers, so a lattice point x has a_f·x < k·c_f exactly when
        a_f·x <= k·c_f - 1, that is a·z <= r_f - 1 for the last coordinate z
        and a = a_{f,d-1}, and a facet with a = 0 holds the whole row
        strictly exactly when r_f >= 1.  The interior of a row lies in the
        row, so its range starts from the row's; every interior point lies
        in kP, so its row is scanned, and summing inner over the rows counts
        int(kP)∩M.
        """
        d = self.dim
        normals = [f.normal for f in self.facets]
        box = [(k * min(c), k * max(c)) for c in zip(*self.vertices)]
        floor = [0] * len(normals)
        cuts = [None] * d  # per depth: (above, below, flat, box range)
        columns = [None] * d
        for i in reversed(range(d)):
            lo, hi = box[i]
            column = columns[i] = [a[i] for a in normals]
            cuts[i] = ([(f, a, floor[f]) for f, a in enumerate(column) if a > 0],
                       [(f, -a, floor[f]) for f, a in enumerate(column) if a < 0],
                       [(f, floor[f]) for f, a in enumerate(column) if a == 0],
                       lo, hi)
            floor = [fl + min(a * lo, a * hi) for fl, a in zip(floor, column)]
        last = d - 1
        # at the last depth every floor is 0
        above_z = [(f, a) for f, a, _ in cuts[last][0]]
        below_z = [(f, b) for f, b, _ in cuts[last][1]]
        flat_z = [f for f, _ in cuts[last][2]]
        lo_z, hi_z = box[last]
        prefix = [0] * last
        ends = [0] * last
        residual = [None] * d
        residual[0] = [k * f.offset for f in self.facets]
        i = 0
        while True:
            r = residual[i]
            if i < last:
                above, below, flat, lo, hi = cuts[i]
                for f, fl in flat:
                    if r[f] < fl:
                        hi = lo - 1
                        break
                else:
                    for f, a, fl in above:
                        t = (r[f] - fl) // a
                        if t < hi:
                            hi = t
                    for f, b, fl in below:
                        t = -((r[f] - fl) // b)
                        if t > lo:
                            lo = t
                if lo <= hi:
                    prefix[i] = lo
                    ends[i] = hi
                    i += 1
                    residual[i] = [x - a * lo for x, a in zip(r, columns[i - 1])]
                    continue
            else:
                for f in flat_z:
                    if r[f] < 0:
                        break
                else:
                    lo, hi = lo_z, hi_z
                    for f, a in above_z:
                        t = r[f] // a
                        if t < hi:
                            hi = t
                    for f, b in below_z:
                        t = -(r[f] // b)
                        if t > lo:
                            lo = t
                    if lo <= hi:
                        inner = 0
                        for f in flat_z:
                            if r[f] < 1:
                                break
                        else:
                            ilo, ihi = lo, hi
                            for f, a in above_z:
                                t = (r[f] - 1) // a
                                if t < ihi:
                                    ihi = t
                            for f, b in below_z:
                                t = -((r[f] - 1) // b)
                                if t > ilo:
                                    ilo = t
                            if ilo <= ihi:
                                inner = ihi - ilo + 1
                        yield tuple(prefix), lo, hi, inner
            # step the deepest coordinate that is below the top of its range
            i -= 1
            while i >= 0 and prefix[i] == ends[i]:
                i -= 1
            if i < 0:
                return
            prefix[i] += 1
            column = columns[i]
            i += 1
            residual[i] = [x - a for x, a in zip(residual[i], column)]


def _integer_tuple(v) -> bool:
    """True when v is a tuple that `vec` takes as it is: of ints, not bools."""
    try:
        vec(v)
    except TypeError:
        return False
    return isinstance(v, tuple)


# -- hull construction ---------------------------------------------------------


def _halfspace(point: Vector, basis, inside: Vector) -> HalfSpace:
    """The inequality of the hyperplane through point spanned by the d-1
    rows of the echelon basis, oriented to hold inside/(d+1) strictly.

    The normal is solved by back-substitution.  The rows have distinct
    pivots, so one column is free: start from its unit vector.  Walk the
    rows from last to first.  Every row after the current one is zero in
    its pivot column c and orthogonal to the normal so far; let s be the
    current row's dot product with the normal (whose entry at c is still
    0), a the row's pivot entry and g = gcd(a, s).  Scaling the normal by
    a/g and setting entry c to -s/g makes it orthogonal to this row too,
    and keeps it orthogonal to the later rows and nonzero at the free
    column; when s is 0 the normal is already orthogonal to the row and is
    left as it is.  Each step keeps the normal primitive, since
    gcd(a/g, s/g) = 1, so `primitive` only makes it a tuple.  The rows are
    independent, so their orthogonal complement is a line: the normal is
    the primitive cofactor normal (the signed (d-1)-minors of the rows) up
    to sign, and the orientation test fixes the sign.
    """
    d = len(point)
    pivots = {c for c, _ in basis}
    normal = [0] * d
    normal[next(c for c in range(d) if c not in pivots)] = 1
    for c, row in reversed(basis):
        s = sum(map(mul, row, normal))
        if s:
            a = row[c]
            g = gcd(a, s)
            normal = [x * (a // g) for x in normal]
            normal[c] = -s // g
    normal = primitive(normal)
    offset = sum(map(mul, normal, point))
    if sum(map(mul, normal, inside)) > (d + 1) * offset:
        normal, offset = neg(normal), -offset
    return HalfSpace(normal, offset)


def _hull_tight_sets(pts: list[Vector]) -> tuple[dict[HalfSpace, set[Vector]],
                                                  tuple[Vector, ...]]:
    """Each facet of the convex hull of a full-dimensional point set, mapped
    to its tight set, the points of pts that lie on it; and the vertices of
    the hull, in sorted order.  pts is sorted, without repeats and not
    empty.

    Exact-integer beneath-beyond with the update step of the double
    description method.  The first affinely independent points in sorted
    order span a d-simplex: each point's difference from pts[0] is reduced
    once against the echelon basis of the differences kept so far, and
    kept when it grows the basis.  The simplex's d + 1 facets are solved by
    `_halfspace` and oriented to hold its centroid strictly; the basis of
    the facet through pts[0] without the i-th kept point starts from the
    search's first i - 1 rows, which span the first i - 1 differences, as
    the rows are reduced in order.  Each facet keeps its tight set, the
    indices into pts of the points inserted so far that lie on it, and an
    index maps each point to the facets through it.  The points not in
    the simplex are inserted one at a time in sorted order, each in one
    pass over the facets that computes its slack in each, once, into a
    table that every later use reads; a facet is visible from p when p
    has negative slack in it.

    - Every inserted p sees a facet, as it lies outside conv(Q), Q the
      points inserted before it.  Let A be the affine span of the simplex
      points that precede p in sorted order.  A point that precedes p and
      is not in the simplex lies in A: either it precedes the last simplex
      point, and was skipped as lying in the span of the simplex points
      before it, or A is the whole space.  p lies in A too.  The simplex
      points after p are affinely independent over A, so a hyperplane
      through A has them strictly on one side, and conv(Q) ∩ A is the hull
      of the points of Q that precede p.  p is the lexicographic maximum
      of those points and itself, so it is a vertex of their hull and lies
      outside conv(Q).
    - The facets of the new hull conv(Q ∪ {p}) are the facets of
      conv(Q) that p is not beyond, and the cones over p of the horizon
      ridges, the ridges between a visible facet f and a facet g that is
      not visible.  A seen point on a new facet H lies in
      conv(Q) ∩ H = f ∩ g, so its tight set is the ridge plus p.
    - Ridges from tight sets.  Every vertex of conv(Q) is in Q and the
      tight sets are complete, so the points that the tight sets of f and
      g share are the points of Q on the face f ∩ g, its vertices among
      them.  So f and g meet in a ridge exactly when they share at least
      d-1 points and no third facet's tight set holds all of them: a ridge
      has d-1 affinely independent vertices and lies in exactly two
      facets, and a face of dimension < d-2 lies in at least three.  The
      facets whose tight sets hold all the shared points are the
      intersection of the points' index entries, so the ridge test is that
      this intersection is {f, g}.
    - Simplex facets.  A visible f tight at exactly d points is a
      (d-1)-simplex on them: its vertices are among its points, and it
      has at least d.  So each d-1 of them span a face of f, a ridge,
      which lies in f and in exactly one other facet g.  The tight sets
      are complete, so f and g are the only facets whose index entries
      hold all d-1 points: g is the intersection of those entries less f,
      with no count and no third-facet test.  In d = 1 every facet is a
      point, the ridge is empty and lies in both facets of the segment,
      and g is the other one.
    - Other facets.  The candidates g of a visible f tight at more than d
      points are the facets in the index entries of f's points that are
      not visible, so no pair of facets without a shared point is
      visited, and each is kept when its shared points, at least d-1 of
      them, pass the ridge test above.
    - Normals by combination.  Let s_f < 0 <= s_g be the slacks of p in f
      and g.  The inequality N·x <= C with N = s_g·n_f - s_f·n_g and
      C = s_g·c_f - s_f·c_g is a nonnegative combination of the two, so it
      holds on conv(Q) and is tight on the ridge; expanding N·p with
      n·p = c - s gives N·p = C, so it is tight at p too.  N is not zero:
      the outward normals n_f and n_g are distinct and primitive, and only
      in d = 1 opposite, where N = (c_f + c_g)·n_f and c_f + c_g is the
      length of the segment.  So N·x <= C is the new facet's inequality,
      oriented without a test, and dividing by gcd(N) makes it primitive;
      that gcd divides C = N·p.  When s_g = 0 the combination is
      -s_f·(n_g, c_g), that is g itself, taken as it is: the cone merges
      into g and p joins g's tight set, as a cube's last vertex extends
      three square facets.  That covers every p on the hyperplane H of a
      kept g: p is in H but not in g, so within H it violates the
      inequality of some facet f that meets g in a ridge, and f is
      visible.
    - Keys.  A facet of a full-dimensional polytope is determined by its
      primitive outward normal, so facets are keyed by it during the
      insertion, and cones over several ridges that span one hyperplane
      merge into one facet.  The visible facets are dropped before the
      new ones are keyed: in d = 1 the new facet has the visible one's
      normal.  A kept facet that a cone merges into gains p alone: the
      cone's ridge lies in the facet, so its points are already in the
      facet's complete tight set.  Each HalfSpace is built once, at the
      end.

    Every intermediate hull is exactly conv of the points inserted so far,
    so the result is the set of facets of conv(points): the same primitive
    inequalities, sorted, as keeping every d-subset hyperplane with all
    points on one side.  Every point is inserted, so each tight set is
    complete: it holds every point of pts on the facet, and the index maps
    each point to every facet through it.

    A point is a vertex exactly when the tight sets of the facets through
    it intersect in that point alone.  A vertex is the intersection of the
    facets through it.  A point in the relative interior of a face G of
    positive dimension lies only on facets that contain G, so every facet
    through it also holds the vertices of G, which are points of pts.  A
    point on no facet is interior.
    """
    d = len(pts[0])
    if len(set(map(len, pts))) > 1:
        raise GeometryError("points of mixed dimension")
    origin = pts[0]
    simplex, basis = [0], []
    for i in range(1, len(pts)):
        if extend_echelon(basis, sub(pts[i], origin)):
            simplex.append(i)
            if len(simplex) == d + 1:
                break
    if len(simplex) <= d:
        raise GeometryError("point set is not full-dimensional "
                            f"(affine rank {len(simplex) - 1} < {d})")
    corners = [pts[i] for i in simplex]
    inside = tuple(map(sum, zip(*corners)))  # (d+1) times the centroid
    # facets keyed by primitive normal: offset, tight set of point indices
    offset: dict[Vector, int] = {}
    tight: dict[Vector, set[int]] = {}
    through: list[set[Vector]] = [set() for _ in pts]
    for i in range(d + 1):
        if i:
            # the search's first i - 1 rows span the first i - 1 differences
            face = basis[:i - 1]
            for q in corners[i + 1:]:
                extend_echelon(face, sub(q, origin))
            h = _halfspace(origin, face, inside)
        else:
            h = _halfspace(corners[1], echelon(sub(q, corners[1]) for q in corners[2:]), inside)
        offset[h.normal] = h.offset
        tight[h.normal] = set(simplex[:i] + simplex[i + 1:])
        for x in tight[h.normal]:
            through[x].add(h.normal)
    skip = set(simplex)
    for i, p in enumerate(pts):
        if i in skip:
            continue
        slack = {n: c - sum(map(mul, n, p)) for n, c in offset.items()}
        visible = {n: s for n, s in slack.items() if s < 0}
        new: dict[Vector, tuple[int, set[int]]] = {}
        for f, s_f in visible.items():
            on_f = tight[f]
            horizon = []  # (g, ridge) for each horizon ridge of f
            if len(on_f) == d:
                for x in on_f:
                    ridge = on_f - {x}
                    g, = (set.intersection(*map(through.__getitem__, ridge)) if d > 1
                          else set(offset)) - {f}
                    if g not in visible:
                        horizon.append((g, ridge))
            else:
                for g in set().union(*map(through.__getitem__, on_f)).difference(visible):
                    ridge = on_f & tight[g]
                    if len(ridge) >= d - 1 and len(
                            set.intersection(*map(through.__getitem__, ridge))) == 2:
                        horizon.append((g, ridge))
            for g, ridge in horizon:
                s_g = slack[g]
                if s_g:
                    normal = [s_g * a - s_f * b for a, b in zip(f, g)]
                    q = gcd(*normal)
                    n = tuple(normal) if q == 1 else tuple([a // q for a in normal])
                    c = (s_g * offset[f] - s_f * offset[g]) // q
                else:
                    n, c = g, offset[g]
                new.setdefault(n, (c, {i}))[1].update(ridge)
        for f in visible:
            del offset[f]
            for x in tight.pop(f):
                through[x].discard(f)
        for n, (c, on_n) in new.items():
            if n in tight:  # a kept facet through p, which gains p alone
                tight[n].add(i)
                through[i].add(n)
            else:
                offset[n], tight[n] = c, on_n
                for x in on_n:
                    through[x].add(n)
    vertices = tuple(pts[i] for i, on in enumerate(through)
                     if on and len(set.intersection(*map(tight.__getitem__, on))) == 1)
    return ({HalfSpace(n, c): set(map(pts.__getitem__, tight[n])) for n, c in offset.items()},
            vertices)


def from_points(points, name: str | None = None) -> Polytope:
    """Validated polytope from any full-dimensional set of lattice points,
    each with at least one coordinate, with the facets and vertices of
    `_hull_tight_sets`."""
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise GeometryError("empty point set")
    d = len(pts[0])
    if d == 0:
        raise GeometryError("points must have at least one coordinate")
    tight, vertices = _hull_tight_sets(pts)
    return Polytope(vertices, d, tuple(sorted(tight)), name)


# -- input formats ---------------------------------------------------------------


def parse_points_json(text: str):
    """JSON polytope input: {"name": optional, "vertices": [[int, ...], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise GeometryError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict) or "vertices" not in data:
        raise GeometryError('JSON input must be an object with a "vertices" array')
    rows = data["vertices"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise GeometryError('"vertices" must be an array of coordinate arrays')
    if any(not r for r in rows):
        raise GeometryError("points must have at least one coordinate")
    try:
        points = [vec(r) for r in rows]
    except TypeError as e:
        raise GeometryError(str(e)) from e
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GeometryError('"name" must be a string')
    return points, name


_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(text: str) -> int:
    """The one rule for integers in every input, family specs and flags as
    well as vertex files: an optionally signed run of ASCII digits, where
    int() alone would also take '1_0' and non-ASCII digits.  The ValueError
    names the text."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(repr(text))
    return int(text)


def parse_points_text(text: str):
    """Plain-text polytope input: one point per line of `integer`
    coordinates, '#' comments ignored."""
    points = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            points.append(tuple(map(integer, body.split())))
        except ValueError as e:
            raise GeometryError(
                f"line {lineno}: coordinates must be integers, got {e}") from None
    return points, None
