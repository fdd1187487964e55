"""Exact lattice-polytope geometry.

Polytopes are stored with both representations: the extreme points and the
full facet list (primitive inward inequalities normal·x <= offset).  All
constructions are validated; everything is full-dimensional by design, and
all predicates are decided in exact integer or rational arithmetic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import gcd

from .exactmath import (
    Vector,
    det_exact,
    dot,
    neg,
    primitive,
    rank,
    scale,
    sub,
    vec,
)


class GeometryError(ValueError):
    """Degenerate or invalid geometric input."""

    def __init__(self, message: str, *, affine_rank: int | None = None):
        super().__init__(message)
        self.affine_rank = affine_rank


@dataclass(frozen=True, order=True)
class HalfSpace:
    """One facet inequality normal·x <= offset, with primitive normal."""

    normal: Vector
    offset: int

    def slack(self, point: Vector, k: int = 1) -> int:
        """k*offset - normal·point; >= 0 inside the k-th dilate, 0 if tight."""
        return k * self.offset - dot(self.normal, point)


class Polytope:
    """Full-dimensional lattice polytope.

    Immutable after construction except for two internal memos, both safe
    for concurrent readers: the lattice points per dilation factor, filled
    idempotently, and the k-normality tower of `invariants`, an immutable
    state that is replaced whole by one assignment, so a reader sees the old
    tower or the extended one and never a half-extended one.
    """

    __slots__ = ("vertices", "dim", "facets", "name", "_vertex_set", "_point_cache",
                 "_tower")

    def __init__(self, vertices: tuple[Vector, ...], dim: int,
                 facets: tuple[HalfSpace, ...], name: str | None = None):
        self.vertices = vertices
        self.dim = dim
        self.facets = facets
        self.name = name
        self._vertex_set = frozenset(vertices)
        self._point_cache: dict[int, frozenset[Vector]] = {}
        self._tower = None
        self._validate()

    # -- construction invariants -------------------------------------------

    def _validate(self):
        d = self.dim
        if d == 0:
            if self.vertices != ((),) or self.facets != ():
                raise GeometryError("invalid 0-dimensional polytope")
            return
        if not self.vertices or not self.facets:
            raise GeometryError("polytope needs vertices and facets")
        for f in self.facets:
            if primitive(f.normal) != f.normal:
                raise GeometryError(f"facet normal {f.normal} is not primitive")
            for v in self.vertices:
                if f.slack(v) < 0:
                    raise GeometryError(f"vertex {v} violates facet {f}")
            tight = [v for v in self.vertices if f.slack(v) == 0]
            if len(tight) < d or rank(tuple(sub(p, tight[0]) for p in tight[1:])) != d - 1:
                raise GeometryError(f"facet {f} is not tight at d affinely independent vertices")
        for v in self.vertices:
            active = tuple(f.normal for f in self.facets if f.slack(v) == 0)
            if rank(active) != d:
                raise GeometryError(f"listed point {v} is not extreme")

    # -- basic queries -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def is_vertex(self, point: Vector) -> bool:
        return point in self._vertex_set

    def contains(self, point: Vector, k: int = 1) -> bool:
        """Membership of an integer point in the k-th dilate."""
        return all(f.slack(point, k) >= 0 for f in self.facets)

    def strictly_contains(self, point: Vector, k: int = 1) -> bool:
        if self.dim == 0:
            return False
        return all(f.slack(point, k) > 0 for f in self.facets)

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
        """All lattice points of the k-th dilate, scanned row by row.

        The first dim-1 coordinates run over the bounding box of kP.  For each
        such prefix every facet a·x <= k·c bounds the last coordinate z by
        a_z·z <= r, with r = k·c minus the prefix part of a·x: z <= r // a_z
        when a_z > 0 and z >= ceil(r/a_z) = -(r // -a_z) when a_z < 0, in exact
        integer division.  A facet with a_z = 0 either holds on the whole row
        (r >= 0) or empties it.
        """
        if k < 1:
            raise ValueError("dilation factor must be >= 1")
        cached = self._point_cache.get(k)
        if cached is not None:
            return cached
        if self.dim == 0:
            points = frozenset({()})
        else:
            axes = [range(k * min(c), k * max(c) + 1)
                    for c in itertools.islice(zip(*self.vertices), self.dim - 1)]
            upper = [(f.normal[:-1], f.normal[-1], k * f.offset)
                     for f in self.facets if f.normal[-1] > 0]
            lower = [(f.normal[:-1], -f.normal[-1], k * f.offset)
                     for f in self.facets if f.normal[-1] < 0]
            flat = [(f.normal[:-1], k * f.offset) for f in self.facets if f.normal[-1] == 0]
            # a bounded polytope has facets with a_z > 0 and with a_z < 0
            found = []
            for prefix in itertools.product(*axes):
                if any(dot(head, prefix) > c for head, c in flat):
                    continue
                hi = min((c - dot(head, prefix)) // a for head, a, c in upper)
                lo = -min((c - dot(head, prefix)) // b for head, b, c in lower)
                found.extend(prefix + (z,) for z in range(lo, hi + 1))
            points = frozenset(found)
        # setdefault keeps the fill idempotent under concurrent callers
        return self._point_cache.setdefault(k, points)

    def interior_lattice_points(self, k: int = 1) -> frozenset[Vector]:
        """Lattice points strictly inside the k-th dilate."""
        return frozenset(p for p in self.lattice_points(k) if self.strictly_contains(p, k))

    # -- derived constructions ------------------------------------------------

    def dilate(self, m: int, name: str | None = None) -> "Polytope":
        """The dilate m*P, constructed directly from the scaled data."""
        if m < 1:
            raise ValueError("dilation factor must be >= 1")
        if m == 1:
            return self
        return Polytope(
            tuple(scale(m, v) for v in self.vertices), self.dim,
            tuple(HalfSpace(f.normal, m * f.offset) for f in self.facets),
            name or (f"{self.name}*{m}" if self.name else None),
        )


# -- hull construction ---------------------------------------------------------


def _hyperplane_normal(points: tuple[Vector, ...]) -> Vector | None:
    """Normal of the hyperplane through d points of ZZ^d (cofactor cross product).

    Returns None when the points do not affinely span a hyperplane.
    """
    d = len(points[0])
    diffs = [sub(p, points[0]) for p in points[1:]]
    normal = []
    sign = 1
    for i in range(d):
        minor = tuple(tuple(row[j] for j in range(d) if j != i) for row in diffs)
        normal.append(sign * det_exact(minor))
        sign = -sign
    if all(x == 0 for x in normal):
        return None
    return tuple(normal)


def hrep_from_vrep(points) -> tuple[HalfSpace, ...]:
    """Facet inequalities of the convex hull of a full-dimensional point set.

    Brute force over d-subsets: each candidate hyperplane is kept iff every
    input point lies on one side.  Exact, and every facet is found because a
    facet contains d affinely independent hull vertices.
    """
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise GeometryError("empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise GeometryError("points of mixed dimension")
    if d == 0:
        return ()
    arank = rank(tuple(sub(p, pts[0]) for p in pts[1:]))
    if arank < d:
        raise GeometryError(
            f"point set is not full-dimensional (affine rank {arank} < {d})",
            affine_rank=arank)
    found = set()
    for subset in itertools.combinations(pts, d):
        normal = _hyperplane_normal(subset)
        if normal is None:
            continue
        c = dot(normal, subset[0])
        above = below = False
        for p in pts:
            s = dot(normal, p)
            if s > c:
                above = True
            elif s < c:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if above:
            normal, c = neg(normal), -c
        g = gcd(*normal)
        found.add(HalfSpace(tuple(x // g for x in normal), c // g))
    return tuple(sorted(found))


def from_points(points, name: str | None = None) -> Polytope:
    """Validated polytope from any full-dimensional set of lattice points."""
    pts = sorted({vec(p) for p in points})
    if not pts:
        raise GeometryError("empty point set")
    d = len(pts[0])
    if d == 0:
        return Polytope(((),), 0, (), name)
    facets = hrep_from_vrep(pts)
    verts = []
    for p in pts:
        active = tuple(f.normal for f in facets if f.slack(p) == 0)
        if rank(active) == d:
            verts.append(p)
    return Polytope(tuple(verts), d, facets, name)


# -- product / join ------------------------------------------------------------


def product(p: Polytope, q: Polytope, name: str | None = None) -> Polytope:
    """Cartesian product; vertices are all pairs of factor vertices."""
    points = [u + w for u in p.vertices for w in q.vertices]
    return from_points(points, name)


def join(p: Polytope, q: Polytope, name: str | None = None) -> Polytope:
    """Join: embed the factors at heights 0 and 1 of a fresh coordinate.

    The result lives in dimension dim(p) + dim(q) + 1 and has
    |vertices(p)| + |vertices(q)| vertices.
    """
    zp = (0,) * p.dim
    zq = (0,) * q.dim
    points = [u + zq + (0,) for u in p.vertices]
    points += [zp + w + (1,) for w in q.vertices]
    return from_points(points, name)


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


def parse_points_text(text: str):
    """Plain-text polytope input: one point per line, '#' comments ignored."""
    points = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            points.append(vec(int(tok) for tok in body.split()))
        except ValueError as e:
            raise GeometryError(f"line {lineno}: {e}") from e
    return points, None
