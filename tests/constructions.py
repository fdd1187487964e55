"""Polytope constructions and queries that only the tests use.

The pipeline never builds a dilate, product or join and never lists
interior points: dilate normality is decided on P's own lattice points, and
interior points are counted by reciprocity.  The oracles and fixtures that
check those shortcuts build and list them here.  The pipeline counts holes
and lists them lazily; k_normality gathers a level's flag and hole set.
The facet slack of a point (slack), membership in a dilate (contains) and
the greedy split of a point of kP into a point of d_P·P plus units
(decompose_point) serve the tests only, as do build_family (the command
line takes specs through parse_family) and d_P_of, d_P alone.
"""

from types import SimpleNamespace

from polynorm.catalog import parse_family
from polynorm.exactmath import dot, scale, sub
from polynorm.invariants import (
    InvariantError,
    decomposition_thresholds,
    hole_count,
    iter_holes,
)
from polynorm.polytope import HalfSpace, Polytope, from_points

# The one-point polytope {()}.  polynorm builds no 0-dimensional polytope;
# product and join read only dim and vertices of a factor, so they take this
# stand-in.
POINT = SimpleNamespace(dim=0, vertices=((),))


def build_family(spec: str) -> Polytope:
    """Instantiate a textual family spec."""
    builder, params = parse_family(spec)
    return builder(*params)


def d_P_of(p: Polytope) -> int:
    """d_P, the first of decomposition_thresholds."""
    return decomposition_thresholds(p)[0]


def dilate(p: Polytope, m: int) -> Polytope:
    """The dilate m*P, constructed directly from the scaled vertices and
    facet offsets."""
    if m < 1:
        raise ValueError("dilation factor must be >= 1")
    if m == 1:
        return p
    return Polytope(
        tuple(scale(m, v) for v in p.vertices), p.dim,
        tuple(HalfSpace(f.normal, m * f.offset) for f in p.facets),
        f"{p.name}*{m}" if p.name else None,
    )


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


def slack(f: HalfSpace, point, k: int = 1) -> int:
    """k*offset - normal·point: >= 0 inside the k-th dilate, 0 if tight."""
    return k * f.offset - dot(f.normal, point)


def interior_lattice_points(p: Polytope, k: int = 1) -> frozenset:
    """Lattice points strictly inside the k-th dilate."""
    return frozenset(x for x in p.lattice_points(k)
                     if all(slack(f, x, k) > 0 for f in p.facets))


def contains(p: Polytope, point, k: int = 1) -> bool:
    """Membership of an integer point in the k-th dilate."""
    return all(slack(f, point, k) >= 0 for f in p.facets)


def decompose_point(p: Polytope, u, k: int, d_P: int):
    """Split u in kP∩M as x + (k - d_P) lattice points of P with x in d_P·P∩M.

    Greedy: at each level some unit always works because the level is at or
    above d_P; ties are broken lexicographically so the result is
    deterministic.
    """
    if k < d_P:
        raise InvariantError(f"k={k} must be >= d_P={d_P}")
    if not contains(p, u, k):
        raise InvariantError(f"{u} is not a lattice point of {k}P")
    units = []
    current = u
    pts = sorted(p.lattice_points(1))
    for level in range(k, d_P, -1):
        for w in pts:
            remainder = sub(current, w)
            if contains(p, remainder, level - 1):
                units.append(w)
                current = remainder
                break
        else:
            raise AssertionError("no unit peels off although level >= d_P (bug)")
    return current, tuple(units)


def k_normality(p: Polytope, k: int) -> tuple[bool, frozenset]:
    """(whether kP has no holes, the holes of kP)."""
    if not hole_count(p, k):
        return (True, frozenset())
    return (False, frozenset(iter_holes(p, k)))
