"""Built-in polytope families and seeded random generation.

The family grammar is shared with the command line:

    cube:D  simplex:D  bruns:S  higashitani:D,H  reeve  random:D,BOUND,COUNT,SEED
"""

from __future__ import annotations

import itertools

from .polytope import GeometryError, Polytope, from_points, integer

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: a tiny 64-bit generator with published constants.

    Chosen for reproducibility: the same seed yields the same stream on any
    platform or implementation, with no dependence on library internals.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); deterministic, bias negligible for
        the tiny ranges used here."""
        return self.next_u64() % n


def cube(d: int) -> Polytope:
    """Unit d-dimensional hypercube, vertices {0,1}^d."""
    if d < 1:
        raise ValueError("cube dimension must be >= 1")
    return from_points(itertools.product((0, 1), repeat=d), name=f"cube:{d}")


def standard_simplex(d: int) -> Polytope:
    """conv(0, e_1, ..., e_d)."""
    if d < 1:
        raise ValueError("simplex dimension must be >= 1")
    points = [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return from_points(points, name=f"simplex:{d}")


def bruns_gubeladze(s: int) -> Polytope:
    """The 3-dimensional very ample, non-normal family with parameter s >= 4.

    Vertices are the columns of
        0 1 0 0 1 0 1 1
        0 0 1 0 0 1 1 1
        0 0 0 1 1 1 s s+1
    """
    if s < 4:
        raise ValueError("bruns parameter must be >= 4")
    cols = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 0, 1), (0, 1, 1), (1, 1, s), (1, 1, s + 1)]
    return from_points(cols, name=f"bruns:{s}")


def higashitani(d: int, h: int) -> Polytope:
    """The d-dimensional very ample family with exactly h holes (d>=3, h>=1).

    Vertex list taken verbatim: u_1..u_10 plus e_i and e_i + e_d for
    i = 2..d-1.  The fixed coefficients 4 and 5 on e_d in u_7, u_8 are part
    of the construction and independent of h.
    """
    if d < 3 or h < 1:
        raise ValueError("higashitani parameters require d >= 3 and h >= 1")
    e = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    mid = tuple(int(1 <= j <= d - 2) for j in range(d))  # e_2 + ... + e_{d-1}
    e_d = e[d - 1]

    def combo(a, u, b, v):
        return tuple(a * x + b * y for x, y in zip(u, v))

    us = [
        (0,) * d,
        e_d,
        mid,
        combo(h, mid, h, e_d),
        combo(h - 1, mid, h, e_d),
        combo(h, mid, h - 1, e_d),
        combo(1, e[0], 4, e_d),
        combo(1, e[0], 5, e_d),
        combo(1, e[0], 1, mid),
        tuple(x + y + z for x, y, z in zip(e[0], mid, e_d)),
    ]
    vs = [e[i] for i in range(1, d - 1)]
    vs += [combo(1, e[i], 1, e_d) for i in range(1, d - 1)]
    return from_points(us + vs, name=f"higashitani:{d},{h}")


def reeve_like() -> Polytope:
    """conv(0, (1,1,0), (1,0,1), (0,1,1)): the standard non-very-ample fixture.

    Every generator sum at the origin has even coordinate sum, so (1,1,1)
    is in the cone but never in the semigroup.
    """
    return from_points([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)], name="reeve")


def random_polytope(d: int, coordinate_bound: int, point_count: int, seed: int) -> Polytope:
    """Hull of point_count random points with coordinates in [0, bound].

    Deterministic for a given seed; the point set is resampled whole until
    it affinely spans the ambient space, which from_points checks (at most
    1000 attempts).
    """
    if not 2 <= d <= 4:
        raise ValueError("random polytopes support dimensions 2..4")
    if coordinate_bound < 1 or point_count < d + 1:
        raise ValueError("need bound >= 1 and at least d+1 points")
    rng = SplitMix64(seed)
    for _ in range(1000):
        points = [tuple(rng.below(coordinate_bound + 1) for _ in range(d))
                  for _ in range(point_count)]
        try:
            return from_points(
                points, name=f"random:{d},{coordinate_bound},{point_count},{seed}")
        except GeometryError:
            continue
    raise GeometryError("random sampling failed to span the space after 1000 attempts")


def default_catalog() -> list[Polytope]:
    """The fixed regression set used across the test and check suites."""
    polys = [cube(2), cube(3), cube(4)]
    polys += [standard_simplex(d) for d in (2, 3, 4)]
    polys += [bruns_gubeladze(s) for s in (4, 5, 6)]
    polys += [higashitani(3, h) for h in (1, 2, 3)]
    polys.append(reeve_like())
    return polys


# The family grammar: each name with its builder and its number of parameters.
FAMILIES = {
    "cube": (cube, 1),
    "simplex": (standard_simplex, 1),
    "bruns": (bruns_gubeladze, 1),
    "higashitani": (higashitani, 2),
    "reeve": (reeve_like, 0),
    "random": (random_polytope, 4),
}


def parse_family(spec: str):
    """Parse a family spec string into (builder, params); raises ValueError
    if it is not one."""
    head, _, tail = spec.partition(":")
    head = head.strip()
    if head not in FAMILIES:
        raise ValueError(f"unknown family {head!r}")
    builder, arity = FAMILIES[head]
    if arity == 0:
        if tail:
            raise ValueError(f"family {head!r} takes no parameters")
        return builder, ()
    try:
        params = tuple(integer(tok) for tok in tail.split(","))
    except ValueError:
        raise ValueError(f"family {head!r} needs integer parameters, got {tail!r}") from None
    if len(params) != arity:
        raise ValueError(f"family {head!r} takes {arity} parameter(s)")
    return builder, params
