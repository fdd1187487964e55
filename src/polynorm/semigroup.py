"""Vertex-semigroup membership and minimal representation lengths.

At a vertex v the generators are the nonzero lattice points of P - v.  A
target belongs to their N-span iff breadth-first search from 0, confined to
the finite set {y : y and target - y both lie in the tangent cone at v},
reaches it; the BFS layer index of first arrival is the minimal number of
generators needed.  Exhausting that set without arrival certifies
infeasibility, because every partial sum of any representation stays inside
it.  The search stops as soon as every target has been reached, so it
exhausts that set only when some target is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import Vector, add, dot, scale, sub
from .polytope import Polytope

INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class GeneratorSet:
    """Generators P∩M - v of the semigroup at vertex v, with the tangent-cone
    facet normals (cone = {y : n·y <= 0})."""

    vertex: Vector
    generators: tuple[Vector, ...]
    cone_normals: tuple[Vector, ...]

    def in_cone(self, y: Vector) -> bool:
        return all(dot(n, y) <= 0 for n in self.cone_normals)


@dataclass(frozen=True)
class ReprCertificate:
    """A multiset of generators summing to the target, of minimal size."""

    target: Vector
    parts: tuple[Vector, ...]
    length: int

    def __post_init__(self):
        if self.length != len(self.parts):
            raise ValueError("certificate length disagrees with its parts")
        total = (0,) * len(self.target)
        for part in self.parts:
            total = add(total, part)
        if total != self.target:
            raise ValueError("certificate parts do not sum to the target")


@dataclass(frozen=True)
class MPWitness:
    """Extremal pair realizing m_P, with its minimal-length certificate."""

    x: Vector
    vertex: Vector
    certificate: ReprCertificate


@dataclass(frozen=True)
class MPResult:
    """Outcome of the m_P scan: either m_P with an extremal witness, or a
    non-saturation witness (x, vertex) proving the polytope not very ample."""

    very_ample: bool
    m_P: int | None
    witness: MPWitness | None
    failure: tuple[Vector, Vector] | None


def generator_set(p: Polytope, v: Vector) -> GeneratorSet:
    if not p.is_vertex(v):
        raise ValueError(f"{v} is not a vertex")
    gens = tuple(sorted(sub(u, v) for u in p.lattice_points(1) if u != v))
    normals = tuple(sorted(f.normal for f in p.facets if f.slack(v) == 0))
    gs = GeneratorSet(v, gens, normals)
    for g in gens:
        if not gs.in_cone(g):
            raise AssertionError(f"generator {g} escapes the tangent cone (bug)")
    return gs


def shortest_representations(gs: GeneratorSet, targets):
    """Minimal-length certificates for several targets in one BFS.

    Returns {target: ReprCertificate | None}.  Partial sums of any
    representation of any target stay inside the union of the targets' lower
    sets, so one search over that union serves every target, and the first
    BFS layer reaching a target gives its minimal length.

    y lies in that union iff its image under the cone normals dominates some
    target's image componentwise.  Only the Pareto-minimal images can decide
    this: if o <= td componentwise, then dy >= td implies dy >= o.  So the
    test runs against the minimal images alone and answers exactly as it
    would against all of them, which leaves the search and every
    certificate unchanged.

    The search stops once every target has a parent entry, and it does not
    run at all when the only target in the cone is 0.  That leaves every
    certificate as a search run to exhaustion would give it: entries are
    never overwritten, and a target's certificate reads only the entries on
    its own path, each set no later than the target's own entry.  An
    infeasible target never gets an entry, so with one among the targets
    the search still exhausts the lower set, which certifies infeasibility.
    """
    targets = tuple(dict.fromkeys(targets))
    results = {t: None for t in targets}
    live = [t for t in targets if gs.in_cone(t)]
    if not live:
        return results
    zero = (0,) * len(gs.vertex)

    # y stays in the lower set iff target - y is still in the cone for some
    # target, i.e. the normal image of y dominates some target's image.
    normals = gs.cone_normals
    target_dots = _pareto_minimal(tuple(dot(n, t) for n in normals) for t in live)

    def in_lower_set(y):
        dy = tuple(dot(n, y) for n in normals)
        return any(all(a >= b for a, b in zip(dy, td)) for td in target_dots)

    parent = _search(gs.generators, in_lower_set, set(live) - {zero}, zero)
    for t in live:
        if t in parent:
            parts = []
            node = t
            while parent[node] is not None:
                node, g = parent[node]
                parts.append(g)
            parts.sort()
            results[t] = ReprCertificate(t, tuple(parts), len(parts))
    return results


def _search(generators, in_lower_set, pending, zero):
    """BFS parents from zero inside the lower set: each reached node maps to
    (previous node, generator), zero to None.  Returns as soon as no target
    is pending, even in the middle of a layer.
    """
    parent: dict[Vector, tuple[Vector, Vector] | None] = {zero: None}
    frontier = [zero]
    while pending and frontier:
        next_frontier = []
        for y in sorted(frontier):
            for g in generators:
                z = add(y, g)
                if z not in parent and in_lower_set(z):
                    parent[z] = (y, g)
                    next_frontier.append(z)
                    pending.discard(z)
                    if not pending:
                        return parent
        frontier = next_frontier
    return parent


def _pareto_minimal(images):
    """The componentwise-minimal members of a set of integer vectors.

    In lexicographic order every vector comes after all vectors below it, so
    one pass that keeps a vector unless a kept one lies below it finds them.
    """
    kept = []
    for td in sorted(set(images)):
        if not any(all(a <= b for a, b in zip(o, td)) for o in kept):
            kept.append(td)
    return kept


def sigma(gs: GeneratorSet, target: Vector):
    """Minimal number of generators summing to target, with a witness.

    Returns a ReprCertificate, or the sentinel INFEASIBLE when the target is
    outside the N-span (never an exception: infeasibility is an answer).
    """
    cert = shortest_representations(gs, (target,))[target]
    return cert if cert is not None else INFEASIBLE


def compute_m_P(p: Polytope, d_P: int) -> MPResult:
    """Maximum of sigma(x, d_P·v) over x in d_P·P∩M and vertices v.

    Any infeasible pair short-circuits: the polytope is then not very ample
    and (x, v) is the witness.
    """
    best: MPWitness | None = None
    for v in p.vertices:
        gs = generator_set(p, v)
        shift = scale(d_P, v)
        xs = sorted(p.lattice_points(d_P))
        certs = shortest_representations(gs, tuple(sub(x, shift) for x in xs))
        for x in xs:
            cert = certs[sub(x, shift)]
            if cert is None:
                return MPResult(False, None, None, (x, v))
            if best is None or cert.length > best.certificate.length:
                best = MPWitness(x, v, cert)
    if best is None:
        raise AssertionError("m_P scan found no (x, vertex) pair (bug)")
    return MPResult(True, best.certificate.length, best, None)

