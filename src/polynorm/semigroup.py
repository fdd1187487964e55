"""Vertex-semigroup membership and minimal representation lengths.

At a vertex v the generators are the nonzero lattice points of P - v.  A
target belongs to their N-span iff breadth-first search from 0, confined to
the finite set {y : y and target - y both lie in the tangent cone at v},
reaches it; the BFS layer index of first arrival is the minimal number of
generators needed.  Exhausting that set without arrival certifies
infeasibility, because every partial sum of any representation stays inside
it.  The search stops as soon as the target has been reached, so it
exhausts that set only when the target is infeasible.  A node is in that
set iff its image under the cone normals dominates the target's.  Each node
is keyed by that image, packed into one int with one lane per normal and a
guard bit above each lane.  The lanes are wide enough for every node the
search examines, so an edge costs one int add and one dict lookup, and the
test is one guard-bit compare.

m_P reads minimal lengths off the k-normality sumset tower of `invariants`
instead: x - d_P·v is a sum of at most j generators exactly when
x + (j - d_P)·v is a sum of j lattice points of P, and one tower answers
that for every vertex at once, one bit per pair and level at the position
pack(x, d_P) + (j - d_P)·pack(v, 1).  The pairs of sigma above d_P, or of
none, are exactly those whose x is a hole of d_P·P, so level d_P is read
once, by invariants.iter_holes through the listed points of d_P·P, to list
those holes, and only their pairs are scanned, at the levels above d_P.  For a very ample P the tower that compute_k_P builds up to k_P
decides every pair, since m_P <= k_P.  The BFS certifies the extremal pair,
and searches the pairs the tower leaves open when the scan stops early, one
at a time, until one is infeasible.

For d_P = 1, the normal case, no tower and no search are needed: every
x != v of P∩M makes x - v a generator, so sigma is 1 on every pair and m_P
is 1, certified by the one part x - v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import invariants as inv
from .exactmath import Vector, add, dot, scale, sub
from .polytope import Polytope


@dataclass(frozen=True)
class GeneratorSet:
    """Generators P∩M - v of the semigroup at vertex v, with the tangent-cone
    facet normals (cone = {y : n·y <= 0})."""

    vertex: Vector
    generators: tuple[Vector, ...]
    cone_normals: tuple[Vector, ...]


@dataclass(frozen=True)
class ReprCertificate:
    """A multiset of generators summing to the target, of minimal size."""

    target: Vector
    parts: tuple[Vector, ...]

    @property
    def length(self) -> int:
        return len(self.parts)

    def __post_init__(self):
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
    """The generators u - v, u in P∩M, and the tangent-cone normals at v.

    For a facet f tight at v, n·(u - v) = -s_f(u), so u - v lies in the
    cone exactly when u has slack >= 0 in every facet tight at v; that is
    asserted for every generator, read off `Polytope.slack_table`.
    """
    if not p.is_vertex(v):
        raise ValueError(f"{v} is not a vertex")
    slacks = p.slack_table()
    tight = [i for i, s in enumerate(slacks[v]) if s == 0]
    for u, row in slacks.items():
        if any(row[i] < 0 for i in tight):
            raise AssertionError(f"generator {sub(u, v)} escapes the tangent cone (bug)")
    gens = tuple(sorted(sub(u, v) for u in slacks if u != v))
    normals = tuple(sorted(p.facets[i].normal for i in tight))
    return GeneratorSet(v, gens, normals)


def shortest_representations(gs: GeneratorSet, targets):
    """Minimal-length certificates for the targets, one search each.

    Returns {target: ReprCertificate | None}.  A target outside the tangent
    cone is infeasible, and gets None without a search.  Otherwise the
    search runs over L(t), the nodes y with t - y still in the cone.

    y lies in L(t) iff its image (n·y for each cone normal n) dominates
    t's componentwise.  The search keys each node by that image, packed by
    _lanes into one int with one lane per normal and a guard bit above each
    lane; a node's key is its parent's key plus the generator's packed
    image.  With it the target's key and G the guard bits, no lane of
    (iz | G) - it borrows from the next, and the guard bit of a lane stays
    set exactly when the node's entry there is at least the target's: so y
    is in L(t) iff ((iz | G) - it) & G == G.

    The certificate is the one a search over the union of several targets'
    lower sets gives.  A predecessor y = z - g of a node z of L(t) lies in
    L(t) as well, since t - y = (t - z) + g and the cone holds g.  So every
    node of L(t) reaches the same BFS layer with the same candidate parents
    in both searches, and as the frontier is visited in sorted order, it
    gets the same parent entry and the certificate the same parts.

    The search stops once the target has a parent entry, and it does not
    run at all for the target 0.  That leaves the certificate as a search
    run to exhaustion would give it: entries are never overwritten, and the
    certificate reads only the entries on its own path, each set no later
    than the target's own entry.  An infeasible target never gets an entry,
    so its search exhausts L(t), which certifies infeasibility.
    """
    results = dict.fromkeys(targets)
    normals = gs.cone_normals
    for t in results:
        image = [dot(n, t) for n in normals]
        if max(image) > 0:  # t lies outside the cone
            continue
        weights, root, guards = _lanes(normals, gs.generators, image)
        key = root + dot(weights, t)
        parent = _search(gs.generators, weights, root, key, guards)
        if key in parent:
            parts = []
            while parent[key] is not None:
                key, g = parent[key]
                parts.append(g)
            results[t] = ReprCertificate(t, tuple(sorted(parts)))
    return results


def _lanes(normals, generators, floors):
    """The packing of node images: (weights, root, guards).

    A node y has the key root + weights·y = Σ_i (n_i·y - lo_i) << s_i: lane
    i starts at bit s_i, is w_i bits wide, and has a guard bit above it.
    lo_i is floors[i], the target's own n_i·t, minus |n_i|_1·max|g_j|, at
    most every n_i·g over the generators g; so lo_i <= 0.  guards has the
    guard bits set.

    The key is injective: the normals tight at a vertex have rank d, which
    Polytope._validate asserts, so the image determines y.  Lanes never
    carry: the search examines only nodes z = y + g with y the root or a
    node of the lower set and g a generator, so
    n·t + min_g n·g <= n·y + n·g = n·z <= 0, as the cone holds y and g.
    Every lane value n_i·z - lo_i thus lies in [0, -lo_i], below 2**w_i,
    and the key is the sum of its lanes' digits.
    """
    bound = max(map(abs, chain.from_iterable(generators)), default=0)
    weights = [0] * len(normals[0])
    root = guards = shift = 0
    for n, least in zip(normals, floors):
        span = bound * sum(map(abs, n))
        width = (span - least).bit_length()
        root += (span - least) << shift
        guards += 1 << (shift + width)
        weights = [w + (a << shift) for w, a in zip(weights, n)]
        shift += width + 1
    return weights, root, guards


def _search(generators, weights, root, it, guards):
    """BFS parents from the root key inside the lower set of the target key
    it: each reached key maps to (previous key, generator), the root to
    None.  Returns as soon as it is reached, even in the middle of a layer.

    Every generator's image weights·g is packed up front.  The frontier
    starts at the root and is visited in sorted node order, with each
    accepted node's coordinates carried next to its key.
    """
    parent: dict[int, tuple[int, Vector] | None] = {root: None}
    if it == root:
        return parent
    edges = [(dot(weights, g), g) for g in generators]
    frontier = [((0,) * len(weights), root)]
    while frontier:
        next_frontier = []
        for y, iy in sorted(frontier):
            for ig, g in edges:
                iz = iy + ig
                if iz not in parent and ((iz | guards) - it) & guards == guards:
                    parent[iz] = (iy, g)
                    if iz == it:
                        return parent
                    next_frontier.append((add(y, g), iz))
        frontier = next_frontier
    return parent


def sigma(gs: GeneratorSet, target: Vector):
    """Minimal number of generators summing to target, with a witness.

    Returns a ReprCertificate, or None when the target is outside the N-span
    (never an exception: infeasibility is an answer).
    """
    return shortest_representations(gs, (target,))[target]


def compute_m_P(p: Polytope, d_P: int, max_k: int | None = None) -> MPResult:
    """Maximum of sigma(x, d_P·v) over x in d_P·P∩M and vertices v.

    Any infeasible pair short-circuits: the polytope is then not very ample
    and (x, v) is the witness, the first infeasible x in sorted order at the
    first vertex, in vertex order, that has one.

    d_P = 1 is settled in closed form, after the tangent-cone check below
    and before any tower level or generator set is built.  Every x != v of
    1·P∩M makes x - v one generator, so sigma(x, v) = 1 on every pair, for
    any P once d_P = 1 is passed in, and m_P = 1.  The witness is the first
    pair of sigma 1 in vertex order and then sorted x: the first vertex and
    the first x != v in sorted order, certified by the one part x - v.  P
    is full-dimensional, so that x exists.

    The tower decides most pairs.  With S_j the j-fold sumset of P∩M and
    y_j = x + (j - d_P)·v, sigma(x, d_P·v) is the least j with y_j in S_j:
    a representation by j generators u_i - v gives y_j = Σ u_i, and padding
    with u_i = v turns a shorter one into j points.  For j >= d_P, y_j lies
    in jP, as x lies in d_P·P and v in P.

    Holes.  With d = d_P >= 2, let H be the holes of dP, the points of
    dP∩M outside S_d.
    (a) sigma(x, d·v) <= d exactly when x is in S_d.  If y_j =
        x - (d - j)·v is in S_j for some j <= d, then x lies in
        S_j + (d - j)·(P∩M) ⊆ S_d; if x is in S_d, then j = d works.  So
        the pairs that are infeasible or have sigma > d are exactly
        H × vertices.  d·v lies in S_d, so it is never in H.
    (b) H is not empty.  S_d ⊆ (d-1)P∩M + P∩M, and that sum misses some
        point of dP∩M, because k = d - 1 fails the test that defines d_P.
    So the non-saturation witness, the first infeasible pair, lies in
    H × vertices, and for a very ample P so does the first pair of the
    largest sigma, as by (b) that sigma exceeds d.  Level d of the tower is
    read once, by invariants.iter_holes, to list H in sorted order, one bit
    per listed point of dP.  After the threshold stages dP is listed:
    `_ehrhart` lists it when d <= ceil(dim/2), and otherwise compute_nu_P's
    chain of shifted unions up to level dim - 1 does, as by (b) its union
    at level d falls short of dP.  Every later step sees only the pairs of
    H × vertices, in vertex order and then sorted x, the order in which a
    scan of all pairs would meet them.  H must not be empty, which is
    asserted: for a d that is not d_P the scan could otherwise report no
    pair.  Level d is built even under a max_k below it.  That is at most
    dim - 1 levels, as d_P <= dim - 1, and the result is the same: a cap
    only hands pairs from the tower to the searches.

    Depth.  Levels j = d + 1, d + 2, ... are read upward through
    invariants.translate_scan, which tests bit pack(x, d) +
    (j - d)·pack(v, 1) of S_j for each open pair, the bit of y_j, a point of
    jP, where the packing is injective.  So a pair is decided at level
    sigma, never before.  For a very ample P, m_P <= k_P.  First
    d_P <= k_P: for k >= k_P, (k+1)P∩M = S_(k+1) = S_k + P∩M lies in
    kP∩M + P∩M.  So for j >= k_P, y_j lies in jP∩M = S_j.  The tower
    compute_k_P builds up to k_P thus decides every pair, and the scan
    builds no level above d that compute_k_P would not.  The scan stops
    - when no pair is open;
    - at level max_k, when given, the last level compute_k_P reads before
      it refuses, and at once when max_k <= d;
    - at the first level where some vertex with open pairs decides none of
      them.  The tower has then stopped gaining on that vertex, as it does
      for good once only infeasible pairs are open there, and the BFS
      decides what is left.

    BFS.  The pairs the scan left open are searched one at a time, through
    sigma, in vertex order and then sorted x; their lengths exceed the last
    level read, d when none above it was.  The first infeasible one is the
    witness.  Then one more search gives the certificate of the extremal
    pair: the first pair, in vertex order and then sorted x, of the largest
    sigma.

    The scan keeps (sigma, v, x) of the first pair seen at the largest
    sigma, replaced only by a strictly larger one.  That is the first such
    pair in vertex order and then sorted x, as all pairs of one sigma are
    decided in one pass that visits them in that order: the tower reads its
    levels upward, each in vertex order and sorted x, every BFS length
    exceeds the last level read (asserted), and the searches run in the same
    order.

    Generator sets are built only for the searches.  Their assertion that
    every generator u - v lies in the tangent cone at v is checked for all
    vertices at once, as s_f(u) >= 0 for every facet f and every u in
    P∩M, read off `Polytope.slack_table`: for a facet f tight at v,
    n·(u - v) = -s_f(u), so u - v is in the cone {y : n·y <= 0 for the
    facets tight at v} exactly when u has nonnegative slack in those
    facets, and every facet is tight at some vertex (Polytope validates
    it), so over all vertices these are all the facets.
    """
    vertices = p.vertices
    for u, slacks in p.slack_table().items():
        least = min(slacks)
        if least < 0:
            f = p.facets[slacks.index(least)]
            raise AssertionError(
                f"lattice point {u} violates facet {f}: a generator escapes "
                "the tangent cone (bug)")
    if d_P == 1:
        v = vertices[0]
        x = next(x for x in sorted(p.lattice_points(1)) if x != v)
        target = sub(x, v)
        return MPResult(True, 1, MPWitness(x, v, ReprCertificate(target, (target,))), None)
    holes = list(inv.iter_holes(p, d_P))
    if not holes:
        raise AssertionError(f"{d_P}P has no holes, so d_P = {d_P} is not its threshold (bug)")
    open_xs = dict.fromkeys(vertices, holes)
    best = 0, None, None
    depth = d_P
    for depth, decided in inv.translate_scan(p, d_P, vertices, holes, max_k):
        for v, (hits, still_open) in decided.items():
            if hits and depth > best[0]:
                best = depth, v, hits[0]
            open_xs[v] = still_open
        if not all(hits for hits, _ in decided.values()):
            break

    searches = {}
    for v in vertices:
        if not open_xs[v]:
            continue
        gs = searches[v] = generator_set(p, v)
        apex = scale(d_P, v)
        for x in open_xs[v]:
            cert = sigma(gs, sub(x, apex))
            if cert is None:
                return MPResult(False, None, None, (x, v))
            if cert.length <= depth:
                raise AssertionError(
                    f"sigma={cert.length} of an open pair is within the tower (bug)")
            if cert.length > best[0]:
                best = cert.length, v, x

    length, v, x = best
    if v is None:
        raise AssertionError("m_P scan decided no (x, vertex) pair (bug)")
    gs = searches.get(v) or generator_set(p, v)
    cert = sigma(gs, sub(x, scale(d_P, v)))
    if cert is None or cert.length != length:
        raise AssertionError(f"extremal certificate {cert} disagrees with sigma (bug)")
    return MPResult(True, cert.length, MPWitness(x, v, cert), None)
