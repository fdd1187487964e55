"""The slow paths behind the shortcuts, kept as oracles.

- compute_nu_P scans k = 1..dim-1 (Carathéodory); the oracle scans the
  original k = 1..n-2 range, n the number of vertices.
- dilate_is_normal decides the normality of a dilate mP on P's own
  lattice points, at level m of a packing of P's box; the oracle builds mP
  as a polytope of its own from the scaled vertices and facet offsets
  (constructions.dilate) and takes compute_d_P of it.  explore_flags
  decides d_P_minimality_gap from (d_P - 1)P alone; the oracle takes the
  threshold from every m = 1..d_P.
- Polytope._rows walks the prefixes depth first in one generator frame
  over an explicit stack, carrying each facet's residual and cutting each
  coordinate's range by the least value of the rest over the box; the
  oracle tests every point of the bounding box, and rows_by_recursion, the
  recursion with one frame per coordinate that it replaced, must give the
  same rows at every level full_report lists.  Each row of that scan also
  reports its interior length, from a·z <= r_f - 1 at every facet, and
  lattice_points sums them into Polytope._interior; the oracles filter the
  points of kP by strict slack, row by row, and scan int(kP) a second time
  by rows_by_recursion with right-hand sides k·c - 1.  A counter of _rows
  shows that full_report scans each level it lists once and int(kP) never,
  that its hole witness at k_P - 1 scans rows only when that level is not
  listed, and that the m_P hole listing of d_P·P scans none.
- hole_count and compute_k_P read a memoized tower of sumset bitmasks;
  the oracle rebuilds tuple sumsets of the lattice points level by level.
  iter_holes decodes the holes of a listed level by one bit test per
  listed point, and of any other level by a row scan of the mask; the
  oracle filters the enumerated points of kP by a bit test of the mask
  read through _level, and each level is decoded by both routes.
- `holes` writes each level as iter_holes decodes it; the oracle renders
  the listing from the tuple hole sets, sorted level by level.
- Point counts above ceil(dim/2) come from the Ehrhart polynomial in
  forward-difference form, fixed by the levels up to ceil(dim/2) and, by
  reciprocity, the interior counts up to floor(dim/2); the oracles
  enumerate the points, interpolate from the listed levels 0..dim
  (ehrhart_by_listing), and for the volume solve the Vandermonde system of
  the counts.
- Above ceil(dim/2), the dilate tests take the mask of jP∩M from the
  mask of level j-1 shifted by P∩M, accepted on its count; the oracle
  packs the listed points of jP, and a level is listed exactly when tuple
  sums of (j-1)P∩M and P∩M miss a point of jP∩M.
- Polytope.slack_table computes every facet slack of P∩M once; the oracle
  computes each entry on its own (constructions.slack).
- shortest_representations runs one BFS per target over that target's
  lower set.  It keys each node by its image under the cone normals,
  packed into one int with a guard bit above each lane: one int add per
  edge and one guard-bit compare per lower-set test.  The oracle,
  representations_by_tuples, runs one BFS on coordinate tuples over the
  union of every target's lower set, with each node's image computed by
  dot products and scanned against the minimal target images; the
  certificates must agree part for part, for all targets of a vertex at
  once and for each target alone.  The lane edge cases (the 35-step chain
  of bruns:36, a translate with negative coordinates, vertices with more
  tight normals than dim) also check that every node y + g the search can
  reach has each lane value in range and its key equal to the sum of its
  lanes.
- The BFS of shortest_representations stops once its target is reached;
  the oracle runs it to exhaustion, and the certificates must agree part
  for part.  A third oracle for sigma reads minimal lengths off the tower.
- With d = d_P >= 2, the pairs (x, v) of sigma > d or none are exactly
  those with x a hole of dP, and dP has holes; the oracle is the BFS
  length of every pair and the tuple holes of dP, which iter_holes must
  list in sorted order.
- translate_scan takes the sorted holes of d_P·P once for every vertex
  and decides each pair (x, v) of a hole x and a vertex v by one bit
  of S_j at the packed position pack(x, d_P) + (j - d_P)·pack(v, 1), at
  the levels j > d_P only; the oracle is the BFS length of every pair,
  which must be the level that decides it, and an infeasible pair must
  stay open.
- compute_m_P lists the holes of d_P·P, reads sigma off that tower above
  d_P for their pairs alone until no pair is open, searches the pairs left
  open when the scan stops early (at max_k, or where a vertex stops
  gaining) one at a time up to the first infeasible one, and certifies the
  extremal pair alone, which it keeps during the scan.  One oracle
  searches every target at every vertex and takes the first pair of the
  largest sigma; another, m_P_from_level_one, reads the tower from level
  1 on every pair of a point x of d_P·P and a vertex v, each bit position
  bound-tested under a packing for at least d_P levels, and leaves the
  pairs x = d_P·v, which level 1 decides, out of its extremal pair.  The
  results must agree part for part, under max_k None, 1, 2 and 3 for the
  second.  A counter shows that every search has one target, that the
  searches of a not very ample input stop at its witness, and that an
  uncapped very ample input searches its extremal pair alone.
- With d_P = 1, compute_m_P returns m_P = 1 and compute_k_P returns 1 in
  closed form, with no tower, generator set or search; the oracle is the
  per-vertex search with d_P = 1, on normal inputs and on inputs whose
  d_P exceeds 1.
- smooth_data reads smoothness, gamma and m_prime off the facets tight at
  each vertex; the oracle builds each vertex's edge fan and solves for the
  edge coefficients of every difference u - v.
- volume_triangulation recurses on faces given as vertex tuples cut out by
  the facets of P; the oracle projects each facet avoiding the pulled vertex
  and rebuilds its hull with from_points.
- _halfspace solves a facet normal by back-substitution in the echelon
  basis; the oracle takes the vector of signed (d-1)-minors of the rows
  (the cofactor cross product), made primitive and oriented the same way,
  on seeded bases in dims 1-5.
- from_points inserts points one at a time into an exact beneath-beyond
  hull, each point tested against every facet in one pass; the oracle,
  hull_by_d_subsets, keeps every hyperplane through d of the points that
  has all of them on one side, and the sorted HalfSpace tuples must be
  equal, in dims 1-5.  Each tight set must hold every point on its facet.
- _hull_tight_sets finds each horizon ridge through a point-to-facets
  index, by shared points and no third facet through them, and combines
  the two facets' inequalities into the new one; the oracle,
  hull_tight_sets_by_ridge_rank, pairs every visible facet with every
  kept one, takes the rank of r - p over the shared points and solves the
  new facet by _halfspace, and the tight sets must be equal.  A visible
  facet tight at exactly d points finds the neighbour across each ridge
  as the intersection of the index entries of d-1 of its points, and any
  other visible facet takes the facets in the index entries of its
  points as candidates; the oracle, hull_tight_sets_by_shared_count,
  counts the points every facet shares with a visible one (Counter), on
  every cloud above, the catalog and the four clouds of the CI hull
  steps.
- Polytope._validate checks types and lengths in one pass, computes
  slacks by sum(map(mul, ...)), ranks lifted tight vertices and tight
  normals by one lean elimination each, and rejects repeats last; the
  oracle, validate_by_table, is the replaced validator (dot products, a
  facet × vertex table read by column, echelon ranks), and the two must
  accept and reject the same seeded mutations of catalog and cloud
  polytopes with the same messages, except for the new checks.
- _hull_tight_sets reads the vertices off its own point-to-facets index,
  a point being a vertex when the tight sets through it meet in it alone;
  the oracle ranks the normals of the facets tight at every input point.
- compute_m_P builds generator sets only at searched vertices and the
  extremal one, and checks the tangent cones by one pass over facets and
  lattice points; a counter shows where generator_set runs, and a point
  outside P in the point cache must still fail that check.
"""

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from math import factorial, gcd

import pytest

from polynorm import invariants, polytope, semigroup
from polynorm.bounds import PipelineError, full_report
from polynorm.catalog import (
    SplitMix64,
    cube,
    random_polytope,
    standard_simplex,
)
from polynorm.cli import explore_flags, main, run_check_suite
from polynorm.exactmath import (
    Vector,
    add,
    det_exact,
    dot,
    echelon,
    extend_echelon,
    neg,
    primitive,
    rank,
    scale,
    sub,
)
from polynorm.invariants import (
    SmoothData,
    compute_d_P,
    compute_k_P,
    compute_nu_P,
    hole_count,
    iter_holes,
    smooth_data,
    volume_ehrhart,
    volume_triangulation,
)
from polynorm.polytope import (
    GeometryError,
    HalfSpace,
    Polytope,
    _halfspace,
    _hull_tight_sets,
    from_points,
)
from polynorm.semigroup import (
    MPResult,
    MPWitness,
    ReprCertificate,
    compute_m_P,
    generator_set,
    shortest_representations,
    sigma,
)

from conftest import CATALOG_SPECS
from constructions import (
    build_family,
    contains,
    dilate,
    interior_lattice_points,
    k_normality,
    product,
    slack,
)
from exact_solve import solve_rational

# cube:4 is left out: its n-2 = 14 scan enumerates 15P and takes seconds.
ORACLE_SPECS = tuple(s for s in CATALOG_SPECS if s != "cube:4")

# (dim, coordinate bound, point count, seeds): small enough that the n-2
# scan of the oracle stays cheap.
RANDOM_SHAPES = (
    (2, 4, 6, range(30)),
    (3, 2, 6, range(16)),
    (4, 2, 6, range(4)),
)


def random_cases():
    for d, bound, count, seeds in RANDOM_SHAPES:
        for seed in seeds:
            yield random_polytope(d, bound, count, seed)


def nu_P_full_scan(p):
    """nu_P from the unshortened failure range k <= n-2."""
    verts = p.vertices
    last_failing = 0
    for k in range(1, p.num_vertices - 1):
        image = {add(v, x) for v in verts for x in p.lattice_points(k)}
        if image != p.lattice_points(k + 1):
            last_failing = k
    return last_failing + 1


def all_certificates(p, d_P):
    """shortest_representations at every vertex on the m_P targets."""
    out = {}
    for v in p.vertices:
        gs = generator_set(p, v)
        shift = scale(d_P, v)
        targets = tuple(sub(x, shift) for x in sorted(p.lattice_points(d_P)))
        out[v] = shortest_representations(gs, targets)
    return out


def oracle_cases(poly):
    return [poly(s) for s in ORACLE_SPECS] + list(random_cases())


def test_nu_P_matches_full_scan(poly):
    deep = 0
    for p in oracle_cases(poly):
        nu = compute_nu_P(p)
        assert nu == nu_P_full_scan(p), p.name
        assert nu <= max(p.dim, 1)
        deep += nu > 1
    # the comparison must exercise failing k, not only nu_P = 1
    assert deep >= 10


def profile_of_fresh_dilates(p, d_P):
    """The normality of each dilate mP, m = 1..d_P, from compute_d_P of mP
    built as a polytope of its own, and the least threshold from it."""
    flags = {m: compute_d_P(dilate(p, m)) == 1 for m in range(1, d_P + 1)}
    threshold = d_P
    for m in range(d_P - 1, 0, -1):
        if not flags[m]:
            break
        threshold = m
    return threshold, flags


def test_dilate_test_and_gap_flag_match_fresh_dilates(poly, report):
    cases = [(poly(s), report(s).d_P) for s in CATALOG_SPECS + ("higashitani:4,2",)]
    rng = SplitMix64(1)
    wide = [random_polytope(3, 4, 8, rng.next_u64()) for _ in range(8)]
    rng = SplitMix64(1)
    deep = [random_polytope(4, 3, 9, rng.next_u64()) for _ in range(4)]
    # The inputs above lie in the nonnegative orthant, where a summand packed
    # at the wrong level moves every bit by one nonnegative amount and keeps
    # the count; translates that reach below the origin expose it.
    moved = [from_points([sub(v, (4, 4, 4)) for v in p.vertices], f"{p.name}-4")
             for p in wide]
    cases += [(p, compute_d_P(p)) for p in wide + deep + moved]
    flags = []
    for p, d_P in cases:
        threshold, fresh = profile_of_fresh_dilates(p, d_P)
        got = {m: invariants.dilate_is_normal(p, m) for m in range(1, d_P + 1)}
        assert got == fresh, p.name
        flags += got.values()
        flagged = "d_P_minimality_gap" in explore_flags(p, full_report(p))
        assert flagged == (threshold != d_P), p.name
    # the comparison must reach level m = 3 and dilates that are not normal
    assert any(d_P == 3 for _, d_P in cases)
    assert not all(flags)


def m_P_per_vertex(p, d_P):
    """compute_m_P without the tower: every target searched at each vertex,
    failing at the first infeasible pair in vertex and sorted-x order.
    Also returns the largest sigma at each vertex searched."""
    best = None
    largest = {}
    for v in p.vertices:
        gs = generator_set(p, v)
        shift = scale(d_P, v)
        xs = sorted(p.lattice_points(d_P))
        certs = shortest_representations(gs, tuple(sub(x, shift) for x in xs))
        for x in xs:
            cert = certs[sub(x, shift)]
            if cert is None:
                return MPResult(False, None, None, (x, v)), largest
            largest[v] = max(largest.get(v, 0), cert.length)
            if best is None or cert.length > best.certificate.length:
                best = MPWitness(x, v, cert)
    return MPResult(True, best.certificate.length, best, None), largest


def test_m_P_matches_per_vertex_search(poly, monkeypatch):
    cases = oracle_cases(poly)
    cases += [build_family(s) for s in ("random:4,3,9,11", "random:3,3,7,5")]
    searches = []

    def counting(gs, targets):
        searches.append(len(targets))
        return shortest_representations(gs, targets)

    monkeypatch.setattr(semigroup, "shortest_representations", counting)
    left_open, deep, tied = [], [], []
    for p in cases:
        d_P = compute_d_P(p)
        searches.clear()
        got = compute_m_P(p, d_P)
        expected, largest = m_P_per_vertex(p, d_P)
        assert got == expected, p.name
        if d_P == 1:
            # sigma is 1 on every pair, so nothing is searched
            assert searches == [], p.name
        elif got.very_ample:
            # m_P <= k_P, so the tower decides every pair, and the one
            # search is the single-target certificate of the extremal pair
            assert searches == [1], p.name
            deep.append(p.name.startswith("bruns:") and got.m_P > d_P + 1)
            tied.append(list(largest.values()).count(got.m_P) >= 2)
        else:
            left_open.append(sum(searches))
    # an infeasible pair is never decided by the tower, so the BFS finds it
    assert left_open and all(n > 0 for n in left_open)
    # the tower decides extremal pairs above level d_P + 1, and the largest
    # sigma is reached at several vertices, so the scan order that picks the
    # first extremal pair is exercised
    assert any(deep)
    assert any(tied)


def test_m_P_searches_one_pair_at_a_time(poly, monkeypatch):
    """Every search compute_m_P runs has one target.  A not very ample input
    searches its open pairs in vertex order and then sorted x, and stops at
    the failure pair; an uncapped very ample one searches its extremal pair
    alone, unless d_P = 1, where nothing is searched."""
    calls = []

    def counting(gs, targets):
        calls.append((gs.vertex, tuple(targets)))
        return shortest_representations(gs, targets)

    monkeypatch.setattr(semigroup, "shortest_representations", counting)
    cases = oracle_cases(poly) + [build_family("random:4,3,9,11")]
    failing = 0
    for p in cases:
        d_P = compute_d_P(p)
        calls.clear()
        got = compute_m_P(p, d_P)
        if d_P == 1:
            assert calls == [], p.name
            continue
        assert calls and all(len(targets) == 1 for _, targets in calls), p.name
        pairs = [(add(t, scale(d_P, v)), v) for v, (t,) in calls]
        if got.very_ample:
            assert pairs == [(got.witness.x, got.witness.vertex)], p.name
        else:
            order = sorted(pairs, key=lambda pair: (p.vertices.index(pair[1]), pair[0]))
            assert pairs == order and len(set(pairs)) == len(pairs), p.name
            assert pairs[-1] == got.failure, p.name
            failing += 1
    assert 0 < failing < len(cases)


def test_m_P_scan_capped_at_max_k_hands_pairs_to_the_search(monkeypatch):
    """No catalog input leaves very ample pairs to the BFS; a cap below m_P
    does."""
    uncapped = compute_m_P(build_family("bruns:10"), 2)
    targets = []

    def counting(gs, t):
        targets.append(len(t))
        return shortest_representations(gs, t)

    monkeypatch.setattr(semigroup, "shortest_representations", counting)
    p = build_family("bruns:10")
    d_P = compute_d_P(p)
    got = compute_m_P(p, d_P, max_k=3)
    # no level above the cap is built, and the very ample pairs of
    # sigma 4..9 go to the BFS
    assert len(p._tower.masks) - 1 <= 3
    assert len(targets) > 1 and set(targets) == {1}  # one search per pair
    assert got == uncapped == m_P_per_vertex(p, d_P)[0]
    assert got.m_P == 9


def explore_random_pool():
    """The 120 polygons of the explore-random workload, each drawn from its
    seed as explore --dim 2 --bound 6 --count 1 does."""
    pool = SplitMix64(0)
    children = [SplitMix64(pool.next_u64()).next_u64() for _ in range(120)]
    return [random_polytope(2, 6, 7, child) for child in children]


def test_m_P_closed_form_at_d_P_one_matches_per_vertex_search(poly, monkeypatch):
    """With d_P = 1, compute_m_P returns m_P = 1 with no tower, generator
    set or search, and the witness of the full per-vertex search, and
    compute_k_P returns the k_P of the tuple scan, 1; on normal inputs, and
    on inputs whose d_P exceeds 1, reeve not very ample, called with
    d_P = 1."""
    normal = explore_random_pool() + [poly(s) for s in ("cube:2", "cube:3", "cube:4",
                                                         "simplex:3")]
    other = [poly(s) for s in ("bruns:6", "higashitani:3,3", "reeve")]
    other += [build_family(s) for s in ("random:4,3,9,11", "random:3,3,7,5")]
    assert all(compute_d_P(p) == 1 for p in normal)
    assert all(compute_d_P(p) > 1 for p in other)
    assert not compute_m_P(poly("reeve"), compute_d_P(poly("reeve"))).very_ample
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(semigroup, "generator_set",
                        counting("generator_set", generator_set))
    monkeypatch.setattr(semigroup, "shortest_representations",
                        counting("search", shortest_representations))
    for p in normal + other:
        fresh = from_points(p.vertices, name=p.name)
        calls.clear()
        got = compute_m_P(fresh, 1)
        assert calls == [] and fresh._tower is None, p.name
        expected, largest = m_P_per_vertex(p, 1)
        assert got == expected, p.name
        assert got.m_P == 1 and set(largest.values()) == {1}, p.name
        assert compute_k_P(fresh, 1, 1) == k_P_tuple_scan(p, 1, 1) == 1, p.name
        assert fresh._tower is None, p.name


def test_full_report_builds_no_tower_at_d_P_one():
    """A normal input is reported with no sumset tower; bruns:6, with
    d_P = 2, still builds one."""
    for spec in ("cube:2", "cube:3", "simplex:3", "random:2,6,7,5"):
        p = build_family(spec)
        r = full_report(p)
        assert (r.d_P, r.m_P, r.k_P) == (1, 1, 1), spec
        assert p._tower is None, spec
    p = build_family("bruns:6")
    assert full_report(p).d_P == 2
    assert p._tower is not None


def translate_scan_from_level_one(p, d, vertices, xs, last=None):
    """translate_scan as it read the tower before it started above d:
    levels j = 1, 2, ..., the first one read after level d has been built,
    so every level is read under a packing for at least d levels, and every
    position bound-tested.  For j < d a set bit in [0, top(j)] is pack(z, j)
    for some z in S_j with z + (d - j)·v = x, as both sides lie in dP,
    where the packing is injective.  xs, sorted points of dP, are paired
    with every v of vertices."""
    invariants._level(p, d)
    open_xs = {v: xs for v in vertices if xs}
    j = 0
    while open_xs and (last is None or j < last):
        j += 1
        packing, mask = invariants._level(p, j)
        top = packing.top(j)
        buf = mask.to_bytes(top // 8 + 1, "little")
        decided = {}
        for v, xs in open_xs.items():
            offset = (j - d) * packing.pack(v, 1)
            hits, misses = [], []
            for x in xs:
                i = packing.pack(x, d) + offset
                if 0 <= i <= top and buf[i >> 3] >> (i & 7) & 1:
                    hits.append(x)
                else:
                    misses.append(x)
            decided[v] = hits, misses
        open_xs = {v: misses for v, (_, misses) in decided.items() if misses}
        yield j, decided


def m_P_from_level_one(p, d_P, max_k=None):
    """compute_m_P as it was before it listed the holes of d_P·P: every pair
    (x, v) with x != d_P·v is read off the tower from level 1, d_P = 1
    included, and the stop rule applies above level d_P.  The scan reads
    every x of d_P·P at every v; the pair x = d_P·v is decided at level 1,
    as x - (d_P - 1)·v = v lies in S_1, and is left out of the hits."""
    apexes = {v: scale(d_P, v) for v in p.vertices}
    xs = sorted(p.lattice_points(d_P))
    open_xs = dict.fromkeys(p.vertices, xs)
    best = 0, None, None
    depth = 0
    for depth, decided in translate_scan_from_level_one(p, d_P, p.vertices, xs, max_k):
        for v, (hits, still_open) in decided.items():
            hits = [x for x in hits if x != apexes[v]]
            if hits and depth > best[0]:
                best = depth, v, hits[0]
            open_xs[v] = still_open
        if depth > d_P and not all(hits for hits, _ in decided.values()):
            break
    for v in p.vertices:
        gs = generator_set(p, v)
        for x in open_xs[v]:
            cert = sigma(gs, sub(x, apexes[v]))
            if cert is None:
                return MPResult(False, None, None, (x, v))
            assert cert.length > depth
            if cert.length > best[0]:
                best = cert.length, v, x
    length, v, x = best
    cert = sigma(generator_set(p, v), sub(x, apexes[v]))
    assert cert.length == length
    return MPResult(True, length, MPWitness(x, v, cert), None)


def deep_draws():
    """The first 12 draws of random_polytope(4, 3, 9, ·) from SplitMix64(1):
    none very ample, d_P = 3 on four of them."""
    rng = SplitMix64(1)
    return [random_polytope(4, 3, 9, rng.next_u64()) for _ in range(12)]


def test_m_P_matches_the_scan_from_level_one(poly):
    cases = oracle_cases(poly) + deep_draws()
    cases += [build_family(s) for s in ("bruns:10", "random:4,6,9,7958955049054603978")]
    compared = Counter()
    for p in cases:
        d_P = compute_d_P(p)
        for max_k in (None, 1, 2, 3):
            got = compute_m_P(from_points(p.vertices, name=p.name), d_P, max_k)
            expected = m_P_from_level_one(from_points(p.vertices, name=p.name), d_P, max_k)
            assert got == expected, (p.name, max_k)
            compared[d_P, got.very_ample] += 1
    # both verdicts at d_P = 2 and 3, and very ample inputs above d_P = 1
    assert {(2, True), (2, False), (3, False)} <= compared.keys()


def test_m_P_refuses_a_dilate_without_holes():
    """k_P = 3 for bruns:4, so 3P has no holes and its pairs would all have
    sigma <= 3; called with d = 3, compute_m_P finds no pair to scan."""
    p = build_family("bruns:4")
    assert (compute_d_P(p), hole_count(p, 3)) == (2, 0)
    with pytest.raises(AssertionError, match="no holes"):
        compute_m_P(p, 3)


@pytest.fixture(scope="module")
def pair_sigmas():
    """Polytopes with the BFS length of every m_P pair (x, v), None when
    infeasible, searched once for the tests of the holes of d_P·P and of
    translate_scan."""
    cases = [build_family(s) for s in ("bruns:6", "higashitani:3,3", "reeve")]
    cases += [p for p in deep_draws() if compute_d_P(p) == 3][1:3]
    cases += [translated(p, (-2, 1, 3, -1)[:p.dim]) for p in cases]
    out = []
    for p in cases:
        d_P = compute_d_P(p)
        sigmas = {}
        for v, certs in all_certificates(p, d_P).items():
            for t, cert in certs.items():
                if t != (0,) * p.dim:
                    sigmas[add(t, scale(d_P, v)), v] = None if cert is None else cert.length
        out.append((p, sigmas))
    return out


def test_pairs_above_d_P_are_the_holes_of_d_P_P(pair_sigmas):
    """(a) and (b) of compute_m_P: with d = d_P >= 2, dP has holes, and the
    pairs (x, v) that are infeasible or of sigma > d are exactly those with
    x a hole of dP; iter_holes lists those holes in sorted order."""
    holes_total = 0
    for p, sigmas in pair_sigmas:
        d_P = compute_d_P(p)
        assert d_P >= 2, p.name
        holes = tuple_holes(p, d_P, lambda p, k: p.lattice_points(k))[-1]
        assert holes, p.name
        above = {pair for pair, s in sigmas.items() if s is None or s > d_P}
        assert above == {(x, v) for x in holes for v in p.vertices}, p.name
        assert list(iter_holes(p, d_P)) == sorted(holes), p.name
        holes_total += len(holes)
    assert holes_total >= 100


@pytest.mark.parametrize("min_levels", [None, 2])
def test_translate_scan_decides_each_pair_at_sigma(pair_sigmas, monkeypatch, min_levels):
    """Fed the holes of d_P·P at every vertex, translate_scan reads only the
    levels above d_P, decides every pair (x, v) at level sigma(x, d_P·v),
    and an infeasible one never.  Each tower is first built by a query for
    level 1, so its packing serves four levels, or two under
    min_levels = 2, and the scan rebuilds it above d_P: on bruns:6 and the
    4-d inputs, or on every input of d_P = 2."""
    if min_levels is not None:
        monkeypatch.setattr(invariants, "_MIN_LEVELS", min_levels)
    checked = rebuilds = 0
    for p, sigmas in pair_sigmas:
        p = from_points(p.vertices, name=p.name)  # a fresh tower
        d_P = compute_d_P(p)
        hole_count(p, 1)
        holes = list(iter_holes(p, d_P))
        last = max(s for s in sigmas.values() if s is not None) + 1
        levels = {}
        read = []
        capacities = {p._tower.packing.capacity}
        for j, decided in invariants.translate_scan(p, d_P, p.vertices, holes, last):
            read.append(j)
            capacities.add(p._tower.packing.capacity)
            for v, (hits, still_open) in decided.items():
                levels.update(((x, v), j) for x in hits)
                assert hits == sorted(hits) and still_open == sorted(still_open), p.name
        assert read == list(range(d_P + 1, read[-1] + 1)), p.name
        assert levels == {pair: s for pair, s in sigmas.items()
                          if s is not None and s > d_P}, p.name
        checked += len(levels)
        rebuilds += len(capacities) - 1
    # 1 188 pairs decided, and 6 rebuilds above d_P in either run
    assert checked >= 1100 and rebuilds >= 4


def test_generator_sets_only_where_searched(poly, monkeypatch):
    built, searched = [], []

    def counting_generator_set(p, v):
        built.append(v)
        return generator_set(p, v)

    def counting_search(gs, targets):
        searched.append(gs.vertex)
        return shortest_representations(gs, targets)

    monkeypatch.setattr(semigroup, "generator_set", counting_generator_set)
    monkeypatch.setattr(semigroup, "shortest_representations", counting_search)
    cases = oracle_cases(poly) + [build_family("random:4,3,9,11")]
    total_vertices = total_built = 0
    for p in cases:
        built.clear()
        searched.clear()
        d_P = compute_d_P(p)
        got = compute_m_P(p, d_P)
        # one generator set per searched vertex, the extremal one included,
        # and none when d_P = 1
        assert len(built) == len(set(built)), p.name
        assert set(built) == set(searched), p.name
        if d_P == 1:
            assert built == [], p.name
        elif got.very_ample:
            assert got.witness.vertex in built, p.name
        total_vertices += p.num_vertices
        total_built += len(built)
    assert total_built < total_vertices / 3


def test_point_outside_P_fails_the_cone_check():
    cases = [build_family(s) for s in ("simplex:2", "bruns:4", "reeve", "higashitani:3,1")]
    cases += [random_polytope(2, 4, 7, seed) for seed in range(3)]
    failed = 0
    for base in cases:
        # lattice points of the bounding box outside P: the point cache
        # accepts them and the stages before the semigroup do not fail
        box = itertools.product(*(range(min(c), max(c) + 1) for c in zip(*base.vertices)))
        outside = [x for x in box if not contains(base, x)]
        for x in outside[:2] + outside[-1:]:
            p = from_points(base.vertices, name=base.name)
            p._point_cache[1] = p.lattice_points(1) | {x}
            with pytest.raises(PipelineError, match="escapes the tangent cone") as info:
                full_report(p)
            assert info.value.stage == "semigroup"
            assert isinstance(info.value.__cause__, AssertionError)
            failed += 1
    assert failed >= 15


def search_to_exhaustion(generators, weights, root, it, guards):
    """semigroup._search without the early stop: every node of the lower set."""
    edges = [(dot(weights, g), g) for g in generators]
    parent = {root: None}
    frontier = [((0,) * len(weights), root)]
    while frontier:
        next_frontier = []
        for y, iy in sorted(frontier):
            for ig, g in edges:
                iz = iy + ig
                if iz not in parent and ((iz | guards) - it) & guards == guards:
                    parent[iz] = (iy, g)
                    next_frontier.append((add(y, g), iz))
        frontier = next_frontier
    return parent


def dominates_some_image(dy, images):
    """Whether dy dominates some image of the list componentwise."""
    return any(all(a >= b for a, b in zip(dy, td)) for td in images)


def search_by_tuples(generators, in_lower_set, pending, zero):
    """The BFS on coordinate tuples that semigroup._search replaces: each
    reached node maps to (previous node, generator), zero to None."""
    parent = {zero: None}
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


def representations_by_tuples(gs, targets):
    """The certificates of one search_by_tuples over the union of the
    targets' lower sets, each node's image computed by dot products."""
    results = dict.fromkeys(targets)
    normals = gs.cone_normals
    images = {t: tuple(dot(n, t) for n in normals) for t in results}
    live = [t for t, image in images.items() if max(image) <= 0]  # in the cone
    if not live:
        return results
    zero = (0,) * len(gs.vertex)
    # A node dominates some image iff it dominates a minimal one.  An image
    # sorts after every image it dominates, so each is kept unless it
    # dominates one kept before it.
    minimal = []
    for image in sorted({images[t] for t in live}):
        if not dominates_some_image(image, minimal):
            minimal.append(image)

    def in_lower_set(y):
        return dominates_some_image(tuple(dot(n, y) for n in normals), minimal)

    parent = search_by_tuples(gs.generators, in_lower_set, set(live) - {zero}, zero)
    for t in live:
        if t in parent:
            parts = []
            node = t
            while parent[node] is not None:
                node, g = parent[node]
                parts.append(g)
            results[t] = ReprCertificate(t, tuple(sorted(parts)))
    return results


def dilate_targets(p, k, v):
    """The points of kP less k·v, in sorted order: the m_P targets at k = d_P."""
    shift = scale(k, v)
    return tuple(sub(x, shift) for x in sorted(p.lattice_points(k)))


def assert_matches_tuple_search(gs, targets):
    """The certificates of shortest_representations equal part for part
    those of one tuple search over every target and of one per target.
    Returns them."""
    certs = shortest_representations(gs, targets)
    assert certs == representations_by_tuples(gs, targets)
    for t in targets:
        assert certs[t] == representations_by_tuples(gs, (t,))[t], t
    return certs


def test_packed_search_matches_tuple_search(poly):
    searched = infeasible = 0
    for p in oracle_cases(poly):
        d_P = compute_d_P(p)
        for v in p.vertices:
            gs = generator_set(p, v)
            targets = dilate_targets(p, d_P, v)
            certs = assert_matches_tuple_search(gs, targets)
            searched += len(targets)
            infeasible += sum(cert is None for cert in certs.values())
    assert searched > 5000 and infeasible > 0


def lanes_below(guards):
    """(s_i, 2**w_i - 1) for each lane: the bits between one guard bit and
    the next."""
    lanes, shift = [], 0
    for bit in range(guards.bit_length()):
        if guards >> bit & 1:
            lanes.append((shift, (1 << (bit - shift)) - 1))
            shift = bit + 1
    return lanes


def check_lanes(monkeypatch):
    """Make every search assert that its lanes never carry: each node y + g,
    for y the root or a reached node and g a generator, has every lane value
    n_i·(y + g) - lo_i in [0, 2**w_i), and its key is the sum of those lanes.
    Returns the list of searches checked, (normals, lanes) each."""
    checked = []
    real_lanes, real_search = semigroup._lanes, semigroup._search
    packed_normals = []

    def lanes(normals, generators, floors):
        packed_normals.append(normals)
        return real_lanes(normals, generators, floors)

    def search(generators, weights, root, it, guards):
        parent = real_search(generators, weights, root, it, guards)
        normals = packed_normals.pop()
        lanes = lanes_below(guards)
        assert len(lanes) == len(normals)
        shifts = [s for s, _ in lanes]
        lows = [-((root >> s) & m) for s, m in lanes]
        steps = [(dot(weights, g), [dot(n, g) for n in normals]) for g in generators]
        nodes = {}
        for key, entry in parent.items():  # a parent is entered before its children
            y = nodes[key] = (0,) * len(weights) if entry is None else add(nodes[entry[0]], entry[1])
            base = [dot(n, y) - low for n, low in zip(normals, lows)]
            for ig, step in steps:
                values = list(map(operator.add, base, step))
                assert all(0 <= a <= m for a, (_, m) in zip(values, lanes)), (y, step)
                assert key + ig == sum(map(operator.lshift, values, shifts)), (y, step)
        checked.append((normals, lanes))
        return parent

    monkeypatch.setattr(semigroup, "_lanes", lanes)
    monkeypatch.setattr(semigroup, "_search", search)
    return checked


def test_lanes_at_the_longest_chain_and_a_translate(poly, monkeypatch):
    # bruns:36 has m_P = 35 at x = (1, 1, 35), v = 0; CI pins the parts
    checked = check_lanes(monkeypatch)
    p = poly("bruns:36")
    gs = generator_set(p, (0, 0, 0))
    cert = sigma(gs, (1, 1, 35))
    assert cert.parts == ((0, 0, 1),) * 33 + ((0, 1, 1), (1, 0, 1))
    assert cert == representations_by_tuples(gs, ((1, 1, 35),))[(1, 1, 35)]
    # the same pair in a copy with every coordinate negative
    shift = (40, 40, 400)
    moved = translated(p, shift)
    assert all(c < 0 for u in moved.lattice_points(1) for c in u)
    d_P = compute_d_P(p)
    got = compute_m_P(moved, d_P)
    assert (got.m_P, got.witness.x, got.witness.vertex) == (
        35, sub((1, 1, 35), scale(d_P, shift)), sub((0, 0, 0), shift))
    assert got.witness.certificate.parts == cert.parts
    for v in moved.vertices:
        assert_matches_tuple_search(generator_set(moved, v), dilate_targets(moved, d_P, v))
    assert len(checked) > 2 * moved.num_vertices


def test_lanes_at_vertices_with_more_normals_than_dim(monkeypatch):
    checked = check_lanes(monkeypatch)
    pyramid = from_points([(0, 0, 0), (3, 0, 0), (0, 3, 0), (3, 3, 0), (1, 1, 3)])
    sample = build_family("random:4,3,9,11")
    cases = [(pyramid, (1, 1, 3), k) for k in (1, 2, 3)]
    # the first of the sample's vertices with 12 tight normals
    v = next(v for v in sample.vertices if len(generator_set(sample, v).cone_normals) == 12)
    cases.append((sample, v, compute_d_P(sample)))
    for p, v, k in cases:
        gs = generator_set(p, v)
        assert len(gs.cone_normals) > p.dim
        assert_matches_tuple_search(gs, dilate_targets(p, k, v))
    assert all(len(lanes) > 3 for _, lanes in checked)


def test_early_stop_gives_identical_certificates(poly, monkeypatch):
    # reeve and random:4,3,9,11 are not very ample, so some targets are
    # infeasible and their searches must still run to exhaustion
    cases = [(p, compute_d_P(p))
             for p in oracle_cases(poly) + [build_family("random:4,3,9,11")]]
    stopped = [all_certificates(p, d_P) for p, d_P in cases]
    monkeypatch.setattr(semigroup, "_search", search_to_exhaustion)
    for (p, d_P), got in zip(cases, stopped):
        assert got == all_certificates(p, d_P), p.name
    certs = [cert for got in stopped
             for by_target in got.values() for cert in by_target.values()]
    assert any(cert is None for cert in certs)
    # each vertex's own apex is the target 0, which needs no search
    assert any(cert is not None and cert.length == 0 for cert in certs)


# -- lattice points: row scan against the bounding-box scan --------------------


def lattice_points_box_scan(p, k):
    """Every point of the bounding box of kP that satisfies all facets."""
    axes = [range(k * min(c), k * max(c) + 1) for c in zip(*p.vertices)]
    return frozenset(x for x in itertools.product(*axes)
                     if all(dot(f.normal, x) <= k * f.offset for f in p.facets))


def translated(p, shift):
    return from_points([sub(v, shift) for v in p.vertices], name=p.name)


SEGMENT = ((0,), (1,))
# conv(0, e1, e2, (7, 3, 8)): most of its box lies outside it, so the
# residual cuts prune prefixes at every depth
SKEWED = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (7, 3, 8))


def rows_by_recursion(p, k, rhs):
    """The non-empty rows of {x : a_f·x <= rhs[f] for every facet f} inside
    the bounding box of kP, by the scan that the one-frame _rows replaced: a
    recursion over the coordinates, one generator frame per depth, that
    carries each facet's residual and cuts each coordinate's box range by
    the least value of the rest over the box, taking a min over a list at
    every prefix.  With rhs[f] = k·c_f the rows are those of kP; with
    k·c_f - 1 they are those of int(kP), which that route scanned a second
    time for the interior counts of the Ehrhart polynomial."""
    d = p.dim
    normals = [f.normal for f in p.facets]
    box = [(k * min(c), k * max(c)) for c in zip(*p.vertices)]
    floor = [0] * len(normals)
    cuts = [None] * d
    for i in reversed(range(d)):
        lo, hi = box[i]
        column = [a[i] for a in normals]
        cuts[i] = ([(f, a, floor[f]) for f, a in enumerate(column) if a > 0],
                   [(f, -a, floor[f]) for f, a in enumerate(column) if a < 0],
                   [(f, floor[f]) for f, a in enumerate(column) if a == 0],
                   column, lo, hi)
        floor = [fl + min(a * lo, a * hi) for fl, a in zip(floor, column)]

    def scan(i, prefix, residual):
        above, below, flat, column, lo, hi = cuts[i]
        if any(residual[f] < fl for f, fl in flat):
            return
        hi = min([hi] + [(residual[f] - fl) // a for f, a, fl in above])
        lo = -min([-lo] + [(residual[f] - fl) // b for f, b, fl in below])
        if i == d - 1:
            if lo <= hi:
                yield prefix, lo, hi
            return
        residual = [r - a * (lo - 1) for r, a in zip(residual, column)]
        for x in range(lo, hi + 1):
            residual = [r - a for r, a in zip(residual, column)]
            yield from scan(i + 1, prefix + (x,), residual)

    return scan(0, (), list(rhs))


def row_scan_cases(poly):
    """The catalog, the random shapes and those shapes moved so that every
    coordinate range crosses zero."""
    cases = [poly(s) for s in CATALOG_SPECS] + list(random_cases())
    cases += [translated(p, (2,) * p.dim) for p in random_cases()]
    assert any(min(min(v) for v in p.vertices) < 0 for p in cases)
    return cases


def test_row_scan_matches_box_scan(poly):
    cases = [(p, 4) for p in row_scan_cases(poly)]
    cases += [(from_points(SEGMENT), 4), (poly("cube:5"), 3), (from_points(SKEWED), 4)]
    for p, levels in cases:
        for k in range(1, levels + 1):
            rows = [row[:3] for row in p._rows(k)]
            assert all(lo <= hi for _, lo, hi in rows), (p.name, k)
            # no prefix twice and every point once, in lexicographic order
            points = [prefix + (z,) for prefix, lo, hi in rows for z in range(lo, hi + 1)]
            assert points == sorted(lattice_points_box_scan(p, k)), (p.name, k)
            assert p.lattice_points(k) == frozenset(points)


def test_interior_row_scan_matches_filtered_points(poly):
    cases = row_scan_cases(poly) + [from_points(SEGMENT), poly("cube:5"), from_points(SKEWED)]
    nonzero = 0
    for p in cases:
        for k in range(1, 4):
            p.lattice_points(k)
            count = p._interior[k]
            interior = interior_lattice_points(p, k)
            assert count == len(interior), (p.name, k)
            # row by row, and against the second scan of int(kP) it replaces
            inside = Counter(x[:-1] for x in interior)
            for prefix, lo, hi, inner in p._rows(k):
                assert inner == inside.pop(prefix, 0), (p.name, k, prefix)
            assert not inside, (p.name, k)
            rows = rows_by_recursion(p, k, [k * f.offset - 1 for f in p.facets])
            assert count == sum(hi - lo + 1 for _, lo, hi in rows), (p.name, k)
            nonzero += count > 0
    # the comparison must reach dilates with and without interior points
    assert 0 < nonzero < 3 * len(cases)


def test_full_report_scans_each_listed_level_once(monkeypatch):
    scans = Counter()
    scan = Polytope._rows

    def counted_scan(self, k):
        scans[k] += 1
        return scan(self, k)

    monkeypatch.setattr(Polytope, "_rows", counted_scan)
    cases = [build_family(s) for s in CATALOG_SPECS + ("random:4,3,9,11", "cube:5")]
    cases += [from_points(SKEWED), from_points(SEGMENT)]
    witness_scans = {}
    for p in cases:
        scans.clear()
        r = full_report(p)
        listed = Counter(dict.fromkeys(p._point_cache, 1))
        # the report's hole witness at k_P - 1 scans rows of its own only
        # when that level is not listed; every other scan lists a level,
        # once, and the interior counts of the Ehrhart polynomial come off
        # those scans, with no scan of int(kP)
        witness = r.k_P is not None and r.k_P > 1 and r.k_P - 1 not in listed
        assert scans == listed + Counter({r.k_P - 1: 1} if witness else {}), p.name
        witness_scans[p.name] = witness
        assert set(range(1, p.dim // 2 + 1)) <= set(p._interior) == set(p._point_cache)
        # and the rows are those of the recursion that the one-frame scan replaced
        for k in sorted(p._point_cache) + [max(p._point_cache) + 1]:
            rhs = [k * f.offset for f in p.facets]
            assert ([row[:3] for row in scan(p, k)]
                    == list(rows_by_recursion(p, k, rhs))), (p.name, k)
    assert witness_scans["bruns:6"]
    assert not witness_scans["bruns:4"] and not witness_scans["higashitani:3,3"]
    # the threshold stages list d_P·P, so the m_P hole listing scans no
    # rows: in dim 4, _ehrhart lists it at d_P = 2, and compute_nu_P's chain
    # of shifted unions at d_P = 3
    deep = next(p for p in deep_draws() if compute_d_P(p) == 3)
    thresholds = []
    for p in (build_family("random:4,3,9,11"), from_points(deep.vertices)):
        d_P = compute_d_P(p)
        compute_nu_P(p)
        scans.clear()
        compute_m_P(p, d_P)
        assert not scans, (p.name, d_P)
        thresholds.append(d_P)
    assert thresholds == [2, 3]


def test_dilation_factor_below_one_is_rejected(poly):
    p = poly("bruns:4")
    for k in (0, -1, -2):
        for call in (p.lattice_points, lambda k: list(iter_holes(p, k)),
                     lambda k: hole_count(p, k)):
            with pytest.raises(ValueError, match="dilation factor must be >= 1"):
                call(k)


# -- k-normality: packed tower against tuple sumsets ----------------------------


def tuple_holes(p, levels, points=lattice_points_box_scan):
    """Holes of kP for k = 1..levels from tuple sumsets S_k = S_(k-1) + P∩M,
    with the points of kP listed by points(p, k)."""
    pts = points(p, 1)
    reach = set(pts)
    holes = []
    for k in range(1, levels + 1):
        if k > 1:
            reach = {add(x, y) for x in reach for y in pts}
        holes.append(points(p, k) - reach)
    return holes


def k_P_tuple_scan(p, m_P, d_P):
    """compute_k_P with tuple sumsets rebuilt one level at a time."""
    cap = (m_P - d_P) * p.num_vertices + 1
    pts = p.lattice_points(1)
    reach = set(pts)
    k = 1
    last_failing = 0
    while True:
        if not p.lattice_points(k) <= reach:
            last_failing = k
        elif k >= d_P:
            break
        k += 1
        assert k <= cap
        reach = {add(x, y) for x in reach for y in pts}
    return last_failing + 1


def scan_depth(r):
    """k_P + 1, or d_P + 2 when k_P is undefined (reeve)."""
    return r.k_P + 1 if r.k_P is not None else r.d_P + 2


@pytest.mark.parametrize("min_levels", [None, 2])
def test_tower_matches_tuple_sumsets(report, monkeypatch, min_levels):
    # min_levels = 2 forces the tower to be rebuilt under a wider packing
    # several times on the way up
    if min_levels is not None:
        monkeypatch.setattr(invariants, "_MIN_LEVELS", min_levels)
    deep = 0
    for spec in CATALOG_SPECS:
        r = report(spec)
        levels = scan_depth(r)
        expected = tuple_holes(build_family(spec), levels)
        deep += any(expected)
        # fresh polytopes, so each tower is built by the order of the queries
        ascending, descending = build_family(spec), build_family(spec)
        for k in range(1, levels + 1):
            assert k_normality(ascending, k) == (not expected[k - 1], expected[k - 1])
            assert hole_count(ascending, k) == len(expected[k - 1])
        for k in range(levels, 0, -1):
            assert k_normality(descending, k)[1] == expected[k - 1], (spec, k)
            assert next(iter_holes(descending, k), None) == min(expected[k - 1], default=None)
        if r.very_ample:
            fresh = build_family(spec)
            k_P = compute_k_P(fresh, r.m_P, r.d_P)
            assert k_P == r.k_P == k_P_tuple_scan(fresh, r.m_P, r.d_P), spec
    assert deep >= 5


def test_tower_builds_each_level_once(monkeypatch, capsys, report):
    k_P = report("bruns:6").k_P
    built = []

    @dataclass(frozen=True)
    class Counting(invariants._Tower):
        def __post_init__(self):
            # every build and every extension is a new tower; a build holds S_0
            if len(self.masks) > 1:
                built.append((self.packing.capacity, len(self.masks) - 1))

    monkeypatch.setattr(invariants, "_Tower", Counting)
    # each level once per packing: levels 1..4 under the first one, then the
    # query for k_P = 5 outgrows it and the tower is rebuilt under capacity
    # 10, from S_0 up to k_P + 1
    assert k_P == 5
    expected = [(4, k) for k in range(1, 5)] + [(10, k) for k in range(1, k_P + 2)]
    # full_report (k_P scan and hole witness) plus the k = 1..k_P+1 flags
    results, ok = run_check_suite(build_family("bruns:6"))
    assert ok and built == expected
    built.clear()
    # full_report, then the listing of k = 1..k_P+1 on the same tower
    assert main(["holes", "bruns:6", "--max-k", str(k_P + 1)]) == 0
    assert f"k={k_P + 1}: no holes" in capsys.readouterr().out
    assert built == expected


# -- packing: round trip at the corners of the bounding box ----------------------


def unpack(value, level, lows, weights):
    """Inverse of the tower's pack(·, level) on level·P: mixed-radix digits
    above level·lows, least significant place first."""
    order = sorted(range(len(lows)), key=weights.__getitem__)
    digits = [0] * len(lows)
    rest = value
    for i, above in zip(order, order[1:]):
        rest, digits[i] = divmod(rest, weights[above] // weights[i])
    if order:
        rest, digits[order[-1]] = 0, rest
    assert rest == 0
    return tuple(level * lo + d for lo, d in zip(lows, digits))


@pytest.mark.parametrize("min_levels", [None, 2])
def test_packing_round_trips_at_box_corners(report, monkeypatch, min_levels):
    if min_levels is not None:
        monkeypatch.setattr(invariants, "_MIN_LEVELS", min_levels)
    cases = [(build_family(s), scan_depth(report(s))) for s in CATALOG_SPECS]
    cases += [(translated(build_family(s), (1, 3, 2)), scan_depth(report(s)))
              for s in ("bruns:5", "reeve")]
    for p, levels in cases:
        for k in range(1, levels + 1):  # one level at a time, as compute_k_P does
            hole_count(p, k)
        tower = p._tower
        packing = tower.packing
        assert len(tower.masks) - 1 == levels <= packing.capacity
        lows = tuple(min(c) for c in zip(*p.vertices))
        highs = tuple(max(c) for c in zip(*p.vertices))
        assert packing.origin == dot(lows, packing.weights)
        # every level's mask fits below the packed top corner of its box
        for level, mask in enumerate(tower.masks):
            assert packing.pack(scale(level, highs), level) == packing.top(level)
            assert mask.bit_length() <= packing.top(level) + 1
        for level in range(1, levels + 1):
            # packed order is lexicographic order, and each row is a run
            packed = [packing.pack(x, level) for x in sorted(p.lattice_points(level))]
            assert all(a < b for a, b in zip(packed, packed[1:])), (p.name, level)
            for prefix, lo, hi, _ in p._rows(level):
                start = packing.pack(prefix + (lo,), level)
                row = [packing.pack(prefix + (z,), level) for z in range(lo, hi + 1)]
                assert row == list(range(start, start + hi - lo + 1)), (p.name, prefix)
        weights = packing.weights
        for level in sorted({1, levels, packing.capacity}):
            corners = list(itertools.product(
                *((level * lo, level * hi) for lo, hi in zip(lows, highs))))
            packed = [packing.pack(x, level) for x in corners]
            assert len(set(packed)) == len(corners) and min(packed) == 0
            for x, value in zip(corners, packed):
                assert unpack(value, level, lows, weights) == x, (p.name, level, x)
            # linearity: a sum of packed corners is the packed vector sum
            for x, y in itertools.combinations(corners, 2):
                assert (packing.pack(x, level) + packing.pack(y, level)
                        == packing.pack(add(x, y), 2 * level))
            # and across levels, which makes S_(j+1) an OR of shifts of S_j
            for x in corners:
                for b in p.lattice_points(1):
                    assert (packing.pack(x, level) + packing.pack(b, 1)
                            == packing.pack(add(x, b), level + 1))


# -- point counts: Ehrhart polynomial against enumeration -------------------------


def volume_by_vandermonde(p):
    """dim! times the leading coefficient of the polynomial through the
    counts |kP∩M|, k = 0..dim, solved from the Vandermonde system."""
    d = p.dim
    counts = (1,) + tuple(len(p.lattice_points(k)) for k in range(1, d + 1))
    vandermonde = tuple(tuple(k ** j for j in range(d + 1)) for k in range(d + 1))
    coeffs = solve_rational(vandermonde, counts)
    return coeffs[-1] * factorial(d)


def ehrhart_by_listing(p):
    """Forward differences Δ^i L(0) of L(k) = |kP∩M| from the counts of the
    listed levels k = 0..dim."""
    row = [1] + [len(p.lattice_points(k)) for k in range(1, p.dim + 1)]
    deltas = []
    while row:
        deltas.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return tuple(deltas)


def test_ehrhart_from_half_the_levels_matches_listing(poly):
    cases = row_scan_cases(poly) + [poly("cube:5"), from_points(SEGMENT)]
    for p in cases:
        # a fresh polytope, so nothing listed by the oracle is reused
        assert invariants._ehrhart(from_points(p.vertices)) == ehrhart_by_listing(p), p.name


def test_ehrhart_counts_match_enumeration(poly):
    cases = [poly(s) for s in CATALOG_SPECS]
    cases += [random_polytope(d, 5 - d, d + 5, seed) for d in (2, 3, 4) for seed in range(6)]
    for p in cases:
        assert volume_ehrhart(p) == volume_by_vandermonde(p), p.name
        for k in range(1, p.dim + 5):
            assert invariants._point_count(p, k) == len(p.lattice_points(k)), (p.name, k)
        # every level comes off the Ehrhart polynomial, so a level k <= dim
        # asked for first, with nothing listed, gives the same count
        for k in range(1, p.dim + 1):
            fresh = from_points(p.vertices)
            assert not fresh._point_cache and fresh._ehrhart is None
            assert invariants._point_count(fresh, k) == len(p.lattice_points(k)), (p.name, k)
        # counting lists no level above ceil(dim/2)
        fresh = from_points(p.vertices)
        invariants._point_count(fresh, fresh.dim + 4)
        assert max(fresh._point_cache) == (fresh.dim + 1) // 2


# -- dilate masks: the level below shifted by P∩M against the listed points -------


def union_falls_short(p, j):
    """Whether (j-1)P∩M + P∩M misses a point of jP∩M, by tuple sums."""
    below = p.lattice_points(j - 1)
    return {add(x, b) for x in below for b in p.lattice_points(1)} != p.lattice_points(j)


def test_dilate_mask_matches_listed_points(poly):
    rng = SplitMix64(1)
    deep = [random_polytope(4, 3, 9, rng.next_u64()) for _ in range(4)]
    held = short = 0
    for p in oracle_cases(poly) + deep:
        top = p.dim + 1
        half = (p.dim + 1) // 2
        # a fresh polytope: only _ehrhart's levels are listed before the call
        fresh = from_points(p.vertices, name=p.name)
        invariants._ehrhart(fresh)
        invariants._dilate_mask(fresh, invariants._packing(fresh, top), top)
        falls_short = [j for j in range(half + 1, top + 1) if union_falls_short(p, j)]
        # a level above ceil(dim/2) is listed exactly when the union falls short
        assert sorted(fresh._point_cache) == list(range(1, half + 1)) + falls_short, p.name
        held += top - half - len(falls_short)
        short += len(falls_short)
        for j in range(1, top + 1):
            for capacity in (j, j + 1):
                packing = invariants._packing(p, capacity)
                listed = invariants._bitmask(packing.pack(x, j) for x in p.lattice_points(j))
                assert invariants._dilate_mask(fresh, packing, j) == listed, (p.name, j)
    # both routes: levels the union fills, and levels of the dim-4 cases with
    # d_P = 3 where it falls short and jP is listed
    assert held >= 100
    assert short >= 3


def test_full_report_lists_no_level_above_half():
    # random:4,3,9,11 has d_P = 2 and nu_P = 3: the nu_P test at k = 3 takes
    # the mask of 3P from the union of 2P and P∩M instead of listing 3P
    p = build_family("random:4,3,9,11")
    full_report(p)
    assert sorted(p._point_cache) == [1, 2]


def test_slack_table_matches_facet_slacks(poly):
    for p in oracle_cases(poly) + [poly("cube:4")]:
        table = p.slack_table()
        assert set(table) == p.lattice_points(1), p.name
        for u, slacks in table.items():
            assert slacks == tuple(slack(f, u) for f in p.facets), (p.name, u)
        assert p.slack_table() is table


# -- hole decoding: both routes of iter_holes against filtering the points -----


@pytest.mark.parametrize("min_levels", [None, 2])
def test_decoded_holes_match_filtered_points(report, monkeypatch, min_levels):
    if min_levels is not None:
        monkeypatch.setattr(invariants, "_MIN_LEVELS", min_levels)
    cases = [(build_family(s), scan_depth(report(s))) for s in CATALOG_SPECS]
    cases += [(translated(build_family(s), (-2, 1, 3)), scan_depth(report(s)))
              for s in ("bruns:6", "higashitani:3,3")]
    cases += [(p, p.dim + 2) for p in random_cases()]
    decoded = above_dim = 0
    for p, levels in cases:
        for k in range(1, levels + 1):
            # each level on fresh polytopes first, by the rows route, and
            # again once it is listed, by the listed route
            fresh = [from_points(p.vertices, name=p.name) for _ in range(2)]
            assert not any(q._point_cache for q in fresh)
            rows_first = next(iter_holes(fresh[0], k), None)
            rows_all = list(iter_holes(fresh[1], k))
            packing, mask = invariants._level(p, k)
            filtered = [x for x in sorted(p.lattice_points(k))
                        if not mask >> packing.pack(x, k) & 1]
            first = filtered[0] if filtered else None
            # both routes yield the holes in lexicographic order
            assert rows_all == filtered and rows_first == first, (p.name, k)
            assert k in p._point_cache
            assert list(iter_holes(p, k)) == filtered, (p.name, k)
            assert next(iter_holes(p, k), None) == first, (p.name, k)
            assert hole_count(p, k) == len(filtered)
            decoded += len(filtered)
            above_dim += len(filtered) * (k > p.dim)
    # 973 holes, 773 of them above dim, where hole_count reads the Ehrhart
    # polynomial instead of the enumerated points
    assert decoded >= 900 and above_dim >= 700


def old_holes_listing(name, r, holes, max_k):
    """`holes` stdout rendered from tuple hole sets, each level sorted."""
    if r.k_P is None:
        limit = max_k if max_k is not None else r.d_P + 1
    else:
        limit = max(r.k_P, max_k or 1)
    lines = [f"# holes of {name} (k_P = {'undefined' if r.k_P is None else r.k_P})"]
    for k in range(1, limit + 1):
        level = sorted(holes[k - 1])
        lines.append(f"k={k}: {len(level)} hole(s): " + " ".join(map(str, level))
                     if level else f"k={k}: no holes")
    return "\n".join(lines) + "\n"


def test_holes_listing_matches_sorted_tuple_holes(report, capsys):
    cases = [(build_family(s), report(s), (None, 2, 7)) for s in CATALOG_SPECS]
    cases += [(p, full_report(p), (None, 2, 7)) for p in random_cases()]
    cases.append((build_family("reeve"), report("reeve"), (4,)))
    listed = capped = 0
    for p, r, flags in cases:
        depth = max(r.k_P or r.d_P + 1, *(f for f in flags if f is not None))
        # the row scan lists kP∩M; test_row_scan_matches_box_scan checks it
        holes = tuple_holes(p, depth, lambda p, k: p.lattice_points(k))
        for max_k in flags:
            argv = ["holes", p.name] + ([] if max_k is None else ["--max-k", str(max_k)])
            code = main(argv)
            out = capsys.readouterr().out
            if max_k is not None and r.k_P is not None and r.k_P > max_k:
                assert (code, out) == (2, ""), argv
                capped += 1
            else:
                assert (code, out) == (0, old_holes_listing(p.name, r, holes, max_k)), argv
                listed += out.count("hole(s)")
    # 93 listed levels with holes, 6 runs stopped by the cap
    assert listed >= 90 and capped >= 5


# -- sigma: BFS lengths against the sumset tower ----------------------------------


def tower_length(p, x, v, d_P, cap):
    """Least j <= cap with x - d_P·v a sum of j generators, read off the tower.

    x - d_P·v is a sum of at most j generators u_i - v exactly when
    x + (j - d_P)·v is a sum of j lattice points of P (a point u_i = v adds
    nothing), i.e. a point of jP that is not a hole of jP.  The least such
    j is sigma.
    """
    if x == scale(d_P, v):
        return 0
    for j in range(1, cap + 1):
        y = add(x, scale(j - d_P, v))
        if contains(p, y, j) and y not in k_normality(p, j)[1]:
            return j
    return None


def test_sigma_matches_tower(poly):
    cases = [poly(s) for s in ORACLE_SPECS]
    cases += [p for p in random_cases() if p.dim <= 3]
    pairs = 0
    for p in cases:
        d_P = compute_d_P(p)
        for v in p.vertices:
            gs = generator_set(p, v)
            for x in sorted(p.lattice_points(d_P)):
                cert = sigma(gs, sub(x, scale(d_P, v)))
                if cert is not None:
                    assert tower_length(p, x, v, d_P, cert.length) == cert.length, (
                        p.name, v, x)
                    pairs += 1
    assert pairs >= 4000


# -- smooth data and triangulation: edge fans and projected hulls ---------------


@dataclass(frozen=True)
class EdgeFan:
    """The edges incident to one vertex: primitive directions and neighbors."""

    vertex: Vector
    edge_directions: tuple[Vector, ...]
    neighbor_vertices: tuple[Vector, ...]

    def __post_init__(self):
        if len(set(self.edge_directions)) != len(self.edge_directions):
            raise GeometryError("edge directions must be pairwise distinct")


def edge_fan(p, v):
    """Primitive edge directions at a vertex.

    A second vertex u spans an edge with v exactly when the facets tight at
    both have normals of rank dim-1.
    """
    if not p.is_vertex(v):
        raise GeometryError(f"{v} is not a vertex")
    active_v = [f for f in p.facets if slack(f, v) == 0]
    pairs = []
    for u in p.vertices:
        if u == v:
            continue
        common = tuple(f.normal for f in active_v if slack(f, u) == 0)
        if rank(common) == p.dim - 1:
            pairs.append((primitive(sub(u, v)), u))
    pairs.sort()
    return EdgeFan(v, tuple(d for d, _ in pairs), tuple(u for _, u in pairs))


def edge_coefficients(fan, target):
    """Coordinates of target in the edge-direction basis, which must be
    nonnegative integers for a lattice point of a smooth polytope."""
    sol = solve_rational(tuple(zip(*fan.edge_directions)), target)
    assert not isinstance(sol, str), fan.vertex
    assert all(a.denominator == 1 and a >= 0 for a in sol), (fan.vertex, target)
    return [int(a) for a in sol]


def smooth_data_from_edge_fans(p):
    """Smooth when every vertex has dim edge directions with |det| = 1;
    gamma and m_prime from the solved edge coefficients of u - v."""
    fans = [edge_fan(p, v) for v in p.vertices]
    if any(len(fan.edge_directions) != p.dim or abs(det_exact(fan.edge_directions)) != 1
           for fan in fans):
        return SmoothData(False, None, None)
    g = max(sum(edge_coefficients(fan, sub(u, fan.vertex)))
            for fan in fans for u in p.vertices if u != fan.vertex)
    mp = max(max(edge_coefficients(fan, sub(u, fan.vertex)))
             for fan in fans for u in sorted(p.lattice_points(1)) if u != fan.vertex)
    return SmoothData(True, g, mp)


def triangulate_by_projected_hulls(p):
    """Pulling triangulation from the lexicographically least vertex.

    Facets avoiding the pulled vertex are triangulated recursively in a
    projected coordinate system (dropping one coordinate where the facet
    normal is nonzero, a bijection on the facet's affine hull).
    """
    verts = p.vertices
    if len(verts) == p.dim + 1:
        return [verts]
    v0 = verts[0]
    simplices = []
    for f in p.facets:
        if slack(f, v0) == 0:
            continue
        fverts = [v for v in verts if slack(f, v) == 0]
        j = next(i for i, c in enumerate(f.normal) if c != 0)
        lift = {v[:j] + v[j + 1:]: v for v in fverts}
        for cell in triangulate_by_projected_hulls(from_points(lift.keys())):
            simplices.append((v0,) + tuple(lift[q] for q in cell))
    return simplices


def simplex_volumes(simplices):
    return [abs(det_exact(tuple(sub(v, s[0]) for v in s[1:]))) for s in simplices]


def smooth_cases():
    """Smooth inputs that are not unit cubes or standard simplices."""
    return [
        dilate(cube(3), 2),
        from_points([(0, 0), (2, 0), (0, 2)]),
        product(cube(2), standard_simplex(2)),
        from_points([(0,), (1,)]),
    ]


def test_smooth_data_matches_edge_fans(poly):
    smooth = []
    for p in oracle_cases(poly) + smooth_cases():
        got = smooth_data(p)
        assert got == smooth_data_from_edge_fans(p), p.name
        if got.is_smooth:
            smooth.append((p.dim, got))
    # the comparison must reach gamma and m_prime, beyond unit coefficients
    assert len(smooth) >= 10
    assert any(s.m_prime > 1 for _, s in smooth)
    assert any(s.gamma > d for d, s in smooth)


def test_triangulation_matches_projected_hulls(poly):
    for p in oracle_cases(poly) + smooth_cases():
        cells = simplex_volumes(invariants._triangulate(p, p.vertices, p.dim))
        assert all(cells), p.name  # no flat simplex
        assert sum(cells) == volume_triangulation(p) == sum(
            simplex_volumes(triangulate_by_projected_hulls(p))), p.name


SQUARE = from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


class TestEdgeFan:
    def test_square_origin(self):
        fan = edge_fan(SQUARE, (0, 0))
        assert set(fan.edge_directions) == {(1, 0), (0, 1)}

    def test_cube_origin(self):
        fan = edge_fan(cube(3), (0, 0, 0))
        assert set(fan.edge_directions) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_simplex_at_e1(self):
        fan = edge_fan(standard_simplex(2), (1, 0))
        assert set(fan.edge_directions) == {(-1, 0), (-1, 1)}

    def test_neighbors_are_vertices(self):
        p = build_family("bruns:4")
        for v in p.vertices:
            fan = edge_fan(p, v)
            assert all(p.is_vertex(u) for u in fan.neighbor_vertices)

    def test_non_vertex_rejected(self):
        with pytest.raises(GeometryError):
            edge_fan(SQUARE, (2, 2))


# -- facet normals: back-substitution against signed minors ------------------


def signed_minors(rows, d):
    """The cofactor cross product of d-1 rows of length d: their signed
    (d-1)-minors, a vector orthogonal to every row, nonzero when the rows
    are independent."""
    return tuple((-1) ** i * det_exact(tuple(r[:i] + r[i + 1:] for r in rows))
                 for i in range(d))


def halfspace_by_minors(point, basis, inside):
    """The hyperplane through point spanned by the basis rows, with the
    primitive signed-minor normal, oriented to hold inside/(d+1) strictly."""
    d = len(point)
    normal = primitive(signed_minors([row for _, row in basis], d))
    offset = dot(normal, point)
    if dot(normal, inside) > (d + 1) * offset:
        normal, offset = neg(normal), -offset
    return HalfSpace(normal, offset)


def back_substitution_steps(basis):
    """Two counts over the back-substitution steps of _halfspace: the rows
    already orthogonal to the normal built so far (s = 0), and the rows
    that scale that normal by |a/g| > 1, leaving it non-primitive until
    the pivot entry is set.  Before the step of row i the normal is
    primitive, supported on the free column and the pivots of the later
    rows, and spans the kernel of the later rows there, so their signed
    minors on those columns give it up to sign."""
    d = len(basis) + 1
    pivots = [c for c, _ in basis]
    free = next(c for c in range(d) if c not in pivots)
    orthogonal = scaled = 0
    for i, (c, row) in enumerate(basis):
        cols = sorted([free] + pivots[i + 1:])
        later = [tuple(r[j] for j in cols) for _, r in basis[i + 1:]]
        s = dot(tuple(row[j] for j in cols), primitive(signed_minors(later, len(cols))))
        orthogonal += s == 0
        scaled += s != 0 and abs(row[c]) > gcd(row[c], s)
    return orthogonal, scaled


def echelon_bases():
    """Seeded echelon bases of d-1 independent rows in dims 1-5, each with a
    point and a reference that may lie on the hyperplane: sparse rows (zero
    entries make orthogonal steps), dense small rows and 19-digit rows."""
    rng = SplitMix64(21)
    for d in range(1, 6):
        for trial in range(150):
            bound = 10 ** 18 if trial % 5 == 4 else 3

            def entry():
                if trial % 2 and rng.below(2):
                    return 0
                return rng.below(2 * bound + 1) - bound

            basis = echelon([tuple(entry() for _ in range(d)) for _ in range(d - 1)])
            if len(basis) == d - 1:
                yield (tuple(rng.below(7) - 3 for _ in range(d)), basis,
                       tuple(rng.below(9) - 4 for _ in range(d)))


def test_halfspace_matches_signed_minors(monkeypatch):
    handed = []  # what _halfspace hands to primitive: its back-substituted normal

    def recording(v):
        handed.append(tuple(v))
        return primitive(v)

    monkeypatch.setattr(polytope, "primitive", recording)
    oriented = on_plane = negative_pivots = orthogonal = scaled = 0
    dims = set()
    for point, basis, inside in echelon_bases():
        d = len(point)
        dims.add(d)
        want = halfspace_by_minors(point, basis, inside)
        handed.clear()
        got = _halfspace(point, basis, inside)
        assert type(got.normal) is tuple, (point, basis)
        if dot(want.normal, inside) == (d + 1) * want.offset:
            # the reference does not fix the orientation
            on_plane += 1
            assert got in (want, HalfSpace(neg(want.normal), -want.offset)), (point, basis)
        else:
            oriented += 1
            assert got == want, (point, basis, inside)
        # every step leaves the normal primitive, so primitive only makes it
        # a tuple
        assert len(handed) == 1 and primitive(handed[0]) == handed[0], (point, basis)
        negative_pivots += any(row[c] < 0 for c, row in basis)
        steps = back_substitution_steps(basis)
        orthogonal += steps[0]
        scaled += steps[1]
    assert dims == {1, 2, 3, 4, 5}
    assert oriented >= 600 and on_plane >= 10
    assert negative_pivots >= 300
    assert orthogonal >= 250 and scaled >= 250


# -- hull: beneath-beyond against every d-subset hyperplane -------------------


def hull_by_d_subsets(points):
    """Facets by brute force over d-subsets: each hyperplane through d
    affinely independent points is kept iff every point lies on one side.
    Exact, and every facet is found because a facet contains d affinely
    independent points."""
    pts = sorted(set(points))
    if not pts:
        raise GeometryError("empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise GeometryError("points of mixed dimension")
    arank = rank(tuple(sub(p, pts[0]) for p in pts[1:]))
    if arank < d:
        raise GeometryError(
            f"point set is not full-dimensional (affine rank {arank} < {d})")
    found = set()
    for subset in itertools.combinations(pts, d):
        normal = signed_minors([sub(p, subset[0]) for p in subset[1:]], d)
        if not any(normal):
            continue
        c = dot(normal, subset[0])
        sides = {(dot(normal, p) > c) - (dot(normal, p) < c) for p in pts} - {0}
        if len(sides) == 2:
            continue
        if sides == {1}:
            normal, c = tuple(-x for x in normal), -c
        g = gcd(*normal)
        found.add(HalfSpace(tuple(x // g for x in normal), c // g))
    return tuple(sorted(found))


def shuffled(points, rng):
    out = list(points)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def point_clouds():
    """Seeded clouds in dims 1-4 around the origin: doubled random points
    2a, the sums a + b of pairs (midpoints of 2a and 2b, so on a shared
    facet or inside) and repeats of earlier points."""
    rng = SplitMix64(8)
    for d in range(1, 5):
        for _ in range(40):
            bound = 1 + rng.below(3)
            base = [tuple(rng.below(2 * bound + 1) - bound for _ in range(d))
                    for _ in range(d + 1 + rng.below(5))]
            cloud = [scale(2, a) for a in base]
            cloud += [add(base[rng.below(len(base))], base[rng.below(len(base))])
                      for _ in range(1 + rng.below(6))]
            cloud += [cloud[rng.below(len(cloud))] for _ in range(2)]
            yield cloud


def hull_facets(points):
    return from_points(points).facets


def hull_tight_sets(pts):
    """The tight sets of _hull_tight_sets, without the vertices."""
    return _hull_tight_sets(pts)[0]


def hull_or_error(hull, points):
    try:
        return hull(points)
    except GeometryError as e:
        return str(e)


def test_hull_matches_d_subsets(poly):
    specs = CATALOG_SPECS + ("higashitani:4,2", "random:3,5,12,7", "random:4,4,12,3")
    assert "cube:4" in specs
    for spec in specs:
        p = poly(spec)
        assert p.facets == hull_facets(p.vertices) == hull_by_d_subsets(p.vertices), spec
    rng = SplitMix64(9)
    edge_points = crowded_facets = full = 0
    for cloud in point_clouds():
        want = hull_or_error(hull_by_d_subsets, cloud)
        assert hull_or_error(hull_facets, sorted(cloud)) == want, cloud
        assert hull_or_error(hull_facets, shuffled(cloud, rng)) == want, cloud
        if isinstance(want, str):
            continue
        full += 1
        d = len(cloud[0])
        vertices = set(from_points(cloud).vertices)
        on_facets = [{x for x in cloud if slack(f, x) == 0} for f in want]
        edge_points += any(on - vertices for on in on_facets)
        crowded_facets += any(len(on) > d for on in on_facets)
    # the degenerate cases must occur: boundary points that are not vertices
    # (the coplanar merge) and facets tight at more than d points
    assert full >= 140
    assert edge_points >= 50
    assert crowded_facets >= 50


# -- vertices: hull tight sets against ranking every point's facets ----------------


def vertices_by_ranking(points):
    """The points whose tight facet normals have rank dim, each point tested
    against every facet."""
    facets = hull_facets(points)
    pts = sorted(set(points))
    d = len(pts[0])
    return tuple(x for x in pts
                 if rank(tuple(f.normal for f in facets if slack(f, x) == 0)) == d)


def degenerate_cloud(rng, d, spread=5):
    """One seeded cloud in dim d: points 6a, the midpoints 3a + 3b of pairs
    (collinear with 6a and 6b), the centroids 2a + 2b + 2c of triples
    (coplanar with 6a, 6b and 6c) and repeats; spread bounds the number of
    extra points a and of midpoints and centroids."""
    bound = 1 + rng.below(3)
    base = [tuple(rng.below(2 * bound + 1) - bound for _ in range(d))
            for _ in range(d + 1 + rng.below(spread))]

    def pick():
        return base[rng.below(len(base))]

    cloud = [scale(6, a) for a in base]
    cloud += [add(scale(3, pick()), scale(3, pick())) for _ in range(1 + rng.below(spread))]
    cloud += [scale(2, add(add(pick(), pick()), pick())) for _ in range(1 + rng.below(spread))]
    cloud += [cloud[rng.below(len(cloud))] for _ in range(2)]
    return cloud


def degenerate_clouds():
    """Seeded degenerate clouds in dims 2-4, 30 per dim."""
    rng = SplitMix64(10)
    for d in range(2, 5):
        for _ in range(30):
            yield degenerate_cloud(rng, d)


def test_vertices_match_ranking_every_point(poly):
    for spec in CATALOG_SPECS + ("higashitani:4,2", "random:4,4,12,3"):
        p = poly(spec)
        assert p.vertices == vertices_by_ranking(p.vertices), spec
    full = boundary = crowded = 0
    for cloud in degenerate_clouds():
        try:
            got = from_points(cloud).vertices
        except GeometryError:
            continue
        full += 1
        assert got == vertices_by_ranking(cloud), cloud
        d = len(cloud[0])
        facets = hull_facets(cloud)
        tight = [sum(slack(f, x) == 0 for f in facets) for x in set(cloud) - set(got)]
        boundary += any(tight)
        crowded += any(n >= d for n in tight)
    # the comparison must meet boundary points that are not vertices, some of
    # them on at least dim facets, which only the rank can reject
    assert full >= 80
    assert boundary >= 60
    assert crowded >= 10


# -- hull in dims 1 and 5: explicit segments and seeded degenerate 5-d clouds ------


ONE_DIM_CLOUDS = (
    [(0,), (1,)],
    [(3,), (-2,), (0,), (3,), (1,)],
    [(-7,), (5,), (5,), (-7,), (2,), (-1,)],
    [(2 ** 70,), (-(3 ** 40),), (0,), (1,)],
    [(4,)],
    [(6,), (6,), (6,)],
)


def five_dim_clouds():
    """Seeded degenerate clouds in dim 5, with collinear midpoints and
    coplanar centroids, at most 14 distinct points each so that the d-subset
    oracle stays cheap."""
    rng = SplitMix64(25)
    for _ in range(16):
        yield degenerate_cloud(rng, 5, spread=3)


def test_hull_and_vertices_in_dims_1_and_5():
    full = dict.fromkeys((1, 5), 0)
    edge_points = crowded_facets = 0
    for cloud in itertools.chain(ONE_DIM_CLOUDS, five_dim_clouds()):
        want = hull_or_error(hull_by_d_subsets, cloud)
        assert hull_or_error(hull_facets, cloud) == want, cloud
        if isinstance(want, str):
            continue
        d = len(cloud[0])
        full[d] += 1
        vertices = from_points(cloud).vertices
        assert vertices == vertices_by_ranking(cloud), cloud
        on_facets = [{x for x in cloud if slack(f, x) == 0} for f in want]
        edge_points += d == 5 and any(on - set(vertices) for on in on_facets)
        crowded_facets += d == 5 and any(len(on) > d for on in on_facets)
    # boundary points that are not vertices and facets tight at more than d
    # points must occur in dim 5 too
    assert full == {1: 4, 5: 14}
    assert edge_points >= 12 and crowded_facets >= 12


# -- hull: combined normals on indexed ridges against the rank of r - p ----------


def hull_tight_sets_by_ridge_rank(pts):
    """The insertion that _hull_tight_sets replaced, point for point the same
    up to its ridge step: every visible facet f is paired with every kept
    facet g, and the points r they share, at least d-1 of them, make a
    horizon ridge when the vectors r - p have rank d-1.  The new facet is
    solved from those vectors by _halfspace and oriented to hold the first
    simplex's centroid; facets are keyed by their HalfSpace, so a facet
    through p that is already kept takes p into its tight set."""
    d = len(pts[0])
    origin = pts[0]
    simplex, basis = [origin], []
    for p in pts[1:]:
        if extend_echelon(basis, sub(p, origin)):
            simplex.append(p)
            if len(simplex) == d + 1:
                break
    if len(simplex) <= d:
        raise GeometryError("point set is not full-dimensional "
                            f"(affine rank {len(simplex) - 1} < {d})")
    inside = tuple(map(sum, zip(*simplex)))  # (d+1) times the centroid
    tight = {}
    for i in range(d + 1):
        face = simplex[:i] + simplex[i + 1:]
        rows = echelon(sub(q, face[0]) for q in face[1:])
        tight[_halfspace(face[0], rows, inside)] = set(face)
    for p in pts:
        if p in simplex:
            continue
        visible = [tight.pop(f) for f in [f for f in tight if slack(f, p) < 0]]
        kept = list(tight.values())
        for on_f in visible:
            for on_g in kept:
                ridge = on_f & on_g
                if len(ridge) < d - 1:
                    continue
                rows = echelon(sub(r, p) for r in ridge)
                if len(rows) == d - 1:
                    h = _halfspace(p, rows, inside)
                    tight.setdefault(h, set()).update(ridge, (p,))
    return tight


def test_hull_tight_sets_are_complete():
    # every point on a facet is in its tight set, boundary points that are
    # not vertices too: from_points reads each point's facets off them; and
    # the tight sets are those of the replaced ridge step
    complete = dict.fromkeys(range(1, 6), 0)
    for cloud in itertools.chain(point_clouds(), degenerate_clouds(), five_dim_clouds(),
                                 ONE_DIM_CLOUDS):
        pts = sorted(set(cloud))
        tight = hull_or_error(hull_tight_sets, pts)
        assert tight == hull_or_error(hull_tight_sets_by_ridge_rank, pts), cloud
        if isinstance(tight, str):
            continue
        complete[len(pts[0])] += 1
        for f, on_f in tight.items():
            assert on_f == {x for x in pts if slack(f, x) == 0}, (cloud, f)
    assert min(complete.values()) >= 14 and sum(complete.values()) >= 250, complete


# -- hull: ridges of simplex facets from the index against counted shared points --


def hull_tight_sets_by_shared_count(pts, visible_sizes=None):
    """The ridge step that _hull_tight_sets replaced, point for point the
    same up to it: each visible facet f counts, over the point-to-facets
    index of its points, the points every facet shares with it
    (collections.Counter), and each facet g that is not visible, shares at
    least d-1 points and has no third facet holding them all is a horizon
    neighbour; the slack of p in g is computed again for each ridge, and a
    kept facet that a cone merges into takes the whole ridge.  In d = 1
    every facet is a candidate.  visible_sizes, when given, counts the
    visible facets by the size of their tight sets against d: 'd' or 'more'."""
    d = len(pts[0])
    if any(len(p) != d for p in pts):
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
    inside = tuple(map(sum, zip(*corners)))
    offset, tight = {}, {}
    through = [set() for _ in pts]
    for i in range(d + 1):
        face = corners[:i] + corners[i + 1:]
        h = _halfspace(face[0], echelon(sub(q, face[0]) for q in face[1:]), inside)
        offset[h.normal] = h.offset
        tight[h.normal] = set(simplex[:i] + simplex[i + 1:])
        for x in tight[h.normal]:
            through[x].add(h.normal)
    skip = set(simplex)
    for i, p in enumerate(pts):
        if i in skip:
            continue
        visible = {}
        for n, c in offset.items():
            s = c - sum(map(operator.mul, n, p))
            if s < 0:
                visible[n] = s
        new = {}
        for f, s_f in visible.items():
            on_f = tight[f]
            if visible_sizes is not None:
                visible_sizes["d" if len(on_f) == d else "more"] += 1
            shared = (Counter(h for x in on_f for h in through[x]) if d > 1
                      else dict.fromkeys(offset, 0))
            for g, k in shared.items():
                if k < d - 1 or g in visible:
                    continue
                ridge = on_f & tight[g]
                if any(ridge <= tight[h] for x in itertools.islice(ridge, 1)
                       for h in through[x] if h != f and h != g):
                    continue
                s_g = offset[g] - sum(map(operator.mul, g, p))
                normal = [s_g * a - s_f * b for a, b in zip(f, g)]
                q = gcd(*normal)
                c = (s_g * offset[f] - s_f * offset[g]) // q
                new.setdefault(tuple(a // q for a in normal), (c, {i}))[1].update(ridge)
        for f in visible:
            del offset[f]
            for x in tight.pop(f):
                through[x].discard(f)
        for n, (c, on_n) in new.items():
            if n in tight:
                tight[n] |= on_n
            else:
                offset[n], tight[n] = c, on_n
            for x in on_n:
                through[x].add(n)
    return {HalfSpace(n, c): {pts[x] for x in tight[n]} for n, c in offset.items()}


def ci_hull_clouds():
    """The four seeded clouds of the timed CI hull steps: 1000 points in
    [-30, 30]^3, 60 in [-10, 10]^4, 300 in [-10, 10]^4 and 40 in [-6, 6]^5."""
    for seed, d, n, bound in ((3, 3, 1000, 30), (4, 4, 60, 10), (40, 4, 300, 10),
                              (5, 5, 40, 6)):
        rng = SplitMix64(seed)
        yield [tuple(rng.below(2 * bound + 1) - bound for _ in range(d)) for _ in range(n)]


def test_hull_ridges_match_shared_count(poly):
    sizes = Counter()
    clouds = itertools.chain((poly(spec).vertices for spec in CATALOG_SPECS), point_clouds(),
                             degenerate_clouds(), five_dim_clouds(), ONE_DIM_CLOUDS,
                             ci_hull_clouds())
    full = 0
    for cloud in clouds:
        pts = sorted(set(cloud))
        want = hull_or_error(functools.partial(hull_tight_sets_by_shared_count,
                                               visible_sizes=sizes), pts)
        assert hull_or_error(hull_tight_sets, pts) == want, cloud
        full += not isinstance(want, str)
    # both ridge steps must run often: visible facets tight at d points
    # (simplices, their neighbours read off the index) and at more
    assert full >= 270
    assert sizes["d"] >= 10_000 and sizes["more"] >= 800, sizes


# -- validator: lean rank checks against the slack table and echelon ranks -------


def reaches_rank_by_echelon(vectors, r):
    """The reaches_rank that the lean elimination replaced: extend_echelon
    on each vector in turn, every kept row made primitive."""
    basis = []
    vectors = iter(vectors)
    while len(basis) < r:
        v = next(vectors, None)
        if v is None:
            return False
        extend_echelon(basis, v)
    return True


def validate_by_table(vertices, d, facets):
    """The Polytope._validate that the lean one replaced, check for check:
    the shapes, then facet by facet a primitive normal, no violated vertex
    and d affinely independent tight vertices, from a facet × vertex slack
    table by dot; then every vertex extreme, read off the table by column;
    each rank by reaches_rank_by_echelon on generators."""
    if not vertices or not facets:
        raise GeometryError("polytope needs vertices and facets")
    for v in vertices:
        if len(v) != d:
            raise GeometryError(f"vertex {v} does not have {d} coordinates")
    for f in facets:
        if len(f.normal) != d:
            raise GeometryError(f"facet {f} does not have a normal of {d} coordinates")
        if not any(f.normal):
            raise GeometryError(f"facet {f} has the zero normal")
    table = []
    for f in facets:
        if primitive(f.normal) != f.normal:
            raise GeometryError(f"facet normal {f.normal} is not primitive")
        slacks = [f.offset - dot(f.normal, v) for v in vertices]
        for v, s in zip(vertices, slacks):
            if s < 0:
                raise GeometryError(f"vertex {v} violates facet {f}")
        tight = [v for v, s in zip(vertices, slacks) if s == 0]
        if len(tight) < d or not reaches_rank_by_echelon(
                (sub(p, tight[0]) for p in tight[1:]), d - 1):
            raise GeometryError(f"facet {f} is not tight at d affinely independent vertices")
        table.append(slacks)
    for j, v in enumerate(vertices):
        active = (f.normal for f, slacks in zip(facets, table) if slacks[j] == 0)
        if not reaches_rank_by_echelon(active, d):
            raise GeometryError(f"listed point {v} is not extreme")


def validation_outcome(validate, vertices, d, facets):
    try:
        validate(vertices, d, facets)
    except GeometryError as e:
        return str(e)
    return None


def replaced(items, i, item):
    return items[:i] + (item,) + items[i + 1:]


def validator_mutations(p, others, rng):
    """(kind, vertices, facets): one seeded mutation of p of each kind;
    others are lattice points of p that are not vertices."""
    vertices, facets, d = p.vertices, p.facets, p.dim
    i, j = rng.below(len(facets)), rng.below(len(vertices))
    f = facets[i]
    yield "drop a facet", vertices, facets[:i] + facets[i + 1:]
    yield "double a normal", vertices, replaced(facets, i, HalfSpace(scale(2, f.normal), f.offset))
    yield "shift an offset up", vertices, replaced(facets, i, HalfSpace(f.normal, f.offset + 1))
    yield "shift an offset down", vertices, replaced(facets, i, HalfSpace(f.normal, f.offset - 1))
    if others:
        k = rng.below(len(vertices) + 1)
        point = others[rng.below(len(others))]
        yield "list a non-extreme lattice point", vertices[:k] + (point,) + vertices[k:], facets
    yield "drop a vertex coordinate", replaced(vertices, j, vertices[j][:-1]), facets
    yield "drop a normal coordinate", vertices, replaced(facets, i, HalfSpace(f.normal[:-1],
                                                                            f.offset))
    yield "use a zero normal", vertices, replaced(facets, i, HalfSpace((0,) * d, f.offset))
    yield "use a list normal", vertices, replaced(facets, i, HalfSpace(list(f.normal), f.offset))
    yield "repeat a vertex", vertices[:j] + (vertices[j],) + vertices[j:], facets
    yield "repeat a facet", vertices, facets[:i] + (f,) + facets[i:]


def changed_messages(kind, vertices, facets):
    """(lean validator's message, replaced validator's outcome) for the
    kinds that the checks added to the lean validator name: a list normal,
    which the replaced one called not primitive, and repeats, which it
    accepted.  None for every other kind, where the two must agree."""
    if kind == "use a list normal":
        f = next(f for f in facets if isinstance(f.normal, list))
        return (f"facet {f} has a normal that is not a tuple of integers",
                f"facet normal {f.normal} is not primitive")
    if kind == "repeat a vertex":
        v = next(v for k, v in enumerate(vertices) if v in vertices[:k])
        return f"vertex {v} is listed twice", None
    if kind == "repeat a facet":
        f = next(f for k, f in enumerate(facets) if f in facets[:k])
        return f"facet {f} is listed twice", None
    return None


def test_validator_matches_slack_table_on_mutations(poly):
    rng = SplitMix64(27)
    cases = []  # (polytope, its lattice points that are not vertices)
    for spec in CATALOG_SPECS + ("higashitani:4,2",):
        p = poly(spec)
        cases.append((p, sorted(p.lattice_points(1) - set(p.vertices))))
    # the clouds' own points, since a dim-5 cloud of coordinates up to 18
    # has millions of lattice points
    for cloud in itertools.chain(point_clouds(), degenerate_clouds(), five_dim_clouds(),
                                 ONE_DIM_CLOUDS):
        try:
            p = from_points(cloud)
        except GeometryError:
            continue
        cases.append((p, sorted(set(cloud) - set(p.vertices))))
    outcomes = Counter()
    for p, others in cases:
        assert validation_outcome(validate_by_table, p.vertices, p.dim, p.facets) is None
        for _ in range(2):
            for kind, vertices, facets in validator_mutations(p, others, rng):
                got = validation_outcome(Polytope, vertices, p.dim, facets)
                want = validation_outcome(validate_by_table, vertices, p.dim, facets)
                changed = changed_messages(kind, vertices, facets)
                assert (got, want) == (changed or (want, want)), (kind, vertices, facets)
                outcomes[kind, got is None] += 1
    # every kind is rejected somewhere, and dropping a facet is also accepted
    # somewhere: a vertex on more than d facets keeps rank d without one
    assert {kind for kind, accepted in outcomes if not accepted} == {
        kind for kind, _ in outcomes}
    assert outcomes["drop a facet", True] >= 10 and outcomes["drop a facet", False] >= 10
    assert outcomes["list a non-extreme lattice point", False] >= 100
