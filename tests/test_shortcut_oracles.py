"""The slow paths behind two shortcuts, kept as oracles.

- compute_nu_P scans k = 1..dim-1 (Carathéodory); the oracle scans the
  original k = 1..n-2 range, n the number of vertices.
- shortest_representations tests BFS candidates against the Pareto-minimal
  target images only; the oracle tests them against every image, and the
  certificates must agree part for part.
"""

from polynorm import semigroup
from polynorm.catalog import SplitMix64, random_polytope
from polynorm.exactmath import add, scale, sub
from polynorm.invariants import compute_d_P, compute_nu_P
from polynorm.semigroup import generator_set, shortest_representations

from conftest import CATALOG_SPECS

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


def test_pruned_targets_give_identical_certificates(poly, monkeypatch):
    cases = [(p, compute_d_P(p)) for p in oracle_cases(poly)]
    pruned = [all_certificates(p, d_P) for p, d_P in cases]
    monkeypatch.setattr(semigroup, "_pareto_minimal", list)
    for (p, d_P), got in zip(cases, pruned):
        assert got == all_certificates(p, d_P), p.name


def test_pareto_minimal_against_pairwise_filter():
    rng = SplitMix64(7)
    for _ in range(200):
        width = 1 + rng.below(4)
        images = [tuple(rng.below(5) - 2 for _ in range(width))
                  for _ in range(rng.below(30))]
        pairwise = sorted({
            a for a in images
            if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in images)})
        assert semigroup._pareto_minimal(images) == pairwise
