from fractions import Fraction

import pytest

from polynorm.catalog import (
    bruns_gubeladze,
    cube,
    random_polytope,
    reeve_like,
    standard_simplex,
)
from polynorm.invariants import (
    InvariantError,
    SmoothData,
    compute_d_P,
    compute_k_P,
    compute_nu_P,
    degree,
    dilate_is_normal,
    smooth_data,
    volume_ehrhart,
    volume_triangulation,
)
from polynorm.polytope import from_points

from conftest import CATALOG_SPECS, VERY_AMPLE_SPECS
from constructions import (
    contains,
    decompose_point,
    dilate,
    interior_lattice_points,
    join,
    k_normality,
    product,
)
from exact_solve import solve_rational

SQUARE = from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def ehrhart_interior_counts(p, up_to):
    """Independent oracle for interior point counts via reciprocity:
    the count polynomial E evaluated at -k gives (-1)^dim * |interior(kP)|."""
    d = p.dim
    counts = [1] + [len(p.lattice_points(k)) for k in range(1, d + 1)]
    vandermonde = tuple(tuple(k ** j for j in range(d + 1)) for k in range(d + 1))
    coeffs = solve_rational(vandermonde, tuple(counts))

    def ehrhart(k):
        return sum(c * Fraction(k) ** j for j, c in enumerate(coeffs))

    return [int((-1) ** d * ehrhart(-k)) for k in range(1, up_to + 1)]


class TestKNormal:
    def test_bruns_k2_has_hole(self, poly):
        flag, holes = k_normality(poly("bruns:4"), 2)
        assert not flag
        assert (1, 1, 3) in holes

    def test_bruns_k3_normal(self, poly):
        flag, holes = k_normality(poly("bruns:4"), 3)
        assert flag and not holes

    def test_square_deep_dilate(self):
        flag, holes = k_normality(SQUARE, 5)
        assert flag and not holes

    def test_holes_partition_dilate(self, poly):
        p = poly("higashitani:3,2")
        for k in (2, 3):
            _, holes = k_normality(p, k)
            assert holes <= p.lattice_points(k)


class TestDecompositionThresholds:
    def test_d_P_examples(self, poly, report):
        assert report("cube:3").d_P == 1
        assert report("bruns:4").d_P == 2
        for seed in range(5):
            assert compute_d_P(random_polytope(2, 4, 6, seed)) == 1

    def test_nu_P_examples(self, report):
        assert report("bruns:4").nu_P == 2
        assert compute_nu_P(SQUARE) == 1
        assert compute_nu_P(standard_simplex(2)) == 1

    def test_ordering_on_catalog(self, report):
        for spec in CATALOG_SPECS:
            r = report(spec)
            assert 1 <= r.d_P <= r.nu_P <= max(r.dim, 1)


class TestKP:
    def test_examples(self, report):
        assert report("bruns:4").k_P == 3
        assert report("bruns:5").k_P == 4
        assert report("cube:3").k_P == 1

    def test_undefined_for_non_very_ample(self):
        with pytest.raises(InvariantError):
            compute_k_P(reeve_like(), None, 2)

    def test_safety_cap(self, poly):
        from polynorm.invariants import SearchCapExceeded
        with pytest.raises(SearchCapExceeded):
            compute_k_P(poly("bruns:6"), 5, 2, max_k=2)

    def test_monotone_beyond_d_P(self, report, poly):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            p = poly(spec)
            flags = {k: k_normality(p, k)[0] for k in range(1, r.k_P + 2)}
            for k in range(r.d_P, r.k_P + 1):
                if flags[k]:
                    assert flags[k + 1]
            assert flags[r.k_P]
            if r.k_P > 1:
                assert not flags[r.k_P - 1]


class TestDecomposePoint:
    def test_square_example(self):
        x, units = decompose_point(SQUARE, (3, 3), 3, 1)
        assert x == (1, 1)
        assert units == ((1, 1), (1, 1))

    def test_bruns_at_level_d_P(self, poly):
        x, units = decompose_point(poly("bruns:4"), (1, 1, 3), 2, 2)
        assert x == (1, 1, 3)
        assert units == ()

    def test_simplex_origin(self):
        s = standard_simplex(3)
        x, units = decompose_point(s, (0, 0, 0), 4, 1)
        assert x == (0, 0, 0)
        assert set(units) == {(0, 0, 0)}

    def test_sum_reconstructs(self, poly):
        p = poly("bruns:5")
        for u in sorted(p.lattice_points(4))[:20]:
            x, units = decompose_point(p, u, 4, 2)
            total = x
            for w in units:
                total = tuple(a + b for a, b in zip(total, w))
            assert total == u
            assert contains(p, x, 2)
            assert all(contains(p, w, 1) for w in units)

    def test_outside_rejected(self):
        with pytest.raises(InvariantError):
            decompose_point(SQUARE, (5, 0), 2, 1)


class TestDegree:
    def test_standard_simplices(self):
        for d in (2, 3, 4):
            assert degree(standard_simplex(d)) == 0

    def test_cube3_from_interior_counts(self, poly):
        c = poly("cube:3")
        counts = [len(interior_lattice_points(c, k)) for k in (1, 2, 3)]
        assert counts == [0, 1, 8]
        assert degree(c) == 2

    def test_interior_counts_match_reciprocity(self, poly):
        for spec in ("cube:3", "simplex:3", "bruns:4", "higashitani:3,2"):
            p = poly(spec)
            direct = [len(interior_lattice_points(p, k)) for k in range(1, p.dim + 1)]
            assert direct == ehrhart_interior_counts(p, p.dim)

    def test_higashitani_degree(self, poly):
        # all vertices sit in the slab 0 <= x_1 <= 1, so P itself has no
        # interior lattice points; the first interior points appear at k = 2
        for h in (1, 2, 3):
            p = poly(f"higashitani:3,{h}")
            assert len(interior_lattice_points(p, 1)) == 0
            assert len(interior_lattice_points(p, 2)) > 0
            assert degree(p) == 2

    def test_degree_of_polytope_with_interior(self):
        p = from_points([(0, 0), (3, 0), (0, 3)])
        assert degree(p) == 2

    def test_reciprocity_matches_enumerated_degree(self, poly):
        # degree counts interior points by reciprocity; the oracle lists them
        def enumerated_degree(p):
            for k in range(1, p.dim + 1):
                if interior_lattice_points(p, k):
                    return p.dim - (k - 1)
            return 0

        cases = [poly(s) for s in CATALOG_SPECS]
        cases += [random_polytope(d, bound, d + 5, seed)
                  for d, bound in ((2, 2), (3, 1), (3, 2), (4, 1), (4, 2))
                  for seed in range(10)]
        gaps = set()
        for p in cases:
            assert degree(p) == enumerated_degree(p), p.name
            gaps.add(p.dim - degree(p))
        # every gap dim - degree occurs, from 0 (P has interior points) to 4
        # (simplex:4 has none in 1P..4P)
        assert gaps == {0, 1, 2, 3, 4}


class TestVolume:
    def test_examples(self, report):
        assert report("cube:3").volume_normalized == 6
        assert report("bruns:4").volume_normalized == 10
        assert report("bruns:5").volume_normalized == 11
        assert report("simplex:4").volume_normalized == 1

    def test_triangulation_examples(self):
        assert volume_triangulation(standard_simplex(3)) == 1
        assert volume_triangulation(SQUARE) == 2
        assert volume_triangulation(bruns_gubeladze(4)) == 10

    def test_dual_oracle_on_catalog(self, poly):
        for spec in CATALOG_SPECS:
            p = poly(spec)
            assert volume_ehrhart(p) == volume_triangulation(p)


class TestSmooth:
    def test_examples(self, poly):
        assert smooth_data(poly("cube:3")).is_smooth
        assert smooth_data(poly("simplex:3")).is_smooth
        assert not smooth_data(poly("reeve")).is_smooth

    def test_gamma_examples(self):
        assert smooth_data(SQUARE).gamma == 2
        assert smooth_data(standard_simplex(2)).gamma == 1
        assert smooth_data(standard_simplex(4)).gamma == 1
        assert smooth_data(cube(3)).gamma == 3
        doubled = from_points([(0, 0), (2, 0), (0, 2)])
        assert smooth_data(doubled).gamma == 2

    def test_m_prime_examples(self):
        assert smooth_data(SQUARE).m_prime == 1
        assert smooth_data(cube(3)).m_prime == 1
        doubled = from_points([(0, 0), (2, 0), (0, 2)])
        assert smooth_data(doubled).m_prime == 2

    def test_gamma_requires_smooth(self, poly):
        assert smooth_data(poly("reeve")) == SmoothData(False, None, None)

    def test_gamma_against_m_prime(self, poly, report):
        # gamma caps a coefficient sum of dim terms each at most m_prime
        for spec in ("cube:2", "cube:3", "cube:4", "simplex:2", "simplex:3"):
            r = report(spec)
            assert r.gamma <= r.dim * r.m_prime


class TestLemmaChain:
    def test_d_m_k_ordering(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            assert r.d_P <= r.m_P <= r.k_P

    def test_equivalences(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            normal = r.k_P == 1
            assert (r.d_P == r.k_P) == normal
            assert (r.d_P == r.m_P) == normal
            if normal:
                assert r.m_P == r.k_P

    def test_m_equals_k_without_normality(self, report):
        # the converse of "normal => m_P = k_P" fails: m_P = k_P = 3 here
        r = report("bruns:4")
        assert r.m_P == r.k_P == 3
        assert not r.normal

    def test_non_normal_has_m_gap(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            if not r.normal:
                assert r.k_P >= r.m_P >= r.d_P + 1


class TestDilates:
    def test_dilates_normal_beyond_d_P(self, poly, report):
        for spec in ("cube:3", "bruns:4", "higashitani:3,1", "reeve", "simplex:3"):
            p = poly(spec)
            d_P = report(spec).d_P
            for m in range(d_P, 5):
                assert compute_d_P(dilate(p, m)) == 1

    def test_threshold_equals_d_P_dim_le_3(self, poly, report):
        for spec in ("cube:2", "cube:3", "bruns:4", "bruns:5",
                     "higashitani:3,2", "reeve", "simplex:3"):
            p, d_P = poly(spec), report(spec).d_P
            assert dilate_is_normal(p, d_P)
            assert d_P == 1 or not dilate_is_normal(p, d_P - 1)


class TestProductJoinInvariants:
    def test_k_and_d_of_product(self, poly):
        from polynorm.bounds import full_report
        seg = from_points([(0,), (1,)])
        prod = full_report(product(poly("bruns:4"), seg))
        assert prod.d_P == 2
        assert prod.k_P == 3

    def test_join_d_threshold_and_hole_inheritance(self, poly):
        # the pyramid over bruns:4, its join with a point: the
        # decomposition threshold passes to the join unchanged, but
        # k-normality does not: a lattice point at height k-2 of the k-th
        # dilate forces a 2-fold sum on the non-normal factor, so the hole
        # (1,1,3) recurs at every k >= 2 and the join is not very ample
        from polynorm.bounds import full_report
        jp = from_points([v + (0,) for v in poly("bruns:4").vertices] + [(0, 0, 0, 1)])
        j = full_report(jp)
        assert j.d_P == 2
        assert not j.very_ample
        assert j.k_P is None
        assert j.witnesses["non_saturation"] is not None
        for k in (2, 3, 4):
            flag, holes = k_normality(jp, k)
            assert not flag
            assert (1, 1, 3, k - 2) in holes

    def test_small_normal_pairs(self, poly):
        from polynorm.bounds import full_report
        seg = from_points([(0,), (1,)])
        for a in (SQUARE, standard_simplex(2)):
            rp = full_report(product(a, seg))
            rj = full_report(join(a, seg))
            assert rp.k_P == rj.k_P == 1
            assert rp.d_P == rj.d_P == 1


class TestHigashitaniHoles:
    def test_total_holes_equal_h(self, poly, report):
        for h in (1, 2, 3):
            p = poly(f"higashitani:3,{h}")
            k_P = report(f"higashitani:3,{h}").k_P
            total = 0
            for k in range(2, k_P):
                _, holes = k_normality(p, k)
                total += len(holes)
            assert total == h
