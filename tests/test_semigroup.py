import itertools

import pytest

from polynorm import semigroup
from polynorm.catalog import SplitMix64
from polynorm.exactmath import add, dot, scale, sub
from polynorm.invariants import compute_d_P
from polynorm.semigroup import (
    ReprCertificate,
    compute_m_P,
    generator_set,
    shortest_representations,
    sigma,
)
from polynorm.polytope import from_points

from conftest import VERY_AMPLE_SPECS
from constructions import contains

SQUARE = from_points([(0, 0), (1, 0), (0, 1), (1, 1)])


def brute_force_min_length(generators, target, cap):
    """Independent minimality oracle: plain level-by-level sumsets, no cone
    machinery, no pruning.  Returns the least m <= cap with target a sum of
    exactly m generators, else None."""
    level = {(0,) * len(target)}
    if target in level:
        return 0
    for m in range(1, cap + 1):
        level = {add(x, g) for x in level for g in generators}
        if target in level:
            return m
    return None


class TestSigma:
    def test_square_diagonal(self):
        gs = generator_set(SQUARE, (0, 0))
        cert = sigma(gs, (2, 2))
        assert cert.length == 2
        assert cert.parts == ((1, 1), (1, 1))
        assert brute_force_min_length(gs.generators, (2, 2), 4) == 2

    def test_bruns_hole_needs_three(self, poly):
        p = poly("bruns:4")
        gs = generator_set(p, (0, 0, 0))
        cert = sigma(gs, (1, 1, 3))
        assert cert.length == 3
        assert brute_force_min_length(gs.generators, (1, 1, 3), 4) == 3

    def test_parity_infeasible(self, poly):
        gs = generator_set(poly("reeve"), (0, 0, 0))
        assert set(gs.generators) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert sigma(gs, (1, 1, 1)) is None

    def test_zero_target(self):
        gs = generator_set(SQUARE, (1, 1))
        cert = sigma(gs, (0, 0))
        assert cert.length == 0 and cert.parts == ()

    def test_outside_cone_infeasible(self):
        gs = generator_set(SQUARE, (0, 0))
        assert sigma(gs, (-1, 0)) is None

    def test_search_stops_once_every_target_is_reached(self, poly, monkeypatch):
        packed, sums = [], []

        def counting_add(a, b):
            sums.append((a, b))
            return add(a, b)

        def examined(generators):
            for g in generators:
                packed.append(g)
                yield g

        search = semigroup._search
        monkeypatch.setattr(semigroup, "add", counting_add)
        monkeypatch.setattr(semigroup, "_search",
                            lambda generators, *rest: search(examined(generators), *rest))
        gs = generator_set(poly("bruns:4"), (0, 0, 0))
        zero = (0, 0, 0)
        assert sigma(gs, zero).length == 0
        assert packed == sums == []  # the zero target needs no search
        longest = 0
        for g in gs.generators:
            packed.clear()
            sums.clear()
            assert sigma(gs, g).length == 1
            assert packed == list(gs.generators)  # each generator packed once
            # the search stops in layer 1, at g: it built the generators
            # before g that lie in g's lower set (the cone at 0 is the
            # orthant, so that set is the box below g), then the
            # certificate's own re-sum follows
            *built, resum = sums
            assert resum == (zero, g)
            below = [h for h in gs.generators[:gs.generators.index(g)]
                     if all(a <= b for a, b in zip(h, g))]
            assert built == [(zero, h) for h in below]
            longest = max(longest, len(built))
        assert longest >= 3  # (0,0,1), (0,1,0) and (1,0,0) below (1,1,4)


class TestCertificates:
    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            ReprCertificate((2, 2), ((1, 1),))

    def test_all_certificates_resum(self, poly):
        for spec in ("cube:3", "bruns:4", "higashitani:3,2"):
            p = poly(spec)
            v = p.vertices[0]
            gs = generator_set(p, v)
            d_P = 2 if spec != "cube:3" else 1
            targets = tuple(sub(x, scale(d_P, v)) for x in sorted(p.lattice_points(d_P)))
            for target, cert in shortest_representations(gs, targets).items():
                assert cert is not None
                assert cert.target == target  # post-init already re-summed


class TestMinimalityOracle:
    def test_sigma_matches_brute_force(self, poly):
        for spec in ("cube:2", "cube:3", "simplex:3", "bruns:4", "higashitani:3,1"):
            p = poly(spec)
            for v in p.vertices:
                gs = generator_set(p, v)
                for u in sorted(p.lattice_points(1)):
                    target = sub(u, v)
                    cert = sigma(gs, target)
                    brute = brute_force_min_length(gs.generators, target, 4)
                    if brute is not None:
                        assert cert is not None and cert.length == brute
                    else:
                        assert cert is None or cert.length > 4


class TestMP:
    def test_examples(self, report):
        assert report("cube:3").m_P == 1
        assert report("bruns:4").m_P == 3
        for h in (1, 2, 3):
            assert report(f"higashitani:3,{h}").m_P == 3

    def test_witness_is_extremal_and_valid(self, poly, report):
        p = poly("bruns:4")
        res = compute_m_P(p, 2)
        assert res.very_ample
        assert res.m_P == 3
        wit = res.witness
        assert contains(p, wit.x, 2)
        assert p.is_vertex(wit.vertex)
        assert wit.certificate.length == 3
        total = scale(2, wit.vertex)
        for part in wit.certificate.parts:
            total = add(total, part)
        assert total == wit.x

    def test_m_P_at_least_d_P(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            assert r.m_P >= r.d_P
            if not r.normal:
                assert r.m_P >= r.d_P + 1

    def test_smooth_m_P_bounds(self, report):
        for spec in ("cube:2", "cube:3", "cube:4", "simplex:2", "simplex:3", "simplex:4"):
            r = report(spec)
            assert r.smooth
            assert r.m_P <= r.d_P * r.gamma
            assert r.m_P <= r.dim * r.d_P ** r.dim * r.volume_normalized


class TestVeryAmple:
    def test_bruns_very_ample(self, report):
        for s in (4, 5, 6):
            assert report(f"bruns:{s}").very_ample
            assert not report(f"bruns:{s}").normal

    def test_bruns_7_very_ample_not_normal(self):
        from polynorm.catalog import bruns_gubeladze
        from polynorm.invariants import compute_d_P
        from constructions import k_normality
        p = bruns_gubeladze(7)
        d_P = compute_d_P(p)
        assert compute_m_P(p, d_P).very_ample
        flag, holes = k_normality(p, 5)
        assert not flag and (1, 1, 6) in holes

    def test_cube_very_ample(self, report):
        assert report("cube:3").very_ample

    def test_reeve_witness(self, poly):
        p = poly("reeve")
        res = compute_m_P(p, 2)
        assert not res.very_ample
        assert res.failure == ((1, 1, 1), (0, 0, 0))

    @pytest.mark.parametrize("seed, d_P, failure", [
        (10905525725756348110, 3, ((1, 1, 2, 2, 1), (0, 0, 0, 0, 0))),
        (5747796768693156649, 3, ((1, 4, 8, 4, 3), (0, 1, 3, 2, 0))),
        (13819372491320860226, 4, ((1, 5, 9, 5, 8), (0, 1, 3, 1, 2))),
    ])
    def test_dim_5_witnesses(self, seed, d_P, failure):
        # 10 points of [0,3]^5; the witnesses were recorded when one search
        # covered every open pair of a vertex
        rng = SplitMix64(seed)
        p = from_points([tuple(rng.below(4) for _ in range(5)) for _ in range(10)])
        assert compute_d_P(p) == d_P
        res = compute_m_P(p, d_P)
        assert not res.very_ample
        assert res.failure == failure

    def test_generator_cone_membership(self, poly):
        for spec in ("bruns:4", "reeve", "cube:3"):
            p = poly(spec)
            for v in p.vertices:
                gs = generator_set(p, v)
                assert (0,) * p.dim not in gs.generators
                # the search's own cone test
                assert all(max(dot(n, g) for n in gs.cone_normals) <= 0
                           for g in gs.generators)


def test_exhaustive_multisets_agree_on_small_gen_sets():
    # cross-check the level oracle itself against literal multiset enumeration
    gs = generator_set(SQUARE, (0, 0))
    for target in [(1, 0), (2, 1), (2, 2), (3, 3)]:
        best = None
        for m in range(5):
            for combo in itertools.combinations_with_replacement(gs.generators, m):
                total = (0, 0)
                for g in combo:
                    total = add(total, g)
                if total == target:
                    best = m
                    break
            if best is not None:
                break
        assert best == brute_force_min_length(gs.generators, target, 4)
