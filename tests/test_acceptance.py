"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines; every
tolerance here is exact (integer equality), no tolerance is deferred.
"""

import time
from contextlib import contextmanager

from polynorm.bounds import full_report, report_to_dict
from polynorm.catalog import bruns_gubeladze, random_polytope
from polynorm.cli import main, render_table, run_check_suite
from polynorm.exactmath import add, sub
from polynorm.invariants import volume_ehrhart, volume_triangulation
from polynorm.semigroup import generator_set, sigma

from conftest import CATALOG_SPECS, VERY_AMPLE_SPECS
from constructions import k_normality


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_01_bruns_regression():
    with criterion(1, "Bruns-Gubeladze regression for s in {4,5,6}"):
        for s in (4, 5, 6):
            start = time.monotonic()
            p = bruns_gubeladze(s)
            r = full_report(p)
            assert r.k_P == s - 1
            assert r.d_P == 2
            assert r.nu_P == 2
            assert r.volume_normalized == s + 6
            assert r.num_lattice_points == 8
            assert r.regularity == s
            assert r.very_ample is True
            assert r.normal is False
            flag, holes = k_normality(p, s - 2)
            assert not flag and (1, 1, s - 1) in holes
            assert r.witnesses["hole"] == {"k": s - 2, "point": [1, 1, s - 1]}
            assert time.monotonic() - start <= 120


def test_criterion_02_sharpness_at_s4(report):
    with criterion(2, "refined bound sharp at s=4; m_P = k_P without normality"):
        r = report("bruns:4")
        assert r.bounds["refined"] == 3 == r.k_P
        assert r.m_P == 3 == r.k_P
        assert not r.normal


def test_criterion_03_hypercubes(report):
    with criterion(3, "hypercubes d in {2,3,4}: d_P = m_P = k_P = 1"):
        for d in (2, 3, 4):
            r = report(f"cube:{d}")
            assert r.d_P == r.m_P == r.k_P == 1
            assert r.bounds["theorem"] == 1
        cube3 = report("cube:3")
        assert cube3.volume_normalized == 6
        assert cube3.regularity == 3


def test_criterion_04_higashitani(report):
    with criterion(4, "Higashitani d=3, h in {1,2,3}: k_P=3 with h holes at k=2"):
        for h in (1, 2, 3):
            spec = f"higashitani:3,{h}"
            r = report(spec)
            assert r.k_P == 3
            assert r.m_P == 3
            assert r.d_P == 2
            assert r.regularity == 4
            assert r.bounds["refined"] <= r.num_vertices
            from conftest import _poly
            _, holes = k_normality(_poly(spec), 2)
            assert len(holes) == h


def test_criterion_05_non_very_ample_witness(report):
    with criterion(5, "reeve fixture: very_ample false, witness (1,1,1) at 0"):
        r = report("reeve")
        assert r.very_ample is False
        assert r.witnesses["non_saturation"] == {"x": [1, 1, 1], "vertex": [0, 0, 0]}
        assert r.k_P is None
        assert "undefined" in render_table(report_to_dict(r))


def test_criterion_06_dual_volume_oracles(poly):
    with criterion(6, "volume oracles agree exactly on catalog + 20 random"):
        for spec in CATALOG_SPECS:
            p = poly(spec)
            assert volume_ehrhart(p) == volume_triangulation(p)
        for seed in range(100, 120):
            p = random_polytope(3, 3, 8, seed)
            assert volume_ehrhart(p) == volume_triangulation(p)


def _first_arrival_lengths(generators, dim, cap):
    """Plain unrestricted level-by-level enumeration: the minimal number of
    generators (with repetition) summing to each reachable point, up to cap.
    Independent of the cone-pruned search it cross-checks."""
    zero = (0,) * dim
    arrivals = {zero: 0}
    level = {zero}
    for m in range(1, cap + 1):
        level = {add(x, g) for x in level for g in generators}
        for point in level:
            arrivals.setdefault(point, m)
    return arrivals


def test_criterion_07_sigma_minimality_oracle(poly, report):
    with criterion(7, "every sigma <= 4 matches exhaustive enumeration"):
        for spec in CATALOG_SPECS:
            p = poly(spec)
            d_P = report(spec).d_P
            for v in p.vertices:
                gs = generator_set(p, v)
                oracle = _first_arrival_lengths(gs.generators, p.dim, 4)
                shift = tuple(d_P * c for c in v)
                for x in sorted(p.lattice_points(d_P)):
                    target = sub(x, shift)
                    cert = sigma(gs, target)
                    expected = oracle.get(target)
                    if expected is not None:
                        assert cert is not None and cert.length == expected, (spec, v, x)
                    else:
                        assert cert is None or cert.length > 4, (spec, v, x)


def test_criterion_08_theorem_suite(report):
    with criterion(8, "certified inequalities on every very ample catalog polytope"):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            assert r.d_P <= r.m_P <= r.k_P, spec
            assert r.k_P <= r.bounds["theorem"], spec
            assert (r.bounds["theorem"] == r.k_P) == r.normal, spec
            if not r.normal:
                assert r.k_P <= r.bounds["refined"] <= r.bounds["theorem"], spec
            if r.smooth:
                assert r.m_P <= r.d_P * r.gamma, spec
                assert r.m_P <= r.dim * r.d_P ** r.dim * r.volume_normalized, spec


def test_criterion_09_random_sweeps():
    with criterion(9, "200 random polygons trivial; 50 random 3-polytopes clean"):
        start = time.monotonic()
        from polynorm.invariants import compute_k_P
        from polynorm.semigroup import compute_m_P
        from constructions import d_P_of
        for seed in range(200):
            p = random_polytope(2, 4, 7, seed)
            d_P = d_P_of(p)
            mres = compute_m_P(p, d_P)
            assert mres.very_ample
            k_P = compute_k_P(p, mres.m_P, d_P)
            assert d_P == 1 and k_P == 1, seed
        for seed in range(50):
            p = random_polytope(3, 3, 7, seed)
            results, ok = run_check_suite(p)
            assert ok, (seed, [r for r in results if r[0] == "FAIL"])
        assert time.monotonic() - start < 600


def test_criterion_10_eg_and_explore(report, capsys, tmp_path):
    with criterion(10, "EG inequality on catalog; explore re-verification clean"):
        for spec in CATALOG_SPECS:
            r = report(spec)
            if r.k_P is not None:
                assert r.eg_holds is True, spec
            else:
                assert spec == "reeve" and r.eg_holds is None
        code = main(["explore", "--dim", "3", "--count", "40", "--seed", "5",
                     "--bound", "3", "--store", str(tmp_path / "records.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "reverify_failures=0" in out
