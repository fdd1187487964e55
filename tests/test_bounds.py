import json

import pytest

from polynorm.bounds import (
    BOUND_TARGETS,
    classical_bounds,
    dict_json_bytes,
    eg_check,
    full_report,
    refined_bound,
    regularity,
    report_to_dict,
    smooth_bounds,
    theorem_bound,
)
from polynorm.invariants import InvariantError

from conftest import CATALOG_SPECS, VERY_AMPLE_SPECS


class TestTheoremBound:
    def test_examples(self, report):
        cube3 = report("cube:3")
        assert theorem_bound(cube3.m_P, cube3.d_P, cube3.num_vertices) == 1
        bruns = report("bruns:4")
        assert theorem_bound(bruns.m_P, bruns.d_P, bruns.num_vertices) == 9

    def test_always_one_for_normal(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            if r.normal:
                assert r.bounds["theorem"] == 1

    def test_m_P_at_most_first_normal_level(self, report):
        # every pair is decided by the first hole-free level j >= d_P, since
        # x + (j - d_P)·v lies in jP∩M = S_j there; that level is max(k_P, d_P)
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            assert r.m_P <= max(r.k_P, r.d_P), spec


class TestRefinedBound:
    def test_bruns_closed_form(self, report):
        # with m_P = s-1 the bound evaluates to 8s - 29
        for s in (4, 5, 6):
            r = report(f"bruns:{s}")
            assert r.m_P == s - 1
            assert refined_bound(r.m_P, r.d_P, r.nu_P, r.num_vertices) == 8 * s - 29

    def test_sharp_at_s4(self, report):
        r = report("bruns:4")
        assert r.bounds["refined"] == 3 == r.k_P

    def test_higashitani_form(self, report):
        for h in (1, 2, 3):
            r = report(f"higashitani:3,{h}")
            assert r.bounds["refined"] == r.nu_P + 1 <= r.num_vertices


class TestSmoothBounds:
    def test_cube3_corner_branch(self, report):
        r = report("cube:3")
        assert r.gamma == 3
        smallest, (corner, _) = smooth_bounds(3, r.d_P, r.gamma, r.volume_normalized, 8)
        assert corner == 17
        assert smallest <= corner

    def test_simplex_corner_is_one(self, report):
        r = report("simplex:3")
        _, (corner, _) = smooth_bounds(3, r.d_P, r.gamma, r.volume_normalized, 4)
        assert r.gamma == 1
        assert corner == 1

    def test_square_corner(self, report):
        r = report("cube:2")
        _, (corner, _) = smooth_bounds(2, r.d_P, r.gamma, r.volume_normalized, 4)
        assert corner == 5


class TestRegularity:
    def test_examples(self, report):
        assert report("bruns:4").regularity == 4
        assert report("cube:3").regularity == 3
        assert report("higashitani:3,2").regularity == 4

    def test_bruns_regularity_is_s(self, report):
        for s in (4, 5, 6):
            assert report(f"bruns:{s}").regularity == s

    def test_undefined_without_k_P(self):
        with pytest.raises(InvariantError):
            regularity(None, 2)


class TestClassicalBounds:
    def test_bruns_family(self, report):
        for s in (4, 5, 6):
            r = report(f"bruns:{s}")
            got = classical_bounds(3, r.volume_normalized, r.num_lattice_points)
            assert got["sturmfels"] == 12 * (s + 6)
            assert got["sturmfels_table"] == 24 * (s + 6)

    def test_cube3(self, report):
        r = report("cube:3")
        got = classical_bounds(3, r.volume_normalized, r.num_lattice_points)
        assert got["mumford_general"] == 18
        assert got["mumford_table"] == 17

    def test_degenerate_codim(self):
        got = classical_bounds(3, 1, 4)
        assert all(v is None for v in got.values())


class TestEGCheck:
    def test_examples(self, report):
        assert eg_check(3, 10, 8, 3) == (True, 6)
        assert eg_check(1, 6, 8, 3) == (True, 2)

    def test_undefined_k_P(self):
        holds, rhs = eg_check(None, 2, 4, 3)
        assert holds is None

    def test_catalog_wide(self, report):
        for spec in CATALOG_SPECS:
            r = report(spec)
            if r.k_P is not None:
                assert r.eg_holds is True
            else:
                assert r.eg_holds is None


class TestFullReport:
    def test_bruns4_snapshot(self, report):
        r = report("bruns:4")
        assert (r.d_P, r.nu_P, r.m_P, r.k_P) == (2, 2, 3, 3)
        assert r.volume_normalized == 10
        assert r.num_lattice_points == 8
        assert r.regularity == 4
        assert r.very_ample and not r.normal
        assert r.eg_holds
        assert r.witnesses["hole"] == {"k": 2, "point": [1, 1, 3]}

    def test_cube3_snapshot(self, report):
        r = report("cube:3")
        assert r.d_P == r.m_P == r.k_P == 1
        assert r.volume_normalized == 6
        assert r.regularity == 3
        assert r.smooth and r.normal

    def test_higashitani_snapshot(self, report):
        r = report("higashitani:3,2")
        assert (r.d_P, r.m_P, r.k_P, r.regularity) == (2, 3, 3, 4)
        assert r.witnesses["hole"]["k"] == 2

    def test_reeve_snapshot(self, report):
        r = report("reeve")
        assert not r.very_ample
        assert r.k_P is None and r.m_P is None and r.regularity is None
        assert not r.normal
        assert r.witnesses["non_saturation"] == {"x": [1, 1, 1], "vertex": [0, 0, 0]}

    def test_bound_dominance(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            for name, value in r.bounds.items():
                if value is None:
                    continue
                if name == "sturmfels_table":
                    continue  # doubled table reproduction, not asserted
                if name.startswith("mumford") and not r.smooth:
                    continue  # the Mumford forms assume a smooth embedding
                if BOUND_TARGETS[name] == "k_P":
                    assert value >= r.k_P, (spec, name)
                else:
                    assert value >= r.regularity, (spec, name)

    def test_mumford_on_non_smooth_instance(self):
        # the Mumford forms assume smoothness, so dominance is only asserted
        # for smooth polytopes; on this singular instance the value happens
        # to dominate anyway and is still reported
        from polynorm.polytope import from_points
        p = from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        r = full_report(p)
        assert not r.smooth
        assert r.bounds["mumford_general"] == 6
        assert r.regularity == 3

    def test_theorem_equality_iff_normal(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            assert (r.bounds["theorem"] == r.k_P) == r.normal

    def test_refined_between_k_and_theorem(self, report):
        for spec in VERY_AMPLE_SPECS:
            r = report(spec)
            if not r.normal:
                assert r.k_P <= r.bounds["refined"] <= r.bounds["theorem"]


class TestSerialization:
    def test_key_order(self, report):
        data = report_to_dict(report("bruns:4"))
        assert tuple(data.keys()) == (
            "name", "dim", "num_vertices", "num_lattice_points", "volume_normalized",
            "degree", "d_P", "nu_P", "m_P", "k_P", "very_ample", "smooth", "normal",
            "gamma", "m_prime", "regularity", "bounds", "bound_targets", "eg_rhs",
            "eg_holds", "witnesses",
        )
        assert tuple(data["bounds"].keys()) == (
            "theorem", "refined", "smooth_corner", "smooth_volume", "smooth_min",
            "mumford_general", "mumford_table", "sturmfels", "sturmfels_kp",
            "sturmfels_table",
        )
        assert tuple(data["bound_targets"].keys()) == tuple(data["bounds"].keys())

    def test_targets_tagged(self, report):
        data = report_to_dict(report("cube:2"))
        assert data["bound_targets"]["theorem"] == "k_P"
        assert data["bound_targets"]["sturmfels"] == "reg"

    def test_json_bytes_deterministic(self, report):
        a = dict_json_bytes(report_to_dict(report("bruns:4")))
        b = dict_json_bytes(report_to_dict(full_report(__import__("polynorm").bruns_gubeladze(4))))
        assert a == b

    def test_big_integers_become_strings(self):
        from polynorm.bounds import _jsonable
        small = 2 ** 53 - 1
        big = 2 ** 60
        converted = _jsonable({"a": small, "b": big, "c": [big, small], "d": -big})
        assert converted == {"a": small, "b": str(big), "c": [str(big), small],
                             "d": str(-big)}
        assert json.loads(json.dumps(converted))["b"] == str(big)

    def test_round_trip_through_json(self, report):
        data = report_to_dict(report("higashitani:3,1"))
        again = json.loads(json.dumps(data))
        assert again == data
