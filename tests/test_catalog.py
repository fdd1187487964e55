import pytest

from polynorm.catalog import (
    SplitMix64,
    bruns_gubeladze,
    cube,
    default_catalog,
    higashitani,
    parse_family,
    random_polytope,
    reeve_like,
    standard_simplex,
)

from constructions import build_family


class TestCube:
    def test_segment(self):
        assert cube(1).num_vertices == 2

    def test_cube3(self):
        c = cube(3)
        assert c.num_vertices == 8
        assert len(c.facets) == 6

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            cube(0)


class TestSimplex:
    def test_counts(self):
        assert standard_simplex(2).num_vertices == 3
        assert standard_simplex(5).num_vertices == 6


class TestBruns:
    def test_vertex_count(self):
        p = bruns_gubeladze(4)
        assert p.num_vertices == 8
        assert len(p.lattice_points(1)) == 8

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            bruns_gubeladze(3)

    def test_family_members_very_ample_not_normal(self, report):
        for s in (4, 5, 6):
            r = report(f"bruns:{s}")
            assert r.very_ample and not r.normal


class TestHigashitani:
    def test_examples(self, report):
        assert report("higashitani:3,1").k_P == 3
        assert report("higashitani:3,1").d_P == 2
        r2 = report("higashitani:3,2")
        assert r2.witnesses["hole"]["k"] == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            higashitani(2, 1)
        with pytest.raises(ValueError):
            higashitani(3, 0)

    def test_dim_4_member_builds(self):
        p = higashitani(4, 2)
        assert p.dim == 4
        # the u_7/u_8 heights 4 and 5 are fixed, independent of h
        assert (1, 0, 0, 4) in p.vertices
        assert (1, 0, 0, 5) in p.vertices


class TestReeve:
    def test_fixture(self, report):
        r = report("reeve")
        assert not r.very_ample
        assert r.volume_normalized == 2
        assert not r.smooth


class TestRandom:
    def test_deterministic(self):
        a = random_polytope(3, 2, 8, seed=7)
        b = random_polytope(3, 2, 8, seed=7)
        assert a.vertices == b.vertices

    def test_full_dimensional(self):
        for seed in range(10):
            p = random_polytope(3, 2, 8, seed=seed)
            assert p.dim == 3

    def test_polygons_normal(self):
        from polynorm.invariants import compute_d_P
        from constructions import k_normality
        p = random_polytope(2, 3, 6, seed=42)
        assert compute_d_P(p) == 1
        assert k_normality(p, 2)[0]

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_polytope(5, 2, 8, seed=1)
        with pytest.raises(ValueError):
            random_polytope(3, 2, 3, seed=1)

    def test_splitmix_reference_values(self):
        # first outputs for seed 0 of the standard splitmix64 stream
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4


class TestFamilyGrammar:
    def test_parse(self):
        assert parse_family("cube:3") == (cube, (3,))
        assert parse_family("higashitani:3,2") == (higashitani, (3, 2))
        assert parse_family("higashitani:+3, 2") == (higashitani, (3, 2))
        assert parse_family("reeve") == (reeve_like, ())
        assert parse_family("random:2,3,6,42") == (random_polytope, (2, 3, 6, 42))

    def test_labels(self):
        # a built family is named by its spec
        assert build_family("bruns:5").name == "bruns:5"
        assert build_family("reeve").name == "reeve"

    def test_errors(self):
        for bad in ("unknown:1", "cube", "cube:x", "cube:1,2", "reeve:1", "./file.json"):
            with pytest.raises(ValueError):
                parse_family(bad)

    # the vertex files' integer rule: int() alone takes all of these
    @pytest.mark.parametrize("bad", ["bruns:1_0", "cube:\u0663", "higashitani:3,\u0662",
                                     "random:2,3,6,4_2", "cube:\uff13"])
    def test_parameters_are_ascii_integers(self, bad):
        with pytest.raises(ValueError, match="needs integer parameters"):
            parse_family(bad)

    def test_build(self):
        assert build_family("cube:3") == cube(3)
        assert build_family("bruns:4") == bruns_gubeladze(4)

    def test_names_match_specs(self):
        for spec in ("cube:3", "simplex:2", "bruns:4", "higashitani:3,1",
                     "reeve", "random:2,3,6,42"):
            assert build_family(spec).name == spec


def test_default_catalog_contents():
    names = [p.name for p in default_catalog()]
    assert "bruns:4" in names
    assert "reeve" in names
    assert len(names) == 13
