import itertools

import pytest

from polynorm.catalog import bruns_gubeladze, cube, standard_simplex
from polynorm.polytope import (
    GeometryError,
    HalfSpace,
    Polytope,
    from_points,
    parse_points_json,
    parse_points_text,
)

from constructions import POINT, interior_lattice_points, join, product, slack

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


class TestFromPoints:
    def test_square_with_duplicates(self):
        p = from_points(SQUARE + [(0, 0), (1, 1)])
        assert p.num_vertices == 4
        assert len(p.facets) == 4

    def test_interior_points_dropped(self):
        p = from_points([(0, 0), (3, 0), (0, 3), (1, 1)])
        assert p.num_vertices == 3

    def test_bruns_matrix_columns(self):
        p = bruns_gubeladze(4)
        assert p.num_vertices == 8
        assert p.dim == 3

    def test_not_full_dimensional(self):
        with pytest.raises(GeometryError) as err:
            from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert "affine rank 2" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(GeometryError):
            from_points([])

    def test_idempotent_on_vertices(self, poly):
        for spec in ("cube:3", "bruns:4", "simplex:4", "higashitani:3,2"):
            p = poly(spec)
            again = from_points(p.vertices)
            assert again.vertices == p.vertices
            assert again.facets == p.facets

    def test_zero_dimensional_point(self):
        for points in ([()], [(), (1,)]):
            with pytest.raises(GeometryError, match="at least one coordinate"):
                from_points(points)
        with pytest.raises(GeometryError):
            Polytope(((),), 0, ())


SQUARE_FACETS = (HalfSpace((-1, 0), 0), HalfSpace((0, -1), 0),
                 HalfSpace((0, 1), 1), HalfSpace((1, 0), 1))


class TestValidate:
    """One hand-built Polytope per construction check that from_points
    never fails, with the message each raises."""

    def test_valid_square_accepted(self):
        assert Polytope(tuple(sorted(SQUARE)), 2, SQUARE_FACETS).facets == SQUARE_FACETS

    def test_non_primitive_normal(self):
        facets = SQUARE_FACETS[:3] + (HalfSpace((2, 0), 2),)
        with pytest.raises(GeometryError, match=r"^facet normal \(2, 0\) is not primitive$"):
            Polytope(tuple(sorted(SQUARE)), 2, facets)

    def test_vertex_violates_facet(self):
        facets = SQUARE_FACETS[:3] + (HalfSpace((1, 0), 0),)
        with pytest.raises(GeometryError) as err:
            Polytope(tuple(sorted(SQUARE)), 2, facets)
        assert str(err.value) == (
            "vertex (1, 0) violates facet HalfSpace(normal=(1, 0), offset=0)")

    @pytest.mark.parametrize("vertices, facet", [
        # tight at one vertex of the square, fewer than d
        (tuple(sorted(SQUARE)), HalfSpace((1, 1), 2)),
        # tight at three collinear points of a 3-d simplex's edge: d points
        # of affine rank 1
        (((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 0, 0)), HalfSpace((0, -1, -1), 0)),
    ])
    def test_facet_not_tight_at_d_independent_vertices(self, vertices, facet):
        others = from_points(vertices).facets
        with pytest.raises(GeometryError) as err:
            Polytope(vertices, len(vertices[0]), others + (facet,))
        assert str(err.value) == (
            f"facet {facet} is not tight at d affinely independent vertices")

    def test_listed_point_not_extreme(self):
        # (1, 0) sits on the edge y = 0 of the doubled square
        square = from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
        vertices = tuple(sorted(square.vertices + ((1, 0),)))
        with pytest.raises(GeometryError, match=r"^listed point \(1, 0\) is not extreme$"):
            Polytope(vertices, 2, square.facets)

    @pytest.mark.parametrize("vertices, facets, message", [
        # the zero normal names no direction, so no facet
        (tuple(sorted(SQUARE)), SQUARE_FACETS[:3] + (HalfSpace((0, 0), 1),),
         "facet HalfSpace(normal=(0, 0), offset=1) has the zero normal"),
        (tuple(sorted(SQUARE)), SQUARE_FACETS[:3] + (HalfSpace((1, 0, 0), 1),),
         "facet HalfSpace(normal=(1, 0, 0), offset=1) does not have a normal of 2 coordinates"),
        (tuple(sorted(SQUARE)), SQUARE_FACETS[:3] + (HalfSpace((1,), 1),),
         "facet HalfSpace(normal=(1,), offset=1) does not have a normal of 2 coordinates"),
        (tuple(sorted(SQUARE)) + ((1, 1, 0),), SQUARE_FACETS,
         "vertex (1, 1, 0) does not have 2 coordinates"),
        (((0,),) + tuple(sorted(SQUARE)), SQUARE_FACETS,
         "vertex (0,) does not have 2 coordinates"),
    ])
    def test_malformed_normal_or_vertex(self, vertices, facets, message):
        with pytest.raises(GeometryError) as err:
            Polytope(vertices, 2, facets)
        assert str(err.value) == message

    def test_shapes_checked_before_facets(self):
        # every vertex first, then every normal, before the first facet's
        # violation that the facet-by-facet checks would report
        facets = (HalfSpace((1, 0), 0), HalfSpace((0, 0), 1)) + SQUARE_FACETS
        with pytest.raises(GeometryError, match=r"^vertex \(2, 2, 2\) does not have"):
            Polytope(tuple(sorted(SQUARE)) + ((2, 2, 2),), 2, facets)
        with pytest.raises(GeometryError, match=r"^facet HalfSpace\(normal=\(0, 0\), offset=1\) has"):
            Polytope(tuple(sorted(SQUARE)), 2, facets)

    def test_checks_run_facet_by_facet(self):
        # the first facet's violation is reported before the second facet's
        # non-primitive normal, and both before a point that is not extreme
        facets = (HalfSpace((1, 0), 0), HalfSpace((0, 2), 2)) + SQUARE_FACETS[:2]
        with pytest.raises(GeometryError, match=r"^vertex \(1, 0\) violates facet"):
            Polytope(tuple(sorted(SQUARE)) + ((0, 0),), 2, facets)

    @pytest.mark.parametrize("vertices, facets, message", [
        # a non-integer entry is named in the shape checks, before any slack
        (((0, 0), (0, 1), (1.0, 0), (1, 1)), SQUARE_FACETS,
         "vertex (1.0, 0) is not a tuple of integers"),
        (((0, 0), (0, 1), (True, 0), (1, 1)), SQUARE_FACETS,
         "vertex (True, 0) is not a tuple of integers"),
        (((0, 0), (0, 1), [1, 0], (1, 1)), SQUARE_FACETS,
         "vertex [1, 0] is not a tuple of integers"),
        (tuple(sorted(SQUARE)), SQUARE_FACETS[:3] + (HalfSpace([1, 0], 1),),
         "facet HalfSpace(normal=[1, 0], offset=1) has a normal that is not a tuple of integers"),
        (tuple(sorted(SQUARE)), SQUARE_FACETS[:3] + (HalfSpace((1, 0), 1.0),),
         "facet HalfSpace(normal=(1, 0), offset=1.0) has an offset that is not an integer"),
        (tuple(sorted(SQUARE)), SQUARE_FACETS[:3] + (HalfSpace((1, 0), True),),
         "facet HalfSpace(normal=(1, 0), offset=True) has an offset that is not an integer"),
        # a repeat passes every other check, and is named after them
        (tuple(sorted(SQUARE)) + ((0, 0),), SQUARE_FACETS, "vertex (0, 0) is listed twice"),
        (((0, 0), (1, 0), (2, 0), (1, 0), (0, 2), (2, 2)), from_points(
            [(0, 0), (2, 0), (0, 2), (2, 2)]).facets, "listed point (1, 0) is not extreme"),
        (tuple(sorted(SQUARE)), SQUARE_FACETS + SQUARE_FACETS[2:3],
         "facet HalfSpace(normal=(0, 1), offset=1) is listed twice"),
    ])
    def test_non_integer_or_repeated_item(self, vertices, facets, message):
        with pytest.raises(GeometryError) as err:
            Polytope(vertices, 2, facets)
        assert str(err.value) == message

    def test_repeats_in_larger_inputs(self):
        # with its vertex listed twice, bruns:4 would count n = 9 vertices
        # in the theorem bound; with a facet listed twice, the 2x2 square
        # would have three tight normals at two vertices, so not be smooth
        p = bruns_gubeladze(4)
        with pytest.raises(GeometryError, match=r"^vertex \(0, 0, 1\) is listed twice$"):
            Polytope(p.vertices + ((0, 0, 1),), 3, p.facets)
        square = from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
        with pytest.raises(GeometryError, match=r"^facet .* is listed twice$"):
            Polytope(square.vertices, 2, square.facets[:1] + square.facets)


class TestHRep:
    def test_unit_square(self):
        facets = set(from_points(SQUARE).facets)
        assert facets == {
            HalfSpace((-1, 0), 0), HalfSpace((0, -1), 0),
            HalfSpace((1, 0), 1), HalfSpace((0, 1), 1),
        }

    def test_standard_3_simplex(self):
        facets = set(from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).facets)
        assert HalfSpace((1, 1, 1), 1) in facets
        assert len(facets) == 4

    def test_bruns_facets_validated(self):
        # construction runs the invariant checker: every facet tight at >= 3
        # affinely independent vertices, every vertex feasible
        p = bruns_gubeladze(4)
        assert all(slack(f, v) >= 0 for f in p.facets for v in p.vertices)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            from_points([(0, 0), (1, 1), (2, 2)])


class TestLatticePoints:
    def test_square_dilate(self):
        p = from_points(SQUARE)
        assert len(p.lattice_points(2)) == 9

    def test_bruns_has_only_vertices(self):
        p = bruns_gubeladze(4)
        assert p.lattice_points(1) == frozenset(p.vertices)

    def test_simplex_dilate(self):
        p = standard_simplex(2)
        assert len(p.lattice_points(3)) == 10

    def test_cache_is_stable(self):
        p = from_points(SQUARE)
        first = p.lattice_points(3)
        assert p.lattice_points(3) is first

    def test_interior_cube(self):
        c = cube(3)
        assert interior_lattice_points(c, 1) == frozenset()
        assert interior_lattice_points(c, 2) == frozenset({(1, 1, 1)})

    def test_interior_simplex(self):
        s = standard_simplex(3)
        assert interior_lattice_points(s, 3) == frozenset()
        assert interior_lattice_points(s, 4) == frozenset({(1, 1, 1)})

    def test_count_at_least_vertices(self, poly):
        for spec in ("cube:3", "bruns:5", "higashitani:3,2", "simplex:3"):
            p = poly(spec)
            assert len(p.lattice_points(1)) >= p.num_vertices

    def test_minkowski_monotonicity(self, poly):
        for spec in ("cube:2", "bruns:4", "simplex:3"):
            p = poly(spec)
            for k in (1, 2):
                summed = {tuple(a + b for a, b in zip(x, y))
                          for x in p.lattice_points(k) for y in p.lattice_points(1)}
                assert summed <= p.lattice_points(k + 1)


class TestProductJoin:
    def test_segment_squared(self):
        seg = from_points([(0,), (1,)])
        sq = product(seg, seg)
        assert sq.dim == 2
        assert set(sq.vertices) == set(SQUARE)

    def test_square_times_segment_is_cube(self):
        seg = from_points([(0,), (1,)])
        c = product(from_points(SQUARE), seg)
        assert c == cube(3)

    def test_product_with_point(self):
        p = from_points(SQUARE)
        assert product(p, POINT).vertices == p.vertices

    def test_point_join_point_is_segment(self):
        seg = join(POINT, POINT)
        assert seg.dim == 1
        assert seg.vertices == ((0,), (1,))

    def test_segment_join_point_is_triangle(self):
        seg = from_points([(0,), (1,)])
        tri = join(seg, POINT)
        assert tri == standard_simplex(2)

    def test_square_join_segment(self):
        seg = from_points([(0,), (1,)])
        j = join(from_points(SQUARE), seg)
        assert j.dim == 4
        assert j.num_vertices == 6

    def test_product_lattice_points_factor(self, poly):
        pairs = [(poly("simplex:2"), poly("cube:2")),
                 (poly("cube:2"), poly("simplex:2"))]
        for a, b in pairs:
            prod = product(a, b)
            for k in (1, 2, 3):
                expected = {x + y for x in a.lattice_points(k) for y in b.lattice_points(k)}
                assert prod.lattice_points(k) == expected


class TestParsing:
    def test_json(self):
        points, name = parse_points_json('{"name": "sq", "vertices": [[0,0],[1,0],[0,1],[1,1]]}')
        assert name == "sq"
        assert from_points(points, name=name).num_vertices == 4

    def test_json_errors(self):
        with pytest.raises(GeometryError):
            parse_points_json("not json")
        with pytest.raises(GeometryError):
            parse_points_json('{"vertices": [[0.5, 1]]}')
        with pytest.raises(GeometryError):
            parse_points_json('[1, 2]')

    def test_text(self):
        text = "# unit square\n0 0\n1 0\n\n0 1\n1 1  # last\n"
        points, name = parse_points_text(text)
        assert name is None
        assert len(points) == 4

    def test_text_errors(self):
        with pytest.raises(GeometryError):
            parse_points_text("1 x\n")

    def test_gen_roundtrip(self):
        p = bruns_gubeladze(5)
        text = "\n".join(" ".join(str(c) for c in v) for v in p.vertices)
        points, _ = parse_points_text(text)
        assert from_points(points) == p


def test_facet_normals_primitive(poly):
    for spec in ("cube:3", "bruns:4", "higashitani:3,3"):
        for f in poly(spec).facets:
            from math import gcd
            assert gcd(*f.normal) == 1


def test_vertices_of_hypercube_product_structure():
    c = cube(4)
    assert c.num_vertices == 16
    assert len(c.facets) == 8
    assert set(c.vertices) == set(itertools.product((0, 1), repeat=4))
