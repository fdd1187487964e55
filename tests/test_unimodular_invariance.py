"""The report is a lattice invariant: a unimodular map (a GL_d(Z) matrix
plus an integer translation) of a polytope leaves every invariant, flag and
bound unchanged, and every witness keeps its level and length."""

from hypothesis import given, settings, strategies as st

from polynorm.bounds import full_report, report_to_dict
from polynorm.catalog import random_polytope
from polynorm.exactmath import add, dot
from polynorm.polytope import from_points

from constructions import build_family


@st.composite
def unimodular_maps(draw, d):
    """A product of row additions, a row permutation and row signs, so the
    determinant is ±1 by construction, plus a translation."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(st.sampled_from((-1, 1)))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    order = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    matrix = tuple(tuple(s * a for a in rows[i]) for s, i in zip(signs, order))
    shift = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    return matrix, shift


@st.composite
def random_polytopes(draw):
    d = draw(st.sampled_from((2, 3)))
    bound = draw(st.integers(1, 3))
    count = draw(st.integers(d + 1, d + 3))
    return random_polytope(d, bound, count, draw(st.integers(0, 10**6)))


# small random polytopes have m_P = k_P = 1; these have m_P, k_P >= 3, and
# reeve is not very ample
polytopes = st.one_of(
    random_polytopes(),
    st.sampled_from(("bruns:4", "bruns:5", "higashitani:3,1", "reeve")).map(build_family),
)


@st.composite
def mapped_pairs(draw):
    p = draw(polytopes)
    matrix, shift = draw(unimodular_maps(p.dim))
    image = from_points([add(tuple(dot(row, v) for row in matrix), shift)
                         for v in p.vertices])
    return p, image


def invariant_part(p):
    """The report without the name and the witness coordinates, which move
    with the polytope."""
    data = report_to_dict(full_report(p))
    del data["name"]
    hole, sigma_max, failure = (data["witnesses"][key] for key in
                                ("hole", "sigma_max", "non_saturation"))
    data["witnesses"] = {"hole": hole and hole["k"],
                         "sigma_max": sigma_max and sigma_max["length"],
                         "non_saturation": failure is not None}
    return data


@settings(max_examples=60, deadline=None)
@given(mapped_pairs())
def test_thresholds_are_unimodular_invariants(pair):
    p, image = pair
    assert invariant_part(image) == invariant_part(p)
