"""The thresholds are lattice invariants: a unimodular map (a GL_d(Z) matrix
plus an integer translation) of a polytope leaves them unchanged."""

from hypothesis import given, settings, strategies as st

from polynorm.catalog import build_family, random_polytope
from polynorm.exactmath import add, dot
from polynorm.invariants import compute_d_P, compute_k_P, compute_nu_P
from polynorm.polytope import from_points
from polynorm.semigroup import compute_m_P


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


def thresholds(p):
    d_P = compute_d_P(p)
    mres = compute_m_P(p, d_P)
    k_P = compute_k_P(p, mres.m_P, d_P) if mres.very_ample else None
    sigma_max = mres.witness.certificate.length if mres.witness else None
    return {"d_P": d_P, "nu_P": compute_nu_P(p), "m_P": mres.m_P, "k_P": k_P,
            "very_ample": mres.very_ample, "sigma_max": sigma_max}


@settings(max_examples=60, deadline=None)
@given(mapped_pairs())
def test_thresholds_are_unimodular_invariants(pair):
    p, image = pair
    assert thresholds(image) == thresholds(p)
