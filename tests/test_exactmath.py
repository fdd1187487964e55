import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from polynorm.exactmath import (
    add,
    det_exact,
    dot,
    echelon,
    primitive,
    rank,
    reaches_rank,
    sub,
    vec,
)

from exact_solve import NO_SOLUTION, UNDERDETERMINED, rank_by_elimination, solve_rational


def cofactor_det(m):
    """Independent determinant oracle: direct cofactor expansion."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


class TestVectorOps:
    @pytest.mark.parametrize("op", [add, sub, dot])
    def test_length_mismatch_rejected(self, op):
        for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2))):
            with pytest.raises(ValueError):
                op(u, v)


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)
        assert primitive((0, 5)) == (0, 1)
        assert primitive((-3, 3)) == (-1, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0, 0))

    def test_list_gives_tuple(self):
        for v, want in (([2, -4, 6], (1, -2, 3)), ([3, -1], (3, -1)), ([-1], (-1,))):
            got = primitive(v)
            assert type(got) is tuple and got == want

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5),
           st.integers(1, 20))
    def test_scaling_invariance(self, coords, k):
        v = tuple(coords)
        if all(c == 0 for c in v):
            return
        assert primitive(tuple(k * c for c in v)) == primitive(v)


class TestDeterminant:
    def test_examples(self):
        assert det_exact(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
        assert det_exact(((1, 1, 0), (1, 0, 1), (0, 1, 1))) == -2
        assert det_exact(((1, 2, 3), (4, 5, 6), (1, 2, 3))) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_exact(((1, 2, 3), (4, 5, 6)))

    def test_against_cofactor_expansion(self):
        rng = random.Random(20240)
        for _ in range(1000):
            n = rng.randint(1, 4)
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            assert det_exact(m) == cofactor_det(m)

    def test_permutation_matrices(self):
        for perm in permutations(range(4)):
            m = tuple(tuple(int(j == perm[i]) for j in range(4)) for i in range(4))
            assert det_exact(m) in (-1, 1)
            assert det_exact(m) == cofactor_det(m)


class TestRank:
    def test_examples(self):
        assert rank(((0, 0), (0, 0))) == 0
        assert rank(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 3
        assert rank(((1, 2), (2, 4))) == 1

    def test_empty(self):
        assert rank(()) == 0

    def test_ragged_rows_rejected(self):
        # a longer or shorter later row, after a pivot row or a zero row
        for m in (((1, 0), (0, 1, 5)), ((0, 1), (1,)), ((0, 0), (1, 2, 3)),
                  ((1, 2, 3), (4, 5, 6), (7, 8))):
            for routine in (rank, echelon):
                with pytest.raises(ValueError, match="vectors of different lengths"):
                    routine(m)
                with pytest.raises(ValueError, match="vectors of different lengths"):
                    routine(iter(m))

    def test_reaches_rank_stops_at_the_rank_it_needs(self):
        def rows():
            yield (1, 0, 0)
            yield (2, 0, 0)
            yield (0, 1, 0)
            raise AssertionError("read past the row that reached rank 2")

        assert reaches_rank(rows(), 2)
        assert reaches_rank((), 0) and not reaches_rank((), 1)

    def test_rank_of_random_products(self):
        # outer products u^T v always have rank <= 1
        rng = random.Random(7)
        for _ in range(50):
            u = [rng.randint(-4, 4) for _ in range(3)]
            v = [rng.randint(-4, 4) for _ in range(3)]
            m = tuple(tuple(a * b for b in v) for a in u)
            expected = 1 if any(u) and any(v) else 0
            assert rank(m) == expected

    def test_matches_row_elimination(self):
        # every shape from 1x1 to 5x6, with zero rows, repeated rows and rows
        # that combine two others, small negative and 20-digit entries
        rng = random.Random(12)
        deficient = set()
        for nrows in range(1, 6):
            for ncols in range(1, 7):
                for trial in range(24):
                    bound = 10 ** 20 if trial % 3 == 2 else 3
                    rows = [[rng.randint(-bound, bound) for _ in range(ncols)]
                            for _ in range(nrows)]
                    if trial % 4 == 1:
                        rows[rng.randrange(nrows)] = [0] * ncols
                    elif trial % 4 == 2 and nrows > 1:
                        i, j = rng.sample(range(nrows), 2)
                        rows[i] = list(rows[j])
                    elif trial % 4 == 3 and nrows > 2:
                        i, j, k = rng.sample(range(nrows), 3)
                        c = rng.randint(-bound, bound)
                        rows[k] = [c * a + b for a, b in zip(rows[i], rows[j])]
                    m = tuple(map(tuple, rows))
                    r = rank(m)
                    assert r == rank_by_elimination(m), m
                    assert [reaches_rank(m, k) for k in range(nrows + 2)] == [
                        k <= r for k in range(nrows + 2)], m
                    if nrows == ncols:
                        assert (r == nrows) == (det_exact(m) != 0), m
                    if r < min(nrows, ncols):
                        deficient.add((nrows, ncols))
        # a zero row leaves a wide or square matrix rank-deficient
        assert deficient >= {(n, c) for n in range(1, 6) for c in range(n, 7)}


class TestSolveRational:
    def test_examples(self):
        assert solve_rational(((1, 0), (0, 1)), (3, 5)) == [3, 5]
        assert solve_rational(((2, 0), (0, 2)), (1, 1)) == [Fraction(1, 2), Fraction(1, 2)]
        assert solve_rational(((1, 1), (2, 2)), (1, 3)) == NO_SOLUTION

    def test_underdetermined(self):
        assert solve_rational(((1, 1), (2, 2)), (1, 2)) == UNDERDETERMINED

    def test_overdetermined_consistent(self):
        assert solve_rational(((1, 0), (0, 1), (1, 1)), (2, 3, 5)) == [2, 3]

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_roundtrip_reproduces_rhs(self, rows, x):
        a = tuple(tuple(r) for r in rows)
        if det_exact(a) == 0:
            return
        def product(v):
            return [sum(c * vi for c, vi in zip(row, v)) for row in a]

        b = tuple(product(x))
        solved = solve_rational(a, b)
        assert solved == list(x)
        assert product(solved) == list(b)


def test_vec_rejects_non_integers():
    with pytest.raises(TypeError):
        vec((1, 2.5))
    with pytest.raises(TypeError):
        vec((True, 0))
