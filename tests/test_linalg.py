import itertools
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from polyvote.linalg import decimal_string, parse_rational
from polyvote.polytope import _rank, _seed_rays

ints = st.integers(min_value=-6, max_value=6)


def square(n, draw_ints):
    return st.lists(st.lists(draw_ints, min_size=n, max_size=n), min_size=n, max_size=n)


def solve(a, b):
    """Solve the square integer system a x = b through the seed rays of
    vertex enumeration.  Ray s points along -(column s of a^-1), so
    a r_s = -k_s e_s with k_s > 0, and x = -sum_s b_s r_s / k_s.  None
    when the matrix is singular."""
    rays = _seed_rays(a)
    if rays is None:
        return None
    x = [F(0)] * len(a)
    for row, ray, rhs in zip(a, rays, b):
        k = -sum(v * r for v, r in zip(row, ray))
        assert k > 0
        x = [xi - F(rhs * r, k) for xi, r in zip(x, ray)]
    return tuple(x)


def test_parse_and_format_round_trip():
    for text in ["3/4", "-3/4", "7", "-7", "0"]:
        assert str(F(*parse_rational(text))) == text
    # the integer pair as written, not reduced
    assert parse_rational("+6/8") == (6, 8) and parse_rational("-5") == (-5, 1)


def test_parse_rejects_non_rational_literals():
    # "\u0661/\u0662" is 1/2 in Arabic-Indic digits
    for bad in ["1.5", "3/4/5", "a", "", "1e3", "2/-3", "1/0", "-3/00", "\u0661/\u0662",
                "\u0665", "1_0"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_decimal_string_rounds_half_away_from_zero():
    assert decimal_string(F(1, 16)) == "0.06250"
    assert decimal_string(F(1, 32000)) == "0.00003"  # 0.00003125
    assert decimal_string(F(1, 2) + F(25, 10**7)) == "0.50000"
    assert decimal_string(F(5, 10**6)) == "0.00001"  # exact half rounds up
    assert decimal_string(F(-5, 10**6)) == "-0.00001"
    assert decimal_string(F(0)) == "0.00000"
    assert decimal_string(F(10631, 20736)) == "0.51268"


def test_determinant_identity():
    # the inverse of the identity is itself, so ray s is -e_s
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert _seed_rays(eye) == [tuple(-v for v in row) for row in eye]


def test_determinant_permutation_matrices():
    # the inverse of a signed permutation is its transpose, so ray s is
    # minus row s; every seed of the share-space events is of this kind
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            mat = [[signs[i] * int(perm[i] == j) for j in range(4)] for i in range(4)]
            assert _seed_rays(mat) == [tuple(-v for v in row) for row in mat]


def test_determinant_repeated_row_is_zero():
    mat = [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
    assert sympy.Matrix(mat).det() == 0
    assert _seed_rays(mat) is None


def test_solve_identity():
    three_eye = [[3 * int(i == j) for j in range(3)] for i in range(3)]
    assert solve(three_eye, [6, -3, 5]) == (F(2), F(-1), F(5, 3))


def test_solve_forced_by_elimination():
    assert solve([[1, 1], [1, -1]], [1, 0]) == (F(1, 2), F(1, 2))


def test_solve_singular_returns_none():
    assert solve([[1, 2], [2, 4]], [1, 1]) is None


def test_rank_basics():
    cases = [([[0, 0], [0, 0]], 0), ([[int(i == j) for j in range(4)] for i in range(4)], 4),
             ([[1, 2, 3], [2, 4, 6]], 1), ([[0, 2, 4], [1, 0, 0], [0, 3, 6], [1, 1, 2]], 2)]
    for rows, r in cases:
        assert _rank(rows) == _rank_oracle(rows) == r
    assert _rank([]) == 0


def _rank_oracle(rows):
    # plain fraction Gaussian elimination, independent of the production path
    mat = [[F(x) for x in row] for row in rows]
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


@given(square(3, ints))
def test_seed_rays_swap_on_row_swap(a):
    # swapping two rows of a swaps the same two columns of a^-1
    swapped = [a[1], a[0], a[2]]
    rays = _seed_rays(a)
    if rays is None:
        assert _seed_rays(swapped) is None
    else:
        assert _seed_rays(swapped) == [rays[1], rays[0], rays[2]]


@given(square(3, ints), st.lists(ints, min_size=3, max_size=3))
def test_solve_multiplies_back(a, b):
    x = solve(a, b)
    if x is None:
        assert sympy.Matrix(a).det() == 0
    else:
        for row, rhs in zip(a, b):
            assert sum(v * xi for v, xi in zip(row, x)) == rhs


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=2, max_size=5))
def test_rank_matches_oracle_and_transpose(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert _rank(rows) == _rank_oracle(rows)
    assert _rank(rows) == _rank(transpose)
