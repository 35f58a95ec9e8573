import itertools
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from polyvote.linalg import decimal_string, parse_rational
from polyvote.polytope import _rank, _seed_inverse

ints = st.integers(min_value=-6, max_value=6)


def square(n, draw_ints):
    return st.lists(st.lists(draw_ints, min_size=n, max_size=n), min_size=n, max_size=n)


def solve(a, b):
    """Solve the square integer system a x = b through the fraction-free
    inverse that vertex enumeration takes its seed rays from.  None when
    the matrix is singular."""
    inverse = _seed_inverse(a)
    if inverse is None:
        return None
    adj, den = inverse
    return tuple(F(sum(v * y for v, y in zip(row, b)), den) for row in adj)


def test_parse_and_format_round_trip():
    for text in ["3/4", "-3/4", "7", "-7", "0"]:
        assert str(parse_rational(text)) == text


def test_parse_rejects_non_rational_literals():
    for bad in ["1.5", "3/4/5", "a", "", "1e3", "2/-3", "1/0", "-3/00"]:
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


def abs_det(m):
    """|det m|, the denominator of the fraction-free seed inverse; 0
    when m is singular."""
    inverse = _seed_inverse(m)
    return 0 if inverse is None else inverse[1]


def test_determinant_identity():
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert _seed_inverse(eye) == (eye, 1)


def test_determinant_permutation_matrices():
    for perm in itertools.permutations(range(4)):
        mat = [[int(perm[i] == j) for j in range(4)] for i in range(4)]
        assert _seed_inverse(mat) == ([list(col) for col in zip(*mat)], 1)


def test_determinant_repeated_row_is_zero():
    assert _seed_inverse([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) is None
    assert abs_det([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0


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


@given(square(3, ints), square(3, ints))
def test_determinant_is_multiplicative(a, b):
    ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert abs_det(a) == abs(sympy.Matrix(a).det())
    assert abs_det(ab) == abs_det(a) * abs_det(b)


@given(square(3, ints))
def test_determinant_alternates_on_row_swap(a):
    # |det| stays, and the inverse swaps its columns
    swapped = [a[1], a[0], a[2]]
    assert abs_det(swapped) == abs_det(a)
    if abs_det(a):
        adj, den = _seed_inverse(a)
        assert _seed_inverse(swapped) == ([[r[1], r[0], r[2]] for r in adj], den)


@given(square(3, ints), st.lists(ints, min_size=3, max_size=3))
def test_solve_multiplies_back(a, b):
    x = solve(a, b)
    if x is None:
        assert sympy.Matrix(a).det() == 0
    else:
        for row, rhs in zip(a, b):
            assert sum(v * xi for v, xi in zip(row, x)) == rhs
        adj, den = _seed_inverse(a)
        assert sympy.Matrix(adj) / den == sympy.Matrix(a).inv()


@given(st.lists(st.lists(ints, min_size=4, max_size=4), min_size=2, max_size=5))
def test_rank_matches_oracle_and_transpose(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert _rank(rows) == _rank_oracle(rows)
    assert _rank(rows) == _rank(transpose)
