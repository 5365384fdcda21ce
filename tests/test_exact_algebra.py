"""Exact polynomial arithmetic, determinants, pencil determinants.

The package has one polynomial determinant route (PolyMatrix.det); the
fraction-free Bareiss route and the exact division it needs live here as a
cross-check, next to the cofactor expansion of tests/naive_oracle.py.
"""

import random
from fractions import Fraction

import pytest

from siegeltoric.exact_algebra import (
    DimensionError,
    MultiPoly,
    PolyMatrix,
    ZeroPolynomialError,
    pencil_det,
    poly_from_json,
    poly_to_json,
)

import naive_oracle as oracle


def poly(nvars, terms):
    return MultiPoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))
XY_XZ_YZ = X * Y + X * Z + Y * Z


def _grlex_key(exp):
    return (sum(exp), exp)


def leading_term(p):
    """Graded-lex leading term of a nonzero polynomial."""
    if p.is_zero():
        raise ZeroPolynomialError("leading term of the zero polynomial")
    exp = max(p.terms, key=_grlex_key)
    return exp, p.terms[exp]


def exact_div(p, divisor):
    """Exact quotient p / divisor; raises if the division has remainder."""
    if p.nvars != divisor.nvars:
        raise DimensionError("mismatched variable counts")
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = dict(p.terms)
    quo = {}
    lt_exp, lt_coeff = leading_term(divisor)
    while rem:
        rexp = max(rem, key=_grlex_key)
        qexp = tuple(a - b for a, b in zip(rexp, lt_exp))
        if any(e < 0 for e in qexp):
            raise ValueError("division is not exact")
        qcoeff = rem[rexp] / lt_coeff
        quo[qexp] = quo.get(qexp, Fraction(0)) + qcoeff
        for dexp, dcoeff in divisor.terms.items():
            exp = tuple(a + b for a, b in zip(qexp, dexp))
            s = rem.get(exp, Fraction(0)) - qcoeff * dcoeff
            if s:
                rem[exp] = s
            elif exp in rem:
                del rem[exp]
    return MultiPoly(p.nvars, quo)


def det_bareiss(m):
    """Fraction-free (Bareiss) determinant over the polynomial ring: each
    step divides exactly by the previous pivot."""
    if not m.is_square():
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    sign = 1
    prev = MultiPoly.const(m.nvars, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot_row is None:
                return MultiPoly.zero(m.nvars)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_div(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
            a[i][k] = MultiPoly.zero(m.nvars)
        prev = a[k][k]
    return -a[n - 1][n - 1] if sign < 0 else a[n - 1][n - 1]


def random_poly(rng, nvars, max_deg=4, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exp) > max_deg:
            continue
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(nvars, terms)


class TestArithmetic:
    def test_textbook_product(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_add_zero_is_identity(self):
        p = XY_XZ_YZ
        assert p + MultiPoly.zero(3) == p

    def test_square_evaluates_like_brute_force(self):
        # oracle: evaluate the expanded square by direct substitution
        sq = XY_XZ_YZ * XY_XZ_YZ
        assert sq.eval_at([1, 1, 1]) == 9

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(DimensionError):
            MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)

    def test_no_zero_terms_stored(self):
        p = X - X
        assert p.is_zero() and p.num_terms() == 0

    def test_commutative_associative_random(self):
        rng = random.Random(101)
        for _ in range(100):
            nvars = rng.randint(1, 6)
            a, b, c = (random_poly(rng, nvars) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)

    def test_mul_matches_naive_oracle(self):
        rng = random.Random(55)
        for _ in range(25):
            nvars = rng.randint(1, 4)
            a, b = random_poly(rng, nvars), random_poly(rng, nvars)
            got = a * b
            want = oracle.p_mul(a.terms, b.terms)
            assert got.terms == want

    def test_pow(self):
        assert (X + Y) ** 2 == X * X + (X * Y).scale(2) + Y * Y
        assert X ** 0 == MultiPoly.const(3, 1)

    def test_pow_matches_squaring_oracle(self):
        from siegeltoric.catalog import principal_cone
        from siegeltoric.volume_ke import volume_function
        f = volume_function(principal_cone(3)).F
        for k in range(5):
            assert (f ** k).terms == oracle.p_pow_by_squaring(f.terms, k), k
        rng = random.Random(77)
        for _ in range(10):
            p = random_poly(rng, rng.randint(1, 4))
            k = rng.randint(0, 5)
            if p.is_zero():
                continue
            assert (p ** k).terms == oracle.p_pow_by_squaring(p.terms, k), (p, k)


class TestPartialEval:
    def test_partial_sum_rule(self):
        assert XY_XZ_YZ.partial(0) == Y + Z

    def test_partial_of_constant(self):
        assert MultiPoly.const(3, 5).partial(0).is_zero()

    def test_partial_power_rule(self):
        p = X * X * Y
        assert p.partial(0) == (X * Y).scale(2)

    def test_partial_out_of_range(self):
        with pytest.raises(DimensionError):
            XY_XZ_YZ.partial(3)

    def test_eval_direct_substitution(self):
        assert XY_XZ_YZ.eval_at([1, 1, 1]) == 3

    def test_eval_at_origin_gives_constant_term(self):
        p = XY_XZ_YZ + MultiPoly.const(3, Fraction(7, 2))
        assert p.eval_at([0, 0, 0]) == Fraction(7, 2)

    def test_eval_univariate_square(self):
        x = MultiPoly.variable(1, 0)
        assert (x * x).eval_at([2]) == 4

    def test_eval_length_mismatch(self):
        with pytest.raises(DimensionError):
            XY_XZ_YZ.eval_at([1, 2])

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(77)
        for _ in range(40):
            nvars = rng.randint(1, 5)
            a, b = random_poly(rng, nvars), random_poly(rng, nvars)
            pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(nvars)]
            assert (a * b).eval_at(pt) == a.eval_at(pt) * b.eval_at(pt)
            assert (a + b).eval_at(pt) == a.eval_at(pt) + b.eval_at(pt)


class TestLeadingCoeff:
    def test_symmetric_quadratic(self):
        deg, coeff = XY_XZ_YZ.leading_coeff_in(0)
        assert deg == 1 and coeff == Y + Z

    def test_pure_power(self):
        deg, coeff = (X * X).leading_coeff_in(0)
        assert deg == 2 and coeff == MultiPoly.const(3, 1)

    def test_constant_in_var(self):
        deg, coeff = (Y + Z).leading_coeff_in(0)
        assert deg == 0 and coeff == Y + Z

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            MultiPoly.zero(3).leading_coeff_in(0)

    def test_reconstruction(self):
        rng = random.Random(31)
        for _ in range(40):
            nvars = rng.randint(1, 4)
            p = random_poly(rng, nvars)
            if p.is_zero():
                continue
            var = rng.randrange(nvars)
            deg, coeff = p.leading_coeff_in(var)
            xv = MultiPoly.variable(nvars, var)
            remainder = p - coeff * xv ** deg
            assert remainder.degree_in(var) < deg or remainder.is_zero()


class TestDeterminants:
    def test_det_1x1(self):
        assert PolyMatrix(1, 1, [XY_XZ_YZ]).det() == XY_XZ_YZ

    def test_det_2x2(self):
        m = PolyMatrix(2, 2, [X, Y, Y, X])
        assert m.det() == X * X - Y * Y

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            PolyMatrix(1, 2, [X, Y]).det()

    def test_routes_agree_on_random_matrices(self):
        rng = random.Random(13)
        for size in (3, 4, 5):
            for _ in range(4):
                entries = [random_poly(rng, 2, max_deg=2, max_terms=3)
                           for _ in range(size * size)]
                m = PolyMatrix(size, size, entries)
                det = m.det()
                assert det == det_bareiss(m)
                grid = [[m.entry(i, j).terms for j in range(size)] for i in range(size)]
                assert det.terms == oracle.det_cofactor(grid)

    def test_det_matches_naive_oracle(self):
        rng = random.Random(29)
        for _ in range(5):
            entries = [random_poly(rng, 2, max_deg=2, max_terms=3) for _ in range(9)]
            m = PolyMatrix(3, 3, entries)
            grid = [[m.entry(i, j).terms for j in range(3)] for i in range(3)]
            assert m.det().terms == oracle.det_cofactor(grid)

    def test_g2_t_matrix_spot_value(self):
        # 3x3 matrix of T values at (1,1,1): [[-4,-1,-1],[-1,-4,-1],[-1,-1,-4]]
        f = XY_XZ_YZ
        grads = [f.partial(i) for i in range(3)]
        entries = [f * grads[i].partial(j) - grads[i] * grads[j]
                   for i in range(3) for j in range(3)]
        det = PolyMatrix(3, 3, entries).det()
        assert det.eval_at([1, 1, 1]) == -54


class TestExactDiv:
    def test_exact_quotient(self):
        p = (X + Y) * (X - Y + Z)
        assert exact_div(p, X + Y) == X - Y + Z

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            exact_div(X * X + Y, X + Y)

    def test_random_products_divide_back(self):
        rng = random.Random(91)
        for _ in range(30):
            nvars = rng.randint(1, 4)
            a, b = random_poly(rng, nvars), random_poly(rng, nvars)
            if a.is_zero() or b.is_zero():
                continue
            assert exact_div(a * b, a) == b


class TestPencilDet:
    def test_principal_g2(self):
        e11 = [[1, 0], [0, 0]]
        e22 = [[0, 0], [0, 1]]
        zeta12 = [[1, -1], [-1, 1]]
        assert pencil_det([e11, e22, zeta12]) == XY_XZ_YZ

    def test_single_identity(self):
        p = pencil_det([[[1, 0], [0, 1]]])
        x = MultiPoly.variable(1, 0)
        assert p == x * x

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            pencil_det([[[1, 0], [0, 1]], [[1]]])

    def test_asymmetric_rejected(self):
        with pytest.raises(DimensionError):
            pencil_det([[[0, 1], [0, 0]]])

    def test_homogeneous_of_degree_g(self):
        rng = random.Random(3)
        for _ in range(20):
            g = rng.randint(1, 3)
            nmats = rng.randint(1, 4)
            mats = []
            for _ in range(nmats):
                a = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
                mats.append([[a[i][j] + a[j][i] for j in range(g)] for i in range(g)])
            p = pencil_det(mats)
            if p.is_zero():
                continue
            assert p.is_homogeneous()
            assert p.total_degree() == g

    def test_matches_naive_oracle(self):
        rng = random.Random(47)
        for _ in range(10):
            g = rng.randint(1, 3)
            mats = []
            for _ in range(3):
                a = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
                mats.append([[a[i][j] + a[j][i] for j in range(g)] for i in range(g)])
            assert pencil_det(mats).terms == oracle.pencil_determinant(mats)


class TestSerialization:
    def test_round_trip(self):
        p = XY_XZ_YZ.scale(Fraction(3, 7)) - MultiPoly.const(3, Fraction(1, 2))
        assert poly_from_json(poly_to_json(p)) == p

    def test_graded_lex_order(self):
        p = X + Y * Z + MultiPoly.const(3, 1)
        exps = [tuple(t["exp"]) for t in poly_to_json(p)["terms"]]
        assert exps == [(0, 1, 1), (1, 0, 0), (0, 0, 0)]

    def test_rationals_as_strings(self):
        obj = poly_to_json(MultiPoly.const(1, Fraction(10 ** 20, 3)))
        assert obj["terms"][0]["num"] == str(10 ** 20)
        assert obj["terms"][0]["den"] == "3"
