"""Exact polynomial arithmetic, determinants, pencil determinants.

The package has one polynomial determinant route (PolyMatrix.det); the
fraction-free Bareiss route and the exact division it needs live here as a
cross-check, next to the cofactor expansion of tests/naive_oracle.py.  The
Faddeev-LeVerrier characteristic polynomial is the oracle for the
det(x I - A) that period_domain reads off pencil_det.
"""

import random
from fractions import Fraction

import pytest

from siegeltoric.exact_algebra import (
    MultiPoly,
    PolyMatrix,
    pencil_det,
    pencil_size,
    poly_to_json,
)

import naive_oracle as oracle


def poly(nvars, terms):
    return MultiPoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def variable(nvars, idx):
    """The polynomial x_idx in nvars variables."""
    return MultiPoly(nvars, {tuple(int(k == idx) for k in range(nvars)): 1})


X, Y, Z = (variable(3, i) for i in range(3))
XY_XZ_YZ = X * Y + X * Z + Y * Z


def _grlex_key(exp):
    return (sum(exp), exp)


def leading_term(p):
    """Graded-lex leading term of a nonzero polynomial."""
    if p.is_zero():
        raise ValueError("leading term of the zero polynomial")
    exp = max(p.terms, key=_grlex_key)
    return exp, p.terms[exp]


def exact_div(p, divisor):
    """Exact quotient p / divisor; raises if the division has remainder."""
    if p.nvars != divisor.nvars:
        raise ValueError("mismatched variable counts")
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
        qcoeff = Fraction(rem[rexp], lt_coeff)
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
        raise ValueError(f"determinant of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [m.row(i) for i in range(n)]
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


def faddeev_leverrier(a):
    """Coefficients of det(x I - a) for an integer matrix a, lowest degree
    first: c_(m-k) = -tr(a M_k) / k with M_1 = I and
    M_(k+1) = a M_k + c_(m-k) I; each division by k is exact on integers."""
    m = len(a)
    coeffs = [0] * m + [1]
    mk = [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        c = coeffs[m - k + 1]
        mk = [[sum(a[i][l] * mk[l][j] for l in range(m)) + (c if i == j else 0)
               for j in range(m)] for i in range(m)]
        trace = sum(a[i][l] * mk[l][i] for i in range(m) for l in range(m))
        assert trace % k == 0
        coeffs[m - k] = -trace // k
    return coeffs


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
        x, y = variable(2, 0), variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y

    def test_add_zero_is_identity(self):
        p = XY_XZ_YZ
        assert p + MultiPoly.zero(3) == p

    def test_square_evaluates_like_brute_force(self):
        # oracle: evaluate the expanded square by direct substitution
        sq = XY_XZ_YZ * XY_XZ_YZ
        assert sq.eval_at([1, 1, 1]) == 9

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(ValueError, match=r"^mismatched variable counts: 2 vs 3$"):
            variable(2, 0) + variable(3, 0)

    def test_non_int_exponents_and_nvars_rejected(self):
        # int() would truncate: (1.9, 0) read as x_1, nvars 2.7 as 2
        for exp in ((1.9, 0), (1, 0.0), (True, 0), (Fraction(1), 0)):
            with pytest.raises(ValueError, match=r"^non-int exponent in "):
                MultiPoly(2, {exp: 1})
        for nvars in (2.7, 2.0, True):
            with pytest.raises(ValueError, match=r"^nvars must be an int, got "):
                MultiPoly(nvars)

    @pytest.mark.parametrize("coeff", [0.1, True, "1/3"], ids=["float", "bool", "str"])
    def test_non_exact_coefficient_rejected(self, coeff):
        # Fraction() would store 0.1 as its binary value 3602879701896397/2^55,
        # True as 1 and "1/3" as 1/3; scale and eval_at read their numbers
        # by the constructor's rule
        x = variable(1, 0)
        for what, use in (("coefficient", lambda: MultiPoly(1, {(1,): coeff})),
                          ("scale factor", lambda: x.scale(coeff)),
                          ("point entry", lambda: x.eval_at([coeff]))):
            with pytest.raises(ValueError, match=f"^{what} .* is not an int or a Fraction$"):
                use()

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
            assert a - b == a + (-b)
            assert (a - b) + b == a

    def test_mul_matches_naive_oracle(self):
        rng = random.Random(55)
        for _ in range(25):
            nvars = rng.randint(1, 4)
            a, b = random_poly(rng, nvars), random_poly(rng, nvars)
            got = a * b
            want = oracle.p_mul(a.terms, b.terms)
            assert got.terms == want

    def test_integral_coefficients_are_ints(self):
        # the constructor stores an integral coefficient as an int, and the
        # product of two integral polynomials has int coefficients only
        p = MultiPoly(1, {(1,): Fraction(4, 2)})
        assert type(p.terms[(1,)]) is int and p.terms[(1,)] == 2
        # scaling by an integral factor, int or Fraction, keeps them ints
        q = MultiPoly(2, {(1, 0): 3, (0, 1): 5})
        for factor in (2, Fraction(4, 2)):
            terms = q.scale(factor).terms
            assert terms == {(1, 0): 6, (0, 1): 10}, factor
            assert all(type(c) is int for c in terms.values()), factor
        rng = random.Random(29)
        for _ in range(25):
            nvars = rng.randint(1, 4)
            a, b = (MultiPoly(nvars, {e: Fraction(c.numerator)
                                      for e, c in random_poly(rng, nvars).terms.items()})
                    for _ in range(2))
            assert all(type(c) is int for c in (a * b).terms.values()), (a, b)
            # and evaluate to an int at an integer point, an integral
            # Fraction entry read as an int
            pt = [rng.randint(-5, 5) for _ in range(nvars)]
            for p in (a, a * b):
                val = p.eval_at([Fraction(2 * v, 2) for v in pt])
                assert type(val) is int and val == oracle.p_eval(p.terms, pt), (p, pt)
        assert XY_XZ_YZ.eval_at([Fraction(1, 2), 1, 2]) == Fraction(7, 2)

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
        with pytest.raises(ValueError, match=r"^variable index 3 out of range for nvars=3$"):
            XY_XZ_YZ.partial(3)

    def test_eval_direct_substitution(self):
        assert XY_XZ_YZ.eval_at([1, 1, 1]) == 3

    def test_eval_at_origin_gives_constant_term(self):
        p = XY_XZ_YZ + MultiPoly.const(3, Fraction(7, 2))
        assert p.eval_at([0, 0, 0]) == Fraction(7, 2)

    def test_eval_univariate_square(self):
        x = variable(1, 0)
        assert (x * x).eval_at([2]) == 4

    def test_eval_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^point has length 2, expected 3$"):
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
        with pytest.raises(ValueError, match=r"^leading coefficient of the zero polynomial$"):
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
            xv = variable(nvars, var)
            remainder = p - coeff * xv ** deg
            assert remainder.degree_in(var) < deg or remainder.is_zero()


class TestDeterminants:
    def test_det_1x1(self):
        assert PolyMatrix(1, 1, [XY_XZ_YZ]).det() == XY_XZ_YZ

    def test_det_2x2(self):
        m = PolyMatrix(2, 2, [X, Y, Y, X])
        assert m.det() == X * X - Y * Y

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"^determinant of a 1x2 matrix$"):
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
                grid = [[e.terms for e in m.row(i)] for i in range(size)]
                assert det.terms == oracle.det_cofactor(grid)

    def test_det_matches_naive_oracle(self):
        rng = random.Random(29)
        for _ in range(5):
            entries = [random_poly(rng, 2, max_deg=2, max_terms=3) for _ in range(9)]
            m = PolyMatrix(3, 3, entries)
            grid = [[e.terms for e in m.row(i)] for i in range(3)]
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

    def test_principal_g3_coefficients_are_ints(self):
        from siegeltoric.catalog import principal_cone
        from siegeltoric.volume_ke import volume_function
        f = pencil_det(volume_function(principal_cone(3)).pencil)
        assert f.num_terms() > 0 and all(type(c) is int for c in f.terms.values())

    def test_principal_cone_is_the_spanning_tree_sum(self):
        # Kirchhoff: (g+1)^(g-1) terms, each of coefficient 1
        from siegeltoric.catalog import principal_cone
        from siegeltoric.volume_ke import volume_function
        for g in range(1, 7):
            f = pencil_det(volume_function(principal_cone(g)).pencil)
            assert f.terms == oracle.spanning_tree_polynomial(g), g
            assert f.num_terms() == (g + 1) ** (g - 1), g

    def test_translate_in_a_shuffled_marking_permutes_the_tree_sum(self):
        # det(gamma)^2 = 1, so F of gamma . sigma is F of sigma, re-indexed
        # by the marking
        from siegeltoric.catalog import principal_cone
        from siegeltoric.cone_lattice import GroupElement, MarkedCone, gl_act
        from siegeltoric.volume_ke import volume_function
        g, rng = 5, random.Random(4451)
        gamma = [[int(i == j) for j in range(g)] for i in range(g)]
        for _ in range(12):
            i, j = rng.sample(range(g), 2)
            gamma[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(gamma[i], gamma[j])]
        moved = gl_act(GroupElement(matrix=gamma), principal_cone(g))
        perm = list(range(len(moved.generators)))
        rng.shuffle(perm)
        shuffled = MarkedCone(g=g, scale=1, generators=[moved.generators[k] for k in perm])
        f = volume_function(shuffled).F
        assert f != volume_function(principal_cone(g)).F
        assert oracle.reindexed(f.terms, perm) == oracle.spanning_tree_polynomial(g)

    def test_single_identity(self):
        p = pencil_det([[[1, 0], [0, 1]]])
        x = variable(1, 0)
        assert p == x * x

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match=r"^pencil matrix 1 is not 2x2$"):
            pencil_det([[[1, 0], [0, 1]], [[1]]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match=r"^pencil matrix 0 is not symmetric$"):
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
            assert len({sum(e) for e in p.terms}) <= 1
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

    @pytest.mark.parametrize("bits", [8, 1100])
    def test_characteristic_polynomial_matches_faddeev_leverrier(self, bits):
        # det(x I - A) for A = U^T U is the pencil determinant
        # det(x_0 I - x_1 A) at x_1 = 1, as period_domain.weight_filtration
        # reads it; U of full rank, with a zero row and with a repeated row
        rng = random.Random(bits)
        for m in range(1, 9):
            full = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(m)]
                    for _ in range(m)]
            zero_row = [[0] * m] + full[1:]
            repeated_row = [full[0]] + full[:-1]
            for u, singular in ((full, False), (zero_row, True), (repeated_row, m > 1)):
                a = [[sum(u[r][i] * u[r][j] for r in range(m)) for j in range(m)]
                     for i in range(m)]
                eye = [[int(i == j) for j in range(m)] for i in range(m)]
                f = pencil_det([eye, [[-v for v in row] for row in a]])
                coeffs = [f.coeff((i, m - i)) for i in range(m + 1)]
                assert coeffs == faddeev_leverrier(a)
                assert (coeffs[0] == 0) is singular


class TestPencilSize:
    def test_returns_g(self):
        rng = random.Random(59)
        for g in range(1, 5):
            mats = []
            for _ in range(rng.randint(1, 3)):
                a = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
                mats.append([[a[i][j] + a[j][i] for j in range(g)] for i in range(g)])
            assert pencil_size(mats) == g

    def test_messages_in_order(self):
        ok = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match=r"^empty pencil$"):
            pencil_size([])
        with pytest.raises(ValueError, match=r"^pencil matrix 1 is not 2x2$"):
            pencil_size([ok, [[1]], [[0, 1], [0, 0]]])
        with pytest.raises(ValueError, match=r"^pencil matrix 2 is not 2x2$"):
            pencil_size([ok, ok, [[1, 0], [0]]])
        # the first faulty matrix is named, whatever its fault
        with pytest.raises(ValueError, match=r"^pencil matrix 1 is not symmetric$"):
            pencil_size([ok, [[0, 1], [0, 0]], [[1]]])

    def test_lower_triangle_difference_rejected(self):
        # symmetric but for one entry below the diagonal; the upper
        # triangle alone agrees with a symmetric matrix
        m = [[1, 2, 3], [2, 4, 5], [3, 5, 6]]
        m[2][0] = Fraction(7, 2)
        with pytest.raises(ValueError, match=r"^pencil matrix 0 is not symmetric$"):
            pencil_size([m])
        assert pencil_size([[[Fraction(1, 2), 1], [Fraction(1), 0]]]) == 2


class TestSerialization:
    def test_graded_lex_order(self):
        p = X + Y * Z + MultiPoly.const(3, 1)
        exps = [tuple(t["exp"]) for t in poly_to_json(p)["terms"]]
        assert exps == [(0, 1, 1), (1, 0, 0), (0, 0, 0)]

    def test_rationals_as_strings(self):
        obj = poly_to_json(MultiPoly.const(1, Fraction(10 ** 20, 3)))
        assert obj["terms"][0]["num"] == str(10 ** 20)
        assert obj["terms"][0]["den"] == "3"

    def test_int_coefficient_has_denominator_one(self):
        assert poly_to_json(MultiPoly.const(1, 5))["terms"] == [
            {"exp": [0], "num": "5", "den": "1"}]
