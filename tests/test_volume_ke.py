"""Volume polynomials, the Monge-Ampere identity, KE membership."""

import itertools
import random
from fractions import Fraction

import pytest

from siegeltoric.catalog import catalog_get, catalog_names, principal_cone
from siegeltoric.cone_lattice import (
    DegenerateConeError,
    MarkedCone,
    gl_act,
    rational_det,
    sym_dim,
)
from siegeltoric.exact_algebra import DimensionError, MultiPoly, PolyMatrix, pencil_det
from siegeltoric.volume_ke import (
    F_NVARS_MAX,
    CostGuardError,
    MAWitness,
    VolumeFunction,
    det_t_symbolic,
    det_t_values,
    is_ke_point,
    ma_rhs,
    ma_rhs_constant,
    pencil_coordinate_det,
    random_rational_point,
    verify_ma_identity,
    volume_function,
)

import naive_oracle as oracle
from t_matrix_oracle import euler_t_det, t_matrix, volume_function_from_pencil

SIGMA0 = principal_cone(2)
SIGMA0_G3 = principal_cone(3)

X, Y, Z = (MultiPoly.variable(3, i) for i in range(3))
F_PRINCIPAL = X * Y + X * Z + Y * Z


def cone_from_rows(rows, scale=1):
    gens = tuple(
        tuple(tuple(scale * v for v in row) for row in (((r[0], r[1]), (r[1], r[2]))))
        for r in rows)
    return MarkedCone(g=2, scale=scale, generators=gens)


def random_symmetric(rng, g, bound):
    m = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def direct_t_det(f, keep):
    """det(f*H - grad grad^T) over `keep`, expanded as it stands."""
    grads = [f.partial(i) for i in keep]
    m = len(keep)
    return PolyMatrix(m, m, [f * grads[a].partial(keep[b]) - grads[a] * grads[b]
                             for a in range(m) for b in range(m)]).det()


def unit_matrix(g, i, j):
    m = [[0] * g for _ in range(g)]
    m[i][j] = m[j][i] = 1
    return m


def random_g2_pencils():
    """Six dense indefinite integer pencils (seed 41): not cones, F need
    not be positive."""
    rng = random.Random(41)
    pencils = []
    while len(pencils) < 6:
        mats = [random_symmetric(rng, 2, 4) for _ in range(3)]
        if not pencil_det(mats).is_zero():
            pencils.append(mats)
    return pencils


def sparse_g3_pencils():
    """Indefinite genus-3 pencils (seeds 0 and 1): the coordinate pencil with
    random nonzero scalings, each off-diagonal matrix shifted by a random
    diagonal unit (sparse enough that the direct det stays cheap)."""
    pencils = []
    for seed in (0, 1):
        rng = random.Random(seed)
        mats = []
        for i, j in [(i, j) for i in range(3) for j in range(i, 3)]:
            m = [[0] * 3 for _ in range(3)]
            m[i][j] = m[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
            if i != j:
                k = rng.randrange(3)
                m[k][k] += rng.choice((-1, 0, 1))
            mats.append(m)
        pencils.append(mats)
    return pencils


def random_invertible_rows(rng):
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        try:
            cone_from_rows(rows)
        except Exception:
            continue
        from siegeltoric.cone_lattice import int_det
        if int_det(rows) != 0:
            return rows


def polynomial_det_t_values(f, points):
    """(F(p), det(T)(p)) at each point by the polynomial route, the oracle
    of det_t_values: F is expanded, and for deg F >= 2 each of its second
    partials is built once and evaluated at every point, det(T) being
    -F^N det(H) / (deg F - 1) there; for deg F < 2 det(T) is a constant."""
    n = f.nvars
    fvals = [f.eval_at(p) for p in points]
    e = f.total_degree()
    if e < 2:
        t = euler_t_det(f, range(n))
        return [(fval, t.eval_at(p)) for fval, p in zip(fvals, points)]
    grids = [[[Fraction(0)] * n for _ in range(n)] for _ in points]
    for a in range(n):
        fa = f.partial(a)
        for b in range(a, n):
            h = fa.partial(b)
            for grid, p in zip(grids, points):
                grid[a][b] = grid[b][a] = h.eval_at(p)
    return [(fval, -fval ** n * rational_det(grid) / (e - 1))
            for grid, fval in zip(grids, fvals)]


def random_points(seed, nvars, count):
    rng = random.Random(seed)
    return [random_rational_point(rng, nvars) for _ in range(count)]


class TestVolumeFunction:
    def test_principal_g2(self):
        v = volume_function(SIGMA0)
        assert v.F == F_PRINCIPAL and v.vol == 1

    def test_g1(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        v = volume_function(c)
        assert v.F == MultiPoly.variable(1, 0) and v.vol == 1

    def test_paper_rows_match_closed_form(self):
        rng = random.Random(9)
        rows = random_invertible_rows(rng)
        v = volume_function(cone_from_rows(rows))
        a, b, c, l, m, n = oracle.g2_closed_form(rows)
        assert v.F.coeff((2, 0, 0)) == a
        assert v.F.coeff((0, 2, 0)) == b
        assert v.F.coeff((0, 0, 2)) == c
        assert v.F.coeff((1, 1, 0)) == l
        assert v.F.coeff((1, 0, 1)) == m
        assert v.F.coeff((0, 1, 1)) == n

    def test_wrong_generator_count(self):
        c = MarkedCone(g=2, scale=1, generators=(((1, 0), (0, 0)),))
        with pytest.raises(DegenerateConeError):
            volume_function(c)

    def test_pencil_fixes_genus_and_variable_count(self):
        # g and N are read off the pencil, so no caller can state others:
        # the genus-3 pencil gives g = 3 and N = 6, and both modes hold
        v = volume_function(SIGMA0_G3)
        w = VolumeFunction(v.pencil, 1)
        assert (w.g, w.nvars) == (3, 6)
        assert verify_ma_identity(w, "symbolic") == (True, ())
        assert verify_ma_identity(w, "randomized", trials=2, seed=1) == (True, ())

    @pytest.mark.parametrize("pencil, message", [
        ((), "empty pencil"),
        ((((1, 0), (0, 1)), ((1,),), ((0, 1), (1, 0))), "pencil matrix 1 is not 2x2"),
        ((((1, 0), (0, 1)), ((1, 0), (0,)), ((0, 1), (1, 0))), "pencil matrix 1 is not 2x2"),
    ], ids=["empty", "other-size", "ragged-row"])
    def test_malformed_pencil_rejected(self, pencil, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            VolumeFunction(pencil, 1)

    def test_level_scaling_normalizes(self):
        # level-n cone: generators n*zeta, A_mu = zeta, same F and volume
        leveled = principal_cone(2, scale=5)
        v = volume_function(leveled)
        assert v.F == F_PRINCIPAL and v.vol == 1

    def test_f_is_expanded_only_on_use(self):
        # ma verify needs det M (symbolic) or the pencil (randomized), never F
        v = volume_function(principal_cone(4))
        verify_ma_identity(v, "symbolic")
        verify_ma_identity(v, "randomized", trials=1)
        assert "F" not in vars(v)
        assert v.F.total_degree() == 4 and "F" in vars(v)

    def test_f_cost_guard(self):
        # F is expanded up to N = 21 (g = 6) and refused beyond; these
        # dependent pencils have the one-term F = x_1 ... x_g
        def diagonal_pencil(g):
            mats = [unit_matrix(g, i, i) for i in range(g)]
            return mats + [[[0] * g for _ in range(g)]] * (sym_dim(g) - g)

        v6 = volume_function_from_pencil(diagonal_pencil(6), vol=0)
        assert v6.nvars == F_NVARS_MAX == 21 and len(v6.F.terms) == 1
        v7 = volume_function_from_pencil(
            [unit_matrix(7, i, j) for i in range(7) for j in range(i, 7)], vol=1)
        with pytest.raises(CostGuardError, match="N <= 21, got N=28"):
            v7.F

    def test_pencil_with_zero_f_rejected(self):
        # a dependent pencil may have F = 0; an independent one spans I
        with pytest.raises(DegenerateConeError, match="vanishes identically"):
            volume_function_from_pencil([[[1, 0], [0, 0]]] * 3, vol=1)

    def test_homogeneity_at_random_scalings(self):
        rng = random.Random(19)
        v = volume_function(SIGMA0_G3)
        for _ in range(20):
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            pt = [Fraction(rng.randint(1, 50), rng.randint(1, 10)) for _ in range(6)]
            scaled = [lam * x for x in pt]
            assert v.F.eval_at(scaled) == lam ** v.g * v.F.eval_at(pt)


class TestTMatrix:
    def test_t12_is_minus_z_squared(self):
        t = t_matrix(volume_function(SIGMA0))
        assert t.entry(0, 1) == -(Z * Z)

    def test_g1_entry(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        t = t_matrix(volume_function(c))
        assert t.entry(0, 0) == MultiPoly.const(1, -1)

    def test_symmetry(self):
        t = t_matrix(volume_function(SIGMA0))
        assert t.entry(0, 2) == t.entry(2, 0) == -(Y * Y)

    def test_entries_homogeneous_degree_2g_minus_2(self):
        t = t_matrix(volume_function(SIGMA0_G3))
        for i in range(6):
            for j in range(6):
                e = t.entry(i, j)
                if not e.is_zero():
                    assert {sum(x) for x in e.terms} == {4}

    def test_matches_naive_oracle(self):
        v = volume_function(SIGMA0)
        t = t_matrix(v)
        grid = oracle.t_matrix_grid(v.F.terms, 3)
        for i in range(3):
            for j in range(3):
                assert t.entry(i, j).terms == grid[i][j]


class TestMAIdentity:
    def test_g1_symbolic(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        report = verify_ma_identity(volume_function(c), "symbolic")
        assert report.holds

    def test_g2_symbolic_and_spot_value(self):
        v = volume_function(SIGMA0)
        report = verify_ma_identity(v, "symbolic")
        assert report.holds
        assert det_t_symbolic(v).eval_at([1, 1, 1]) == -54
        assert ma_rhs(v) == (v.F ** 3).scale(-2)

    def test_det_t_symbolic_equals_direct_det(self):
        # g = 1 (deg F = 1, T = -F'^2 constant) and principal g = 2 cones
        vs = [volume_function_from_pencil([[[c]]], vol=1) for c in (1, -2, 5)]
        vs += [volume_function(c) for c in (SIGMA0, principal_cone(2, scale=3))]
        for v in vs:
            assert det_t_symbolic(v) == t_matrix(v).det()
        assert det_t_symbolic(vs[1]) == MultiPoly.const(1, -4)

    def test_det_t_symbolic_equals_direct_det_random_g2_pencils(self):
        for mats in random_g2_pencils():
            v = volume_function_from_pencil(mats, vol=1)
            assert det_t_symbolic(v) == t_matrix(v).det(), mats

    def test_det_t_symbolic_equals_direct_det_random_g3_pencils(self):
        for mats in sparse_g3_pencils():
            v = volume_function_from_pencil(mats, vol=1)
            assert det_t_symbolic(v) == t_matrix(v).det(), mats

    def test_euler_t_det_any_homogeneous_polynomial(self):
        # the Euler reduction needs homogeneity only, not a pencil
        rng = random.Random(5)
        for deg in (2, 3, 4):
            exps = [e for e in itertools.product(range(deg + 1), repeat=3) if sum(e) == deg]
            f = MultiPoly(3, {e: rng.randint(-3, 3) for e in exps})
            assert euler_t_det(f, range(3)) == direct_t_det(f, range(3))

    def test_euler_t_det_on_a_subset_of_variables(self):
        # f free of x_0, homogeneous of degree 2 in x_1, x_2
        f = MultiPoly(3, {(0, 2, 0): 3, (0, 1, 1): -1, (0, 0, 2): 2})
        assert euler_t_det(f, [1, 2]) == direct_t_det(f, [1, 2])

    def test_euler_t_det_stops_at_a_zero_hessian(self):
        # S_1 of the principal genus-4 F has rank-1 leading edge E_11, and its
        # Hessian over x_2..x_10 is singular; the zero comes back without
        # expanding S_1^9 (degree 27)
        _, s1 = volume_function(principal_cone(4)).F.leading_coeff_in(0)
        assert euler_t_det(s1, range(1, 10)).is_zero()

    def test_euler_t_det_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            euler_t_det(X * Y + Z, range(3))
        with pytest.raises(ValueError):
            euler_t_det(X * Y, [1, 2])

    def test_det_t_symbolic_matches_oracle_evaluation_g3(self):
        # third route for g=3: oracle-built T entries evaluated at a point,
        # then an exact cofactor determinant on the scalar values (scalars
        # travel as zero-variable oracle polynomials)
        v = volume_function(SIGMA0_G3)
        rng = random.Random(603)
        grid = oracle.t_matrix_grid(v.F.terms, 6)
        det_t = det_t_symbolic(v)
        for _ in range(3):
            pt = [Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in range(6)]
            scalar_grid = [[{(): oracle.p_eval(grid[i][j], pt)} for j in range(6)]
                           for i in range(6)]
            det_at_pt = oracle.det_cofactor(scalar_grid).get((), Fraction(0))
            assert det_at_pt == det_t.eval_at(pt)

    def test_closed_form_matches_hessian_oracle(self):
        # the closed form against the oracle's cofactor Hessian route on
        # g = 1 pencils, the principal g = 2 cones, the seed-41 genus-2
        # pencils, the sparse genus-3 pencils and dependent (det M = 0)
        # pencils of genus 2 and 3, where both sides vanish
        vs = [volume_function_from_pencil([[[c]]], vol=1) for c in (1, -2, 5)]
        vs += [volume_function(c) for c in (SIGMA0, principal_cone(2, scale=3))]
        vs += [volume_function_from_pencil(m, vol=1) for m in random_g2_pencils()]
        vs += [volume_function_from_pencil(m, vol=1) for m in sparse_g3_pencils()]
        dependent = [
            [[[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            [unit_matrix(3, i, j) for i, j in [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]]
            + [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
        ]
        for mats in dependent:
            assert pencil_coordinate_det(mats) == 0
            v = volume_function_from_pencil(mats, vol=1)
            assert det_t_symbolic(v).is_zero() and t_matrix(v).det().is_zero()
            vs.append(v)
        for v in vs:
            assert det_t_symbolic(v).terms == oracle.det_t_hessian(v.F.terms, v.nvars)

    def test_closed_form_on_catalog(self):
        # every catalog cone: the oracle's cofactor Hessian determinant is
        # det(M)^2 h(I) F^((g+1)(g-2)/2), and at g = 2 the closed form is
        # the direct determinant of T (principal-g3 is compared pointwise
        # with the oracle's T in the test below)
        for name in catalog_names():
            v = volume_function(catalog_get(name).cone)
            g, n = v.g, v.nvars
            d = pencil_coordinate_det(v.pencil)
            h_identity = oracle.delta_hessian_det_at_identity(g)
            det_h = oracle.det_cofactor(oracle.hessian_grid(v.F.terms, n))
            assert det_h == oracle.p_scale(
                oracle.p_pow(v.F.terms, (g + 1) * (g - 2) // 2), d * d * h_identity), name
            if g == 2:
                assert det_t_symbolic(v) == t_matrix(v).det(), name

    def test_delta_hessian_at_identity(self):
        # h(I) = -(g-1)(-1)^N 2^(g(g-1)/2), computed directly from det on Sym_g
        for g in range(2, 6):
            expected = -(g - 1) * (-1) ** sym_dim(g) * 2 ** (g * (g - 1) // 2)
            assert oracle.delta_hessian_det_at_identity(g) == expected
            assert expected == -(g - 1) * ma_rhs_constant(g, 1)

    def test_symbolic_verdict_matches_oracle_on_wrong_volumes(self):
        # the identity holds exactly when vol^2 = det(M)^2, as the oracle's
        # expanded sides confirm at g = 1, 2 and 3; randomized mode agrees
        cases = [volume_function_from_pencil([[[-3]]], vol=3), volume_function(SIGMA0)]
        cases += [volume_function_from_pencil(m, vol=1) for m in sparse_g3_pencils()]
        for v in cases:
            g = v.g
            d = abs(oracle.frac_det([[m[i][j] for i in range(g) for j in range(i, g)]
                                     for m in v.pencil]))
            lhs = oracle.det_t_hessian(v.F.terms, v.nvars)
            for vol in (d, d + 1, 2 * d):
                rhs = oracle.p_scale(oracle.p_pow(v.F.terms, (g + 1) * (g - 1)),
                                     (-1) ** v.nvars * 2 ** (g * (g - 1) // 2) * vol * vol)
                w = VolumeFunction(v.pencil, vol)
                report = verify_ma_identity(w, "symbolic")
                assert report.holds == (lhs == rhs) == (vol == d), (g, vol)
                assert verify_ma_identity(w, "randomized", trials=2, seed=5).holds == report.holds

    def test_degenerate_pencil_errors_not_false(self):
        with pytest.raises(Exception):
            # dependent generators cannot even form a marked cone
            MarkedCone(g=2, scale=1, generators=(
                ((1, 0), (0, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))))

    def test_randomized_seed_reproducible(self):
        v = volume_function(SIGMA0_G3)
        r1 = verify_ma_identity(v, "randomized", trials=5, seed=123)
        r2 = verify_ma_identity(v, "randomized", trials=5, seed=123)
        assert r1 == r2 and r1.holds

    def test_randomized_catches_wrong_volume(self):
        v = volume_function(SIGMA0)
        broken = VolumeFunction(v.pencil, 2)
        report = verify_ma_identity(broken, "randomized", trials=4, seed=7)
        assert not report.holds
        # witnesses are exact and replayable: lhs is det T at the point,
        # as the oracle's cofactor determinant of the evaluated T entries
        grid = oracle.t_matrix_grid(v.F.terms, 3)
        for w in report.witnesses:
            assert w.lhs != w.rhs
            scalar_grid = [[{(): oracle.p_eval(grid[i][j], w.point)} for j in range(3)]
                           for i in range(3)]
            assert w.lhs == oracle.det_cofactor(scalar_grid).get((), Fraction(0))

    def test_certificate_agrees_with_randomized_at_g4_g5(self):
        # symbolic mode is one rational determinant at every genus; at
        # g = 4 and 5 it must give randomized mode's verdict, for the right
        # volume and for a wrong one
        pencil = [[[Fraction(1 if i == j == k else 0) for j in range(4)]
                   for i in range(4)] for k in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                m = [[Fraction(0)] * 4 for _ in range(4)]
                m[a][b] = m[b][a] = Fraction(1)
                m[a][a] = m[b][b] = Fraction(1)
                pencil.append(m)  # 10 = dim Sym_4
        cases = [(volume_function_from_pencil(pencil, vol=1), 3),
                 (volume_function(principal_cone(4)), 3),
                 (volume_function(principal_cone(5)), 1)]
        for v, trials in cases:
            for vol in (v.vol, v.vol + 1):
                w = VolumeFunction(v.pencil, vol)
                symbolic = verify_ma_identity(w, "symbolic")
                randomized = verify_ma_identity(w, "randomized", trials=trials, seed=4)
                assert symbolic.holds == randomized.holds == (vol == v.vol), (v.g, vol)

    def test_sign_flip_invariance(self):
        # degree g(g^2-1) is even, so both sides agree at -x as well
        v = volume_function(SIGMA0)
        lhs = det_t_symbolic(v)
        rhs = ma_rhs(v)
        rng = random.Random(3)
        for _ in range(10):
            pt = [Fraction(rng.randint(1, 100)) for _ in range(3)]
            neg = [-x for x in pt]
            assert lhs.eval_at(pt) == rhs.eval_at(pt)
            assert lhs.eval_at(neg) == rhs.eval_at(neg)

    def test_gl_action_outcome_invariance(self):
        rng = random.Random(31)
        from test_cone_lattice import random_unimodular
        for _ in range(5):
            gamma = random_unimodular(rng, 2)
            moved = gl_act(gamma, SIGMA0)
            report = verify_ma_identity(volume_function(moved), "symbolic")
            assert report.holds


class TestRandomizedFromPencil:
    """det_t_values (one integer adjugate per point) against the polynomial
    route, exactly."""

    def assert_matches_oracle(self, v, points):
        assert det_t_values(v, points) == polynomial_det_t_values(v.F, points)

    def test_principal_cones_and_translates(self):
        from test_cone_lattice import random_unimodular
        rng = random.Random(71)
        for g, count in ((1, 4), (2, 6), (3, 4), (4, 2), (5, 1)):
            cones = [principal_cone(g)]
            for _ in range(2):
                moved = gl_act(random_unimodular(rng, g), cones[0])
                order = list(range(sym_dim(g)))
                rng.shuffle(order)
                cones.append(MarkedCone(g=g, scale=1, generators=tuple(
                    moved.generators[k] for k in order)))
            for k, c in enumerate(cones):
                self.assert_matches_oracle(volume_function(c), random_points(g + k, c.nvars, count))

    def test_level_scaled_cones(self):
        for g, scale in ((2, 3), (3, 2)):
            v = volume_function(principal_cone(g, scale=scale))
            self.assert_matches_oracle(v, random_points(scale, v.nvars, 3))

    def test_rational_pencils(self):
        # denominators make s > 1 in A_mu = G_mu / s; g = 1 included
        rng = random.Random(43)
        pencils = [[[[Fraction(-3, 4)]]]]
        for mats in random_g2_pencils()[:3] + sparse_g3_pencils():
            pencils.append([[[Fraction(x, rng.randint(1, 6)) for x in row] for row in m]
                            for m in mats])
        for mats in pencils:
            for m in mats:  # keep each matrix symmetric
                for i in range(len(m)):
                    for j in range(i):
                        m[i][j] = m[j][i]
            v = volume_function_from_pencil(mats, vol=1)
            self.assert_matches_oracle(v, random_points(len(mats), v.nvars, 3))

    def test_points_where_the_pencil_is_singular(self):
        # L(3, 4, 5) = [[8, 4], [4, 2]] has rank 1; on the g = 3 coordinate
        # pencil, L p = diag(1, 1, 0) has rank 2 and a nonzero adjugate, and
        # L p = [[1, 1, 0], [1, 1, 0], [0, 0, 0]] / 2 has rank 1
        v2 = volume_function_from_pencil(
            [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]], vol=2)
        v3 = volume_function_from_pencil(
            [unit_matrix(3, i, j) for i in range(3) for j in range(i, 3)], vol=1)
        cases = [(v2, [(3, 4, 5)]),
                 (v3, [(1, 0, 0, 1, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0,
                                             Fraction(1, 2), 0, 0)])]
        for v, points in cases:
            points = [tuple(Fraction(x) for x in p) for p in points]
            assert all(fval == lhs == 0 for fval, lhs in det_t_values(v, points))
            self.assert_matches_oracle(v, points)

    def test_wrong_volume_witnesses_match_oracle(self):
        # the reports carry the oracle's witnesses, so their bytes agree too
        for g, trials in ((2, 6), (3, 4), (4, 2), (5, 1)):
            v = volume_function(principal_cone(g))
            for vol in (2, 3):
                w = VolumeFunction(v.pencil, vol)
                report = verify_ma_identity(w, "randomized", trials=trials, seed=g)
                points = random_points(g, v.nvars, trials)
                c = ma_rhs_constant(g, vol)
                expected = tuple(
                    MAWitness(point=p, lhs=lhs, rhs=c * fval ** ((g + 1) * (g - 1)))
                    for p, (fval, lhs) in zip(points, polynomial_det_t_values(v.F, points)))
                assert not report.holds and report.witnesses == expected, (g, vol)


class TestKEPoint:
    def test_principal_g2_is_member(self):
        assert is_ke_point([list(map(list, m)) for m in SIGMA0.generators])

    def test_g1_unit(self):
        assert is_ke_point([[[1]]])

    def test_dependent_pencil_rejected(self):
        with pytest.raises(DegenerateConeError):
            is_ke_point([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 1]]])

    def test_empty_pencil_is_an_input_error(self):
        for fn in (pencil_coordinate_det, is_ke_point):
            with pytest.raises(DimensionError, match=r"^empty pencil$"):
                fn([])

    def test_malformed_pencil_messages(self):
        # the shape checks are pencil_det's; the count check comes after them
        e11, e22 = [[1, 0], [0, 0]], [[0, 0], [0, 1]]
        with pytest.raises(DimensionError, match=r"^pencil matrix 1 is not 2x2$"):
            pencil_coordinate_det([e11, [[1]], e22])
        with pytest.raises(DimensionError, match=r"^pencil matrix 2 is not symmetric$"):
            pencil_coordinate_det([e11, e22, [[0, 1], [2, 0]]])
        with pytest.raises(DimensionError, match=r"^expected 3 matrices for g=2, got 2$"):
            is_ke_point([e11, e22])

    def test_scaled_pencil_still_member(self):
        # the D^2 factor absorbs diagonal rescaling: vol-2 pencils pass too
        rows = [(2, 0, 0), (0, 0, 1), (1, -1, 1)]
        mats = [[[r[0], r[1]], [r[1], r[2]]] for r in rows]
        assert is_ke_point(mats)

    def test_random_independent_pencils_are_members(self):
        # the identity is a linear-substitution image of the log-det Hessian
        # identity, so independence is the only requirement
        rng = random.Random(211)
        checked = 0
        while checked < 5:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            from siegeltoric.cone_lattice import int_det
            if int_det(rows) == 0:
                continue
            mats = [[[r[0], r[1]], [r[1], r[2]]] for r in rows]
            assert is_ke_point(mats)
            checked += 1

    def test_permutations_preserve_membership(self):
        mats = [list(map(list, m)) for m in SIGMA0.generators]
        for perm in itertools.permutations(range(3)):
            assert is_ke_point([mats[i] for i in perm])


class TestKECoefficient:
    def test_coefficient_matches_full_expansion(self):
        # the KE coefficients, those of det T - (-1)^N 2^(g(g-1)/2) D^2
        # F^((g+1)(g-1)) with D = det M, are all 0: the oracle expands both
        # sides by cofactors, and their difference is the empty polynomial
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        pencils = [[[[1]]], [[[2]]], [[[r[0], r[1]], [r[1], r[2]]] for r in rows],
                   [list(map(list, m)) for m in SIGMA0.generators]]
        for mats in pencils:
            g, n = len(mats[0]), len(mats)
            f = oracle.pencil_determinant(mats)
            lhs = oracle.det_cofactor(oracle.t_matrix_grid(f, n))
            d = oracle.frac_det([[m[i][j] for i in range(g) for j in range(i, g)]
                                 for m in mats])
            rhs = oracle.p_scale(oracle.p_pow(f, (g + 1) * (g - 1)),
                                 (-1) ** n * 2 ** (g * (g - 1) // 2) * d * d)
            assert lhs and oracle.p_sub(lhs, rhs) == {}, mats


def assert_reindexing_symmetry(mats, perm):
    """pencil_det of mats[perm[i]] is pencil_det(mats) with its variables
    renamed: the same term map up to the exponent re-indexing."""
    permuted = pencil_det([mats[k] for k in perm])
    assert oracle.reindexed(permuted.terms, perm) == pencil_det(mats).terms


class TestPermutationCheck:
    def test_identity_permutation(self):
        mats = [list(map(list, m)) for m in SIGMA0.generators]
        assert_reindexing_symmetry(mats, [0, 1, 2])

    def test_swap_on_principal(self):
        mats = [list(map(list, m)) for m in SIGMA0.generators]
        assert_reindexing_symmetry(mats, [1, 0, 2])

    def test_random_pencils_random_cycles(self):
        rng = random.Random(59)
        for _ in range(10):
            mats = []
            for _ in range(3):
                r = [rng.randint(-3, 3) for _ in range(3)]
                mats.append([[r[0], r[1]], [r[1], r[2]]])
            if any(all(v == 0 for row in m for v in row) for m in mats):
                continue
            perm = list(range(3))
            rng.shuffle(perm)
            assert_reindexing_symmetry(mats, perm)


class TestConcurrency:
    def test_parallel_verification_is_bit_identical(self):
        # immutable values, pure operations: concurrent runs must agree
        from concurrent.futures import ThreadPoolExecutor

        v = volume_function(SIGMA0_G3)

        def work(seed):
            return verify_ma_identity(v, "randomized", trials=5, seed=seed)

        seeds = [7, 7, 11, 11, 13, 13]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, seeds))
        assert results[0] == results[1]
        assert results[2] == results[3]
        assert results[4] == results[5]
        assert all(r.holds for r in results)


class TestG2ClosedForm:
    def test_principal_rows(self):
        assert oracle.g2_closed_form([[1, 0, 0], [0, 0, 1], [1, -1, 1]]) == (0, 0, 0, 1, 1, 1)

    def test_identity_rows(self):
        # direct substitution into the closed form: F = det(xE11 + yE12s + zE22)
        # = xz - y^2, so (A, B, C, L, M, N) = (0, -1, 0, 0, 1, 0)
        assert oracle.g2_closed_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (0, -1, 0, 0, 1, 0)

    def test_zero_rows(self):
        assert oracle.g2_closed_form([[0] * 3] * 3) == (0,) * 6

    def test_matches_pencil_det_random(self):
        rng = random.Random(83)
        count = 0
        while count < 10:
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            pencil = oracle.g2_rows_to_pencil(rows)
            f = pencil_det(pencil)
            a, b, c, l, m, n = oracle.g2_closed_form(rows)
            assert f.coeff((2, 0, 0)) == a
            assert f.coeff((0, 2, 0)) == b
            assert f.coeff((0, 0, 2)) == c
            assert f.coeff((1, 1, 0)) == l
            assert f.coeff((1, 0, 1)) == m
            assert f.coeff((0, 1, 1)) == n
            count += 1
