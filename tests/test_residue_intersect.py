"""Degree lemmas, residue chains against the frozen oracle, verdicts."""

import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from siegeltoric.catalog import principal_cone
from siegeltoric.cone_lattice import (
    ConeShapeError,
    Fan,
    GroupElement,
    MarkedCone,
    gl_act,
    rational_det,
    sym_dim,
)
from siegeltoric.exact_algebra import MultiPoly, poly_to_json
from siegeltoric.residue_intersect import (
    ONE_TORIC_COMMON_CONE,
    ZERO_D_GE_G_MINUS_1,
    ZERO_INTERIOR_EDGE,
    ZERO_TORIC_EMPTY,
    CostGuardError,
    IntersectionVerdict,
    chi_descriptor,
    intersection_vanishing,
    residue_chain,
    toric_verdict,
)
from siegeltoric.volume_ke import volume_function

import naive_oracle as oracle
import t_matrix_oracle
from test_volume_ke import det_m, random_symmetric, unit_matrix

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SIGMA0 = principal_cone(2)
SIGMA0_G3 = principal_cone(3)
V2 = volume_function(SIGMA0)
V3 = volume_function(SIGMA0_G3)


def pencil_vf(mats, vol=1):
    return t_matrix_oracle.volume_function_from_pencil(mats, vol=vol)


def invertible_case_cone(g):
    """E_11 and E_1j + E_j1 first, then the other coordinate matrices: after
    d = g steps S_d is det of the generic symmetric matrix of order g - 1 in
    its N - g = sym_dim(g - 1) variables, so g_d is not zero."""
    first = [(0, j) for j in range(g)]
    rest = [(i, j) for i in range(1, g) for j in range(i, g)]
    return MarkedCone(g=g, scale=1, generators=tuple(
        tuple(map(tuple, unit_matrix(g, i, j))) for i, j in first + rest))


def random_full_pencils(rng, g, count):
    """Independent genus-g pencils: Gram matrices of random rank (PSD),
    dense indefinite matrices, and invertible-case cones whose unselected
    matrices are mixed by a random integer matrix and whose whole pencil
    is moved by a random Y -> P Y P^T."""
    from test_cone_lattice import random_unimodular
    n = sym_dim(g)
    pencils = []
    while len(pencils) < count:
        kind = len(pencils) % 3
        if kind == 0:
            mats = []
            for _ in range(n):
                b = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(rng.randint(1, g))]
                mats.append([[sum(r[i] * r[j] for r in b) for j in range(g)]
                             for i in range(g)])
        elif kind == 1:
            mats = [random_symmetric(rng, g, 2) for _ in range(n)]
        else:
            base = [list(map(list, m)) for m in invertible_case_cone(g).generators]
            mix = [[rng.randint(-2, 2) for _ in range(g, n)] for _ in range(g, n)]
            mats = base[:g] + [
                [[sum(c * base[g + k][i][j] for k, c in enumerate(row)) for j in range(g)]
                 for i in range(g)] for row in mix]
            p = random_unimodular(rng, g).matrix
            mats = [[[sum(p[i][a] * m[a][b] * p[j][b] for a in range(g) for b in range(g))
                      for j in range(g)] for i in range(g)] for m in mats]
        if det_m(mats):
            pencils.append(mats)
    return pencils


class TestDegreeProfile:
    def test_principal_g2(self):
        prof = t_matrix_oracle.degree_profile(V2)
        assert prof.entries == ((1, 1), (1, 1), (1, 1)) and prof.ok

    def test_g1(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        prof = t_matrix_oracle.degree_profile(volume_function(c))
        assert prof.entries == ((1, 1),) and prof.ok

    def test_full_rank_first_matrix(self):
        mats = [[[1, 0], [0, 1]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]]
        prof = t_matrix_oracle.degree_profile(pencil_vf(mats))
        assert prof.entries[0] == (2, 2)

    def test_random_psd_pencils(self):
        # PSD pencils with an interior point satisfy deg_i F = rank A_i
        rng = random.Random(97)
        from siegeltoric.cone_lattice import psd_rank
        checked = 0
        while checked < 15:
            g = rng.randint(2, 3)
            n = g * (g + 1) // 2
            mats = []
            for _ in range(n):
                rows_count = rng.randint(1, g)
                b = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(rows_count)]
                gram = [[sum(b[k][i] * b[k][j] for k in range(rows_count))
                         for j in range(g)] for i in range(g)]
                mats.append(gram)
            if any(all(v == 0 for row in m for v in row) for m in mats):
                continue
            total = [[sum(m[i][j] for m in mats) for j in range(g)] for i in range(g)]
            if psd_rank(total) != g:
                continue  # needs an interior point
            prof = t_matrix_oracle.degree_profile(pencil_vf(mats))
            assert prof.ok, (mats, prof)
            checked += 1


class TestTDegreeBounds:
    """The degree bounds on the expanded T (t_matrix_oracle): they hold on
    every full cone and fail exactly where deg_k F = 0."""

    def test_principal_g2(self):
        report = t_matrix_oracle.t_degree_bounds(V2)
        assert report.ok and report.det_bound_checked

    def test_g1(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        report = t_matrix_oracle.t_degree_bounds(volume_function(c))
        assert report.ok

    def test_matches_oracle_on_full_cones(self):
        for v in (V2, V3, volume_function(principal_cone(2, scale=3)),
                  volume_function(invertible_case_cone(3))):
            report = t_matrix_oracle.t_degree_bounds(v)
            assert report.ok, report.failures

    def test_matches_oracle_where_f_is_free_of_a_variable(self):
        # dependent pencils with deg_k F = 0, the only place the bounds fail:
        # F = -x3^2, F = x1 x2, F = -x4^2 (x5 + x6), and zero matrices put
        # into random genus-2 and genus-3 pencils; the failures name
        # exactly the variables that F is free of
        e11, e12, e22 = [[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]
        zero2 = [[0, 0], [0, 0]]
        u = [unit_matrix(3, i, j) for i, j in [(0, 0), (0, 1), (0, 2), (1, 1)]]
        pencils = [[e11, e11, e12], [e11, e22, zero2],
                   [u[0], u[0], u[1], u[2], u[3], u[3]]]
        rng = random.Random(29)
        for g in (2, 2, 3, 3):
            mats = [random_symmetric(rng, g, 3) for _ in range(sym_dim(g))]
            mats[rng.randrange(len(mats))] = [[0] * g for _ in range(g)]
            pencils.append(mats)
        for mats in pencils:
            v = pencil_vf(mats)
            report = t_matrix_oracle.t_degree_bounds(v)
            free = {k + 1 for k in range(v.nvars) if v.F.degree_in(k) == 0}
            failing = {int(f[len("deg_"):f.index(" ")]) for f in report.failures}
            assert free and not report.ok and failing == free, mats

    def test_t11_degree_zero_in_x1(self):
        # T_11 = -(y+z)^2 for the principal cone: degree 0 = 2*1-2 in x1
        t = t_matrix_oracle.t_matrix(V2)
        assert t.row(0)[0].degree_in(0) == 0

    def test_t23_degree(self):
        t = t_matrix_oracle.t_matrix(V2)
        # T_23 = -x^2: degree 2 in x1, within the bound 2*deg_1 F = 2
        assert t.row(1)[2].degree_in(0) == 2


class TestResidueChain:
    def test_g2_d1_worked_trace(self):
        rc = residue_chain(V2, 1)
        y_plus_z = MultiPoly(3, {(0, 1, 0): 1, (0, 0, 1): 1})
        assert rc.S[1] == y_plus_z
        assert rc.gd.is_zero()

    def test_g1_excluded(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        with pytest.raises(ValueError):
            residue_chain(volume_function(c), 1)

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            residue_chain(V2, 3)

    def test_g3_d1_matches_golden_file(self):
        with open(os.path.join(GOLDEN_DIR, "residue_g3_d1.json")) as fh:
            golden = json.load(fh)
        rc = residue_chain(V3, golden["d"])
        assert len(rc.S) == len(golden["S"])
        for got, want in zip(rc.S, golden["S"]):
            assert poly_to_json(got) == want
        assert poly_to_json(rc.gd) == golden["g_d"]

    def test_g3_volume_poly_matches_golden_file(self):
        with open(os.path.join(GOLDEN_DIR, "volume_poly_g3.json")) as fh:
            golden = json.load(fh)
        assert poly_to_json(V3.F) == golden["F"]

    def test_chain_agrees_with_oracle_on_g2(self):
        chain, gd = oracle.residue_chain_naive(V2.F.terms, 3, 1)
        rc = residue_chain(V2, 1)
        assert [s.terms for s in rc.S] == chain
        assert rc.gd.terms == gd

    def test_g3_minor_matches_oracle_for_every_d(self):
        # deg S_d is 2, 1, 0, 0, 0 for d = 1..5: the closed form against the
        # oracle's cofactor determinant of P
        degrees = []
        for d in range(1, 6):
            chain, gd = oracle.residue_chain_naive(V3.F.terms, 6, d)
            rc = residue_chain(V3, d)
            assert [s.terms for s in rc.S] == chain
            assert rc.gd.terms == gd, d
            degrees.append(rc.S[-1].total_degree())
        assert degrees == [2, 1, 0, 0, 0]

    def test_degree_bounds_along_chain(self):
        # deg S_k <= g - k while k <= g (extraction cannot push the degree
        # below zero, so the bound's meaningful domain stops at the constant);
        # degrees are nonincreasing along the chain and
        # deg g_d <= 2(N-d)(g-d-1) whenever g_d is nonzero
        for v, dmax in ((V2, 2), (V3, 5)):
            for d in range(1, dmax + 1):
                rc = residue_chain(v, d)
                degs = [s.total_degree() for s in rc.S]
                for k, deg in enumerate(degs):
                    if k <= v.g:
                        assert deg <= v.g - k
                assert all(a >= b for a, b in zip(degs, degs[1:]))
                bound = 2 * (v.nvars - d) * (v.g - d - 1)
                assert rc.gd.is_zero() or rc.gd.total_degree() <= max(bound, 0)

    def test_low_degree_tail_gives_zero_minor(self):
        # whenever deg S_d < 2 the minor determinant must vanish identically
        for d in range(1, 3):
            rc = residue_chain(V2, d)
            if rc.S[-1].total_degree() < 2:
                assert rc.gd.is_zero()

    def test_g2_minor_vanishes_for_every_top_cone(self):
        # genus 2, d = 1: the minor determinant is the zero polynomial for
        # every full-dimensional cone, not merely zero at sample points
        rng = random.Random(61)
        checked = 0
        while checked < 12:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            if rational_det(rows) == 0:
                continue
            gens = tuple(((r[0], r[1]), (r[1], r[2])) for r in rows)
            try:
                cone = MarkedCone(g=2, scale=1, generators=gens)
            except Exception:
                continue
            rc = residue_chain(volume_function(cone), 1)
            assert rc.gd.is_zero(), rows
            checked += 1


class TestResidueMinorClosedForm:
    """g_d in closed form against the Euler route of t_matrix_oracle."""

    def test_random_full_cones_every_d(self):
        rng = random.Random(83)
        nonzero = 0
        for g, count in ((2, 12), (3, 9)):
            for mats in random_full_pencils(rng, g, count):
                v = pencil_vf(mats)
                for d in range(1, v.nvars):
                    gd = residue_chain(v, d).gd
                    assert gd == t_matrix_oracle.residue_minor(v, d), (mats, d)
                    nonzero += not gd.is_zero()
        assert nonzero >= 6

    def test_psd_generators_give_zero(self):
        rng = random.Random(89)
        for g in (2, 3):
            for mats in random_full_pencils(rng, g, 6)[::3]:
                v = pencil_vf(mats)
                assert all(residue_chain(v, d).gd.is_zero() for d in range(1, v.nvars))

    def test_invertible_case_family(self):
        # N - d = sym_dim(deg S_d) at d = g, where g_d is not zero; at
        # g = 2, S_2 = x3 and g_2 = -1
        rc = residue_chain(volume_function(invertible_case_cone(2)), 2)
        assert rc.gd == MultiPoly.const(3, -1)
        for g in (2, 3, 4):
            v = volume_function(invertible_case_cone(g))
            for d in range(1, v.nvars) if g < 4 else (g,):
                gd = residue_chain(v, d).gd
                assert gd == t_matrix_oracle.residue_minor(v, d), (g, d)
                assert d != g or not gd.is_zero(), g

    def test_term_guard(self):
        # g = 5: S_5^15 could have 3e8 terms; refused before any is expanded
        v = volume_function(invertible_case_cone(5))
        assert residue_chain(v, 4).gd.is_zero()
        with pytest.raises(CostGuardError, match="limited to 250000 terms of S_d"):
            residue_chain(v, 5)

    def test_dependent_pencil_refused(self):
        # F = (x1 + x2)(x1 + x3) is not zero, but the pencil does not span
        # Sym_2: no cone has it, so residue_chain, which reads a cone's
        # volume function, never sees it
        with pytest.raises(ConeShapeError, match="^generators are linearly dependent"):
            MarkedCone(g=2, scale=1, generators=(
                ((1, 0), (0, 1)), ((1, 0), (0, 0)), ((0, 0), (0, 1))))


class TestChiDescriptor:
    def test_g2_constant(self):
        chi = chi_descriptor(residue_chain(V2, 1))
        assert chi.constant == Fraction(9, 8)
        assert chi.numerator.is_zero()

    def test_g3_constant(self):
        chi = chi_descriptor(residue_chain(V3, 1))
        assert chi.constant == -120

    def test_denominator_exponent(self):
        chi = chi_descriptor(residue_chain(V3, 2))
        assert chi.denominator_exp == 2 * (6 - 2)


class TestIntersectionVanishing:
    def test_g2_d1_dominated_by_dimension_rule(self):
        # at g = 2 every selection has d >= 1 = g - 1, on any cone: the
        # principal one, a GL(2,Z) translate, and one with an interior edge
        translate = gl_act(GroupElement(matrix=((2, 1), (1, 1))), SIGMA0)
        interior = MarkedCone(g=2, scale=1, generators=(
            ((1, 0), (0, 0)), ((0, 0), (0, 1)), ((2, 1), (1, 2))))
        for cone in (SIGMA0, translate, interior):
            for i in range(3):
                verdict = intersection_vanishing(cone, [i])
                assert verdict.value == "zero"
                assert verdict.reason == ZERO_D_GE_G_MINUS_1

    def test_g3_interior_edge(self):
        # replace one boundary edge by an interior (positive definite) one;
        # 4I - J has eigenvalues {1, 4, 4} and keeps the set independent
        gens = list(SIGMA0_G3.generators)
        gens[0] = ((3, -1, -1), (-1, 3, -1), (-1, -1, 3))
        cone = MarkedCone(g=3, scale=1, generators=tuple(gens))
        verdict = intersection_vanishing(cone, [0])
        assert verdict.value == "zero" and verdict.reason == ZERO_INTERIOR_EDGE

    def test_g3_boundary_edge_unknown_with_chi(self):
        verdict = intersection_vanishing(SIGMA0_G3, [1])
        assert verdict.value == "unknown" and verdict.reason is None
        assert verdict.chi is not None
        assert verdict.chi.constant == -120

    def test_selection_permutes_marking(self):
        # chi for selection [k] equals chi of the cone remarked with k first
        k = 4
        verdict = intersection_vanishing(SIGMA0_G3, [k])
        order = [k] + [i for i in range(6) if i != k]
        remarked = MarkedCone(
            g=3, scale=1,
            generators=tuple(SIGMA0_G3.generators[i] for i in order))
        direct = chi_descriptor(residue_chain(volume_function(remarked), 1))
        assert verdict.chi.numerator == direct.numerator
        assert verdict.chi.denominator_base == direct.denominator_base

    def test_duplicate_selection_rejected(self):
        with pytest.raises(ValueError):
            intersection_vanishing(SIGMA0, [0, 0])

    @pytest.mark.parametrize("bad", [1.9, True, "1"])
    def test_non_int_selection_rejected(self, bad):
        # an index is never truncated: 1.9 and True do not stand for 1
        with pytest.raises(ValueError, match="^selected edge indices must be ints$"):
            intersection_vanishing(principal_cone(4), [bad])

    def test_never_returns_one(self):
        for d in range(1, 3):
            for sel in itertools.combinations(range(3), d):
                assert intersection_vanishing(SIGMA0, list(sel)).value != "one"

    def test_g3_d_ge_2_zero(self):
        verdict = intersection_vanishing(SIGMA0_G3, [1, 2])
        assert verdict.value == "zero" and verdict.reason == ZERO_D_GE_G_MINUS_1


def _two_chamber_fan():
    gamma = GroupElement(matrix=((1, 0), (1, 1)))
    return Fan(cones=(SIGMA0, gl_act(gamma, SIGMA0)))


def _mixed_ids(fan):
    """Ids of the rays of zeta_12, [[1, 1], [1, 1]] and E_11, which no
    chamber holds together."""
    return [fan.rays.index(r) for r in [(1, -1, 1), (1, 1, 1), (1, 0, 0)]]


class TestVerdictValue:
    @pytest.mark.parametrize("reason, value", [
        (None, "unknown"),
        (ZERO_D_GE_G_MINUS_1, "zero"),
        (ZERO_INTERIOR_EDGE, "zero"),
        (ZERO_TORIC_EMPTY, "zero"),
        (ONE_TORIC_COMMON_CONE, "one"),
    ])
    def test_value_follows_reason(self, reason, value):
        assert IntersectionVerdict(reason).value == value


class TestToric:
    def test_edges_of_sigma0_give_one(self):
        fan = _two_chamber_fan()
        assert toric_verdict(fan, fan.ray_ids[0]).value == "one"

    def test_mixed_edges_give_zero(self):
        fan = _two_chamber_fan()
        assert toric_verdict(fan, _mixed_ids(fan)).value == "zero"

    def test_exhaustive_g2_subsets(self):
        fan = _two_chamber_fan()
        assert len(fan.rays) == 4
        hits = 0
        for subset in itertools.combinations(range(4), 3):
            expected = 1 if any(set(subset) == set(ids) for ids in fan.ray_ids) else 0
            assert toric_verdict(fan, subset).value == ("one" if expected else "zero")
            hits += expected
        assert hits == 2  # exactly the two chambers

    def test_permutation_invariance(self):
        fan = _two_chamber_fan()
        ids = fan.ray_ids[1]
        for perm in itertools.permutations(range(3)):
            assert toric_verdict(fan, [ids[i] for i in perm]).value == "one"

    def test_duplicate_edges_rejected(self):
        fan = _two_chamber_fan()
        ids = fan.ray_ids[0]
        with pytest.raises(ValueError, match="pairwise distinct"):
            toric_verdict(fan, [ids[0], ids[0], ids[1]])

    @pytest.mark.parametrize("bad", [(True, 0, 1), (1.0, 0, 1), ("1", 0, 1),
                                     (None, 0, 1), (4, 0, 1), (-1, 0, 1)])
    def test_malformed_ray_rejected(self, bad):
        # a ray id is an int in range(len(fan.rays)); this fan has 4 rays
        fan = _two_chamber_fan()
        match = ("^edge index out of range; fan has 4 distinct rays$"
                 if type(bad[0]) is int else "^edge indices must be ints$")
        with pytest.raises(ValueError, match=match):
            toric_verdict(fan, bad)

    def test_range_checked_before_count(self):
        # the order of the checks, which the CLI's messages follow
        fan = _two_chamber_fan()
        with pytest.raises(ValueError, match="out of range"):
            toric_verdict(fan, [7])
        with pytest.raises(ValueError, match="^need exactly 3 edges, got 2$"):
            toric_verdict(fan, [0, 1])

    def test_non_regular_fan_rejected(self):
        bad = MarkedCone(g=2, scale=1, generators=(
            ((2, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1))))
        with pytest.raises(ConeShapeError):
            toric_verdict(Fan(cones=(bad,)), [0, 1, 2])

    def test_verdict_wrapper(self):
        fan = _two_chamber_fan()
        v1 = toric_verdict(fan, fan.ray_ids[0])
        assert v1.value == "one" and v1.reason == ONE_TORIC_COMMON_CONE
        v0 = toric_verdict(fan, _mixed_ids(fan))
        assert v0.value == "zero" and v0.reason == ZERO_TORIC_EMPTY
