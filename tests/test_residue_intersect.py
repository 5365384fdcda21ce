"""Degree lemmas, residue chains against the frozen oracle, verdicts."""

import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from siegeltoric.catalog import principal_cone
from siegeltoric.cone_lattice import Fan, GroupElement, MarkedCone, gl_act
from siegeltoric.exact_algebra import MultiPoly, poly_from_json
from siegeltoric.residue_intersect import (
    ONE_TORIC_COMMON_CONE,
    ZERO_D_GE_G_MINUS_1,
    ZERO_INTERIOR_EDGE,
    ZERO_TORIC_EMPTY,
    CostGuardError,
    chi_descriptor,
    degree_profile,
    intersection_vanishing,
    residue_chain,
    t_degree_bounds,
    toric_full_intersection,
    toric_verdict,
)
from siegeltoric.volume_ke import volume_function, volume_function_from_pencil

import naive_oracle as oracle

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SIGMA0 = principal_cone(2)
SIGMA0_G3 = principal_cone(3)
V2 = volume_function(SIGMA0)
V3 = volume_function(SIGMA0_G3)


def pencil_vf(mats, g, vol=1):
    return volume_function_from_pencil(mats, g=g, vol=vol)


class TestDegreeProfile:
    def test_principal_g2(self):
        prof = degree_profile(V2)
        assert prof.entries == ((1, 1), (1, 1), (1, 1)) and prof.ok

    def test_g1(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        prof = degree_profile(volume_function(c))
        assert prof.entries == ((1, 1),) and prof.ok

    def test_full_rank_first_matrix(self):
        mats = [[[1, 0], [0, 1]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]]
        prof = degree_profile(pencil_vf(mats, 2))
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
            prof = degree_profile(pencil_vf(mats, g))
            assert prof.ok, (mats, prof)
            checked += 1


class TestTDegreeBounds:
    def test_principal_g2(self):
        report = t_degree_bounds(V2)
        assert report.ok and report.det_bound_checked

    def test_g1(self):
        c = MarkedCone(g=1, scale=1, generators=(((1,),),))
        report = t_degree_bounds(volume_function(c))
        assert report.ok

    def test_cost_guard_above_six_variables(self):
        with pytest.raises(CostGuardError, match="N <= 6, got N=10"):
            t_degree_bounds(volume_function(principal_cone(4)))

    def test_t11_degree_zero_in_x1(self):
        # T_11 = -(y+z)^2 for the principal cone: degree 0 = 2*1-2 in x1
        from siegeltoric.volume_ke import t_matrix
        t = t_matrix(V2)
        assert t.entry(0, 0).degree_in(0) == 0

    def test_t23_degree(self):
        from siegeltoric.volume_ke import t_matrix
        t = t_matrix(V2)
        # T_23 = -x^2: degree 2 in x1, within the bound 2*deg_1 F = 2
        assert t.entry(1, 2).degree_in(0) == 2


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
            assert got == poly_from_json(want)
        assert rc.gd == poly_from_json(golden["g_d"])

    def test_g3_volume_poly_matches_golden_file(self):
        with open(os.path.join(GOLDEN_DIR, "volume_poly_g3.json")) as fh:
            golden = json.load(fh)
        assert V3.F == poly_from_json(golden["F"])

    def test_chain_agrees_with_oracle_on_g2(self):
        chain, gd = oracle.residue_chain_naive(V2.F.terms, 3, 1)
        rc = residue_chain(V2, 1)
        assert [s.terms for s in rc.S] == chain
        assert rc.gd.terms == gd

    def test_g3_minor_matches_oracle_for_every_d(self):
        # deg S_d is 2, 1, 0, 0, 0 for d = 1..5: every branch of the Euler
        # reduction against the oracle's cofactor determinant of P
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
        from siegeltoric.cone_lattice import int_det
        rng = random.Random(61)
        checked = 0
        while checked < 12:
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            if int_det(rows) == 0:
                continue
            gens = tuple(((r[0], r[1]), (r[1], r[2])) for r in rows)
            try:
                cone = MarkedCone(g=2, scale=1, generators=gens)
            except Exception:
                continue
            rc = residue_chain(volume_function(cone), 1)
            assert rc.gd.is_zero(), rows
            checked += 1


class TestChiDescriptor:
    def test_g2_constant(self):
        chi = chi_descriptor(residue_chain(V2, 1))
        assert chi.constant == Fraction(9, 8)
        assert chi.is_identically_zero()

    def test_g3_constant(self):
        chi = chi_descriptor(residue_chain(V3, 1))
        assert chi.constant == -120

    def test_denominator_exponent(self):
        chi = chi_descriptor(residue_chain(V3, 2))
        assert chi.denominator_exp == 2 * (6 - 2)


class TestIntersectionVanishing:
    def test_g2_d1_dominated_by_dimension_rule(self):
        for i in range(3):
            verdict = intersection_vanishing(SIGMA0, [i])
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


class TestToric:
    def test_edges_of_sigma0_give_one(self):
        fan = _two_chamber_fan()
        assert toric_full_intersection(fan, list(SIGMA0.generators)) == 1

    def test_mixed_edges_give_zero(self):
        fan = _two_chamber_fan()
        edges = [((1, -1), (-1, 1)), ((1, 1), (1, 1)), ((1, 0), (0, 0))]
        assert toric_full_intersection(fan, edges) == 0

    def test_exhaustive_g2_subsets(self):
        fan = _two_chamber_fan()
        all_rays = sorted({ray for c in fan.cones for ray in c.rays()})
        assert len(all_rays) == 4
        from siegeltoric.cone_lattice import matrix_from_coords
        hits = 0
        for subset in itertools.combinations(all_rays, 3):
            edges = [[[int(x) for x in row]
                      for row in matrix_from_coords(r, 2)] for r in subset]
            expected = 1 if any(set(subset) == c.rays() for c in fan.cones) else 0
            assert toric_full_intersection(fan, edges) == expected
            hits += expected
        assert hits == 2  # exactly the two chambers

    def test_permutation_invariance(self):
        fan = _two_chamber_fan()
        edges = list(SIGMA0.generators)
        for perm in itertools.permutations(range(3)):
            assert toric_full_intersection(fan, [edges[i] for i in perm]) == 1

    def test_duplicate_edges_rejected(self):
        fan = _two_chamber_fan()
        with pytest.raises(ValueError):
            toric_full_intersection(
                fan, [SIGMA0.generators[0]] * 2 + [SIGMA0.generators[1]])

    def test_non_regular_fan_rejected(self):
        bad = MarkedCone(g=2, scale=1, generators=(
            ((2, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 1))))
        from siegeltoric.cone_lattice import ConeShapeError
        with pytest.raises(ConeShapeError):
            toric_full_intersection(Fan(cones=(bad,)), list(bad.generators))

    def test_verdict_wrapper(self):
        fan = _two_chamber_fan()
        v1 = toric_verdict(fan, list(SIGMA0.generators))
        assert v1.value == "one" and v1.reason == ONE_TORIC_COMMON_CONE
        edges = [((1, -1), (-1, 1)), ((1, 1), (1, 1)), ((1, 0), (0, 0))]
        v0 = toric_verdict(fan, edges)
        assert v0.value == "zero" and v0.reason == ZERO_TORIC_EMPTY
