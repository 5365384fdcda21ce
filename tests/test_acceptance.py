"""Acceptance criteria.

Each test prints one PASS/FAIL line (always visible, even with captured
output) and pins the stated tolerance and time budget.  Budgets are wall
clock on the checked computation only, measured after a warm-up where the
budget is tight.
"""

import itertools
import json
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from siegeltoric.catalog import catalog_get, catalog_names, principal_cone
from siegeltoric.cone_lattice import (
    GroupElement,
    MarkedCone,
    is_fan,
    is_separable,
    primitive_ray,
    psd_rank,
    rational_det,
    sym_dim,
)
from siegeltoric.exact_algebra import MultiPoly, pencil_det, poly_to_json
from siegeltoric.period_domain import (
    CuspNilpotent,
    block_volume_identity,
    nilpotent_orbit_check,
    riemann_check,
)
from siegeltoric.residue_intersect import (
    chi_descriptor,
    intersection_vanishing,
    residue_chain,
    toric_verdict,
)
from siegeltoric.volume_ke import (
    det_t_symbolic,
    is_ke_point,
    ma_rhs,
    verify_ma_identity,
    volume_function,
)
from siegeltoric.cone_lattice import Fan, gl_act

from naive_oracle import g2_closed_form, g2_rows_to_pencil, reindexed
from period_domain_oracle import exact_pair, exact_rows, random_siegel_point
from t_matrix_oracle import degree_profile, volume_function_from_pencil

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def announce(capsys, criterion, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {status} {criterion} ({elapsed * 1000:.1f} ms, "
              f"budget {budget * 1000:.0f} ms)")
    assert ok, criterion
    assert elapsed < budget, f"{criterion}: {elapsed:.3f}s over budget {budget}s"


def test_criterion_01_ma_identity_g1(capsys):
    cone = MarkedCone(g=1, scale=1, generators=(((1,),),))
    v = volume_function(cone)
    is_ke_point(cone)  # warm-up
    t0 = time.perf_counter()
    holds = is_ke_point(cone)
    elapsed = time.perf_counter() - t0
    ok = holds and det_t_symbolic(v) == ma_rhs(v) == MultiPoly.const(1, -1)
    announce(capsys, "criterion 1: MA identity g=1 symbolic", ok, elapsed, 0.001)


def test_criterion_02_ma_identity_g2(capsys):
    cone = catalog_get("principal-g2").cone
    v = volume_function(cone)
    t0 = time.perf_counter()
    det_t = det_t_symbolic(v)
    ok = (is_ke_point(cone) and det_t == ma_rhs(v)
          and ma_rhs(v) == (v.F ** 3).scale(-2)
          and det_t.eval_at([1, 1, 1]) == -54)
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 2: MA identity g=2 principal cone", ok, elapsed, 1.0)


def test_criterion_03_ma_identity_g3_randomized(capsys):
    v = volume_function(catalog_get("principal-g3").cone)
    assert v.nvars == 6 and v.vol == 1
    t0 = time.perf_counter()
    first = verify_ma_identity(v, trials=20, seed=2024)
    second = verify_ma_identity(v, trials=20, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = first.holds and first == second and len(first.witnesses) == 0
    announce(capsys, "criterion 3: MA identity g=3 randomized (20 points, "
                     "seed-reproducible)", ok, elapsed, 60.0)


def test_criterion_03b_ma_identity_g3_symbolic(capsys):
    cone = catalog_get("principal-g3").cone
    t0 = time.perf_counter()
    holds = is_ke_point(cone)
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 3b: MA identity g=3 full symbolic",
             holds, elapsed, 1.0)


def test_criterion_04_g2_closed_form(capsys):
    rng = random.Random(404)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    while checked < 10:
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        if rational_det(rows) == 0:
            continue
        f = pencil_det(g2_rows_to_pencil(rows))
        a, b, c, l, m, n = g2_closed_form(rows)
        ok = ok and (
            f.coeff((2, 0, 0)) == a and f.coeff((0, 2, 0)) == b
            and f.coeff((0, 0, 2)) == c and f.coeff((1, 1, 0)) == l
            and f.coeff((1, 0, 1)) == m and f.coeff((0, 1, 1)) == n)
        checked += 1
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 4: g=2 closed-form coefficients (10 pencils)",
             ok, elapsed, 1.0)


def _random_psd_pencil(rng, g):
    n = sym_dim(g)
    while True:
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
        if psd_rank(total) == g:
            return mats


def test_criterion_05_degree_lemma(capsys):
    rng = random.Random(505)
    t0 = time.perf_counter()
    ok = True
    for name in catalog_names():
        prof = degree_profile(volume_function(catalog_get(name).cone))
        ok = ok and prof.ok
    for _ in range(25):
        g = rng.choice((2, 3))
        mats = _random_psd_pencil(rng, g)
        f = pencil_det(mats)
        if f.is_zero():
            continue
        ok = ok and degree_profile(volume_function_from_pencil(mats, vol=1)).ok
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 5: degree lemma deg_i F = rank A_i "
                     "(catalog + 25 random PSD pencils)", ok, elapsed, 5.0)


def test_criterion_06_residue_algorithm(capsys):
    t0 = time.perf_counter()
    v2 = volume_function(catalog_get("principal-g2").cone)
    rc2 = residue_chain(v2, 1)
    y_plus_z = MultiPoly(3, {(0, 1, 0): 1, (0, 0, 1): 1})
    ok = rc2.S[1] == y_plus_z and rc2.gd.is_zero()
    ok = ok and chi_descriptor(rc2).constant == Fraction(9, 8)

    with open(os.path.join(GOLDEN_DIR, "residue_g3_d1.json")) as fh:
        golden = json.load(fh)
    v3 = volume_function(catalog_get("principal-g3").cone)
    rc3 = residue_chain(v3, golden["d"])
    ok = ok and len(rc3.S) == len(golden["S"])
    for got, want in zip(rc3.S, golden["S"]):
        ok = ok and poly_to_json(got) == want
    ok = ok and poly_to_json(rc3.gd) == golden["g_d"]
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 6: residue algorithm (g=2 trace, g=3 golden file)",
             ok, elapsed, 10.0)


def test_criterion_07_intersection_verdicts(capsys):
    t0 = time.perf_counter()
    ok = True
    for name in catalog_names():
        cone = catalog_get(name).cone
        n = sym_dim(cone.g)
        for d in range(max(cone.g - 1, 1), n):
            for sel in itertools.combinations(range(n), d):
                verdict = intersection_vanishing(cone, list(sel))
                ok = ok and verdict.value == "zero"

    sigma0 = principal_cone(2)
    gamma = GroupElement(matrix=((1, 0), (1, 1)))
    fan = Fan(cones=(sigma0, gl_act(gamma, sigma0)))
    hits = 0
    for subset in itertools.combinations(range(len(fan.rays)), 3):
        expected = 1 if any(set(subset) == set(ids) for ids in fan.ray_ids) else 0
        got = 1 if toric_verdict(fan, subset).value == "one" else 0
        ok = ok and got == expected
        hits += got
    ok = ok and hits == 2
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 7: intersection verdicts (d >= g-1 zero, "
                     "toric 0/1 exhaustive)", ok, elapsed, 5.0)


def test_criterion_08_separability_counterexample(capsys):
    sigma0 = principal_cone(2)
    swap = GroupElement(matrix=((0, 1), (1, 0)))
    t0 = time.perf_counter()
    violations = is_separable(Fan(cones=(sigma0,)), [swap])
    elapsed = time.perf_counter() - t0
    ok = bool(violations) and violations[0].cone_index == 0
    announce(capsys, "criterion 8: coordinate swap breaks separability of "
                     "the g=2 principal cone", ok, elapsed, 1.0)


def test_criterion_09_period_domain_suite(capsys):
    tol = 1e-9
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        tau = random_siegel_point(2, rng)
        ok = ok and riemann_check(exact_pair(tau), tol)

    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        im = q @ np.diag(rng.uniform(0.5, 2.0, size=2)) @ q.T
        x = rng.standard_normal((2, 2))
        tau_p = (x + x.T) / 2 + 1j * im
        z = np.array([[rng.standard_normal() + 1j * rng.uniform(0.5, 2.0)]])
        s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        ok = ok and block_volume_identity(exact_pair(tau_p), exact_pair(z), exact_pair(s),
                                          1e-8)

    for _ in range(100):
        g = int(rng.integers(2, 4))
        k = int(rng.integers(0, g))
        q = rng.standard_normal((g - k, g - k))
        u = q @ q.T + 0.1 * np.eye(g - k)
        tau_c = exact_pair(random_siegel_point(k, rng)) if k else None
        n = CuspNilpotent(g=g, k=k, u=exact_rows(u))
        ok = ok and nilpotent_orbit_check(n, tau_c, tol)
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 9: period-domain suite (1000 Riemann, "
                     "100 block identities, 100 nilpotent orbits)", ok, elapsed, 30.0)


def test_criterion_10_permutation_symmetry(capsys):
    rng = random.Random(1010)
    t0 = time.perf_counter()
    ok = True
    for name in ("principal-g2", "principal-g2-level-3"):
        cone = catalog_get(name).cone
        for perm in itertools.permutations(range(3)):
            permuted = MarkedCone(g=2, scale=cone.scale,
                                  generators=[cone.generators[i] for i in perm])
            ok = ok and permuted.index == cone.index and is_ke_point(permuted)

    checked = 0
    while checked < 10:
        mats = []
        for _ in range(3):
            r = [rng.randint(-4, 4) for _ in range(3)]
            mats.append([[r[0], r[1]], [r[1], r[2]]])
        if any(all(v == 0 for row in m for v in row) for m in mats):
            continue
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = pencil_det([mats[i] for i in perm])
        ok = ok and reindexed(permuted.terms, perm) == pencil_det(mats).terms
        checked += 1
    elapsed = time.perf_counter() - t0
    announce(capsys, "criterion 10: permutation symmetry (6 permutations, "
                     "10 random pencils, exact term maps)", ok, elapsed, 5.0)


def _g3_translate_fan(size, seed):
    """`size` distinct GL(3,Z) translates of principal-g3, each moved by a
    short random walk of elementary row operations."""
    rng = random.Random(seed)
    base = catalog_get("principal-g3").cone
    cones, seen = [], set()
    while len(cones) < size:
        m = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(3), 2)
            s = rng.choice((1, -1))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
        cone = gl_act(GroupElement(matrix=tuple(map(tuple, m))), base)
        rays = frozenset(map(primitive_ray, cone.coords))
        if rays not in seen:
            seen.add(rays)
            cones.append(cone)
    return cones


def test_criterion_11_genus3_fan_frontier(capsys):
    cones = _g3_translate_fan(16, 1111)
    sigma = gl_act(GroupElement(matrix=((1, 0, 0), (1, 1, 0), (0, -1, 1))),
                   catalog_get("principal-g3").cone)
    u = sigma.generators
    merged = tuple(tuple(a + b for a, b in zip(r0, r1)) for r0, r1 in zip(u[0], u[1]))
    # tau lies in sigma but u0 + u1 is inside the face {u0, u1}, so the
    # intersection tau is not a face of sigma and generator 0 escapes
    tau = MarkedCone(g=3, scale=1, generators=(merged,) + u[2:])
    t0 = time.perf_counter()
    fan_violations = is_fan(Fan(cones=cones))
    pair_violations = is_fan(Fan(cones=(sigma, tau)))
    elapsed = time.perf_counter() - t0
    ok = fan_violations == () and pair_violations == (
        "cones 0 and 1: intersection is not a face of cone 0 (generator 0 escapes)",)
    announce(capsys, "criterion 11: genus-3 fan check (16 GL(3,Z) translates of "
                     "principal-g3, one non-fan pair)", ok, elapsed, 5.0)


@pytest.mark.parametrize("size, rays", [(64, 66), (128, 95)])
def test_criterion_11_ray_table(size, rays):
    # translates share most of their rays: 6 generator slots per cone
    cones = _g3_translate_fan(size, 1111)
    fan = Fan(cones=cones)
    assert (len(fan.rays), sum(map(len, fan.ray_ids))) == (rays, 6 * size)
    assert fan.rays == tuple(sorted({primitive_ray(u) for c in cones for u in c.coords}))
    assert all(fan.rays[ids[k]] == primitive_ray(u)
               for c, ids in zip(cones, fan.ray_ids) for k, u in enumerate(c.coords))
