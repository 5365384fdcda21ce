"""`hodge riemann` on a point and `hodge nilpotent` against the route
they replaced.

period_domain checks a square tau on F = [tau; I], which it stacks inside
riemann_check, and the nilpotent-orbit test as the Riemann check at the
point diag(tau_cusp, i u), since exp(iN) = I + iN takes the dual cusp
filtration exactly to [diag(tau_cusp, i u); I].  The old route, kept in
tests/filtration_oracle.py, builds [tau; I], the dual cusp filtration, N
and the product (I + iN) F_dual as matrices and runs the 2g x g check on
them.  On seeded exact inputs both give the same verdict or the same
ValueError, type and text: square tau at g = 1..8, symmetric and
asymmetric within 1e-12, with tol below the asymmetry, on both sides of
the smallest eigenvalue of H and at or above 1, where the rank-deficiency
error is reached; nilpotents at every depth 0 <= k < g with u and
tau_cusp asymmetric within 1e-12; and every error path of
nilpotent_orbit_check, in order.  The smallest eigenvalues are known by
construction: Y = R D R^T with R a product of rational Givens rotations.

riemann_check reads F*F, F^T psi F and H off six real products of
R = Re F and J = Im F; the oracle riemann_by_complex_products forms them
as three complex products, and the two must agree on square and 2g x g
inputs whose entries spread over 2^(+-200).
"""

import random
from fractions import Fraction

import pytest

from siegeltoric.period_domain import (
    HODGE_GENUS_MAX,
    CuspNilpotent,
    nilpotent_orbit_check,
    riemann_check,
)

import filtration_oracle as old

# (cos, sin) of rational rotations
ROTATIONS = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
             (Fraction(8, 17), Fraction(15, 17))]

RANK_DEFICIENT = "ValueError: filtration basis is rank deficient"
OUTSIDE = "ValueError: tau is not in the Siegel space"
NOT_POSITIVE = "ValueError: nilpotent is not in the positive cone"


def outcome(check, *args):
    """The verdict of check(*args), or the type and text of its ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def with_eigenvalues(rng, eigenvalues):
    """R diag(eigenvalues) R^T for R a product of rational Givens rotations
    of adjacent coordinates, in random order: symmetric, with exactly
    these eigenvalues."""
    m = len(eigenvalues)
    r = [[Fraction(i == j) for j in range(m)] for i in range(m)]
    for i in rng.sample(range(m - 1), m - 1):
        c, s = rng.choice(ROTATIONS)
        for row in r:
            row[i], row[i + 1] = c * row[i] - s * row[i + 1], s * row[i] + c * row[i + 1]
    return [[sum(r[i][t] * eigenvalues[t] * r[j][t] for t in range(m)) for j in range(m)]
            for i in range(m)]


def siegel_point(rng, g, scale):
    """X + iY with X symmetric and Y positive definite, and the smallest
    eigenvalue of Y."""
    d = [scale * Fraction(rng.randint(1, 16), 8) for _ in range(g)]
    x = [[Fraction(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x[i][j] = x[j][i] = scale * Fraction(rng.randint(-8, 8), 8)
    return (x, with_eigenvalues(rng, d)), min(d)


def skewed(rng, a, size=None):
    """A copy of the square matrix a with one off-diagonal entry moved by
    size, or by at most 7e-13, which keeps a symmetric within 1e-12."""
    i, j = rng.sample(range(len(a)), 2)
    b = [list(row) for row in a]
    b[i][j] += size if size is not None else rng.choice((-1, 1)) * Fraction(
        rng.randint(1, 7), 10 ** 13)
    return b


def tols(h_min):
    """Below a 1e-13 asymmetry, the default, both sides of and at the
    smallest eigenvalue h_min of H, and up to past 1."""
    return [1e-14, 1e-9, h_min * (1 - Fraction(1, 10 ** 9)), h_min,
            h_min * (1 + Fraction(1, 10 ** 9)), 0.5, 1, 1.5, 3]


def tau_cases():
    rng = random.Random(4646)
    for g in range(1, HODGE_GENUS_MAX + 1):
        for _ in range(2):
            (x, y), y_min = siegel_point(rng, g, rng.choice((Fraction(1, 4), 1, 4)))
            points = [(x, y), (x, [[-v for v in row] for row in y])]
            if g > 1:
                points += [(skewed(rng, x), y), (x, skewed(rng, y)),
                           (skewed(rng, x, Fraction(3, 10 ** 12)), y)]
            for tau in points:
                for tol in tols(2 * y_min):
                    yield tau, tol


def test_riemann_on_tau_matches_filtration_route():
    seen = set()
    for tau, tol in tau_cases():
        want = outcome(old.riemann_on_tau, tau, tol)
        assert outcome(riemann_check, tau, tol) == want, (tau, tol)
        seen.add(want)
    assert seen == {True, False, RANK_DEFICIENT, OUTSIDE}


def test_riemann_genus_guard_comes_first():
    g = HODGE_GENUS_MAX + 1
    tau = ([[Fraction(0)] * g for _ in range(g)], [[Fraction(-1)] * g for _ in range(g)])
    want = outcome(old.riemann_on_tau, tau, 1e-9)
    assert want.startswith("CostGuardError: period-domain checks limited to")
    assert outcome(riemann_check, tau, 1e-9) == want


def spread_cases():
    """Seeded inputs at g <= 5, entries scaled by 2^k with |k| <= 200: a
    point tau, with Im tau positive definite or negated, symmetric or
    skewed within or beyond 1e-12, taken as it is or as the basis
    [tau; I](A + iB) for small integer A and B, singular or not."""
    rng = random.Random(5252)
    for _ in range(360):
        g = rng.randint(1, 5)
        (x, y), _ = siegel_point(rng, g, 1)
        if rng.random() < 0.3:
            y = [[-v for v in row] for row in y]
        if g > 1 and rng.random() < 0.5:
            size = rng.choice((None, Fraction(3, 10 ** 12), Fraction(1, 8)))
            if rng.random() < 0.5:
                x = skewed(rng, x, size)
            else:
                y = skewed(rng, y, size)
        f = (x, y)
        if rng.random() < 0.6:
            a, b = ([[Fraction(rng.randint(-2, 2)) for _ in range(g)] for _ in range(g)]
                    for _ in range(2))
            top = old._cmul((x, y), (a, b))
            f = (top[0] + a, top[1] + b)
        scale = Fraction(2) ** rng.choice((0, rng.randint(-200, 200)))
        yield (tuple([[scale * v for v in row] for row in part] for part in f),
               rng.choice((1e-15, 1e-9, 1e-3, 0.5, 1, 2)))


def test_riemann_matches_complex_products():
    seen = set()
    for f, tol in spread_cases():
        want = outcome(old.riemann_by_complex_products, f, tol)
        assert outcome(riemann_check, f, tol) == want, (f, tol)
        seen.add(want)
    assert seen == {True, False, RANK_DEFICIENT, OUTSIDE}


def nilpotent_cases():
    rng = random.Random(4647)
    for g in range(1, HODGE_GENUS_MAX + 1):
        for k in range(g):
            m = g - k
            scale = rng.choice((Fraction(1, 4), 1, 4))
            d = [scale * Fraction(rng.randint(1, 16), 8) for _ in range(m)]
            u = with_eigenvalues(rng, d)
            blocks = [u, with_eigenvalues(rng, [-v for v in d])]
            if m > 1:
                blocks.append(skewed(rng, u))
                blocks.append(with_eigenvalues(rng, [-d[0]] + d[1:]))
            tau_cusp, c_min = None, d[0]
            if k:
                tau_cusp, c_min = siegel_point(rng, k, rng.choice((Fraction(1, 4), 1, 4)))
                if k > 1 and rng.random() < 0.5:
                    tau_cusp = (skewed(rng, tau_cusp[0]), skewed(rng, tau_cusp[1]))
            for block in blocks:
                n = CuspNilpotent(g=g, k=k, u=block)
                for tol in tols(2 * min(min(d), c_min)):
                    yield n, tau_cusp, tol


def test_nilpotent_matches_orbit_route():
    seen = set()
    for n, tau_cusp, tol in nilpotent_cases():
        want = outcome(old.nilpotent_orbit_check, n, tau_cusp, tol)
        assert outcome(nilpotent_orbit_check, n, tau_cusp, tol) == want, (n.u, tau_cusp, tol)
        seen.add(want)
    assert seen == {True, False, RANK_DEFICIENT, NOT_POSITIVE}


def _pair(re, im):
    return tuple([[Fraction(v) for v in row] for row in part] for part in (re, im))


NEGATIVE = [[Fraction(-1)]]


@pytest.mark.parametrize("g,k,u,tau_cusp,tol,want", [
    # each fault first, with a later fault present where one can be
    (2, 0, [[-1, 0], [0, -1]], _pair([[0]], [[1]]), 1.5,
     "ValueError: depth k=0 has no cusp Siegel factor"),
    (2, 0, [[2, 0], [0, 2]], _pair([[]], [[]]), 1e-9,
     "ValueError: depth k=0 has no cusp Siegel factor"),
    (2, 1, NEGATIVE, None, 1.5, "ValueError: tau_cusp must be 1x1, got none"),
    (2, 1, NEGATIVE, _pair([[0, 0], [0, 0]], [[1, 0], [0, 1]]), 1.5,
     "ValueError: tau_cusp must be 1x1, got 2x2"),
    (3, 2, [[-1]], _pair([[0], [0]], [[1], [1]]), 1.5,
     "ValueError: tau_cusp must be 2x2, got 2x1"),
    (2, 1, NEGATIVE, _pair([[0]], [[-1]]), 1.5,
     "ValueError: tau_cusp is not in the depth-k Siegel space"),
    (3, 2, [[-1]], _pair([[0, Fraction(3, 10 ** 12)], [0, 0]], [[1, 0], [0, 1]]), 1.5,
     "ValueError: tau_cusp is not in the depth-k Siegel space"),
    # the positive cone before the Riemann check, which would raise or fail
    (2, 1, NEGATIVE, _pair([[0]], [[Fraction(1, 10)]]), 1.5, NOT_POSITIVE),
    (2, 1, NEGATIVE, _pair([[0]], [[1]]), 1e-9, NOT_POSITIVE),
    (2, 1, [[1]], _pair([[0]], [[2]]), 1.5, NOT_POSITIVE),
    # u passes the cone beyond tol >= 1, the cusp factor is small
    (2, 1, [[4]], _pair([[0]], [[Fraction(1, 10)]]), 1.5, RANK_DEFICIENT),
    # Riemann's relations at the point decide
    (2, 1, [[4]], _pair([[0]], [[Fraction(1, 10)]]), 0.5, False),
    (2, 1, [[4]], _pair([[0]], [[1]]), 1e-9, True),
], ids=["depth-0-factor", "depth-0-empty-factor", "no-factor", "factor-2x2", "factor-2x1",
        "factor-outside", "factor-asymmetric", "cone-before-rank", "cone-before-riemann",
        "cone-at-tol", "rank-deficient", "positivity-fails", "holds"])
def test_nilpotent_error_paths_in_order(g, k, u, tau_cusp, tol, want):
    n = CuspNilpotent(g=g, k=k, u=[[Fraction(v) for v in row] for row in u])
    assert outcome(old.nilpotent_orbit_check, n, tau_cusp, tol) == want
    assert outcome(nilpotent_orbit_check, n, tau_cusp, tol) == want
