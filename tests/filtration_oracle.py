"""Exact oracle for the point checks of siegeltoric.period_domain.

The 2g x g route that `hodge riemann` on a point tau and `hodge
nilpotent` took before they became Riemann checks at a point: the
filtration basis [tau; I] of tau, the dual cusp filtration, the 2g x 2g
nilpotent N and the product (I + iN) F_dual, each built as a matrix of
Fractions and handed to `period_domain.riemann_check` as a 2g x g
filtration basis.  Tests require the package to give the same verdict and
the same error text on seeded inputs.

numpy is not imported, so every test that uses this module runs without
it.
"""

from __future__ import annotations

from fractions import Fraction

from siegeltoric.period_domain import (
    positive_cone_membership,
    riemann_check,
    siegel_membership,
)


def filtration_from_tau(tau):
    """The 2g x g filtration basis [tau; I_g] of a Siegel point tau, as the
    pair (Re, Im) of Fraction rows."""
    if not siegel_membership(tau, 1e-12):
        raise ValueError("tau is not in the Siegel space")
    re, im = tau
    g = len(re)
    return (re + [[Fraction(i == j) for j in range(g)] for i in range(g)],
            im + [[Fraction(0)] * g for _ in range(g)])


def nilpotent_matrix(n) -> list[list[Fraction]]:
    """The 2g x 2g matrix N of a CuspNilpotent: its block u in rows
    k+1..g and columns g+k+1..2g, zero elsewhere."""
    g, k = n.g, n.k
    mat = [[Fraction(0)] * (2 * g) for _ in range(2 * g)]
    for i, row in enumerate(n.u):
        mat[k + i][g + k:] = row
    return mat


def dual_cusp_filtration(n, tau_cusp=None):
    """Filtration basis of the dual cusp.

    Spanned by the dual isotropic directions e_{g+k+1}..e_{2g} together
    with a depth-k Siegel point tau_cusp embedded in the complementary
    symplectic block (e_1..e_k; e_{g+1}..e_{g+k}).  For k = 0 the cusp
    factor is empty and tau_cusp must be omitted.
    """
    g, k = n.g, n.k
    re = [[Fraction(0)] * g for _ in range(2 * g)]
    im = [[Fraction(0)] * g for _ in range(2 * g)]
    if k == 0:
        if tau_cusp is not None:
            raise ValueError("depth k=0 has no cusp Siegel factor")
    else:
        if tau_cusp is None:
            raise ValueError(f"tau_cusp must be {k}x{k}, got none")
        rows, cols = len(tau_cusp[0]), len(tau_cusp[0][0])
        if (rows, cols) != (k, k):
            raise ValueError(f"tau_cusp must be {k}x{k}, got {rows}x{cols}")
        if not siegel_membership(tau_cusp, 1e-12):
            raise ValueError("tau_cusp is not in the depth-k Siegel space")
        for i in range(k):
            re[i][:k], im[i][:k] = tau_cusp[0][i], tau_cusp[1][i]
            re[g + i][i] = Fraction(1)
    for j in range(k, g):
        re[g + j][j] = Fraction(1)
    return re, im


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def riemann_on_tau(tau, tol) -> bool:
    """`hodge riemann` on a square tau: the 2g x g check of [tau; I]."""
    return riemann_check(filtration_from_tau(tau), tol)


def nilpotent_orbit_check(n, tau_cusp, tol) -> bool:
    """`hodge nilpotent`: exp(iN) = I + iN applied to the dual cusp
    filtration, then the 2g x g check."""
    re, im = dual_cusp_filtration(n, tau_cusp)
    if not positive_cone_membership(n, tol):
        raise ValueError("nilpotent is not in the positive cone")
    nm = nilpotent_matrix(n)
    # (I + iN)(Re + i Im) = (Re - N Im) + i (Im + N Re)
    return riemann_check(
        ([[x - y for x, y in zip(r, s)] for r, s in zip(re, _mul(nm, im))],
         [[x + y for x, y in zip(r, s)] for r, s in zip(im, _mul(nm, re))]),
        tol)
