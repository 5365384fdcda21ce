"""numpy oracle for siegeltoric.period_domain.

The binary64 route the package used before its checks became exact:
eigenvalues, singular values and determinants from numpy, compared with
explicit tolerances.  Tests require the exact route to give the same
verdicts, dimensions and reports on seeded inputs.

Conventions (worked once at tau = i*I):
  * psi is the symplectic Gram matrix [[0, -I], [I, 0]], so
    psi(e_i, e_{g+i}) = -1;
  * the filtration of tau is spanned by the columns of [tau; I_g];
  * the positivity form is H = i * F^T psi conj(F), which equals 2*I at
    tau = i*I.

Arithmetic runs in binary64 with numpy's overflow warnings silenced: an
intermediate that leaves the finite range raises a ValueError naming the
stage instead of deciding a verdict on inf or nan.

The checks take a complex matrix as the package does, as the pair
(Re, Im) of Fraction rows, or as anything numpy reads; `exact_pair` and
`exact_rows` turn a numpy matrix into the package's form, and
`complex_array` turns either back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_quiet = np.errstate(over="ignore", invalid="ignore")


def exact_rows(m) -> list[list[Fraction]]:
    """A real matrix as the Fraction rows of its binary64 entries."""
    return [[Fraction(float(v)) for v in row] for row in np.asarray(m, dtype=float)]


def exact_pair(m) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """A complex matrix as the pair (Re, Im) of exact_rows that
    siegeltoric.period_domain takes."""
    m = np.asarray(m, dtype=complex)
    return exact_rows(m.real), exact_rows(m.imag)


def complex_array(m) -> np.ndarray:
    """m as a complex array: a (Re, Im) pair, or anything numpy reads."""
    if isinstance(m, tuple):
        return np.asarray(m[0], dtype=float) + 1j * np.asarray(m[1], dtype=float)
    return np.asarray(m, dtype=complex)


def _finite(stage: str, arr) -> np.ndarray:
    """arr as an array, or a ValueError when an entry is not finite."""
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():
        raise ValueError(f"{stage} is not finite in binary64")
    return arr


def symplectic_form(g: int) -> np.ndarray:
    """Gram matrix [[0, -I_g], [I_g, 0]]; squares to -identity."""
    psi = np.zeros((2 * g, 2 * g))
    psi[:g, g:] = -np.eye(g)
    psi[g:, :g] = np.eye(g)
    return psi


@dataclass(frozen=True)
class CuspNilpotent:
    """Nilpotent direction at the depth-k cusp chain.

    The only nonzero block of the 2g x 2g matrix N sits in rows k+1..g and
    columns g+k+1..2g and equals the symmetric (g-k) x (g-k) matrix u; in
    the positive cone u is positive definite.  N^2 = 0 by construction.
    """

    g: int
    k: int
    u: np.ndarray

    @_quiet
    def __post_init__(self):
        if not 0 <= self.k < self.g:
            raise ValueError(f"need 0 <= k < g, got k={self.k}, g={self.g}")
        u = np.asarray(self.u, dtype=float)
        m = self.g - self.k
        if u.shape != (m, m):
            raise ValueError(f"u must be {m}x{m}, got {u.shape}")
        if np.max(np.abs(_finite("u - u^T", u - u.T))) > 1e-12:
            raise ValueError("u must be symmetric")
        if not np.any(u):
            raise ValueError("u must be nonzero")
        object.__setattr__(self, "u", u)

    @property
    def matrix(self) -> np.ndarray:
        g, k = self.g, self.k
        n = np.zeros((2 * g, 2 * g))
        n[k:g, g + k:2 * g] = self.u
        return n


@_quiet
def siegel_membership(tau: np.ndarray, tol: float) -> bool:
    """tau symmetric within tol and Im(tau) positive definite beyond tol."""
    tau = complex_array(tau)
    if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
        raise ValueError(f"tau must be square, got shape {tau.shape}")
    if np.max(_finite("|tau - tau^T|", np.abs(tau - tau.T))) > tol:
        return False
    im = _finite("Im(tau) + Im(tau)^T", (tau.imag + tau.imag.T) / 2)
    return float(_finite("eigenvalues of Im(tau)", np.linalg.eigvalsh(im)).min()) > tol


def filtration_from_tau(tau: np.ndarray) -> np.ndarray:
    """The 2g x g filtration basis [tau; I_g]."""
    tau = complex_array(tau)
    if not siegel_membership(tau, 1e-12):
        raise ValueError("tau is not in the Siegel space")
    g = tau.shape[0]
    return np.vstack([tau, np.eye(g)])


@_quiet
def riemann_check(filt: np.ndarray, tol: float) -> bool:
    """Riemann bilinear relations for a rank-g filtration basis, or for the
    filtration [tau; I] of a square tau: F^T psi F = 0 and
    H = i F^T psi conj(F) positive definite."""
    f = complex_array(filt)
    if f.ndim == 2 and f.shape[0] == f.shape[1]:
        f = filtration_from_tau(f)
    if f.ndim != 2 or f.shape[0] != 2 * f.shape[1]:
        raise ValueError(f"filtration must be 2g x g, got {f.shape}")
    g = f.shape[1]
    smallest_sv = _finite("singular values of F", np.linalg.svd(f, compute_uv=False)).min()
    if smallest_sv <= tol:
        raise ValueError("filtration basis is rank deficient")
    psi = symplectic_form(g)
    if np.max(_finite("|F^T psi F|", np.abs(f.T @ psi @ f))) > tol:
        return False
    h = 1j * (f.T @ psi @ f.conj())
    h = _finite("i F^T psi conj(F)", (h + h.conj().T) / 2)
    return float(_finite("eigenvalues of H", np.linalg.eigvalsh(h)).min()) > tol


@_quiet
def positive_cone_membership(n: CuspNilpotent, tol: float) -> bool:
    """u symmetric positive definite beyond tol."""
    u = _finite("u + u^T", (n.u + n.u.T) / 2)
    return float(_finite("eigenvalues of u", np.linalg.eigvalsh(u)).min()) > tol


def weight_filtration(n: CuspNilpotent, tol: float):
    """Dimensions (dim Im(N), dim Ker(N)); requires N^2 = 0 within tol,
    which forces Im(N) inside Ker(N).
    """
    mat = n.matrix
    if np.max(np.abs(mat @ mat)) > tol:
        raise ValueError("N^2 != 0 beyond tolerance")
    # the full SVD: gesdd without vectors may round the singular values
    # differently, and the rank tests compare them at the threshold
    s = _finite("singular values of N", np.linalg.svd(mat)[1])
    rank = int(np.sum(s > tol * max(1.0, float(s[0]) if s.size else 1.0)))
    return rank, mat.shape[0] - rank


def exp_i_n(n: CuspNilpotent) -> np.ndarray:
    """exp(iN) = I + iN, exact because N^2 = 0."""
    return np.eye(2 * n.g, dtype=complex) + 1j * n.matrix


def dual_cusp_filtration(n: CuspNilpotent, tau_cusp: np.ndarray | None = None) -> np.ndarray:
    """Filtration basis of the dual cusp.

    Spanned by the dual isotropic directions e_{g+k+1}..e_{2g} together
    with a depth-k Siegel point tau_cusp embedded in the complementary
    symplectic block (e_1..e_k; e_{g+1}..e_{g+k}).  For k = 0 the cusp
    factor is empty and tau_cusp must be omitted.
    """
    g, k = n.g, n.k
    if k == 0:
        if tau_cusp is not None:
            raise ValueError("depth k=0 has no cusp Siegel factor")
        cols = []
    else:
        tau_c = complex_array(tau_cusp)
        if tau_c.shape != (k, k):
            raise ValueError(f"tau_cusp must be {k}x{k}, got {tau_c.shape}")
        if not siegel_membership(tau_c, 1e-12):
            raise ValueError("tau_cusp is not in the depth-k Siegel space")
        cols = []
        for j in range(k):
            col = np.zeros(2 * g, dtype=complex)
            col[:k] = tau_c[:, j]
            col[g + j] = 1.0
            cols.append(col)
    for j in range(g - k):
        col = np.zeros(2 * g, dtype=complex)
        col[g + k + j] = 1.0
        cols.append(col)
    return np.column_stack(cols)


def nilpotent_orbit_check(n: CuspNilpotent, tau_cusp: np.ndarray | None, tol: float) -> bool:
    """exp(iN) applied to the dual cusp filtration lands in the period domain."""
    fdual = dual_cusp_filtration(n, tau_cusp)
    if not positive_cone_membership(n, tol):
        raise ValueError("nilpotent is not in the positive cone")
    return riemann_check(exp_i_n(n) @ fdual, tol)


@_quiet
def assemble_block_tau(tau_prime: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Siegel point from cusp coordinates (tau', Z, S), S = A + iB:

        tau = [[tau',            A - tau' B],
               [(A - tau' B)^T,  Z + B^T tau' B - (A^T B + B^T A)/2]].
    """
    tau_prime = complex_array(tau_prime)
    z = complex_array(z)
    s = complex_array(s)
    a, b = s.real, s.imag
    upper = a - tau_prime @ b
    corner = z + b.T @ tau_prime @ b - (a.T @ b + b.T @ a) / 2
    top = np.hstack([tau_prime, upper])
    bottom = np.hstack([upper.T, corner])
    return _finite("assembled tau", np.vstack([top, bottom]))


@_quiet
def block_volume_identity(tau_prime: np.ndarray, z: np.ndarray,
                          s: np.ndarray, tol: float) -> bool:
    """det Im(tau) = det Im(tau') * det Im(Z) for the assembled block point."""
    tau_prime = complex_array(tau_prime)
    z = complex_array(z)
    s = complex_array(s)
    if not siegel_membership(tau_prime, 1e-12):
        raise ValueError("tau' is not in its Siegel space")
    if not siegel_membership(z, 1e-12):
        raise ValueError("Z is not in its Siegel space")
    if s.shape != (tau_prime.shape[0], z.shape[0]):
        raise ValueError(
            f"S must be {tau_prime.shape[0]}x{z.shape[0]}, got {s.shape}")
    tau = assemble_block_tau(tau_prime, z, s)
    if not siegel_membership(tau, tol):
        return False
    lhs = float(_finite("det Im(tau)", np.linalg.det(tau.imag)))
    rhs = float(_finite("det Im(tau') det Im(Z)",
                        np.linalg.det(tau_prime.imag) * np.linalg.det(z.imag)))
    return abs(lhs - rhs) <= tol * (1 + abs(lhs))


def random_siegel_point(g: int, rng: np.random.Generator) -> np.ndarray:
    """X + i(QQ^T + 0.1 I) with X symmetric; in the Siegel space by construction."""
    x = rng.standard_normal((g, g))
    x = (x + x.T) / 2
    q = rng.standard_normal((g, g))
    return x + 1j * (q @ q.T + 0.1 * np.eye(g))
