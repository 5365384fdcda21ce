"""Exact checks on the Siegel space, its period-domain model, and cusps.

Siegel membership, the Hodge filtration attached to a point tau, the
Riemann bilinear relations, weight filtrations, the nilpotent-orbit test
exp(iN) Fdual of a nilpotent in the positive cone, and the block
determinant identity det Im(tau) = det Im(tau') det Im(Z), each with an
explicit tolerance.

Conventions (worked once at tau = i*I):
  * psi is the symplectic Gram matrix [[0, -I], [I, 0]], so
    psi(e_i, e_{g+i}) = -1;
  * the filtration of tau is spanned by the columns of [tau; I_g];
  * the positivity form is H = i * F^T psi conj(F), which equals 2*I at
    tau = i*I.

A complex matrix is the pair CMatrix = (Re, Im) of Fraction matrices and
a real one, like the block u of a cusp nilpotent, is one Fraction matrix.
The JSON readers of jsonio build them once, from the binary64 values of
the file (every binary64 number is a rational), as nonempty rectangular
matrices with Re and Im of one shape; the checks take them as they are
and test only the shapes they need.  So each check is decided exactly on
its inputs: nothing is rounded and no intermediate can overflow.  Each
tolerance keeps its binary64 meaning and becomes a test of positive
definiteness (Rump, "Verification of positive definiteness", BIT 46,
2006), which psd_rank decides on the Bareiss kernel of cone_lattice:
  * the smallest eigenvalue of a symmetric M exceeds tol exactly when
    M - tol I is positive definite; a Hermitian A + iB is tested through
    its real embedding [[A, -B], [B, A]], which has the same eigenvalues,
    each twice;
  * the smallest singular value of F is <= tol exactly when
    F*F - tol^2 I is not positive definite;
  * an entry bound |z| <= tol is re^2 + im^2 <= tol^2.
A square input to riemann_check is a Siegel point tau, checked on
F = [tau; I].  exp(iN) = I + iN takes the dual cusp filtration exactly to
[diag(tau_cusp, i u); I], so the nilpotent-orbit test is the Riemann
check at that point; like psi and the assembled block point, [tau; I] is
built inside the checks, not exported.
The one count, the rank of weight_filtration, is made exactly by
Descartes' rule of signs on a characteristic polynomial that
exact_algebra.pencil_det expands (see there).

Exact elimination grows steeply with the genus, so every check refuses
g > HODGE_GENUS_MAX with a CostGuardError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cone_lattice import psd_rank, quote, rational_det
from .exact_algebra import pencil_det
from .volume_ke import CostGuardError

# The worst inputs found are Riemann checks of a point whose entries
# spread over the binary64 range (integers of about 2000 bits after
# scaling): 1.3 s per fresh process at g = 8, 2.2 s at g = 9 and 4.0 s at
# g = 10 on a 2-CPU machine; cli-mix-style points take 0.2 s at g = 12.
HODGE_GENUS_MAX = 8

Matrix = list[list[Fraction]]
CMatrix = tuple[Matrix, Matrix]


def _check_genus(g: int) -> None:
    if g > HODGE_GENUS_MAX:
        raise CostGuardError(
            f"period-domain checks limited to g <= {HODGE_GENUS_MAX}, got g={quote(g)}")


# ----------------------------------------------------------------------
# exact matrices


def _shape(m: CMatrix) -> tuple[int, int]:
    return len(m[0]), len(m[0][0])


def _t(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _neg(a: Matrix) -> Matrix:
    return [[-v for v in row] for row in a]


def _add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _int_scaled(a: Matrix) -> tuple[list[list[int]], int]:
    """a times one common denominator d, as ints, and d.  Not the per-row
    `exactlp.scaled_row`: `_mul` divides the integer product by da * db,
    and weight_filtration reads A = U^T U = D^2 u^T u, both of which need
    one scale for the whole matrix."""
    d = math.lcm(*(v.denominator for row in a for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in a], d


def _mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product, over one integer product and a common denominator."""
    (ai, da), (bi, db) = _int_scaled(a), _int_scaled(b)
    cols = list(zip(*bi))
    return [[Fraction(sum(x * y for x, y in zip(row, col)), da * db) for col in cols]
            for row in ai]


def _psi(a: Matrix) -> Matrix:
    """psi a = [-bottom; top] for psi = [[0, -I], [I, 0]]."""
    g = len(a) // 2
    return _neg(a[g:]) + [list(row) for row in a[:g]]


def _entry_above(z: CMatrix, tol) -> bool:
    """Some entry of z has modulus above tol."""
    t2 = Fraction(tol) ** 2
    return any(x * x + y * y > t2 for rx, ry in zip(*z) for x, y in zip(rx, ry))


def _min_eig_above(m: Matrix, tol) -> bool:
    """The smallest eigenvalue of the symmetric part of m exceeds tol:
    that part minus tol I is positive definite."""
    t = Fraction(tol)
    n = len(m)
    shifted = [[(m[i][j] + m[j][i]) / 2 - (t if i == j else 0) for j in range(n)]
               for i in range(n)]
    return psd_rank(shifted) == n


def _hermitian_min_eig_above(z: CMatrix, tol) -> bool:
    """The same for the Hermitian part of z = A + iB, through the real
    embedding [[A, -B], [B, A]], whose symmetric part embeds it."""
    a, b = z
    embedding = ([ra + [-v for v in rb] for ra, rb in zip(a, b)]
                 + [rb + ra for ra, rb in zip(a, b)])
    return _min_eig_above(embedding, tol)


# ----------------------------------------------------------------------
# public checks


class CuspNilpotent:
    """Nilpotent direction at the depth-k cusp chain.

    The only nonzero block of the 2g x 2g matrix N sits in rows k+1..g and
    columns g+k+1..2g and equals the symmetric (g-k) x (g-k) matrix u of
    Fractions; in the positive cone u is positive definite.  N^2 = 0 by
    construction.
    """

    def __init__(self, g: int, k: int, u: Matrix):
        if not 0 <= k < g:
            raise ValueError(f"need 0 <= k < g, got k={quote(k)}, g={quote(g)}")
        _check_genus(g)
        m = g - k
        if len(u) != m or any(len(row) != m for row in u):
            raise ValueError(f"u must be {m}x{m}, got {len(u)}x{len(u[0])}")
        if any(abs(x - y) > Fraction(1e-12) for rx, ry in zip(u, _t(u))
               for x, y in zip(rx, ry)):
            raise ValueError("u must be symmetric")
        if not any(any(row) for row in u):
            raise ValueError("u must be nonzero")
        self.g = g
        self.k = k
        self.u: tuple[tuple[Fraction, ...], ...] = tuple(map(tuple, u))


def siegel_membership(tau: CMatrix, tol: float) -> bool:
    """tau symmetric within tol and Im(tau) positive definite beyond tol."""
    n, m = _shape(tau)
    _check_genus(n)
    if n != m:
        raise ValueError(f"tau must be square, got {n}x{m}")
    re, im = tau
    if _entry_above((_sub(re, _t(re)), _sub(im, _t(im))), tol):
        return False
    return _min_eig_above(im, tol)


def riemann_check(filt: CMatrix, tol: float) -> bool:
    """Riemann bilinear relations F^T psi F = 0 and H = i F^T psi conj(F)
    positive definite, for a rank-g filtration basis F (2g x g).  A square
    input is taken as a Siegel point tau and checked on F = [tau; I]; any
    other shape is refused with the 2g x g message."""
    n, g = _shape(filt)
    if n not in (g, 2 * g):
        raise ValueError(f"filtration must be 2g x g, got {n}x{g}")
    _check_genus(g)
    if n == g:
        if not siegel_membership(filt, 1e-12):
            raise ValueError("tau is not in the Siegel space")
        filt = (filt[0] + [[Fraction(i == j) for j in range(g)] for i in range(g)],
                filt[1] + [[Fraction(0)] * g for _ in range(g)])
    return _riemann(filt, tol)


def _riemann(f: CMatrix, tol) -> bool:
    """The three forms of F = R + iJ from six real products; psi^T = -psi
    gives J^T R = W^T and J^T psi R = -V^T for W = R^T J, V = R^T psi J:
    F*F = (R^T R + J^T J) + i(W - W^T),
    F^T psi F = (R^T psi R - J^T psi J) + i(V - V^T),
    H = (V + V^T) + i(R^T psi R + J^T psi J)."""
    r, j = f
    rt, jt = _t(r), _t(j)
    w, v = _mul(rt, j), _mul(rt, _psi(j))
    rpr, jpj = _mul(rt, _psi(r)), _mul(jt, _psi(j))
    if not _hermitian_min_eig_above((_add(_mul(rt, r), _mul(jt, j)), _sub(w, _t(w))),
                                    Fraction(tol) ** 2):
        raise ValueError("filtration basis is rank deficient")
    if _entry_above((_sub(rpr, jpj), _sub(v, _t(v))), tol):
        return False
    return _hermitian_min_eig_above((_add(v, _t(v)), _add(rpr, jpj)), tol)


def weight_filtration(n: CuspNilpotent, tol: float) -> tuple[int, int]:
    """Dimensions (dim Im(N), dim Ker(N)) of the weight filtration
    W_0 = Im(N) inside W_1 = Ker(N); N^2 = 0 by the block layout.

    The rank counts the singular values s of N, which are those of u,
    with s > tol * max(1, s_max'), where s_max' is the largest one
    rounded up to 53 significant bits, as a floating-point SVD compares
    with a binary64 s_max.  Every comparison is exact: with u = U / D for
    an integer matrix U, the eigenvalues of A = U^T U are D^2 s^2, all
    real, so Descartes' rule of signs counts exactly those above any
    rational x, as the sign changes of the coefficients of
    det((y + x) I - A) in y.  The coefficients of det(x I - A) are those
    of x_0^i x_1^(m-i) in the pencil determinant det(x_0 I - x_1 A),
    whose Laplace expansion never divides.  s_max <= x is the count 0
    above D^2 x^2, so s_max' is found by binary search over the 53-bit
    numbers.  Its rounding moves the threshold by at most a relative
    2^-52, and spares deciding whether an eigenvalue equals tol^2 times an irrational one.
    """
    g, k = n.g, n.k
    m = g - k
    ints, d = _int_scaled(n.u)
    f = pencil_det([[[int(i == j) for j in range(m)] for i in range(m)],
                    [[-sum(ints[r][i] * ints[r][j] for r in range(m)) for j in range(m)]
                     for i in range(m)]])
    p = [int(f.coeff((i, m - i))) for i in range(m + 1)]

    def at_most(x: Fraction) -> bool:  # s_max <= x
        return _roots_above(p, d * d * x * x) == 0

    s_max = Fraction(1)
    if not at_most(s_max):
        top = 1
        while not at_most(Fraction(2) ** top):
            top *= 2
        # the 53-bit numbers in [1, 2^top], in order: index i is
        # (2^52 + i mod 2^52) 2^(i div 2^52 - 52)
        lo, hi = 0, top << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if at_most(_from_index(mid)):
                hi = mid
            else:
                lo = mid + 1
        s_max = _from_index(lo)
    rank = _roots_above(p, (d * Fraction(tol) * s_max) ** 2)
    return rank, 2 * g - rank


def _from_index(i: int) -> Fraction:
    e, k = divmod(i, 1 << 52)
    return (2 ** 52 + k) * Fraction(2) ** (e - 52)


def _roots_above(p: list[int], x: Fraction) -> int:
    """Roots above x, with multiplicity, of a real-rooted integer
    polynomial p (lowest degree first): by Descartes' rule of signs, exact
    when every root is real, the sign changes of the coefficients of
    p(y + x), shifted on integers as b^m p((y + a) / b) for x = a / b."""
    a, b = x.numerator, x.denominator
    m = len(p) - 1
    h = [c * b ** (m - i) for i, c in enumerate(p)][::-1]
    for i in range(m):
        for j in range(1, m + 1 - i):
            h[j] += a * h[j - 1]
    signs = [c > 0 for c in h if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


# ----------------------------------------------------------------------
# cusps


def nilpotent_orbit_check(n: CuspNilpotent, tau_cusp: CMatrix | None, tol: float) -> bool:
    """exp(iN) applied to the dual cusp filtration lands in the period
    domain: the Riemann check at diag(tau_cusp, i u), with u and tau_cusp
    as given.  That filtration is spanned by e_{g+k+1}..e_{2g} and by the
    depth-k Siegel point tau_cusp in the symplectic block (e_1..e_k;
    e_{g+1}..e_{g+k}).  For k = 0 tau_cusp must be None: any given factor,
    one with empty rows included, is refused with `depth k=0 has no cusp
    Siegel factor`."""
    g, k = n.g, n.k
    if k == 0:
        if tau_cusp is not None:
            raise ValueError("depth k=0 has no cusp Siegel factor")
    else:
        if tau_cusp is None:
            raise ValueError(f"tau_cusp must be {k}x{k}, got none")
        rows, cols = _shape(tau_cusp)
        if (rows, cols) != (k, k):
            raise ValueError(f"tau_cusp must be {k}x{k}, got {rows}x{cols}")
        if not siegel_membership(tau_cusp, 1e-12):
            raise ValueError("tau_cusp is not in the depth-k Siegel space")
    if not _min_eig_above(n.u, tol):
        raise ValueError("nilpotent is not in the positive cone")
    # [diag(tau_cusp, i u); I]
    re = [[Fraction(j == i - g) for j in range(g)] for i in range(2 * g)]
    im = [[Fraction(0)] * g for _ in range(2 * g)]
    for i in range(k):
        re[i][:k], im[i][:k] = tau_cusp[0][i], tau_cusp[1][i]
    for i, row in enumerate(n.u):
        im[k + i][k:] = row
    return _riemann((re, im), tol)


def _assemble(tau_prime: CMatrix, z: CMatrix, s: CMatrix) -> CMatrix:
    """Siegel point from cusp coordinates (tau', Z, S), S = A + iB:

        tau = [[tau',            A - tau' B],
               [(A - tau' B)^T,  Z + B^T tau' B - (A^T B + B^T A)/2]],

    returned exactly as the pair (Re tau, Im tau) of Fraction matrices.
    """
    (tr, ti), (zr, zi), (a, b) = tau_prime, z, s
    bt, trb, tib = _t(b), _mul(tr, b), _mul(ti, b)
    upper = (_sub(a, trb), _neg(tib))
    sym = _mul(_t(a), b)
    corner = (_sub(_add(zr, _mul(bt, trb)),
                   [[(x + y) / 2 for x, y in zip(r1, r2)] for r1, r2 in zip(sym, _t(sym))]),
              _add(zi, _mul(bt, tib)))
    return tuple(
        [r1 + r2 for r1, r2 in zip(top, up)] + [r1 + r2 for r1, r2 in zip(_t(up), low)]
        for top, up, low in zip(tau_prime, upper, corner))


def block_volume_identity(tau_prime: CMatrix, z: CMatrix, s: CMatrix, tol: float) -> bool:
    """det Im(tau) = det Im(tau') * det Im(Z) for the assembled block point.

    With T = Im(tau'), the Schur complement of T in Im(tau) is Im(Z) +
    B^T (T - T^T) B, so the identity holds exactly when T is symmetric.
    But tau' passes when symmetric within 1e-12, and an asymmetry of 1e-13
    with B = 10^6 I moved the two sides apart by a relative 7.5e-3 to
    7.8e-3 (2 x 2 blocks): the determinant comparison can decide.
    """
    _check_genus(_shape(tau_prime)[0] + _shape(z)[0])
    for name, block in (("tau'", tau_prime), ("Z", z)):
        n, m = _shape(block)
        if n != m:
            raise ValueError(f"{name} must be square, got {n}x{m}")
        if not siegel_membership(block, 1e-12):
            raise ValueError(f"{name} is not in its Siegel space")
    want, got = (_shape(tau_prime)[0], _shape(z)[0]), _shape(s)
    if got != want:
        raise ValueError(f"S must be {want[0]}x{want[1]}, got {got[0]}x{got[1]}")
    tau = _assemble(tau_prime, z, s)
    if not siegel_membership(tau, tol):
        return False
    lhs = rational_det(tau[1])
    rhs = rational_det(tau_prime[1]) * rational_det(z[1])
    return abs(lhs - rhs) <= Fraction(tol) * (1 + abs(lhs))
