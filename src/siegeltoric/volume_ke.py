"""Local volume polynomials and the Monge-Ampere determinant identity.

A marked top-dimensional cone with generators l(1), ..., l(N) in
scale*Sym_g(Z) produces the degree-g homogeneous volume polynomial

    F(x_1, ..., x_N) = det( sum_mu x_mu * l(mu)/scale )

and the log-Hessian numerator matrix T with T_ij = F*F_ij - F_i*F_j.
The Kaehler-Einstein metric forces the determinant identity

    det(T) = (-1)^N * 2^(g(g-1)/2) * vol^2 * F^((g+1)(g-1)),

where vol is the lattice volume of the cone.  This module proves it for
every genus, checks it at random rational points, and tests integral
pencils for membership in the variety its coefficient equations cut out.

Euler reduction.  Let f be homogeneous of degree e >= 2 in M variables x
and free of any others, with Hessian H and gradient u.  Euler's relations
H x = (e-1) u and x . u = e f give adj(H) u = det(H) x / (e-1), so the
rank-one update det(f H - u u^T) = f^M det(H) - f^(M-1) u^T adj(H) u
collapses to -f^M det(H) / (e-1).  For e <= 1 the entries are constants.

Closed form.  Write F = det(L x), L x = sum x_mu A_mu, and let M be the
N x N matrix whose column mu holds the delta-coordinates (entries (i, j),
i <= j) of A_mu; let h(Y) be the determinant of the Hessian of det at Y
in those coordinates.  The chain rule gives Hess F(x) = M^T Hess det(L x)
M, so det H = det(M)^2 h(L x).  Y -> A Y A^T is linear on Sym_g with
determinant det(A)^(g+1) and multiplies det by det(A)^2, so
h(A Y A^T) = det(A)^(2(N-g-1)) h(Y); as every positive definite Y is
A A^T and that cone is Zariski dense, h(Y) = h(I) det(Y)^((g+1)(g-2)/2),
the relative invariance of det on Sym_g (Sato-Kimura, Nagoya Math. J. 65,
1977; Faraut-Koranyi, Analysis on Symmetric Cones, ch. II-III).  At I
only y_ii y_jj and -y_ij^2 have nonzero second derivatives, so
Hess det(I) = diag(J_g - I_g, -2 I_{g(g-1)/2}) and
h(I) = -(g-1) (-1)^N 2^(g(g-1)/2).  With the Euler reduction (e = g),
for every pencil of N matrices, dependent ones included,

    det(T) = (-1)^N 2^(g(g-1)/2) det(M)^2 F^((g+1)(g-1)),

and at g = 1 (F = a x, T = -a^2, det M = a) too.  So the symbolic
identity holds exactly when det(M)^2 = vol^2: one rational determinant at
every genus.  As vol = |det M| for a cone, it holds for every
nondegenerate cone, and is_ke_point is True on every independent pencil:
every coefficient of det(T) minus the right side is 0.  The direct det(T)
and Hessian routes are test oracles.

Randomized mode works at each point p from the pencil alone and never
expands F.  Write A_mu = G_mu / s with integer G_mu, let D be the lcm of
the denominators of p and q = D p, and put Y = sum q_mu G_mu, an integer
matrix with L p = Y / (D s).  One fraction-free Gauss-Jordan elimination
gives f = det Y and C = adj Y, so F(p) = f / (D s)^g.  Differentiating
Jacobi's formula d det(Y)[A] = tr(adj(Y) A) once more gives
f d^2 det(Y)[A, B] = tr(C A) tr(C B) - tr(C A C B) (Griewank and Walther,
Evaluating Derivatives, 2008), and d^2 det is homogeneous of degree g-2,
so for g >= 2

    Hess F(p)_ab = (tr(C G_a) tr(C G_b) - tr(C G_a C G_b)) / (f D^(g-2) s^g).

Each entry is an exact Fraction: the numerator is f times the integer
d^2 det(Y)[G_a, G_b], so the quotient is that integer over D^(g-2) s^g,
and Fraction reduces it by the common factors, which keeps the N x N
rational determinant small.  The Euler reduction then gives det(T)(p) =
-F(p)^N det(Hess F(p)) / (g-1), which is 0 when f = 0; at g = 1, det(T)
is the constant -A_1^2.  The route that expands F and evaluates its
N(N+1)/2 second partials at each point is a test oracle.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .cone_lattice import (
    DegenerateConeError,
    MarkedCone,
    delta_index_pairs,
    int_det_adjugate,
    rational_det,
    sym_dim,
)
from .exact_algebra import DimensionError, MultiPoly, pencil_det, pencil_size

RANDOM_COORD_MAX = 10 ** 6


# F has (g+1)^(g-1) terms on the principal cone: 16807 at g = 6 (N = 21),
# 262144 at g = 7
F_NVARS_MAX = 21


# Randomized mode's predicted work: trials * (N^6 + 4*10^5) units.  One
# point of the principal cone took 0.6 ms at N = 6 and then about 1.4 ns
# per unit at N = 15-36 (0.014, 0.10, 0.65 and 3.6 s at g = 5-8; 2-CPU
# machine), so the bound admits about 4 s of points: one at g = 8, five at
# g = 7, none at g = 9.
RANDOMIZED_WORK_MAX = 2_500_000_000


class CostGuardError(ValueError):
    """A symbolic computation requested beyond its cost guard; the input is
    too large, so the CLI reports it as an input error."""


class VolumeFunction:
    """Pencil data of a marked cone; its volume polynomial F is expanded on
    first use.  The pencil fixes g (its matrix size, which pencil_size
    checks) and N (its length)."""

    def __init__(self, pencil: tuple[tuple[tuple[Fraction, ...], ...], ...], vol: int):
        self.g = pencil_size(pencil)
        self.nvars = len(pencil)
        self.pencil = pencil
        self.vol = vol

    @cached_property
    def F(self) -> MultiPoly:
        """F = det(sum x_mu A_mu), expanded for N <= F_NVARS_MAX only."""
        if self.nvars > F_NVARS_MAX:
            raise CostGuardError(
                f"volume polynomial limited to N <= {F_NVARS_MAX}, got N={self.nvars}")
        f = pencil_det(self.pencil)
        if f.is_zero():
            raise DegenerateConeError("degenerate pencil: det vanishes identically")
        return f


def _normalized_pencil(c: MarkedCone) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    s = Fraction(1, c.scale)
    return tuple(
        tuple(tuple(Fraction(v) * s for v in row) for row in gen)
        for gen in c.generators
    )


def volume_function(c: MarkedCone) -> VolumeFunction:
    """Volume function of the scale-normalized generators, vol = c.index.
    F is not zero: MarkedCone rejects dependent generators, and
    independent ones span Sym_g, so I as well."""
    n = sym_dim(c.g)
    if len(c.generators) != n:
        raise DegenerateConeError(
            f"volume polynomial needs {n} generators, cone has {len(c.generators)}")
    return VolumeFunction(pencil=_normalized_pencil(c), vol=c.index)


def pencil_coordinate_det(mats: Sequence[Sequence[Sequence[int | Fraction]]]) -> Fraction:
    """det M, the determinant of the delta-coordinates of mats (module
    docstring); a malformed pencil (pencil_size) or one of other than N
    matrices raises DimensionError."""
    g = pencil_size(mats)
    if len(mats) != sym_dim(g):
        raise DimensionError(
            f"expected {sym_dim(g)} matrices for g={g}, got {len(mats)}")
    return rational_det([[m[i][j] for i, j in delta_index_pairs(g)] for m in mats])


def ma_rhs_constant(g: int, vol: Fraction | int) -> Fraction:
    """(-1)^N 2^(g(g-1)/2) vol^2, the constant of the identity's right side."""
    n = sym_dim(g)
    return Fraction((-1) ** n * 2 ** (g * (g - 1) // 2) * vol * vol)


def ma_rhs(v: VolumeFunction) -> MultiPoly:
    """(-1)^N 2^(g(g-1)/2) vol^2 F^((g+1)(g-1))."""
    return (v.F ** ((v.g + 1) * (v.g - 1))).scale(ma_rhs_constant(v.g, v.vol))


def det_t_symbolic(v: VolumeFunction) -> MultiPoly:
    """Exact det(T) in closed form: ma_rhs with vol := det M (module docstring)."""
    d = pencil_coordinate_det(v.pencil)
    if not d:
        return MultiPoly.zero(v.nvars)
    return (v.F ** ((v.g + 1) * (v.g - 1))).scale(ma_rhs_constant(v.g, d))


class MAWitness(NamedTuple):
    point: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


class MAReport(NamedTuple):
    holds: bool
    witnesses: tuple[MAWitness, ...] = ()   # failing points, randomized mode only


def random_rational_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(1, RANDOM_COORD_MAX), rng.randint(1, RANDOM_COORD_MAX))
        for _ in range(nvars))


def det_t_values(v: VolumeFunction, points: Sequence[Sequence[Fraction]]
                 ) -> list[tuple[Fraction, Fraction]]:
    """(F(p), det(T)(p)) at each point p, from the pencil alone: F is never
    expanded (module docstring)."""
    s = math.lcm(*(x.denominator for m in v.pencil for row in m for x in row))
    gens = [[[int(x * s) for x in row] for row in m] for m in v.pencil]
    return [_det_t_at(gens, s, p) for p in points]


def _det_t_at(gens: Sequence[Sequence[Sequence[int]]], s: int,
              point: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """F(p) and det(T)(p) from the integer pencil G_mu / s alone, by one
    integer adjugate (module docstring)."""
    g, n = len(gens[0]), len(gens)
    if g == 1:
        return (Fraction(sum(x * m[0][0] for x, m in zip(point, gens)), s),
                Fraction(-gens[0][0][0] ** 2, s * s))
    d = math.lcm(*(x.denominator for x in point))
    q = [x.numerator * (d // x.denominator) for x in point]
    y = [[sum(qm * m[i][j] for qm, m in zip(q, gens)) for j in range(g)]
         for i in range(g)]
    f, adj = int_det_adjugate(y)
    fval = Fraction(f, (d * s) ** g)
    if f == 0:
        return fval, Fraction(0)
    cg = [[[sum(adj[i][k] * m[k][j] for k in range(g)) for j in range(g)]
           for i in range(g)] for m in gens]
    tr = [sum(c[i][i] for i in range(g)) for c in cg]
    den = f * d ** (g - 2) * s ** g
    hess = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        ca = cg[a]
        for b in range(a, n):
            cb = cg[b]
            tr_ab = sum(ca[i][j] * cb[j][i] for i in range(g) for j in range(g))
            hess[a][b] = hess[b][a] = Fraction(tr[a] * tr[b] - tr_ab, den)
    return fval, -fval ** n * rational_det(hess) / (g - 1)


def verify_ma_identity(v: VolumeFunction, mode: str = "symbolic",
                       trials: int = 20, seed: int = 0) -> MAReport:
    """Check det(T) = (-1)^N 2^(g(g-1)/2) vol^2 F^((g+1)(g-1)).

    Symbolic mode proves exact polynomial equality at every genus: by the
    closed form it holds exactly when det(M)^2 = vol^2.  Randomized mode
    compares both sides at `trials` random rational points with numerators
    and denominators in [1, 10^6], recording any failing point as an exact,
    replayable witness.
    """
    if mode == "symbolic":
        d = pencil_coordinate_det(v.pencil)
        return MAReport(holds=d * d == v.vol * v.vol)
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError("randomized mode needs trials >= 1")
    work = trials * (v.nvars ** 6 + 400_000)
    if work > RANDOMIZED_WORK_MAX:
        raise CostGuardError(
            f"randomized check limited to trials * (N^6 + 4e5) <= {RANDOMIZED_WORK_MAX}, "
            f"got {work} (N={v.nvars}, trials={trials})")
    rng = random.Random(seed)
    points = [random_rational_point(rng, v.nvars) for _ in range(trials)]
    c = ma_rhs_constant(v.g, v.vol)
    witnesses = []
    for point, (fval, lhs) in zip(points, det_t_values(v, points)):
        rhs = c * fval ** ((v.g + 1) * (v.g - 1))
        if lhs != rhs:
            witnesses.append(MAWitness(point=point, lhs=lhs, rhs=rhs))
    return MAReport(holds=not witnesses, witnesses=tuple(witnesses))


# ----------------------------------------------------------------------
# KE-characteristic membership for integral pencils


def is_ke_point(mats: Sequence[Sequence[Sequence[int]]]) -> bool:
    """Membership of an independent symmetric pencil in the variety cut out
    by the Monge-Ampere coefficient equations: det(T) = (-1)^N 2^(g(g-1)/2)
    D^2 F^((g+1)(g-1)) with F = det(sum x_i mats[i]) and D = det M.  The
    closed form (module docstring) proves it for every pencil, so this is
    True unless the pencil is dependent, which raises DegenerateConeError.
    """
    if pencil_coordinate_det(mats) == 0:
        raise DegenerateConeError("matrices are linearly dependent")
    return True
