"""Local volume polynomials and the Monge-Ampere determinant identity.

A marked top-dimensional cone with generators l(1), ..., l(N) in
scale*Sym_g(Z) produces the degree-g homogeneous volume polynomial

    F(x_1, ..., x_N) = det( sum_mu x_mu * l(mu)/scale )

and the log-Hessian numerator matrix T with T_ij = F*F_ij - F_i*F_j.
The Kaehler-Einstein metric forces the determinant identity

    det(T) = (-1)^N * 2^(g(g-1)/2) * vol^2 * F^((g+1)(g-1)),

where vol is the lattice volume of the cone.  This module proves it for
every genus, checks it at random integer points, and tests integral
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
every genus.  As vol = c.index = |det M| >= 1 for a cone (lattice_index),
it holds on every full cone by construction: is_ke_point(c) reads that
off the cone, and the CLI's symbolic `ma verify` and `ke test` ask it
without that determinant.  A dependent pencil (det M = 0) is refused by
MarkedCone.  The direct det(T) and Hessian routes are test oracles.

Randomized mode works at integer points, from the pencil alone, and
never expands F.  Both sides of the identity are homogeneous of degree
N(2g-2) = g(g^2-1), so their values at a rational point q/D settle the
same equality as their values at the integer point q: each coordinate is
drawn as an integer in [1, RANDOM_COORD_MAX].  If the two sides differ,
their difference is a nonzero polynomial of that degree, and it vanishes
at such a point with probability at most N(2g-2)/RANDOM_COORD_MAX
(Schwartz, J. ACM 27, 1980): the same bound as for fractions a/b with a
and b in that range, whose most likely value, 1, also has probability
1/RANDOM_COORD_MAX.  The pencil of volume_function(c) is integral (the
generators lie in c.scale*Sym_g(Z)), so Y = sum p_mu A_mu is an integer
matrix.  One fraction-free Gauss-Jordan elimination gives f = det Y =
F(p) and C = adj Y.  Differentiating Jacobi's formula
d det(Y)[A] = tr(adj(Y) A) once more gives
f d^2 det(Y)[A, B] = tr(C A) tr(C B) - tr(C A C B) (Griewank and Walther,
Evaluating Derivatives, 2008).  As det has integer coefficients,
d^2 det(Y)[A_a, A_b] is an integer, so for g >= 2

    E_ab = (tr(C A_a) tr(C A_b) - tr(C A_a C A_b)) / f

is an exact integer quotient and Hess F(p) = E: one integer determinant,
with no Fraction per entry.  The Euler reduction then gives det(T)(p) =
-F(p)^N det(E) / (g-1), which is 0 when f = 0; at g = 1, det(T) is the
constant -A_1^2.  The route that expands F and evaluates its
N(N+1)/2 second partials at each point is a test oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import NamedTuple, Sequence

from .cone_lattice import (
    MarkedCone,
    delta_index_pairs,
    int_det_adjugate,
    rational_det,
    sym_dim,
)
from .exact_algebra import MultiPoly, pencil_det, pencil_size

RANDOM_COORD_MAX = 10 ** 6


# F has (g+1)^(g-1) terms on the principal cone: 16807 at g = 6 (N = 21),
# 262144 at g = 7
F_NVARS_MAX = 21


# Randomized mode's predicted work: trials * (N^6 + 4*10^5) units.  One
# point of the principal cone takes 0.6 ms at N = 10 and about 0.075 ns
# per unit from N = 45 on: 0.65, 2.0-2.2 and 6.2-7.0 s at g = 9, 10 and 11
# (N = 45, 55, 66; one point per fresh process, two runs each, 2-CPU
# machine, Python 3.11.7), so the bound admits about 4.5 s of points: two
# at g = 10, seven at g = 9, none at g = 11.
RANDOMIZED_WORK_MAX = 60_000_000_000


class CostGuardError(ValueError):
    """A symbolic computation requested beyond its cost guard; the input is
    too large, so the CLI reports it as an input error."""


class VolumeFunction:
    """Integer pencil data of a marked cone (volume_function); its volume
    polynomial F is expanded on first use.  The pencil fixes g (its matrix
    size, which pencil_size checks) and N (its length)."""

    def __init__(self, pencil: tuple[tuple[tuple[int, ...], ...], ...], vol: int):
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
        return pencil_det(self.pencil)


def volume_function(c: MarkedCone) -> VolumeFunction:
    """Volume function of the integer generators over c.scale, vol =
    c.index.  F is not 0: MarkedCone rejects dependent generators, and
    their span holds I."""
    n = sym_dim(c.g)
    if len(c.generators) != n:
        raise ValueError(
            f"volume polynomial needs {n} generators, cone has {len(c.generators)}")
    pencil = tuple(tuple(tuple(v // c.scale for v in row) for row in m) for m in c.generators)
    return VolumeFunction(pencil=pencil, vol=c.index)


def ma_rhs_constant(g: int, vol: Fraction | int) -> Fraction:
    """(-1)^N 2^(g(g-1)/2) vol^2, the constant of the identity's right side."""
    n = sym_dim(g)
    return Fraction((-1) ** n * 2 ** (g * (g - 1) // 2) * vol * vol)


def ma_rhs(v: VolumeFunction) -> MultiPoly:
    """(-1)^N 2^(g(g-1)/2) vol^2 F^((g+1)(g-1))."""
    return (v.F ** ((v.g + 1) * (v.g - 1))).scale(ma_rhs_constant(v.g, v.vol))


def det_t_symbolic(v: VolumeFunction) -> MultiPoly:
    """Exact det(T) in closed form: ma_rhs with vol := det M (module docstring)."""
    d = rational_det([[m[i][j] for i, j in delta_index_pairs(v.g)] for m in v.pencil])
    return (v.F ** ((v.g + 1) * (v.g - 1))).scale(ma_rhs_constant(v.g, d))


class MAWitness(NamedTuple):
    point: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


def random_point(rng: random.Random, nvars: int) -> tuple[int, ...]:
    """nvars integers in [1, RANDOM_COORD_MAX] (module docstring)."""
    return tuple(rng.randint(1, RANDOM_COORD_MAX) for _ in range(nvars))


def det_t_at(v: VolumeFunction, point: Sequence[int]) -> tuple[Fraction, Fraction]:
    """F(p) and det(T)(p) at an integer point p from the integer pencil
    alone, by one integer adjugate and one integer determinant: F is never
    expanded (module docstring)."""
    gens = v.pencil
    g, n = len(gens[0]), len(gens)
    if g == 1:
        return (Fraction(sum(x * m[0][0] for x, m in zip(point, gens))),
                Fraction(-gens[0][0][0] ** 2))
    y = [[sum(x * m[i][j] for x, m in zip(point, gens)) for j in range(g)]
         for i in range(g)]
    f, adj = int_det_adjugate(y)
    fval = Fraction(f)
    if f == 0:
        return fval, Fraction(0)
    # C A_mu row by row; A_mu is symmetric, so its rows are its columns
    cg = [[[sum(map(mul, row, col)) for col in m] for row in adj] for m in gens]
    tr = [sum(c[i][i] for i in range(g)) for c in cg]
    # tr(X Z) is the dot product of X's entries with Z's transposed
    flat = [[x for row in c for x in row] for c in cg]
    flat_t = [[c[j][i] for i in range(g) for j in range(g)] for c in cg]
    e = [[0] * n for _ in range(n)]
    for a in range(n):
        fa = flat[a]
        for b in range(a, n):
            tr_ab = sum(map(mul, fa, flat_t[b]))
            e[a][b] = e[b][a] = (tr[a] * tr[b] - tr_ab) // f
    return fval, -fval ** n * rational_det(e) / (g - 1)


def verify_ma_identity(v: VolumeFunction, trials: int = 20,
                       seed: int = 0) -> tuple[MAWitness, ...]:
    """Check det(T) = (-1)^N 2^(g(g-1)/2) vol^2 F^((g+1)(g-1)) at `trials`
    random points with integer coordinates in [1, RANDOM_COORD_MAX], which
    homogeneity makes as strong as rational ones (module docstring), and
    return the failing points as exact, replayable witnesses: the identity
    holds at the points drawn exactly when none is returned.
    """
    if trials < 1:
        raise ValueError("randomized mode needs trials >= 1")
    work = trials * (v.nvars ** 6 + 400_000)
    if work > RANDOMIZED_WORK_MAX:
        raise CostGuardError(
            f"randomized check limited to trials * (N^6 + 4e5) <= {RANDOMIZED_WORK_MAX}, "
            f"got {work} (N={v.nvars}, trials={trials})")
    rng = random.Random(seed)
    points = [random_point(rng, v.nvars) for _ in range(trials)]
    c = ma_rhs_constant(v.g, v.vol)
    witnesses = []
    for point in points:
        fval, lhs = det_t_at(v, point)
        rhs = c * fval ** ((v.g + 1) * (v.g - 1))
        if lhs != rhs:
            witnesses.append(MAWitness(point=point, lhs=lhs, rhs=rhs))
    return tuple(witnesses)


# ----------------------------------------------------------------------
# KE-characteristic membership of a cone's pencil


def is_ke_point(c: MarkedCone) -> bool:
    """Membership of c's pencil in the variety cut out by the Monge-Ampere
    coefficient equations: det(T) = (-1)^N 2^(g(g-1)/2) vol^2
    F^((g+1)(g-1)).  A cone without N generators raises ValueError.
    Otherwise this is True: the closed form (module docstring) makes det(T)
    the right side with vol^2 = det(M)^2, and the pencil of the generators
    over c.scale has |det M| = c.index >= 1 (lattice_index), which
    MarkedCone checked when it was built.
    """
    if len(c.generators) != c.nvars:
        raise ValueError(
            f"expected {c.nvars} matrices for g={c.g}, got {len(c.generators)}")
    return True
