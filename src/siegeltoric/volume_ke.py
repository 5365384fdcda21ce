"""Local volume polynomials and the Monge-Ampere determinant identity.

A marked top-dimensional cone with generators l(1), ..., l(N) in
scale*Sym_g(Z) produces the degree-g homogeneous volume polynomial

    F(x_1, ..., x_N) = det( sum_mu x_mu * l(mu)/scale )

and the log-Hessian numerator matrix T with T_ij = F*F_ij - F_i*F_j.
The Kaehler-Einstein metric forces the determinant identity

    det(T) = (-1)^N * 2^(g(g-1)/2) * vol^2 * F^((g+1)(g-1)),

where vol is the lattice volume of the cone.  Checking that identity,
symbolically or at random rational points, is what this module does; the
set of coefficient equations it encodes cuts out the KE-characteristic
variety, and integral matrix pencils can be tested for membership.

det(T) is never expanded.  Let f be homogeneous of degree e >= 2 in M
variables x and free of any others, with Hessian H and gradient u.
Euler's relations H x = (e-1) u and x . u = e f give adj(H) u =
det(H) x / (e-1), so the rank-one update det(f H - u u^T) = f^M det(H) -
f^(M-1) u^T adj(H) u, which needs no invertibility, collapses to
-f^M det(H) / (e-1).  For e <= 1 the entries are constants and their
determinant is taken as it stands.  As (g+1)(g-1) >= N and Q[x] is a
domain, the identity for g >= 2 reads

    det(H) = -(g-1) * (-1)^N 2^(g(g-1)/2) vol^2 * F^((g+1)(g-2)/2),

the relative invariance of det on the prehomogeneous space Sym_g
(Sato-Kimura, Nagoya Math. J. 65, 1977); at g = 1 the 1 x 1 T is compared
directly.  Randomized mode evaluates H, not T, and reports
-F^N det(H) / (g-1), which is det(T) at the point exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cone_lattice import (
    DegenerateConeError,
    MarkedCone,
    delta_index_pairs,
    lattice_volume,
    rational_det,
    sym_dim,
)
from .exact_algebra import (
    DimensionError,
    MultiPoly,
    PolyMatrix,
    pencil_det,
)

# symbolic verification is allowed up to this many pencil variables
SYMBOLIC_NVARS_MAX = 6

RANDOM_COORD_MAX = 10 ** 6


class CostGuardError(ValueError):
    """Symbolic mode requested beyond the N <= 6 cost guard; the input is
    too large, so the CLI reports it as an input error."""


@dataclass(frozen=True)
class VolumeFunction:
    """Volume polynomial of a marked cone together with its pencil data."""

    g: int
    nvars: int
    pencil: tuple[tuple[tuple[Fraction, ...], ...], ...]
    F: MultiPoly
    vol: int
    cone: Optional[MarkedCone] = None

    def __post_init__(self):
        if self.F.is_zero():
            raise DegenerateConeError("volume polynomial is identically zero")


def _normalized_pencil(c: MarkedCone) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    s = Fraction(1, c.scale)
    return tuple(
        tuple(tuple(Fraction(v) * s for v in row) for row in gen)
        for gen in c.generators
    )


def volume_function(c: MarkedCone) -> VolumeFunction:
    """Build F = det(sum x_mu A_mu) for the scale-normalized generators."""
    n = sym_dim(c.g)
    if len(c.generators) != n:
        raise DegenerateConeError(
            f"volume polynomial needs {n} generators, cone has {len(c.generators)}")
    vol = lattice_volume(c)
    pencil = _normalized_pencil(c)
    f = pencil_det(pencil)
    if f.is_zero():
        raise DegenerateConeError("degenerate pencil: det vanishes identically")
    return VolumeFunction(g=c.g, nvars=n, pencil=pencil, F=f, vol=vol, cone=c)


def volume_function_from_pencil(mats: Sequence[Sequence[Sequence[Fraction | int]]],
                                g: int, vol: int) -> VolumeFunction:
    """Volume-function wrapper around an explicit pencil (no cone attached)."""
    pencil = tuple(
        tuple(tuple(Fraction(v) for v in row) for row in m) for m in mats)
    f = pencil_det(pencil)
    if f.is_zero():
        raise DegenerateConeError("degenerate pencil: det vanishes identically")
    return VolumeFunction(g=g, nvars=len(pencil), pencil=pencil, F=f, vol=vol)


def _hessian_entries(f: MultiPoly, keep: Sequence[int]):
    """Upper-triangle second partials (a, b, f_ab) over `keep`, one at a time."""
    for a, i in enumerate(keep):
        fi = f.partial(i)
        for b in range(a, len(keep)):
            yield a, b, fi.partial(keep[b])


def _symmetric(m: int, upper) -> PolyMatrix:
    """The m x m PolyMatrix with upper triangle given as (a, b, entry)."""
    entries: list[Optional[MultiPoly]] = [None] * (m * m)
    for a, b, x in upper:
        entries[a * m + b] = entries[b * m + a] = x
    return PolyMatrix(m, m, entries)  # type: ignore[arg-type]


def _t_matrix(f: MultiPoly, keep: Sequence[int]) -> PolyMatrix:
    grads = [f.partial(i) for i in keep]
    return _symmetric(len(keep), ((a, b, f * h - grads[a] * grads[b])
                                  for a, b, h in _hessian_entries(f, keep)))


def t_matrix(v: VolumeFunction) -> PolyMatrix:
    """The N x N matrix T_ij = F*F_ij - F_i*F_j (symmetric, degree 2g-2)."""
    return _t_matrix(v.F, range(v.nvars))


def _euler_degree(f: MultiPoly, keep: Sequence[int]) -> int:
    """Degree of f, checked to be homogeneous in `keep` and free of the rest."""
    e = f.total_degree()
    if any(sum(exp[i] for i in keep) != e for exp in f.terms):
        raise ValueError("f must be homogeneous in the kept variables, free of the rest")
    return e


def euler_t_det(f: MultiPoly, keep: Sequence[int]) -> MultiPoly:
    """det(f*H - grad grad^T) over `keep`, for f homogeneous of degree e in
    those variables and free of the rest: -f^M det(H) / (e-1) for e >= 2,
    the determinant of the constant entries otherwise (module docstring).
    """
    e = _euler_degree(f, keep)
    if e < 2:
        return _t_matrix(f, keep).det()
    hess = _symmetric(len(keep), _hessian_entries(f, keep))
    return (f ** len(keep) * hess.det()).scale(Fraction(-1, e - 1))


def det_t_symbolic(v: VolumeFunction) -> MultiPoly:
    """Exact det(T) through the Euler reduction (euler_t_det on all variables)."""
    return euler_t_det(v.F, range(v.nvars))


def ma_rhs_constant(g: int, vol: Fraction | int) -> Fraction:
    """(-1)^N 2^(g(g-1)/2) vol^2, the constant of the identity's right side."""
    n = sym_dim(g)
    return Fraction((-1) ** n * 2 ** (g * (g - 1) // 2) * vol * vol)


def ma_rhs(v: VolumeFunction) -> MultiPoly:
    """(-1)^N 2^(g(g-1)/2) vol^2 F^((g+1)(g-1))."""
    power = (v.g + 1) * (v.g - 1)
    return (v.F ** power).scale(ma_rhs_constant(v.g, v.vol))


def _ma_defect(v: VolumeFunction, c: Fraction) -> MultiPoly:
    """det(T) - c F^((g+1)(g-1)), divided by the nonzero -F^N/(g-1) when
    g >= 2, which leaves det(H) + (g-1) c F^((g+1)(g-2)/2).  Every symbolic
    check goes through here, and so through the N <= 6 cost guard."""
    g, n = v.g, v.nvars
    if n > SYMBOLIC_NVARS_MAX:
        raise CostGuardError(f"symbolic mode limited to N <= {SYMBOLIC_NVARS_MAX}, got N={n}")
    if g < 2:
        return det_t_symbolic(v) - MultiPoly.const(n, c)
    det_h = _symmetric(n, _hessian_entries(v.F, range(n))).det()
    return det_h + (v.F ** ((g + 1) * (g - 2) // 2)).scale((g - 1) * c)


@dataclass(frozen=True)
class MAWitness:
    point: tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class MAReport:
    holds: bool
    mode: str                      # "symbolic" | "randomized"
    witnesses: tuple[MAWitness, ...] = ()
    seed: Optional[int] = None
    g: int = 0
    vol: int = 0

    def __post_init__(self):
        if self.holds and self.witnesses:
            raise ValueError("a holding identity cannot carry failure witnesses")


def random_rational_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(1, RANDOM_COORD_MAX), rng.randint(1, RANDOM_COORD_MAX))
        for _ in range(nvars))


def _det_t_values(f: MultiPoly, points: Sequence[Sequence[Fraction]],
                  fvals: Sequence[Fraction]) -> list[Fraction]:
    """det(T) at each point, from the Hessian alone when deg f >= 2; one
    Hessian entry at a time is built and evaluated at every point."""
    n = f.nvars
    e = _euler_degree(f, range(n))
    if e < 2:
        t = euler_t_det(f, range(n))
        return [t.eval_at(p) for p in points]
    grids = [[[Fraction(0)] * n for _ in range(n)] for _ in points]
    for a, b, h in _hessian_entries(f, range(n)):
        for grid, p in zip(grids, points):
            grid[a][b] = grid[b][a] = h.eval_at(p)
    return [-fval ** n * rational_det(grid) / (e - 1) for grid, fval in zip(grids, fvals)]


def verify_ma_identity(v: VolumeFunction, mode: str = "symbolic",
                       trials: int = 20, seed: int = 0) -> MAReport:
    """Check det(T) = (-1)^N 2^(g(g-1)/2) vol^2 F^((g+1)(g-1)).

    Symbolic mode proves exact polynomial equality (guarded to N <= 6);
    randomized mode compares both sides at `trials` random rational points
    with numerators and denominators in [1, 10^6], recording any failing
    point as an exact, replayable witness.
    """
    if mode == "symbolic":
        holds = _ma_defect(v, ma_rhs_constant(v.g, v.vol)).is_zero()
        return MAReport(holds=holds, mode="symbolic", g=v.g, vol=v.vol)
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError("randomized mode needs trials >= 1")
    rng = random.Random(seed)
    points = [random_rational_point(rng, v.nvars) for _ in range(trials)]
    fvals = [v.F.eval_at(p) for p in points]
    c = ma_rhs_constant(v.g, v.vol)
    witnesses = []
    for point, fval, lhs in zip(points, fvals, _det_t_values(v.F, points, fvals)):
        rhs = c * fval ** ((v.g + 1) * (v.g - 1))
        if lhs != rhs:
            witnesses.append(MAWitness(point=point, lhs=lhs, rhs=rhs))
    return MAReport(holds=not witnesses, mode="randomized",
                    witnesses=tuple(witnesses), seed=seed, g=v.g, vol=v.vol)


# ----------------------------------------------------------------------
# KE-characteristic membership for integral pencils


def _pencil_coordinate_det(mats: Sequence[Sequence[Sequence[int | Fraction]]]) -> Fraction:
    """det of the N x N matrix whose rows are the delta-coordinates of mats."""
    n = len(mats)
    g = len(mats[0])
    if n != sym_dim(g):
        raise DimensionError(
            f"expected {sym_dim(g)} matrices for g={g}, got {n}")
    rows = []
    for m in mats:
        if len(m) != g or any(len(r) != g for r in m):
            raise DimensionError("ragged pencil")
        for i in range(g):
            for j in range(g):
                if Fraction(m[i][j]) != Fraction(m[j][i]):
                    raise DimensionError("pencil matrix is not symmetric")
        rows.append([Fraction(m[i][j]) for i, j in delta_index_pairs(g)])
    return rational_det(rows)


def is_ke_point(mats: Sequence[Sequence[Sequence[int]]]) -> bool:
    """Membership of an independent symmetric pencil in the variety cut out
    by the Monge-Ampere coefficient equations.

    Equivalent to the symbolic identity det(T) = (-1)^N 2^(g(g-1)/2) D^2
    F^((g+1)(g-1)) with F = det(sum x_i mats[i]) and D the determinant of
    the coordinate matrix of the pencil; symbolic, so guarded to N <= 6.
    """
    d = _pencil_coordinate_det(mats)
    if d == 0:
        raise DegenerateConeError("matrices are linearly dependent")
    g = len(mats[0])
    v = volume_function_from_pencil(mats, g=g, vol=1)
    return _ma_defect(v, ma_rhs_constant(g, d)).is_zero()


def ke_coefficient(mats: Sequence[Sequence[Sequence[int]]],
                   multi_index: Sequence[int]) -> Fraction:
    """Coefficient of x^multi_index in det(T) - (-1)^N 2^(g(g-1)/2)
    F^((g+1)(g-1)) D^2, evaluated at the given pencil.

    The admissible multi-indices sum to g(g^2-1), the x-degree of both
    determinant sides.
    """
    g = len(mats[0])
    target = g * (g * g - 1)
    idx = tuple(int(e) for e in multi_index)
    if sum(idx) != target or any(e < 0 for e in idx):
        raise ValueError(
            f"multi-index must consist of nonnegative entries summing to {target}")
    d = _pencil_coordinate_det(mats)
    if len(idx) != len(mats):
        raise DimensionError("multi-index length must match the pencil size")
    try:
        v = volume_function_from_pencil(mats, g=g, vol=1)
    except DegenerateConeError:
        return Fraction(0)  # F = 0: both sides vanish
    defect = _ma_defect(v, ma_rhs_constant(g, d))
    if g >= 2 and defect:
        defect = (v.F ** v.nvars * defect).scale(Fraction(-1, g - 1))
    return defect.coeff(idx)


def permutation_check(mats: Sequence[Sequence[Sequence[int]]],
                      perm: Sequence[int], trials: int = 20,
                      seed: int = 0) -> bool:
    """Reindexing symmetry of the pencil determinant.

    Confirms det(sum_i x_i Y(perm(i))) = det(sum_i x_{perm^-1(i)} Y(i)) at
    random rational points, and that KE membership does not change when the
    pencil list is permuted (skipped for dependent pencils, where
    membership is undefined).
    """
    n = len(mats)
    p = tuple(int(k) for k in perm)
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    inv = [0] * n
    for i, k in enumerate(p):
        inv[k] = i
    permuted = [mats[p[i]] for i in range(n)]
    f_perm = pencil_det(permuted)
    f_orig = pencil_det(mats)
    rng = random.Random(seed)
    for _ in range(max(1, trials)):
        point = random_rational_point(rng, n)
        moved_point = tuple(point[inv[i]] for i in range(n))
        if f_perm.eval_at(point) != f_orig.eval_at(moved_point):
            return False
    if _pencil_coordinate_det(mats) != 0:
        if is_ke_point(mats) != is_ke_point(permuted):
            return False
    return True


def g2_closed_form(a: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Closed-form coefficients (A, B, C, L, M, N) of the genus-2 volume
    polynomial F = A x^2 + B y^2 + C z^2 + L xy + M xz + N yz built from the
    rows a_i = (a_i1, a_i2, a_i3) of a 3 x 3 matrix, where row i encodes
    the symmetric matrix [[a_i1, a_i2], [a_i2, a_i3]]."""
    if len(a) != 3 or any(len(row) != 3 for row in a):
        raise DimensionError("expected a 3x3 coefficient matrix")
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = (
        tuple(Fraction(v) for v in row) for row in a)
    coeff_a = a11 * a13 - a12 * a12
    coeff_b = a21 * a23 - a22 * a22
    coeff_c = a31 * a33 - a32 * a32
    coeff_l = a11 * a23 + a21 * a13 - 2 * a12 * a22
    coeff_m = a11 * a33 + a31 * a13 - 2 * a12 * a32
    coeff_n = a21 * a33 + a31 * a23 - 2 * a22 * a32
    return (coeff_a, coeff_b, coeff_c, coeff_l, coeff_m, coeff_n)
