"""The residue chain and boundary intersection verdicts.

The residue chain iterates leading-coefficient extraction on a volume
polynomial: S_0 = F, and S_k is the coefficient of the top power of the
k-th marked variable in S_{k-1}.  After d steps the chain's minor
determinant g_d = det(P restricted to the unselected variables), with
P_lm = S_d * d2(S_d)/dx_l dx_m - d(S_d)/dx_l * d(S_d)/dx_m, is the exact
numerator of the iterated residue integrand; the accompanying constant is
(-1)^(N-d) * ((g+1)/4)^(N-d) * (N-d)!.  No integration is performed here,
only the exact integrand data is produced.

Residue minor in closed form.  Let the pencil A_1..A_N span Sym_g, as the
generators of a full cone do (residue_chain refuses any other pencil).
Suppose S = c det(L x) with c a nonzero constant and L linear from the
variables onto Sym_e, and let B be the matrix of x_k in L x, of rank r.
With B = Q diag(D, 0) Q^T, D invertible of order r and Q invertible,

    det(L x) = det(Q)^2 det(x_k diag(D, 0) + Q^-1 (L x - x_k B) Q^-T).

x_k B adds nothing to the lower right block of order e - r, so that block
is still onto Sym_(e-r) in the other variables; the top power of x_k is
x_k^r, with coefficient det(D) times the determinant of that block, which
is not zero as the block is onto.  By
induction from S_0 = F = det(L x), each S_d = c_d det(L_d x) with c_d a
nonzero constant and L_d linear from the M = N - d unselected variables
onto Sym_e, e = deg S_d.  The chain rule gives
Hess S_d = c_d L_d^T Hess det(L_d x) L_d, of rank at most sym_dim(e), and
M >= sym_dim(e) as L_d is onto.

- M > sym_dim(e): det Hess S_d = 0, so g_d = 0 by the Euler reduction
  (volume_ke) for e >= 2; for e <= 1, P = -grad grad^T has rank at most
  1 < M.
- M = sym_dim(e): L_d is invertible, and the closed form of volume_ke,
  applied to the pencil L_d at genus e, makes g_d a constant multiple of
  S_d^((e+1)(e-1)) (the factor c_d multiplies P by c_d^2).  So
  g_d = lambda S_d^((e+1)(e-1)), with lambda read off as
  det P(p) / S_d(p)^((e+1)(e-1)) at one rational point p with S_d(p) != 0.

If the first d generators are positive semidefinite, g_d = 0.  Each of
them vanishes as a form on the e-dimensional subspace V where the final
block lives, so it lies in the matrices that kill V, a space of dimension
sym_dim(g - e); they are independent, so d <= sym_dim(g - e) and
M >= sym_dim(e) + e(g - e), which exceeds sym_dim(e) for 0 < e < g
(e = g would make them zero, and sym_dim(0) = 0 < M).  A dependent pencil
breaks the first step: L need not be onto, and the closed form can miss.

Intersection verdicts implement the vanishing criteria for products of
boundary divisors (d >= g-1, then interior edges) with a fixed
precedence, plus the toric 0/1 rule for full products over a regular fan.
The genus-two top case needs no rule of its own: at g = 2, N = 3 and the
selection size d is 1 or 2, so d >= g - 1 = 1 always decides first.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cone_lattice import (
    ConeShapeError,
    DegenerateConeError,
    Fan,
    MarkedCone,
    edge_class,
    is_regular,
    primitive_ray,
    rational_det,
    sym_dim,
)
from .exact_algebra import MultiPoly
from .volume_ke import (RANDOM_COORD_MAX, CostGuardError, VolumeFunction,
                        pencil_coordinate_det, volume_function)

# S_d^((e+1)(e-1)) is expanded only if it can have at most this many terms:
# every genus-4 cone passes (at most 118755 terms, 16 s on a 2-CPU machine),
# and the bound is about the size of the largest F that VolumeFunction
# expands (a dense form of degree 6 in 21 variables has 230230 terms)
RESIDUE_TERMS_MAX = 250_000

ZERO_D_GE_G_MINUS_1 = "d_ge_g_minus_1"
ZERO_INTERIOR_EDGE = "interior_edge"
ZERO_TORIC_EMPTY = "toric_empty"
ONE_TORIC_COMMON_CONE = "toric_common_cone"


class ResidueChain(NamedTuple):
    """Successive leading coefficients S_0..S_d and the minor determinant;
    d is len(S) - 1 and N is gd.nvars."""

    S: tuple[MultiPoly, ...]
    gd: MultiPoly
    g: int


def residue_chain(v: VolumeFunction, d: int) -> ResidueChain:
    """Run the leading-coefficient chain for the first d marked variables.

    Variable order follows the cone's marking order; callers that want a
    different divisor selection permute the pencil first (see
    intersection_vanishing).  The pencil must span Sym_g (module docstring).
    """
    n = v.nvars
    if n == 1:
        raise ValueError("N = 1 has no residue chain (d must be in [1, N - 1])")
    if not 1 <= d <= n - 1:
        raise ValueError(f"d must be in [1, {n - 1}], got {d}")
    if pencil_coordinate_det(v.pencil) == 0:
        raise DegenerateConeError("residue chain needs linearly independent generators")
    chain = [v.F]
    for k in range(d):
        chain.append(chain[-1].leading_coeff_in(k)[1])
    return ResidueChain(S=tuple(chain), gd=_residue_minor(chain[-1], d), g=v.g)


def _residue_minor(s: MultiPoly, d: int) -> MultiPoly:
    """g_d from S_d = s, free of the first d variables (module docstring)."""
    n, m, e = s.nvars, s.nvars - d, s.total_degree()
    if m > sym_dim(e):
        return MultiPoly.zero(n)
    k = (e + 1) * (e - 1)
    # S_d^k has at most as many terms as there are monomials of degree k e
    # in m variables, or multisets of k of the terms of S_d
    t = s.num_terms()
    terms = min(math.comb(k * e + m - 1, m - 1), math.comb(k + t - 1, t - 1))
    if terms > RESIDUE_TERMS_MAX:
        raise CostGuardError(
            f"residue minor limited to {RESIDUE_TERMS_MAX} terms of S_d^{k}, "
            f"predicted up to {terms} (N={n}, d={d})")
    rng = random.Random(0)
    while True:
        p = [rng.randint(1, RANDOM_COORD_MAX) for _ in range(n)]
        sp = s.eval_at(p)
        if sp:
            break
    keep = range(d, n)
    grads = [s.partial(i) for i in keep]
    gp = [gr.eval_at(p) for gr in grads]
    t_at_p = [[sp * grads[a].partial(keep[b]).eval_at(p) - gp[a] * gp[b]
               for b in range(m)] for a in range(m)]
    return (s ** k).scale(rational_det(t_at_p) / sp ** k)


class ChiDescriptor(NamedTuple):
    """Exact residue integrand: constant * numerator / denominator_base^exp."""

    constant: Fraction
    numerator: MultiPoly
    denominator_base: MultiPoly
    denominator_exp: int


def chi_descriptor(rc: ResidueChain) -> ChiDescriptor:
    n, d = rc.gd.nvars, len(rc.S) - 1
    constant = Fraction(-1) ** (n - d) * Fraction(rc.g + 1, 4) ** (n - d)
    for k in range(2, n - d + 1):
        constant *= k
    return ChiDescriptor(constant=constant, numerator=rc.gd,
                         denominator_base=rc.S[-1],
                         denominator_exp=2 * (n - d))


class IntersectionVerdict(NamedTuple):
    """The rule that decided the product, None when none did, and the
    residue integrand of an undecided full cone."""

    reason: Optional[str]
    chi: Optional[ChiDescriptor] = None

    @property
    def value(self) -> str:
        """One for the toric common-cone rule, zero for every other rule,
        unknown when no rule decided."""
        if self.reason is None:
            return "unknown"
        return "one" if self.reason == ONE_TORIC_COMMON_CONE else "zero"


def intersection_vanishing(c: MarkedCone, selected: Sequence[int]) -> IntersectionVerdict:
    """Vanishing verdict for the product of the selected boundary divisors.

    Precedence of the zero criteria is fixed: d >= g-1 first, then an
    interior (positive definite) selected edge; at g = 2 the first always
    holds (module docstring).  Anything surviving both is reported
    unknown, with the exact residue integrand attached when the cone is
    full: the chain runs on the pencil reordered to put the selected
    generators first, which leaves |det| and so the lattice volume alone.
    """
    n = sym_dim(c.g)
    sel = [int(i) for i in selected]
    if len(set(sel)) != len(sel):
        raise ValueError("selected edge indices must be distinct")
    if any(not 0 <= i < len(c.generators) for i in sel):
        raise ValueError("selected edge index out of range")
    d = len(sel)
    if n == 1:
        raise ValueError("N = 1 has no selection (its size must be in [1, N - 1])")
    if not 1 <= d <= n - 1:
        raise ValueError(f"selection size must be in [1, {n - 1}], got {d}")
    if d >= c.g - 1:
        return IntersectionVerdict(ZERO_D_GE_G_MINUS_1)
    for i in sel:
        if edge_class(c.generators[i]).kind == "interior":
            return IntersectionVerdict(ZERO_INTERIOR_EDGE)
    chi = None
    if len(c.generators) == n:
        order = sel + [i for i in range(n) if i not in sel]
        v = volume_function(c)
        permuted = VolumeFunction(tuple(v.pencil[i] for i in order), v.vol)
        chi = chi_descriptor(residue_chain(permuted, d))
    return IntersectionVerdict(None, chi)


def toric_verdict(fan: Fan, rays: Sequence[Sequence[int]]) -> IntersectionVerdict:
    """Toric 0/1 rule for a full product of boundary divisors: value "one"
    iff the N given rays (directions in MarkedCone.coords) are exactly the
    rays of one common top-dimensional cone of the (regular) fan, else "zero"."""
    n = sym_dim(fan.g)
    if len(rays) != n:
        raise ValueError(f"need exactly {n} edges, got {len(rays)}")
    top_cones = [c for c in fan.cones if len(c.generators) == n]
    for c in top_cones:
        if not is_regular(c):
            raise ConeShapeError("fan has a non-regular top cone; unsupported")
    if any(len(r) != n or not all(type(v) is int for v in r) or not any(r) for r in rays):
        raise ValueError(f"each ray must be a nonzero integer vector of length {n}")
    rays = {primitive_ray(r) for r in rays}
    if len(rays) != n:
        raise ValueError("edge rays must be pairwise distinct")
    if any(c.rays() == rays for c in top_cones):
        return IntersectionVerdict(ONE_TORIC_COMMON_CONE)
    return IntersectionVerdict(ZERO_TORIC_EMPTY)
