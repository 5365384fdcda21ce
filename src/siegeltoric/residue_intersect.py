"""Degree diagnostics, the residue chain, and boundary intersection verdicts.

The residue chain iterates leading-coefficient extraction on a volume
polynomial: S_0 = F, and S_k is the coefficient of the top power of the
k-th marked variable in S_{k-1}.  After d steps the chain's minor
determinant g_d = det(P restricted to the unselected variables), with
P_lm = S_d * d2(S_d)/dx_l dx_m - d(S_d)/dx_l * d(S_d)/dx_m, is the exact
numerator of the iterated residue integrand (S_d is homogeneous in the
unselected variables and free of the others, so g_d comes from the Euler
reduction volume_ke.euler_t_det); the accompanying
constant is (-1)^(N-d) * ((g+1)/4)^(N-d) * (N-d)!.  No integration is
performed here, only the exact integrand data is produced.

Intersection verdicts implement the vanishing criteria for products of
boundary divisors (d >= g-1, interior edges, the genus-two top case) with
a fixed precedence, plus the toric 0/1 rule for full products over a
regular fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cone_lattice import (
    ConeShapeError,
    Fan,
    MarkedCone,
    edge_class,
    is_regular,
    matrix_rank,
    primitive_ray,
    coords_in_lattice,
    sym_dim,
)
from .exact_algebra import MultiPoly
from .volume_ke import (VolumeFunction, euler_t_det, pencil_coordinate_det, t_matrix,
                        volume_function)

# the residue chain and the T degree bounds run on volume polynomials of up
# to this many variables
SYMBOLIC_NVARS_MAX = 6

ZERO_D_GE_G_MINUS_1 = "d_ge_g_minus_1"
ZERO_INTERIOR_EDGE = "interior_edge"
ZERO_GENUS_TWO_TOP = "genus_two_top"
ZERO_TORIC_EMPTY = "toric_empty"
ONE_TORIC_COMMON_CONE = "toric_common_cone"


class CostGuardError(ValueError):
    """A symbolic computation requested beyond the N <= 6 cost guard; the
    input is too large, so the CLI reports it as an input error."""


class DegenerateResidueError(ValueError):
    """A leading-coefficient step hit the zero polynomial."""


@dataclass(frozen=True)
class DegreeProfile:
    entries: tuple[tuple[int, int], ...]   # (deg_i F, rank A_i) per variable
    violations: tuple[int, ...]            # variable indices where they differ

    @property
    def ok(self) -> bool:
        return not self.violations


def degree_profile(v: VolumeFunction) -> DegreeProfile:
    """Per-variable degree of F next to the rank of the pencil matrix.

    For volume polynomials of pencils positive somewhere in the open
    orthant these must agree; disagreements are reported, not raised.
    """
    entries = []
    violations = []
    for i in range(v.nvars):
        deg = v.F.degree_in(i)
        rank = matrix_rank(v.pencil[i])
        entries.append((deg, rank))
        if deg != rank:
            violations.append(i)
    return DegreeProfile(entries=tuple(entries), violations=tuple(violations))


@dataclass(frozen=True)
class TDegreeReport:
    ok: bool
    failures: tuple[str, ...]
    det_bound_checked: bool


def t_degree_bounds(v: VolumeFunction) -> TDegreeReport:
    """Per-variable degree bounds on the log-Hessian numerator matrix:

        deg_k T_kk = 2 deg_k F - 2,
        deg_k T_kj <= 2 deg_k F - 1   (j != k),
        deg_k T_ij <= 2 deg_k F       (i, j != k),
        deg_k det T <= 2 N deg_k F - 2.

    The det bound needs no det T: by its closed form (volume_ke), deg_k
    det T = (g+1)(g-1) deg_k F, or -1 (the zero polynomial) if det M = 0.
    The entry bounds expand the full N x N matrix T, so guarded to N <= 6.
    """
    n = v.nvars
    if n > SYMBOLIC_NVARS_MAX:
        raise CostGuardError(f"T degree bounds limited to N <= {SYMBOLIC_NVARS_MAX}, got N={n}")
    t = t_matrix(v)
    failures = []
    degf = [v.F.degree_in(k) for k in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dk = t.entry(i, j).degree_in(k)
                if i == k and j == k:
                    if dk != 2 * degf[k] - 2:
                        failures.append(
                            f"deg_{k + 1} T[{i + 1},{j + 1}] = {dk}, expected exactly {2 * degf[k] - 2}")
                elif i == k or j == k:
                    if dk > 2 * degf[k] - 1:
                        failures.append(
                            f"deg_{k + 1} T[{i + 1},{j + 1}] = {dk} > {2 * degf[k] - 1}")
                else:
                    if dk > 2 * degf[k]:
                        failures.append(
                            f"deg_{k + 1} T[{i + 1},{j + 1}] = {dk} > {2 * degf[k]}")
    dependent = pencil_coordinate_det(v.pencil) == 0
    for k in range(n):
        dk = -1 if dependent else (v.g + 1) * (v.g - 1) * degf[k]
        if dk > 2 * n * degf[k] - 2:
            failures.append(
                f"deg_{k + 1} det T = {dk} > {2 * n * degf[k] - 2}")
    return TDegreeReport(ok=not failures, failures=tuple(failures),
                         det_bound_checked=True)


@dataclass(frozen=True)
class ResidueChain:
    """Successive leading coefficients S_0..S_d and the minor determinant."""

    d: int
    S: tuple[MultiPoly, ...]
    gd: MultiPoly
    g: int
    nvars: int
    vol: int


def residue_chain(v: VolumeFunction, d: int) -> ResidueChain:
    """Run the leading-coefficient chain for the first d marked variables.

    Variable order follows the cone's marking order; callers that want a
    different divisor selection permute the marking first (see
    intersection_vanishing).  Symbolic, so guarded to N <= 6.
    """
    n = v.nvars
    if not 1 <= d <= n - 1:
        raise ValueError(f"d must be in [1, {n - 1}], got {d}")
    if n > SYMBOLIC_NVARS_MAX:
        raise CostGuardError(f"residue chain limited to N <= {SYMBOLIC_NVARS_MAX}, got N={n}")
    chain = [v.F]
    current = v.F
    for k in range(1, d + 1):
        if current.is_zero():
            raise DegenerateResidueError(f"S_{k - 1} is the zero polynomial")
        _, current = current.leading_coeff_in(k - 1)
        if current.is_zero():
            raise DegenerateResidueError(f"S_{k} is the zero polynomial")
        chain.append(current)
    gd = euler_t_det(chain[-1], range(d, n))
    return ResidueChain(d=d, S=tuple(chain), gd=gd, g=v.g, nvars=n, vol=v.vol)


@dataclass(frozen=True)
class ChiDescriptor:
    """Exact residue integrand: constant * numerator / denominator_base^exp."""

    constant: Fraction
    numerator: MultiPoly
    denominator_base: MultiPoly
    denominator_exp: int

    def is_identically_zero(self) -> bool:
        return self.numerator.is_zero()


def chi_descriptor(rc: ResidueChain) -> ChiDescriptor:
    n, d = rc.nvars, rc.d
    constant = Fraction(-1) ** (n - d) * Fraction(rc.g + 1, 4) ** (n - d)
    for k in range(2, n - d + 1):
        constant *= k
    return ChiDescriptor(constant=constant, numerator=rc.gd,
                         denominator_base=rc.S[-1],
                         denominator_exp=2 * (n - d))


@dataclass(frozen=True)
class IntersectionVerdict:
    value: str                     # "zero" | "one" | "unknown"
    reason: Optional[str] = None
    chi: Optional[ChiDescriptor] = None

    def __post_init__(self):
        if self.value == "zero" and self.reason is None:
            raise ValueError("a zero verdict needs exactly one reason")
        if self.value == "one" and self.reason != ONE_TORIC_COMMON_CONE:
            raise ValueError("value one arises only from the toric full-product rule")


def intersection_vanishing(c: MarkedCone, selected: Sequence[int]) -> IntersectionVerdict:
    """Vanishing verdict for the product of the selected boundary divisors.

    Precedence of the zero criteria is fixed: d >= g-1 first, then an
    interior (positive definite) selected edge, then the genus-two top
    case.  Anything surviving all three is reported unknown, with the
    exact residue integrand attached when d < g-1.
    """
    n = sym_dim(c.g)
    sel = [int(i) for i in selected]
    if len(set(sel)) != len(sel):
        raise ValueError("selected edge indices must be distinct")
    if any(not 0 <= i < len(c.generators) for i in sel):
        raise ValueError("selected edge index out of range")
    d = len(sel)
    if not 1 <= d <= n - 1:
        raise ValueError(f"selection size must be in [1, {n - 1}], got {d}")
    if d >= c.g - 1:
        return IntersectionVerdict(value="zero", reason=ZERO_D_GE_G_MINUS_1)
    for i in sel:
        if edge_class(c.generators[i]).kind == "interior":
            return IntersectionVerdict(value="zero", reason=ZERO_INTERIOR_EDGE)
    if c.g == 2 and d == 1:
        return IntersectionVerdict(value="zero", reason=ZERO_GENUS_TWO_TOP)
    chi = None
    if d < c.g - 1 and len(c.generators) == n:
        rest = [i for i in range(n) if i not in sel]
        order = sel + rest
        permuted = MarkedCone(
            g=c.g, scale=c.scale,
            generators=tuple(c.generators[i] for i in order),
            labels=tuple(c.labels[i] for i in order) if c.labels else None)
        chi = chi_descriptor(residue_chain(volume_function(permuted), d))
    return IntersectionVerdict(value="unknown", chi=chi)


def toric_full_intersection(fan: Fan, edges: Sequence[Sequence[Sequence[int]]]) -> int:
    """Toric 0/1 rule for a full product of boundary divisors.

    Returns 1 iff the N given edge rays are exactly the edges of one
    common top-dimensional cone of the (regular) fan, else 0.
    """
    n = sym_dim(fan.g)
    if len(edges) != n:
        raise ValueError(f"need exactly {n} edges, got {len(edges)}")
    top_cones = [c for c in fan.cones if len(c.generators) == n]
    for c in top_cones:
        if not is_regular(c):
            raise ConeShapeError("fan has a non-regular top cone; unsupported")
    rays = []
    for e in edges:
        rays.append(primitive_ray(coords_in_lattice(e, fan.scale)))
    if len(set(rays)) != n:
        raise ValueError("edge rays must be pairwise distinct")
    ray_set = set(rays)
    for c in top_cones:
        if c.rays() == ray_set:
            return 1
    return 0


def toric_verdict(fan: Fan, edges: Sequence[Sequence[Sequence[int]]]) -> IntersectionVerdict:
    """IntersectionVerdict wrapper around toric_full_intersection."""
    if toric_full_intersection(fan, edges) == 1:
        return IntersectionVerdict(value="one", reason=ONE_TORIC_COMMON_CONE)
    return IntersectionVerdict(value="zero", reason=ZERO_TORIC_EMPTY)
