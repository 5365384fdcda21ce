"""Polynomial-matrix routes that the package decides in closed form.

The log-Hessian numerator matrix T of a polynomial, its determinant by
the Euler reduction, the residue minor g_d built from that determinant,
and the per-variable degree bounds read off the expanded entries of T.
These expand symbolic Hessians, so they are test oracles for
siegeltoric.volume_ke and siegeltoric.residue_intersect, not package code.
The Euler reduction is derived in the siegeltoric.volume_ke docstring.
degree_profile sets deg_i F beside rank A_i, which the
siegeltoric.residue_intersect docstring proves equal on every cone.
volume_function_from_pencil builds the VolumeFunction of an explicit
pencil, dependent ones included, which no cone and no CLI path produces.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from siegeltoric.exact_algebra import MultiPoly, PolyMatrix
from siegeltoric.volume_ke import VolumeFunction, pencil_coordinate_det

from naive_oracle import frac_rank


def volume_function_from_pencil(mats: Sequence[Sequence[Sequence[Fraction | int]]],
                                vol: int) -> VolumeFunction:
    """Volume-function wrapper around an explicit pencil (no cone attached);
    its N matrices must be symmetric, but need not be independent."""
    pencil = tuple(
        tuple(tuple(Fraction(v) for v in row) for row in m) for m in mats)
    v = VolumeFunction(pencil=pencil, vol=vol)
    if pencil_coordinate_det(pencil) == 0:
        v.F  # expanding F raises if it is 0; independent pencils span I
    return v


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
    with f^M left unexpanded when det(H) is 0, and the determinant of the
    constant entries otherwise.
    """
    e = _euler_degree(f, keep)
    if e < 2:
        return _t_matrix(f, keep).det()
    det_h = _symmetric(len(keep), _hessian_entries(f, keep)).det()
    if det_h.is_zero():
        return det_h
    return (f ** len(keep) * det_h).scale(Fraction(-1, e - 1))


def residue_minor(v: VolumeFunction, d: int) -> MultiPoly:
    """g_d of the residue chain by the Euler reduction of S_d's Hessian."""
    s = v.F
    for k in range(d):
        _, s = s.leading_coeff_in(k)
    return euler_t_det(s, range(d, v.nvars))


class DegreeProfile(NamedTuple):
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
    entries = tuple((v.F.degree_in(i), frac_rank(v.pencil[i]))
                    for i in range(v.nvars))
    return DegreeProfile(entries=entries, violations=tuple(
        i for i, (deg, rank) in enumerate(entries) if deg != rank))


@dataclass(frozen=True)
class TDegreeReport:
    ok: bool
    failures: tuple[str, ...]
    det_bound_checked: bool


def t_degree_bounds(v: VolumeFunction) -> TDegreeReport:
    """Per-variable degree bounds on T, the entry bounds read off its
    expanded entries:

        deg_k T_kk = 2 deg_k F - 2,
        deg_k T_kj <= 2 deg_k F - 1   (j != k),
        deg_k T_ij <= 2 deg_k F       (i, j != k),
        deg_k det T <= 2 N deg_k F - 2.

    With D = deg_k F >= 1 and a_D the coefficient of x_k^D in F, the
    x_k^(2D-2) coefficient of T_kk = F F_kk - F_k^2 is -D a_D^2, which is not
    zero, and the other entry bounds follow from the degrees of the factors;
    with D = 0, T_kk is 0 and fails.  By the closed form of det T
    (volume_ke), deg_k det T = (g+1)(g-1) deg_k F, or -1 if det M = 0, which
    meets its bound exactly when D >= 1.  So the bounds fail exactly where
    deg_k F = 0, never on a cone, where deg_k F = rank A_k >= 1.
    """
    n = v.nvars
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
