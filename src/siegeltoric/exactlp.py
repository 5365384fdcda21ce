"""Exact rational linear programming on an integer tableau.

One route decides every LP question in the package: the simplex method
with Bland's rule (smallest entering index, ties in the ratio test broken
by smallest basic index), which cannot cycle.

Each rational row is scaled by the lcm of its denominators and kept
primitive by dividing out the gcd of its entries, so the tableau holds
plain ints.  A row stands for its equation up to a positive factor; the
basic variable of a row has a positive coefficient there and takes the
value rhs / coefficient.  A pivot on the positive entry pv = row_r[e]
replaces every other row by pv * row_i - row_i[e] * row_r, which keeps
each row's sign, and the ratio test compares rhs_i / row_i[e] by
cross-multiplication.

One formulation serves every question, `maximal_support`.  It starts
from one artificial variable per row; artificial columns are never
stored, since an artificial that leaves the basis never re-enters.  The
rows have zero rhs, so the artificials sit at level zero and phase 1 is
over before it starts: they are driven out of the basis, and phase 2
runs on

    maximise sum_i t_i   subject to   A x = 0,  0 <= t_i <= x_i,  t_i <= 1,

whose optimum has t_i = 1 exactly on the maximal support of the cone
{x >= 0 : A x = 0} (the sum of points positive at each i is positive at
all of them, and the cone is closed under scaling) and t_i = 0 elsewhere.
Feasibility is homogenized: some x >= 0 solves A x = b exactly when the
cone {(s, x) >= 0 : A x - s b = 0} has s in its maximal support, since
(s, x) with s > 0 gives the solution x / s and a solution x gives (1, x).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def feasible_eq_nonneg(
    rows: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
    nvars: int,
) -> bool:
    """True iff some x >= 0 in Q^nvars satisfies rows . x = rhs; a row of
    the wrong length homogenizes to one that maximal_support rejects."""
    if len(rows) != len(rhs):
        raise ValueError("rows/rhs length mismatch")
    return bool(maximal_support([[-b, *row] for row, b in zip(rows, rhs)], nvars + 1, 1))


def cone_membership(
    point: Sequence[Fraction | int],
    generators: Sequence[Sequence[Fraction | int]],
) -> bool:
    """True iff point = sum_j mu_j * generators[j] for some mu >= 0."""
    rows = [[gen[i] for gen in generators] for i in range(len(point))]
    return feasible_eq_nonneg(rows, point, len(generators))


def maximal_support(
    rows: Sequence[Sequence[Fraction | int]], nvars: int, k: int,
) -> list[int]:
    """Indices i < k with x_i > 0 at some x >= 0 in Q^nvars with rows . x = 0.

    Solves the phase-2 LP of the module docstring once; the result is
    empty iff the cone {x >= 0 : rows . x = 0} has x_0 = ... = x_{k-1} = 0.
    """
    if any(len(row) != nvars for row in rows):
        raise ValueError("row length disagrees with nvars")
    # columns: t_0..t_{k-1}, then x with x_i = t_i + p_i for i < k (so
    # the column of p_i is that of x_i), then slacks q_i = 1 - t_i
    q0 = k + nvars
    width = q0 + k
    tab = [_primitive(scaled_row([*row[:k], *row, *([0] * k), 0])[0]) for row in rows]
    for i in range(k):
        bound = [0] * (width + 1)
        bound[i] = bound[q0 + i] = bound[width] = 1
        tab.append(bound)
    basis = [width + i for i in range(len(rows))] + [q0 + i for i in range(k)]
    obj = [1] * k + [0] * (width + 1 - k)
    # the rows of A have zero rhs, so phase 1 is over before it starts;
    # its zero-level artificials are pivoted out before phase 2
    _drive_out_artificials(tab, basis, obj, width)
    _run(tab, basis, obj, width)
    return sorted(e for e, row in zip(basis, tab) if e < k and row[width] > 0)


# ----------------------------------------------------------------------
# integer tableau


def scaled_row(vals) -> tuple[list[int], int]:
    """A row of ints and Fractions times the lcm d of its denominators (1
    for a row of ints), as ints, and d."""
    d = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (d // v.denominator) for v in vals], d


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _combine(pv: int, row: list[int], f: int, prow: list[int]) -> list[int]:
    """pv * row - f * prow, made primitive."""
    return _primitive([pv * a - f * b for a, b in zip(row, prow)])


def _pivot(tab, basis, obj, r: int, e: int) -> None:
    """Make column e basic in row r; tab[r][e] must be positive."""
    prow = tab[r]
    pv = prow[e]
    for i, row in enumerate(tab):
        if i != r and row[e]:
            tab[i] = _combine(pv, row, row[e], prow)
    if obj[e]:
        obj[:] = _combine(pv, obj, obj[e], prow)
    basis[r] = e


def _run(tab, basis, obj, ncols: int) -> None:
    """Bland's rule on obj (enter while some obj[j] > 0, j < ncols)."""
    while True:
        # basic columns have obj[j] == 0, so this scans the nonbasic ones
        e = next((j for j in range(ncols) if obj[j] > 0), None)
        if e is None:
            return
        r = None
        for i, row in enumerate(tab):
            a = row[e]
            if a > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = row[-1] * tab[r][e], tab[r][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            # the support LP is bounded: t_i <= 1
            raise ArithmeticError("unbounded linear program")
        _pivot(tab, basis, obj, r, e)


def _drive_out_artificials(tab, basis, obj, ncols: int) -> None:
    """Pivot every zero-level artificial out of the basis; drop the rows
    (redundant equations) that have no nonzero entry to pivot on."""
    r = 0
    while r < len(tab):
        if basis[r] < ncols:
            r += 1
            continue
        row = tab[r]
        e = next((j for j in range(ncols) if row[j]), None)
        if e is None:
            del tab[r], basis[r]
            continue
        if row[e] < 0:
            tab[r] = [-v for v in row]   # rhs is 0, so the sign is free
        _pivot(tab, basis, obj, r, e)
        r += 1
