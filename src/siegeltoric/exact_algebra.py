"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``n`` variables is stored as a map from exponent tuples
(length ``n``, nonnegative ints) to nonzero ``Fraction`` coefficients, so
every operation here is exact: no floating point anywhere.  The canonical
term order for display and serialization is graded lexicographic
(total degree first, then the exponent tuple), descending.

Matrices of polynomials have one exact determinant route: a division-free
Laplace expansion memoized over column subsets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

Exponent = tuple[int, ...]


class DimensionError(ValueError):
    """Operands have incompatible variable counts or matrix shapes."""


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial got the zero one."""


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if nvars < 0:
            raise DimensionError(f"nvars must be nonnegative, got {nvars}")
        object.__setattr__(self, "nvars", nvars)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars:
                    raise DimensionError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = Fraction(coeff)
                if c != 0:
                    clean[exp] = clean.get(exp, Fraction(0)) + c
                    if clean[exp] == 0:
                        del clean[exp]
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Fraction | int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, idx: int) -> "MultiPoly":
        if not 0 <= idx < nvars:
            raise DimensionError(f"variable index {idx} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[idx] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The term map; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coeff(self, exp: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def degree_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        self._check_var(var)
        if not self._terms:
            return -1
        return max(e[var] for e in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def num_terms(self) -> int:
        return len(self._terms)

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self.nvars:
            raise DimensionError(f"variable index {var} out of range for nvars={self.nvars}")

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"mismatched variable counts: {self.nvars} vs {other.nvars}")

    # ------------------------------------------------------------------
    # ring operations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return _raw(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, Fraction(0)) - c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return _raw(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return _raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        if not self._terms or not other._terms:
            return MultiPoly.zero(self.nvars)
        # Clear denominators so the hot loop runs on plain ints.
        den_a = math.lcm(*(c.denominator for c in self._terms.values()))
        den_b = math.lcm(*(c.denominator for c in other._terms.values()))
        a = {e: int(c * den_a) for e, c in self._terms.items()}
        b = {e: int(c * den_b) for e, c in other._terms.items()}
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponent, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        den = den_a * den_b
        return _raw(self.nvars,
                    {e: Fraction(c, den) for e, c in out.items() if c})

    def scale(self, value: Fraction | int) -> "MultiPoly":
        v = Fraction(value)
        if v == 0:
            return MultiPoly.zero(self.nvars)
        return _raw(self.nvars, {e: c * v for e, c in self._terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        """k - 1 multiplications by self.  Repeated squaring ends on a
        product of two large operands; keeping one operand small is faster
        on sparse polynomials (Monagan and Pearce, CASC 2007)."""
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return MultiPoly.const(self.nvars, 1)
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    # ------------------------------------------------------------------
    # calculus / evaluation

    def partial(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to one variable."""
        self._check_var(var)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._terms.items():
            k = exp[var]
            if k == 0:
                continue
            new = list(exp)
            new[var] = k - 1
            out[tuple(new)] = c * k
        return _raw(self.nvars, out)

    def eval_at(self, point: Sequence[Fraction | int]) -> Fraction:
        """Exact value at a rational point."""
        vals = [Fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise DimensionError(
                f"point has length {len(vals)}, expected {self.nvars}")
        # Cache powers per variable; exponents repeat heavily.
        pow_cache: list[dict[int, Fraction]] = [dict() for _ in range(self.nvars)]

        def vpow(i: int, k: int) -> Fraction:
            if k == 0:
                return Fraction(1)
            cache = pow_cache[i]
            got = cache.get(k)
            if got is None:
                got = vals[i] ** k
                cache[k] = got
            return got

        total = Fraction(0)
        for exp, c in self._terms.items():
            term = c
            for i, k in enumerate(exp):
                if k:
                    term *= vpow(i, k)
            total += term
        return total

    def leading_coeff_in(self, var: int) -> tuple[int, "MultiPoly"]:
        """Degree in ``var`` and the polynomial coefficient of its top power.

        The returned coefficient keeps the same variable count with the
        extracted variable's exponent zeroed out.
        """
        self._check_var(var)
        if not self._terms:
            raise ZeroPolynomialError("leading coefficient of the zero polynomial")
        d = self.degree_in(var)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._terms.items():
            if exp[var] == d:
                new = list(exp)
                new[var] = 0
                out[tuple(new)] = c
        return d, _raw(self.nvars, out)

    # ------------------------------------------------------------------
    # presentation

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for i, k in enumerate(exp):
                if k == 1:
                    factors.append(f"x{i + 1}")
                elif k > 1:
                    factors.append(f"x{i + 1}^{k}")
            body = "*".join(factors)
            if not body:
                text = str(coeff)
            elif coeff == 1:
                text = body
            elif coeff == -1:
                text = "-" + body
            else:
                text = f"{coeff}*{body}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self._terms!r})"


def _raw(nvars: int, terms: dict[Exponent, Fraction]) -> MultiPoly:
    """Build a MultiPoly from an already-canonical term dict (no copying)."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "_terms", terms)
    return p


class PolyMatrix:
    """Rectangular matrix of MultiPoly entries sharing one variable count."""

    __slots__ = ("rows", "cols", "nvars", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[MultiPoly]):
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries, got {len(entries)}")
        nvars = entries[0].nvars
        for e in entries:
            if e.nvars != nvars:
                raise DimensionError("entries disagree on variable count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> MultiPoly:
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> list[MultiPoly]:
        return self._entries[i * self.cols:(i + 1) * self.cols]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> MultiPoly:
        """Exact determinant, for every order by a division-free Laplace
        expansion memoized over column subsets, which multiplies each minor
        only by single entries and so keeps the intermediate polynomials as
        small as the minors themselves.
        """
        if not self.is_square():
            raise DimensionError(f"determinant of a {self.rows}x{self.cols} matrix")
        return _det_laplace_memo([self.row(i) for i in range(self.rows)])


def _det_laplace_memo(grid: list[list[MultiPoly]]) -> MultiPoly:
    # minors[S] = det of rows 0..k-1 and the column set S (bitmask), built
    # one row at a time; each step multiplies a minor by a single entry.
    n = len(grid)
    nvars = grid[0][0].nvars
    minors: dict[int, MultiPoly] = {0: MultiPoly.const(nvars, 1)}
    for k in range(n):
        nxt: dict[int, MultiPoly] = {}
        for mask, minor in minors.items():
            if minor.is_zero():
                continue
            pos = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    pos += 1
                    continue
                entry = grid[k][j]
                if not entry.is_zero():
                    term = minor * entry
                    if (k + pos) % 2 == 1:
                        term = -term
                    new_mask = mask | bit
                    acc = nxt.get(new_mask)
                    nxt[new_mask] = term if acc is None else acc + term
        minors = nxt
        if not minors:
            return MultiPoly.zero(nvars)
    return minors.get((1 << n) - 1, MultiPoly.zero(nvars))


RationalMatrix = Sequence[Sequence[Fraction | int]]


def pencil_det(mats: Sequence[RationalMatrix]) -> MultiPoly:
    """Determinant of the linear matrix pencil sum_i x_i * mats[i].

    Every input must be a square symmetric matrix of one common size g; the
    result is homogeneous of degree g (or zero for a degenerate pencil) in
    len(mats) variables.
    """
    if not mats:
        raise DimensionError("empty pencil")
    nvars = len(mats)
    g = len(mats[0])
    for idx, mat in enumerate(mats):
        if len(mat) != g or any(len(row) != g for row in mat):
            raise DimensionError(f"pencil matrix {idx} is not {g}x{g}")
        for i in range(g):
            for j in range(g):
                if Fraction(mat[i][j]) != Fraction(mat[j][i]):
                    raise DimensionError(f"pencil matrix {idx} is not symmetric")
    entries = []
    for i in range(g):
        for j in range(g):
            terms: dict[Exponent, Fraction] = {}
            for k, mat in enumerate(mats):
                c = Fraction(mat[i][j])
                if c:
                    exp = [0] * nvars
                    exp[k] = 1
                    terms[tuple(exp)] = c
            entries.append(MultiPoly(nvars, terms))
    return PolyMatrix(g, g, entries).det()


def poly_to_json(p: MultiPoly) -> dict:
    """JSON form: exponents in descending graded-lex order, rationals as strings."""
    return {
        "nvars": p.nvars,
        "terms": [
            {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
            for exp, c in p.sorted_terms()
        ],
    }


def poly_from_json(obj: Mapping) -> MultiPoly:
    nvars = int(obj["nvars"])
    terms: dict[Exponent, Fraction] = {}
    for t in obj.get("terms", []):
        exp = tuple(int(e) for e in t["exp"])
        terms[exp] = Fraction(int(t["num"]), int(t["den"]))
    return MultiPoly(nvars, terms)
