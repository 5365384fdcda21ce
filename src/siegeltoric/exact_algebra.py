"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``n`` variables is stored as a map from exponent tuples
(length ``n``, nonnegative ints) to nonzero exact coefficients.  One rule
reads a number: the constructor (coefficients), ``scale`` (the factor) and
``eval_at`` (the point) take an ``int`` or a ``Fraction`` only and keep an
integral one an ``int``, so integral polynomials multiply, and evaluate at
integer points, on ints.  No floating point anywhere: dividing a
coefficient takes ``Fraction``.  The canonical term order for display and
serialization is graded lexicographic (total degree first, then the
exponent tuple), descending.

Matrices of polynomials have one exact determinant route: a division-free
Laplace expansion memoized over column subsets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Exponent = tuple[int, ...]


def _exact(v, what: str) -> Fraction | int:
    """An int or a Fraction v as the package stores a number, an integral
    one as an int; else ValueError: Fraction() would read 0.1 as its binary
    value 3602879701896397/2^55 and True as 1."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        raise ValueError(f"{what} {v!r} is not an int or a Fraction")
    return v.numerator if v.denominator == 1 else v


def _grlex_key(exp: Exponent) -> tuple[int, Exponent]:
    return (sum(exp), exp)


class MultiPoly:
    """Immutable sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction | int] | None = None):
        if type(nvars) is not int:
            raise ValueError(f"nvars must be an int, got {nvars!r}")
        if nvars < 0:
            raise ValueError(f"nvars must be nonnegative, got {nvars}")
        object.__setattr__(self, "nvars", nvars)
        clean: dict[Exponent, Fraction | int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if any(type(e) is not int for e in exp):
                    raise ValueError(f"non-int exponent in {exp}")
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = _exact(coeff, "coefficient")
                if c != 0:
                    clean[exp] = clean.get(exp, 0) + c
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
        return cls(nvars, {(0,) * nvars: value})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def terms(self) -> dict[Exponent, Fraction | int]:
        """The term map; treat as read-only."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coeff(self, exp: Sequence[int]) -> Fraction | int:
        return self._terms.get(tuple(exp), 0)

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

    def num_terms(self) -> int:
        return len(self._terms)

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for nvars={self.nvars}")

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
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
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
        return _raw(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + -other

    def __neg__(self) -> "MultiPoly":
        return _raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exponent, Fraction | int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return _raw(self.nvars, {e: c for e, c in out.items() if c})

    def scale(self, value: Fraction | int) -> "MultiPoly":
        v = _exact(value, "scale factor")
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
        out: dict[Exponent, Fraction | int] = {}
        for exp, c in self._terms.items():
            k = exp[var]
            if k == 0:
                continue
            new = list(exp)
            new[var] = k - 1
            out[tuple(new)] = c * k
        return _raw(self.nvars, out)

    def eval_at(self, point: Sequence[Fraction | int]) -> Fraction | int:
        """Exact value at a rational point, summed term by term: an int
        when the coefficients and the point are integral."""
        vals = [_exact(v, "point entry") for v in point]
        if len(vals) != self.nvars:
            raise ValueError(
                f"point has length {len(vals)}, expected {self.nvars}")
        total = 0
        for exp, c in self._terms.items():
            term = c
            for x, k in zip(vals, exp):
                if k:
                    term *= x ** k
            total += term
        return total

    def leading_coeff_in(self, var: int) -> tuple[int, "MultiPoly"]:
        """Degree in ``var`` and the polynomial coefficient of its top power.

        The returned coefficient keeps the same variable count with the
        extracted variable's exponent zeroed out.
        """
        self._check_var(var)
        if not self._terms:
            raise ValueError("leading coefficient of the zero polynomial")
        d = self.degree_in(var)
        out: dict[Exponent, Fraction | int] = {}
        for exp, c in self._terms.items():
            if exp[var] == d:
                new = list(exp)
                new[var] = 0
                out[tuple(new)] = c
        return d, _raw(self.nvars, out)

    # ------------------------------------------------------------------
    # presentation

    def sorted_terms(self) -> list[tuple[Exponent, Fraction | int]]:
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self._terms!r})"


def _raw(nvars: int, terms: dict[Exponent, Fraction | int]) -> MultiPoly:
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
            raise ValueError("matrix dimensions must be positive")
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(entries)}")
        nvars = entries[0].nvars
        for e in entries:
            if e.nvars != nvars:
                raise ValueError("entries disagree on variable count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMatrix is immutable")

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
            raise ValueError(f"determinant of a {self.rows}x{self.cols} matrix")
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


def pencil_size(mats: Sequence[RationalMatrix]) -> int:
    """The common size g of a pencil of symmetric g x g matrices, compared
    as given below the diagonal; else ValueError on the first fault."""
    if not mats:
        raise ValueError("empty pencil")
    g = len(mats[0])
    for idx, mat in enumerate(mats):
        if len(mat) != g or any(len(row) != g for row in mat):
            raise ValueError(f"pencil matrix {idx} is not {g}x{g}")
        if any(mat[i][j] != mat[j][i] for i in range(g) for j in range(i)):
            raise ValueError(f"pencil matrix {idx} is not symmetric")
    return g


def pencil_det(mats: Sequence[RationalMatrix]) -> MultiPoly:
    """Determinant of the linear matrix pencil sum_i x_i * mats[i].

    Every input must be a square symmetric matrix of one common size g; the
    result is homogeneous of degree g (or zero for a degenerate pencil) in
    len(mats) variables.
    """
    g = pencil_size(mats)
    nvars = len(mats)
    units = [tuple(int(k == l) for l in range(nvars)) for k in range(nvars)]
    entries = [MultiPoly(nvars, {units[k]: mat[i][j] for k, mat in enumerate(mats)})
               for i in range(g) for j in range(g)]
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

