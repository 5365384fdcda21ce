"""Rational polyhedral cones in the space of symmetric g x g matrices.

The ambient lattice is Lambda = scale * Sym_g(Z) with the standard basis
delta_{ii} = E_ii, delta_{ij} = E_ij + E_ji (i < j), listed in the order
(1,1),(1,2),...,(1,g),(2,2),...,(g,g).  Cones are simplicial and marked:
the generators carry a fixed order.  GL(g,Z) acts by A -> f A f^T.

All predicates here are exact (integer / Fraction arithmetic).  A
generator is checked once, by the `MarkedCone` or `GroupElement`
constructor: int entries only (`as_int_matrix` converts none), and for
a cone a nonzero symmetric matrix of the lattice; `edge_class` and the
other readers of a cone rely on that.  A cone's coordinates are reduced
once, by the integer column reduction `lattice_index`; independence,
regularity and lattice volume read that index.  A GL(g,Z) translate of
a cone is a cone with the same index, so `is_separable` reads its
coordinates off the products gamma A gamma^T and builds no second
`MarkedCone`.  `Fan` alone identifies rays across cones, in the ray
table it builds once.  Rational determinants, adjugates and PSD ranks
share one fraction-free elimination kernel, and membership and
intersection questions reduce to maximal supports of rational cones
(`exactlp`).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactlp import cone_membership, maximal_support, scaled_row

IntMatrix = tuple[tuple[int, ...], ...]

_QUOTE_MAX = 40   # characters of a rejected value quoted in an error


class DegenerateConeError(ValueError):
    """The generators do not span a full-dimensional cone."""


class ConeShapeError(ValueError):
    """Structurally invalid cone or group data."""


class NotInLatticeError(ConeShapeError):
    """Matrix entries are not divisible by the lattice scale."""


def _unlimited_digits(fn, *args):
    """fn(*args) with the limit that Python (3.10.7 on) sets on int-to-str
    conversion lifted, so that an int of any size can be written."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def quote(v) -> str:
    """repr(v) for an error message, bounded: a longer string is cut to its
    first _QUOTE_MAX characters and any other value to the first
    _QUOTE_MAX characters of its repr, followed by "... (N characters)".
    An int of any size is quoted."""
    text = _unlimited_digits(repr, v)
    n = len(v) if isinstance(v, str) else len(text)
    if n <= _QUOTE_MAX:
        return text
    head = repr(v[:_QUOTE_MAX]) if isinstance(v, str) else text[:_QUOTE_MAX]
    return f"{head}... ({n} characters)"


def sym_dim(g: int) -> int:
    """Dimension N = g(g+1)/2 of Sym_g."""
    return g * (g + 1) // 2


def delta_index_pairs(g: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, in the fixed basis order (0-based)."""
    return [(i, j) for i in range(g) for j in range(i, g)]


def as_int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """rows as a square tuple of int tuples.  An entry whose type is not
    int (a bool, float, Fraction or str among them) raises ConeShapeError;
    no entry is converted."""
    mat = tuple(map(tuple, rows))
    for i, row in enumerate(mat):
        if not all(type(v) is int for v in row):
            j, v = next((j, v) for j, v in enumerate(row) if type(v) is not int)
            raise ConeShapeError(f"entry ({i + 1},{j + 1})={quote(v)} is not an int")
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ConeShapeError("matrix is not square")
    return mat


def is_symmetric(m: IntMatrix) -> bool:
    g = len(m)
    return all(m[i][j] == m[j][i] for i in range(g) for j in range(i + 1, g))


def zeta_matrix(g: int, i: int, j: int) -> IntMatrix:
    """Principal-cone edge generators: E_ii on the diagonal and
    -E_ij - E_ji + E_ii + E_jj off it (0-based indices, i <= j)."""
    rows = [[0] * g for _ in range(g)]
    if i == j:
        rows[i][i] = 1
    else:
        rows[i][i] = 1
        rows[j][j] = 1
        rows[i][j] = -1
        rows[j][i] = -1
    return as_int_matrix(rows)


# ----------------------------------------------------------------------
# exact elimination: one fraction-free Bareiss kernel for every rational
# determinant, adjugate and PSD test


def _int_rows(m) -> tuple[list[list[int]], int]:
    """Rows of m, entries int or Fraction, each scaled to ints by the lcm of
    its denominators (1 for an int), and the product of those lcms."""
    scaled = [scaled_row(row) for row in m]
    return [ints for ints, _ in scaled], math.prod(d for _, d in scaled)


def _bareiss(a: list[list[int]], pick, jordan: bool = False) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the int matrix a, in place.

    Step k asks pick(a, k) for a pivot (r, c) with r, c >= k and a[r][c]
    != 0, or None to stop; row r and column c are swapped into place k.
    Each entry of the live block i, j > k then becomes
    (a[k][k] a[i][j] - a[i][k] a[k][j]) / (previous pivot), and the
    division is exact: by Sylvester's identity (Bareiss, Math. Comp. 22,
    1968) it is the minor of a on the pivot rows and columns plus i and j,
    which is the Schur complement entry times the leading minor on the
    pivots.  Returns the number of pivots k and the signed leading minor
    on them, so det a = that minor when k = len(a) = len(a[0]).

    With jordan=True the rows above the pivot are eliminated too
    (fraction-free Gauss-Jordan).  Their entries j > k are then the
    leading minor times those of P^-1 Q, for P the pivot block and Q the
    columns j beside it, which by Cramer's rule are minors of a as well,
    so those divisions are exact too.  Columns j <= k are left stale.
    """
    nrows, ncols = len(a), len(a[0]) if a else 0
    sign, prev, k = 1, 1, 0
    while k < min(nrows, ncols):
        got = pick(a, k)
        if got is None:
            break
        r, c = got
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        if c != k:
            for row in a:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i in range(0 if jordan else k + 1, nrows):
            if i == k:
                continue
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, ncols):
                ai[j] = (p * ai[j] - f * ak[j]) // prev
        prev = p
        k += 1
    return k, sign * prev


def _positive_diagonal(a: list[list[int]], k: int) -> Optional[tuple[int, int]]:
    """Pivot for psd_rank: a positive live diagonal entry, none once one is
    negative."""
    diag = [a[i][i] for i in range(k, len(a))]
    if min(diag) < 0:
        return None
    i = next((i for i, v in enumerate(diag, k) if v > 0), None)
    return None if i is None else (i, i)


def _in_column(a: list[list[int]], k: int) -> Optional[tuple[int, int]]:
    """Pivot for rational_det and int_det_adjugate: the first nonzero live
    entry of column k, so that only rows are swapped."""
    return next(((r, k) for r in range(k, len(a)) if a[r][k]), None)


def rational_det(m: Sequence[Sequence[int | Fraction]]) -> Fraction:
    """Exact determinant of a square int or Fraction matrix; elimination
    stops at the first live column with no nonzero entry, where the det is 0."""
    a, scale = _int_rows(m)
    if any(len(row) != len(a) for row in a):
        raise ConeShapeError("determinant of a non-square matrix")
    k, minor = _bareiss(a, _in_column)
    return Fraction(minor, scale) if k == len(a) else Fraction(0)


def _check_ints(rows, name: str) -> None:
    """TypeError on the first entry of rows whose type is not int (a bool,
    float or Fraction among them): the integer kernels convert none."""
    for row in rows:
        for v in row:
            if type(v) is not int:
                raise TypeError(f"{name} needs int entries, got {type(v).__name__}")


def int_det_adjugate(y: Sequence[Sequence[int]]) -> tuple[int, Optional[list[list[int]]]]:
    """det y and adj y of a square integer matrix y; adj is None when det y
    is 0.  An entry that is not an int raises TypeError.

    Fraction-free Gauss-Jordan on [y | I] turns the right block into
    d y^-1, where d = +-det y is the last pivot, and adj y = det(y) y^-1.
    """
    g = len(y)
    _check_ints(y, "int_det_adjugate")
    a = [list(row) + [int(i == j) for j in range(g)] for i, row in enumerate(y)]
    k, det = _bareiss(a, _in_column, jordan=True)
    if k < g:
        return 0, None
    sign = 1 if det == a[g - 1][g - 1] else -1
    return det, [[sign * v for v in row[g:]] for row in a]


def psd_rank(m: Sequence[Sequence[int | Fraction]]) -> Optional[int]:
    """Rank of a symmetric PSD int or Fraction matrix, or None if not PSD.

    Bareiss elimination on positive diagonal pivots.  Each live entry is
    the Schur complement entry times a positive factor (the row scales and
    the leading minor on the pivots), so it has the Schur entry's sign: a
    negative diagonal entry kills semidefiniteness, and once no diagonal
    entry is positive the matrix is PSD iff the live block vanishes.
    """
    a = _int_rows(m)[0]
    k = _bareiss(a, _positive_diagonal)[0]
    if any(a[i][j] for i in range(k, len(a)) for j in range(k, len(a))):
        return None
    return k


def lattice_index(rows: Sequence[Sequence[int]]) -> int:
    """Index in Z^k of the lattice spanned by the columns of a k x n
    integer matrix, or 0 when its rows are linearly dependent.

    Row by row, Euclid's algorithm on the row's entries in the columns not
    yet used, by unimodular column operations (swap, subtract an integer
    multiple), leaves one column holding their gcd and zeroes the others.
    Such operations keep the lattice spanned by the columns, so the matrix
    ends lower triangular with nonzero diagonal entries and the index is
    the product of their absolute values; a row whose remaining entries all
    vanish is a combination of the rows above it.  The index is the gcd of
    the k x k minors, that is the product of the elementary divisors, so
    it is 1 exactly when every elementary divisor is 1 (Smith), and |det|
    when k = n.  Columns are kept from entry i on: the used rows of the
    remaining columns are zero, and a pivot column is dropped once its
    diagonal entry is read.  An entry that is not an int raises TypeError.
    """
    _check_ints(rows, "lattice_index")
    cols = [list(col) for col in zip(*rows)]
    index = 1
    for i in range(len(rows)):
        while True:
            live = [c for c in cols if c[i]]
            if not live:
                return 0
            pivot = min(live, key=lambda c: abs(c[i]))
            if len(live) == 1:
                break
            for c in live:
                if c is not pivot:
                    q = c[i] // pivot[i]
                    c[i:] = [x - q * y for x, y in zip(c[i:], pivot[i:])]
        index *= abs(pivot[i])
        cols = [c for c in cols if c is not pivot]
    return index


# ----------------------------------------------------------------------
# domain types


class MarkedCone:
    """Simplicial cone in scale*Sym_g(Z) with an ordered generator list."""

    def __init__(self, g: int, scale: int, generators: Sequence[IntMatrix],
                 labels: Optional[Sequence[str]] = None):
        """The lattice index of the coordinates alone decides independence;
        primitive rays are compared only at index 0, to name a pair."""
        for name, v in (("g", g), ("scale", scale)):
            if type(v) is not int:
                raise ConeShapeError(f"{name} must be an int, got {quote(v)}")
            if v < 1:
                raise ConeShapeError(f"{name} must be positive, got {quote(v)}")
        n = sym_dim(g)
        gens = tuple(as_int_matrix(m) for m in generators)
        if not gens:
            raise ConeShapeError("cone needs at least one generator")
        if len(gens) > n:
            raise ConeShapeError(
                f"{len(gens)} generators exceed dim Sym_{g} = {n}")
        # coordinates c with m = scale * sum_k c_k delta_k; the upper
        # triangle of a symmetric m holds them all, so c = 0 iff m = 0
        coords = []
        for idx, m in enumerate(gens):
            if len(m) != g:
                raise ConeShapeError(f"generator {idx} is not {quote(g)}x{quote(g)}")
            if not is_symmetric(m):
                raise ConeShapeError(f"generator {idx} is not symmetric")
            c = []
            for i, j in delta_index_pairs(g):
                v = m[i][j]
                if v % scale:
                    raise NotInLatticeError(
                        f"entry ({i + 1},{j + 1})={quote(v)} not divisible by scale {quote(scale)}")
                c.append(v // scale)
            if not any(c):
                raise ConeShapeError(f"generator {idx} is zero")
            coords.append(tuple(c))
        index = lattice_index(coords)
        if not index:
            # proportional generators (primitive rays equal up to sign) are
            # dependent; name the class with the smallest first index
            classes: dict[tuple[int, ...], list[int]] = {}
            for idx, c in enumerate(coords):
                r = primitive_ray(c)
                if next(v for v in r if v) < 0:
                    r = tuple(-v for v in r)
                classes.setdefault(r, []).append(idx)
            dup = min((c for c in classes.values() if len(c) > 1), default=None)
            if dup is not None:
                raise ConeShapeError(f"generators {dup[0]} and {dup[1]} are proportional")
            raise ConeShapeError("generators are linearly dependent (cone not simplicial)")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(gens):
                raise ConeShapeError("labels/generators length mismatch")
        self.g = g
        self.scale = scale
        self.generators: tuple[IntMatrix, ...] = gens
        self.labels: Optional[tuple[str, ...]] = labels
        self.coords: tuple[tuple[int, ...], ...] = tuple(coords)  # in scale*delta
        self.index: int = index   # lattice_index(coords), never 0

    def __eq__(self, other):
        if type(other) is not MarkedCone:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash((self.g, self.scale, self.generators, self.labels))

    @property
    def nvars(self) -> int:
        return sym_dim(self.g)


def primitive_ray(vec: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*(abs(v) for v in vec))
    if g == 0:
        raise ConeShapeError("zero vector has no ray")
    return tuple(v // g for v in vec)


class GroupElement:
    """Unimodular integer matrix acting on Sym_g by A -> f A f^T."""

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self.matrix: IntMatrix = as_int_matrix(matrix)
        d = int(rational_det(self.matrix))
        if d not in (1, -1):
            raise ConeShapeError(f"matrix has determinant {quote(d)}, expected +-1")

    @property
    def g(self) -> int:
        return len(self.matrix)


class Fan:
    """Marked cones sharing g and scale, to be checked by is_fan.  `rays` is
    the sorted tuple of their distinct primitive rays, and `ray_ids[c][k]`
    the index in `rays` of generator k of cone c."""

    def __init__(self, cones: Sequence[MarkedCone]):
        cones = tuple(cones)
        if not cones:
            raise ConeShapeError("empty fan")
        g, scale = cones[0].g, cones[0].scale
        for c in cones:
            if c.g != g or c.scale != scale:
                raise ConeShapeError("fan cones disagree on g or scale")
        slots = [[primitive_ray(u) for u in c.coords] for c in cones]
        self.cones, self.g, self.scale = cones, g, scale
        self.rays = tuple(sorted({r for s in slots for r in s}))
        ids = {r: i for i, r in enumerate(self.rays)}
        self.ray_ids = tuple(tuple(ids[r] for r in s) for s in slots)


class EdgeClass(NamedTuple):
    kind: str                     # "interior" | "boundary" | "invalid"
    rank: Optional[int] = None    # None only for invalid edges
    flagged: bool = False         # rank strictly between 1 and g


# ----------------------------------------------------------------------
# operations


def lattice_volume(c: MarkedCone) -> int:
    """|det| of the generator-coordinate matrix, which is c.index (see
    lattice_index); needs all N generators."""
    n = sym_dim(c.g)
    if len(c.coords) != n:
        raise DegenerateConeError(
            f"lattice volume needs {n} generators, cone has {len(c.coords)}")
    return c.index


def is_regular(c: MarkedCone) -> bool:
    """True iff the generators extend to a Z-basis of the lattice, that is
    iff c.index is 1."""
    return c.index == 1


def edge_class(c: MarkedCone, k: int) -> EdgeClass:
    """Classify generator k of c: interior of the positive cone (positive
    definite), boundary (singular PSD, rank reported), or invalid (not
    PSD).  The constructor of c has checked that the generator is a
    nonzero symmetric int matrix, so only its PSD rank is computed."""
    r = psd_rank(c.generators[k])
    if r is None:
        return EdgeClass(kind="invalid")
    if r == c.g:
        return EdgeClass(kind="interior", rank=r)
    return EdgeClass(kind="boundary", rank=r, flagged=1 < r < c.g)


def gl_act(gamma: GroupElement, c: MarkedCone) -> MarkedCone:
    """Replace each generator A by gamma A gamma^T, preserving order; the
    translate is built and checked as a new MarkedCone."""
    new_gens = [transform_matrix(gamma, a) for a in c.generators]
    return MarkedCone(g=c.g, scale=c.scale, generators=tuple(new_gens),
                      labels=c.labels)


def transform_matrix(gamma: GroupElement, m: Sequence[Sequence[int]]) -> IntMatrix:
    """gamma m gamma^T for a single symmetric matrix."""
    if gamma.g != len(m):
        raise ConeShapeError(
            f"group element is {gamma.g}x{gamma.g}, cone has g={len(m)}")
    f = gamma.matrix
    fa = [[sum(x * y for x, y in zip(fi, col)) for col in zip(*m)] for fi in f]
    return tuple(tuple(sum(x * y for x, y in zip(row, fj)) for fj in f) for row in fa)


def cones_meet_nontrivially(a: Sequence[Sequence[int]],
                            b: Sequence[Sequence[int]]) -> bool:
    """True iff the cones spanned by the coordinate vectors a and b (each
    cone's `coords`) share a nonzero point: the support of a cap b in a's
    generators is not empty (see is_fan).  The lattice scales are
    positive, so they rescale the weights and leave the support alone."""
    if len(a[0]) != len(b[0]):
        raise ConeShapeError("cones live in different Sym_g")
    return bool(_support(a, b, len(a)))


def _support(own: Sequence[Sequence[int]], other: Sequence[Sequence[int]],
             k: int) -> list[int]:
    """Indices i < k of the maximal support of the cone of (lambda, mu) >= 0
    with sum lambda_i own_i = sum mu_j other_j: i < len(own) names own_i,
    and len(own) + j names other_j."""
    rows = [[u[r] for u in own] + [-v[r] for v in other] for r in range(len(own[0]))]
    return maximal_support(rows, len(own) + len(other), k)


def is_fan(fan: Fan) -> tuple[str, ...]:
    """Check the fan condition: every pairwise intersection is a common face.

    For simplicial cones sigma, tau let S be the maximal support of
    sigma cap tau in sigma's generators and T that in tau's; both come
    from one LP (`exactlp.maximal_support`).  A point of sigma cap tau
    positive on all of S lies in the relative interior of cone(sigma_S),
    so cone(sigma_S) is the smallest face of sigma that contains
    sigma cap tau, and cone(tau_T) is the same for tau.  The intersection
    is a common face iff it equals both, that is iff the two faces are
    equal: then each lies in sigma and in tau, so in sigma cap tau, which
    lies in each.  Faces of simplicial cones are equal iff their
    generators have the same ray ids.  A pair whose rays differ has a
    generator in S or in T outside the other cone, since otherwise both
    faces would lie in, hence equal, sigma cap tau; membership LPs on S,
    then on T, name the first, which the violation reports.  An empty S
    (and then T) means the cones meet only at 0.

    Returns the violations, one per failing pair; an empty tuple means
    the cones form a fan.
    """
    coords = [c.coords for c in fan.cones]
    ids = fan.ray_ids
    violations: list[str] = []
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            n = len(coords[i])
            both = _support(coords[i], coords[j], n + len(coords[j]))
            s = [k for k in both if k < n]
            t = [k - n for k in both if k >= n]
            if {ids[i][k] for k in s} == {ids[j][k] for k in t}:
                continue
            for own, other, support in ((i, j, s), (j, i, t)):
                escaping = next((idx for idx in support
                                 if not cone_membership(coords[own][idx], coords[other])),
                                None)
                if escaping is not None:
                    violations.append(
                        f"cones {i} and {j}: intersection is not a face of cone {own} "
                        f"(generator {escaping} escapes)")
                    break
    return tuple(violations)


class SeparabilityViolation(NamedTuple):
    group_index: int
    cone_index: int
    moved_generator: int


def is_separable(fan: Fan,
                 group: Sequence[GroupElement]) -> tuple[SeparabilityViolation, ...]:
    """Separability certificate against an explicit list of group elements.

    For every pair (gamma, sigma) whose transformed cone still meets sigma
    nontrivially, gamma must fix every generator of sigma exactly; the
    first moved generator is recorded as a violation.  A gamma that moves
    no generator needs no meeting test.  The moved cone is a valid cone
    with sigma's index, so its coordinates are read off the products
    gamma A gamma^T, divided by the fan's scale, and no cone is built.
    Sound but incomplete: it certifies nothing about group elements
    outside the supplied list.  Returns the violations in group, then cone
    order; an empty tuple means the fan is separable against the list.
    """
    pairs = delta_index_pairs(fan.g)
    violations: list[SeparabilityViolation] = []
    for gi, gamma in enumerate(group):
        for ci, cone in enumerate(fan.cones):
            moved = [transform_matrix(gamma, gen) for gen in cone.generators]
            k = next((k for k, (m, gen) in enumerate(zip(moved, cone.generators))
                      if m != gen), None)
            if k is None:
                continue
            coords = [tuple(m[i][j] // fan.scale for i, j in pairs) for m in moved]
            if cones_meet_nontrivially(coords, cone.coords):
                violations.append(SeparabilityViolation(
                    group_index=gi, cone_index=ci, moved_generator=k))
    return tuple(violations)
