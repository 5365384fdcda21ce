"""Independent straightforward oracle used to freeze golden values.

Deliberately naive and separate from the package: polynomials are plain
dicts of exponent tuples with Fraction coefficients, polynomial
determinants are always cofactor expansions, the leading-coefficient chain
is written directly off its definition, and rational determinants, ranks
and PSD ranks are Fraction Gauss, Gauss-Jordan and Schur-complement loops,
a lattice index is the gcd of all maximal minors, the genus-2 volume
polynomial's coefficients are written out by hand, and the principal
cone's volume polynomial is a sum over the spanning trees of a complete
graph, enumerated by their Pruefer codes.
No shared code with siegeltoric.
"""

import itertools
import math
from fractions import Fraction


def p_zero():
    return {}


def p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def p_neg(a):
    return {e: -c for e, c in a.items()}


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def p_scale(a, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: v * c for e, v in a.items()}


def p_pow(a, k):
    out = None
    for _ in range(k):
        out = dict(a) if out is None else p_mul(out, a)
    if out is None:
        nvars = len(next(iter(a))) if a else 0
        return {(0,) * nvars: Fraction(1)}
    return out


def p_pow_by_squaring(a, k):
    """The same power by repeated squaring, a route independent of p_pow."""
    nvars = len(next(iter(a))) if a else 0
    out = {(0,) * nvars: Fraction(1)}
    base = a
    while k:
        if k & 1:
            out = p_mul(out, base)
        k >>= 1
        if k:
            base = p_mul(base, base)
    return out


def p_partial(a, var):
    out = {}
    for e, c in a.items():
        if e[var] == 0:
            continue
        e2 = list(e)
        e2[var] -= 1
        out[tuple(e2)] = c * e[var]
    return out


def p_eval(a, point):
    total = Fraction(0)
    for e, c in a.items():
        term = Fraction(c)
        for v, k in zip(point, e):
            term *= Fraction(v) ** k
        total += term
    return total


def p_deg_in(a, var):
    if not a:
        return -1
    return max(e[var] for e in a)


def p_leading_coeff(a, var):
    d = p_deg_in(a, var)
    out = {}
    for e, c in a.items():
        if e[var] == d:
            e2 = list(e)
            e2[var] = 0
            out[tuple(e2)] = c
    return d, out


def det_cofactor(grid):
    n = len(grid)
    if n == 1:
        return dict(grid[0][0])
    total = {}
    for j in range(n):
        if not grid[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in grid[1:]]
        term = p_mul(grid[0][j], det_cofactor(minor))
        total = p_add(total, term) if j % 2 == 0 else p_sub(total, term)
    return total


def frac_det(rows):
    """Determinant of a square rational matrix by Gaussian elimination
    over Fraction."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            if a[r][k] != 0:
                f = a[r][k] / a[k][k]
                a[r] = [vr - f * vk for vr, vk in zip(a[r], a[k])]
    return det


def frac_rank(rows):
    """Rank of a rational matrix by Gauss-Jordan elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0
    rank = 0
    for c in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        a[rank] = [v / a[rank][c] for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c] != 0:
                f = a[r][c]
                a[r] = [vr - f * vp for vr, vp in zip(a[r], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def minors_gcd(rows):
    """gcd of all k x k minors of a k x n integer matrix (0 when k > n or
    the rows are dependent): the index in Z^k of the lattice spanned by
    its columns."""
    k = len(rows)
    n = len(rows[0]) if k else 0
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = math.gcd(g, int(frac_det([[row[c] for c in cols] for row in rows])))
    return g


def schur_psd_rank(rows):
    """Rank of a symmetric PSD matrix, or None when it is not PSD, by
    symmetric pivoting on positive diagonal entries with Fraction Schur
    complements."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    active = list(range(len(a)))
    while active:
        diag = [(i, a[i][i]) for i in active]
        if any(v < 0 for _, v in diag):
            return None
        pivot = next((i for i, v in diag if v > 0), None)
        if pivot is None:
            if any(a[i][j] != 0 for i in active for j in active):
                return None
            return rank
        active.remove(pivot)
        for i in active:
            if a[i][pivot] != 0:
                f = a[i][pivot] / a[pivot][pivot]
                for j in active:
                    a[i][j] -= f * a[pivot][j]
        rank += 1
    return rank


def g2_rows_to_pencil(a):
    """Symmetric 2x2 matrices [[a_i1, a_i2], [a_i2, a_i3]] from the rows of a."""
    return [[[Fraction(r[0]), Fraction(r[1])], [Fraction(r[1]), Fraction(r[2])]]
            for r in a]


def g2_closed_form(a):
    """Closed-form coefficients (A, B, C, L, M, N) of the genus-2 volume
    polynomial F = A x^2 + B y^2 + C z^2 + L xy + M xz + N yz built from the
    rows a_i = (a_i1, a_i2, a_i3) of a 3 x 3 matrix, where row i encodes
    the symmetric matrix [[a_i1, a_i2], [a_i2, a_i3]]."""
    if len(a) != 3 or any(len(row) != 3 for row in a):
        raise ValueError("expected a 3x3 coefficient matrix")
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = (
        tuple(Fraction(v) for v in row) for row in a)
    return (a11 * a13 - a12 * a12,
            a21 * a23 - a22 * a22,
            a31 * a33 - a32 * a32,
            a11 * a23 + a21 * a13 - 2 * a12 * a22,
            a11 * a33 + a31 * a13 - 2 * a12 * a32,
            a21 * a33 + a31 * a23 - 2 * a22 * a32)


def reindexed(terms, perm):
    """The term map {e: c} with each exponent re-indexed as e'[perm[i]] = e[i].

    det(sum_i y_i A_perm[i]) is det(sum_j x_j A_j) at x_perm[i] = y_i, so
    reindexing the terms of the first gives those of the second."""
    out = {}
    for e, c in terms.items():
        moved = [0] * len(e)
        for i, k in enumerate(perm):
            moved[k] = e[i]
        out[tuple(moved)] = c
    return out


def spanning_tree_polynomial(g):
    """F = det(sum x_mu A_mu) of the genus-g principal cone by Kirchhoff's
    matrix-tree theorem: the sum of prod x_e over the spanning trees of
    K_(g+1) on vertices 0..g.  Generator (i, i) = E_ii is the edge
    {0, i+1} and (i, j) = (e_i - e_j)(e_i - e_j)^T the edge {i+1, j+1},
    so the pencil is the Laplacian of K_(g+1) with vertex 0 deleted.
    Variables are in the catalog's order: the pairs (i, i), then the pairs
    i < j lexicographically.  Each tree is decoded from its Pruefer code,
    a sequence of g - 1 vertices."""
    pairs = [(i, i) for i in range(g)] + list(itertools.combinations(range(g), 2))
    var = {frozenset((0, i + 1) if i == j else (i + 1, j + 1)): k
           for k, (i, j) in enumerate(pairs)}
    n = g + 1
    out = {}
    for code in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in code:
            degree[v] += 1
        exp = [0] * len(pairs)
        for v in code:
            leaf = min(u for u in range(n) if degree[u] == 1)
            exp[var[frozenset((leaf, v))]] = 1
            degree[leaf] -= 1
            degree[v] -= 1
        last = frozenset(u for u in range(n) if degree[u] == 1)
        exp[var[last]] = 1
        assert tuple(exp) not in out   # distinct codes give distinct trees
        out[tuple(exp)] = Fraction(1)
    return out


def pencil_determinant(mats):
    nvars = len(mats)
    g = len(mats[0])
    grid = []
    for i in range(g):
        row = []
        for j in range(g):
            p = {}
            for k, m in enumerate(mats):
                c = Fraction(m[i][j])
                if c:
                    e = [0] * nvars
                    e[k] = 1
                    p[tuple(e)] = c
            row.append(p)
        grid.append(row)
    return det_cofactor(grid)


def t_matrix_grid(f, nvars):
    grads = [p_partial(f, i) for i in range(nvars)]
    return [[p_sub(p_mul(f, p_partial(grads[i], j)), p_mul(grads[i], grads[j]))
             for j in range(nvars)] for i in range(nvars)]


def hessian_grid(f, nvars):
    firsts = [p_partial(f, i) for i in range(nvars)]
    return [[p_partial(firsts[i], j) for j in range(nvars)] for i in range(nvars)]


def det_t_hessian(f, nvars):
    """det T by the Euler reduction, -f^N det(Hess f) / (deg f - 1), with the
    Hessian determinant expanded by cofactors: the direct route that the
    closed form in siegeltoric.volume_ke replaced.  For deg f <= 1 the
    entries of T are constants and their determinant is taken as it stands."""
    deg = max(sum(e) for e in f)
    if deg < 2:
        return det_cofactor(t_matrix_grid(f, nvars))
    det_h = det_cofactor(hessian_grid(f, nvars))
    return p_scale(p_mul(p_pow(f, nvars), det_h), Fraction(-1, deg - 1))


def delta_hessian_det_at_identity(g):
    """det of the Hessian of det on Sym_g at the identity, in the
    coordinates y_ij (i <= j) of the basis E_ii, E_ij + E_ji."""
    pairs = [(i, j) for i in range(g) for j in range(i, g)]
    basis = []
    for i, j in pairs:
        m = [[0] * g for _ in range(g)]
        m[i][j] = m[j][i] = 1
        basis.append(m)
    det = pencil_determinant(basis)
    identity = [1 if i == j else 0 for i, j in pairs]
    return frac_det([[p_eval(h, identity) for h in row]
                     for row in hessian_grid(det, len(pairs))])


def residue_chain_naive(f, nvars, d):
    """S_0 = f, S_k = leading coefficient of S_{k-1} in variable k-1;
    g_d = cofactor determinant of the minor of P on the unselected block."""
    chain = [dict(f)]
    cur = f
    for k in range(1, d + 1):
        _, cur = p_leading_coeff(cur, k - 1)
        chain.append(dict(cur))
    s_d = chain[-1]
    keep = list(range(d, nvars))
    grads = {l: p_partial(s_d, l) for l in keep}
    grid = [[p_sub(p_mul(s_d, p_partial(grads[l], m)), p_mul(grads[l], grads[m]))
             for m in keep] for l in keep]
    return chain, det_cofactor(grid)


def poly_sorted_json(p):
    """Same JSON shape the package emits, for golden-file comparisons."""
    items = sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return {
        "nvars": len(next(iter(p))) if p else None,
        "terms": [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                  for e, c in items],
    }


def fm_feasible_eq_nonneg(rows, rhs, nvars):
    """True iff some x >= 0 satisfies rows . x = rhs, by Gaussian
    elimination of the equalities and Fourier-Motzkin elimination of the
    free variables (doubly exponential: small systems only)."""
    reduced = _eliminate_equalities([[Fraction(v) for v in row] for row in rows],
                                    [Fraction(v) for v in rhs], nvars)
    if reduced is None:
        return False
    system, nfree = reduced
    for var in range(nfree):
        pos = [(c, k) for c, k in system if c[var] > 0]
        neg = [(c, k) for c, k in system if c[var] < 0]
        new_system = [(c, k) for c, k in system if c[var] == 0]
        for pc, pk in pos:
            for nc, nk in neg:
                # eliminate y_var between pc . y <= pk and nc . y <= nk
                alpha, beta = pc[var], -nc[var]
                new_system.append(([beta * p + alpha * q for p, q in zip(pc, nc)],
                                   beta * pk + alpha * nk))
        system = _dedupe_ineqs(new_system)
    return all(k >= 0 for _, k in system)


def _eliminate_equalities(a, b, nvars):
    """Solve A x = b for the pivot variables over Q.

    None when the equalities are inconsistent; otherwise (ineqs, nfree),
    where ineqs are x >= 0 over the free variables y as coeffs . y <= const.
    """
    m = len(a)
    tab = [row[:] + [b[i]] for i, row in enumerate(a)]
    pivot_cols = []
    r = 0
    for c in range(nvars):
        pivot = next((i for i in range(r, m) if tab[i][c] != 0), None)
        if pivot is None:
            continue
        tab[r], tab[pivot] = tab[pivot], tab[r]
        tab[r] = [v / tab[r][c] for v in tab[r]]
        for i in range(m):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [vi - f * vr for vi, vr in zip(tab[i], tab[r])]
        pivot_cols.append(c)
        r += 1
    if any(tab[i][nvars] != 0 for i in range(r, m)):
        return None
    free_cols = [c for c in range(nvars) if c not in pivot_cols]
    # x_pivot = const - sum(coeff * y) >= 0 and y_k >= 0
    ineqs = [([tab[i][c] for c in free_cols], tab[i][nvars]) for i in range(r)]
    for k in range(len(free_cols)):
        ineqs.append(([Fraction(-1) if j == k else Fraction(0)
                       for j in range(len(free_cols))], Fraction(0)))
    return ineqs, len(free_cols)


def _dedupe_ineqs(system):
    """Drop trivial and repeated inequalities (up to positive scaling);
    a trivially false one replaces the whole system."""
    seen = set()
    out = []
    for coeffs, const in system:
        nonzero = [c for c in coeffs if c != 0]
        if not nonzero:
            if const < 0:
                return [(coeffs, const)]
            continue
        scale = abs(nonzero[0])
        key = (tuple(c / scale for c in coeffs), const / scale)
        if key not in seen:
            seen.add(key)
            out.append((list(key[0]), key[1]))
    return out
