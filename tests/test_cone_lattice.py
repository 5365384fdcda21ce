"""Cones, lattices, group action, fans, separability."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from siegeltoric import cone_lattice
from siegeltoric.cone_lattice import (
    ConeShapeError,
    DegenerateConeError,
    Fan,
    GroupElement,
    MarkedCone,
    NotInLatticeError,
    cones_meet_nontrivially,
    delta_index_pairs,
    edge_class,
    gl_act,
    int_det,
    int_det_adjugate,
    is_fan,
    is_regular,
    is_separable,
    lattice_index,
    lattice_volume,
    primitive_ray,
    psd_rank,
    rational_det,
    sym_dim,
    transform_matrix,
)
from siegeltoric.catalog import principal_cone
from siegeltoric.exactlp import cone_membership, feasible_eq_nonneg, maximal_support
from siegeltoric.volume_ke import volume_function

import naive_oracle as oracle

E11 = ((1, 0), (0, 0))
E22 = ((0, 0), (0, 1))
ZETA12 = ((1, -1), (-1, 1))
SWAP = GroupElement(matrix=((0, 1), (1, 0)))


def cone2(*gens, scale=1):
    return MarkedCone(g=2, scale=scale, generators=tuple(gens))


SIGMA0 = principal_cone(2)


def random_unimodular(rng, g):
    """Product of random elementary integer matrices; det = +-1."""
    m = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
    for _ in range(rng.randint(2, 6)):
        kind = rng.random()
        i, j = rng.sample(range(g), 2) if g > 1 else (0, 0)
        if kind < 0.45 and g > 1:
            c = rng.randint(-2, 2)
            for k in range(g):
                m[i][k] += c * m[j][k]
        elif kind < 0.9 and g > 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-v for v in m[i]]
    return GroupElement(matrix=tuple(tuple(r) for r in m))


def walk(rng, g, steps):
    """A walk of `steps` elementary operations row_i += +-row_j; its
    entries grow with the length of the walk."""
    m = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(steps):
        i, j = rng.sample(range(g), 2)
        s = rng.choice((1, -1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return GroupElement(matrix=m)


def cone_of_coords(g, rows):
    """The cone whose generators have the delta coordinates rows."""
    gens = []
    for r in rows:
        m = [[0] * g for _ in range(g)]
        for (i, j), v in zip(delta_index_pairs(g), r):
            m[i][j] = m[j][i] = v
        gens.append(m)
    return MarkedCone(g=g, scale=1, generators=gens)


def delta_basis(g):
    """Standard Z-basis of Sym_g(Z) in the package's coordinate order:
    E_11, E_12 + E_21, ..., E_1g + E_g1, E_22, ..., E_gg."""
    basis = []
    for i in range(g):
        for j in range(i, g):
            rows = [[0] * g for _ in range(g)]
            rows[i][j] = rows[j][i] = 1
            basis.append(tuple(map(tuple, rows)))
    return basis


def coords_in_lattice(m, scale):
    """Coordinates c with m = scale * sum_k c_k delta_k, as MarkedCone
    computes them for a one-generator cone."""
    return MarkedCone(g=len(m), scale=scale, generators=(m,)).coords[0]


class TestDeltaBasis:
    def test_g1(self):
        assert delta_index_pairs(1) == [(0, 0)]

    def test_g2(self):
        assert delta_index_pairs(2) == [(0, 0), (0, 1), (1, 1)]
        assert delta_basis(2) == [E11, ((0, 1), (1, 0)), E22]

    def test_g3_count(self):
        assert len(delta_index_pairs(3)) == sym_dim(3) == 6

    def test_order_convention(self):
        # pairs run (1,1),(1,2),...,(1,g),(2,2),...: the coordinates of
        # coords_in_lattice follow the same order
        assert delta_index_pairs(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for k, d in enumerate(delta_basis(3)):
            assert coords_in_lattice(d, 1) == tuple(int(i == k) for i in range(6))


class TestCoords:
    def test_zeta12(self):
        assert coords_in_lattice(ZETA12, 1) == (1, -1, 1)

    def test_e11(self):
        assert coords_in_lattice(E11, 1) == (1, 0, 0)

    def test_scaled(self):
        assert coords_in_lattice(((3, 0), (0, 0)), 3) == (1, 0, 0)

    def test_divisibility_failure(self):
        with pytest.raises(NotInLatticeError):
            coords_in_lattice(E11, 2)

    def test_round_trip_against_basis(self):
        # reconstruct: m = scale * sum c_k delta_k
        m = ((4, -2), (-2, 6))
        coords = coords_in_lattice(m, 2)
        basis = delta_basis(2)
        recon = [[0, 0], [0, 0]]
        for c, d in zip(coords, basis):
            for i in range(2):
                for j in range(2):
                    recon[i][j] += 2 * c * d[i][j]
        assert tuple(tuple(r) for r in recon) == m


class TestLatticeVolume:
    def test_principal_g2(self):
        assert lattice_volume(SIGMA0) == 1

    def test_doubled_basis(self):
        doubled = cone2(((2, 0), (0, 0)), ((0, 2), (2, 0)), ((0, 0), (0, 2)))
        assert lattice_volume(doubled) == 8

    def test_integer_rows_det(self):
        # rows a_ij: volume is |det| of the coordinate matrix
        rows = [(1, 0, 0), (0, 0, 1), (1, -1, 1)]
        gens = tuple(((r[0], r[1]), (r[1], r[2])) for r in rows)
        c = MarkedCone(g=2, scale=1, generators=gens)
        assert lattice_volume(c) == abs(int_det(rows)) == 1
        rows2 = [(2, 1, 0), (1, 3, 1), (0, 1, 2)]
        gens2 = tuple(((r[0], r[1]), (r[1], r[2])) for r in rows2)
        c2 = MarkedCone(g=2, scale=1, generators=gens2)
        assert lattice_volume(c2) == abs(int_det(rows2))

    def test_needs_full_generator_count(self):
        with pytest.raises(DegenerateConeError):
            lattice_volume(cone2(E11, E22))

    def test_permutation_invariance(self):
        gens = SIGMA0.generators
        for perm in itertools.permutations(range(3)):
            c = cone2(*(gens[i] for i in perm))
            assert lattice_volume(c) == 1


class TestRegularity:
    def test_principal_is_regular(self):
        assert is_regular(SIGMA0)

    def test_imprimitive_single_generator(self):
        c = MarkedCone(g=2, scale=1, generators=(((2, 0), (0, 0)),))
        assert not is_regular(c)

    def test_partial_basis_regular(self):
        assert is_regular(cone2(E11, E22))

    def test_lattice_index_table(self):
        # the index is the product of the elementary divisors (in comments)
        assert lattice_index([(1, 0, 0), (0, 0, 1)]) == 1     # 1, 1
        assert lattice_index([(2, 0, 0)]) == 2                # 2
        assert lattice_index([(2, 0), (0, 3)]) == 6           # 1, 6
        assert lattice_index([(2, 0), (0, 4)]) == 8           # 2, 4
        assert lattice_index([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 624  # 2, 2, 156
        # dependent rows
        assert lattice_index([(1, 2, 3), (2, 4, 6)]) == 0
        assert lattice_index([(1, 0), (0, 1), (1, 1)]) == 0

    def test_lattice_index_matches_minors_gcd(self):
        rng = random.Random(1009)
        for _ in range(400):
            k, n = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
            assert lattice_index(rows) == oracle.minors_gcd(rows), rows

    def test_primitive_generators_spanning_index_two(self):
        # coordinates (1,0,1) and (1,0,-1): each primitive, but their sum
        # (2,0,0) is twice a lattice vector missing from their span
        c = cone2(((1, 0), (0, 1)), ((1, 0), (0, -1)))
        assert c.coords == ((1, 0, 1), (1, 0, -1))
        assert lattice_index(c.coords) == 2
        assert not is_regular(c)

    def test_regular_iff_volume_one_fulldim(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if int_det(rows) == 0:
                continue
            gens = []
            ok = True
            for r in rows:
                m = ((r[0], r[1]), (r[1], r[2]))
                if all(v == 0 for row in m for v in row):
                    ok = False
                gens.append(m)
            if not ok:
                continue
            try:
                c = MarkedCone(g=2, scale=1, generators=tuple(gens))
            except ConeShapeError:
                continue
            assert is_regular(c) == (lattice_volume(c) == 1)

    def test_one_reduction_per_cone(self, monkeypatch):
        # GroupElement and principal_cone reduce matrices of their own, so
        # the generators are computed before the counters go in
        gens = gl_act(walk(random.Random(4), 4, 60), principal_cone(4)).generators
        calls = {"lattice_index": 0, "_bareiss": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cone_lattice, "lattice_index",
                            counted("lattice_index", lattice_index))
        monkeypatch.setattr(cone_lattice, "_bareiss",
                            counted("_bareiss", cone_lattice._bareiss))
        c = MarkedCone(g=4, scale=1, generators=gens)
        assert lattice_volume(c) == 1 and is_regular(c)
        assert volume_function(c).vol == 1
        assert calls == {"lattice_index": 1, "_bareiss": 0}

    def test_valid_cone_computes_no_primitive_ray(self, monkeypatch):
        # independence is read from the index alone; rays are compared
        # only at index 0, to name a proportional pair
        calls = []

        def counted(vec):
            calls.append(vec)
            return primitive_ray(vec)

        monkeypatch.setattr(cone_lattice, "primitive_ray", counted)
        base = principal_cone(4)
        gl_act(walk(random.Random(6), 4, 40), base)
        assert calls == []
        gens = base.generators
        doubled = tuple(tuple(2 * v for v in row) for row in gens[3])
        with pytest.raises(ConeShapeError, match=r"^generators 3 and 9 are proportional$"):
            MarkedCone(g=4, scale=1, generators=gens[:9] + (doubled,))
        assert len(calls) == 10

    def test_index_is_det_on_translates(self):
        # random full cones, whose index varies, moved by long walks; the
        # action is unimodular on the lattice, so the index stays
        rng = random.Random(2207)
        indices = []
        for g in (3, 4, 5, 6):
            n = sym_dim(g)
            for _ in range(2):
                while True:
                    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                    try:
                        base = cone_of_coords(g, rows)
                        break
                    except ConeShapeError:
                        continue
                moved = gl_act(walk(rng, g, rng.randint(50, 150)), base)
                assert moved.index == abs(oracle.frac_det(moved.coords)) == base.index
                assert lattice_volume(moved) == moved.index
                assert is_regular(moved) == (moved.index == 1)
                indices.append(moved.index)
        assert max(indices) > 1

    def test_index_is_minors_gcd_on_cones_not_full(self):
        rng = random.Random(2208)
        seen = set()
        for _ in range(60):
            g = rng.choice((2, 3, 4))
            n = sym_dim(g)
            k = rng.randint(1, n - 1)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            try:
                c = cone_of_coords(g, rows)
            except ConeShapeError:
                continue
            assert c.index == oracle.minors_gcd(c.coords), rows
            assert is_regular(c) == (c.index == 1)
            seen.add(c.index == 1)
        assert seen == {False, True}


class TestEdgeClass:
    def test_identity_interior(self):
        assert edge_class(((1, 0), (0, 1))).kind == "interior"

    def test_e11_boundary_rank1(self):
        ec = edge_class(E11)
        assert ec.kind == "boundary" and ec.rank == 1

    def test_zeta12_boundary_rank1(self):
        # eigenvalues {0, 2}
        ec = edge_class(ZETA12)
        assert ec.kind == "boundary" and ec.rank == 1 and not ec.flagged

    def test_indefinite_invalid(self):
        assert edge_class(((1, 0), (0, -1))).kind == "invalid"

    def test_zero_rejected(self):
        with pytest.raises(ConeShapeError):
            edge_class(((0, 0), (0, 0)))

    def test_intermediate_rank_flagged(self):
        m = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
        ec = edge_class(m)
        assert ec.kind == "boundary" and ec.rank == 2 and ec.flagged

    def test_psd_rank_vs_generic_rank(self):
        rng = random.Random(17)
        for _ in range(40):
            g = rng.randint(1, 4)
            b = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(rng.randint(1, g))]
            gram = [[sum(b[k][i] * b[k][j] for k in range(len(b)))
                     for j in range(g)] for i in range(g)]
            assert psd_rank(gram) == oracle.frac_rank(gram)


def _rational(rng, bound=4, den=3):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def _kernel_cases(rng):
    """Seeded (family, matrix) pairs: rational, singular and non-square
    matrices (the latter with zero columns, which the rank search skips),
    indefinite symmetric ones, some with zero diagonal, and rational Gram
    (PSD) matrices."""
    for _ in range(60):
        n = rng.randint(1, 6)
        yield "rational", [[_rational(rng) for _ in range(n)] for _ in range(n)]
        yield "integer", [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        rows = [[_rational(rng) for _ in range(n)] for _ in range(max(1, n - 1))]
        mix = [sum((_rational(rng) * r[j] for r in rows), Fraction(0)) for j in range(n)]
        yield "singular", rows + [mix] if len(rows) < n else [[0] * n]
        cols = rng.randint(1, 6)
        zero = set(rng.sample(range(cols), rng.randint(0, cols - 1)))
        yield "non-square", [[0 if j in zero else _rational(rng) for j in range(cols)]
                             for _ in range(rng.randint(1, 6))]
        sym = [[_rational(rng) for _ in range(n)] for _ in range(n)]
        hollow = rng.random() < 0.3
        yield "symmetric", [[0 if hollow and i == j else sym[min(i, j)][max(i, j)]
                             for j in range(n)] for i in range(n)]
        b = [[_rational(rng, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
        yield "psd", [[sum((r[i] * r[j] for r in b), Fraction(0)) for j in range(n)]
                      for i in range(n)]


class TestEliminationKernel:
    """The one Bareiss kernel against the Fraction loops it replaced."""

    def test_agrees_with_fraction_oracles(self):
        rng = random.Random(2718)
        seen = {"not psd": 0, "psd singular": 0, "singular": 0, "rank deficient": 0}
        for family, m in _kernel_cases(rng):
            # lattice_index decides independence (of rows scaled to ints)
            rank = oracle.frac_rank(m)
            ints = [[int(v * math.lcm(*(Fraction(u).denominator for u in row))) for v in row]
                    for row in m]
            assert (lattice_index(ints) != 0) == (rank == len(m)), (family, m)
            square = all(len(row) == len(m) for row in m)
            if square:
                det = rational_det(m)
                assert det == oracle.frac_det(m), (family, m)
                seen["singular"] += det == 0
                if family == "integer":
                    assert int_det(m) == det
            if family in ("symmetric", "psd"):
                pr = psd_rank(m)
                assert pr == oracle.schur_psd_rank(m), (family, m)
                seen["not psd"] += pr is None
                seen["psd singular"] += pr is not None and pr < len(m)
            elif family == "non-square":
                seen["rank deficient"] += rank < min(len(m), len(m[0]))
        assert all(seen.values()), seen

    def test_adjugate_against_cofactors(self):
        # fraction-free Gauss-Jordan on [y | I], with row swaps where a
        # leading entry is 0
        rng = random.Random(1618)
        cases = [m for family, m in _kernel_cases(rng) if family == "integer"]
        cases += [[[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 0], [5, 0, 0]],
                  [[0, 1, 1], [1, 0, 1], [1, 1, 0]]]
        for m in cases:
            n = len(m)

            def cofactor(i, j):
                minor = [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
                return (-1) ** (i + j) * oracle.frac_det(minor) if n > 1 else 1

            det, adj = int_det_adjugate(m)
            assert det == oracle.frac_det(m), m
            assert adj == ([[cofactor(i, j) for j in range(n)] for i in range(n)]
                           if det else None), m
        for m in ([[1, 2], [2, 4]], [[0, 1], [0, 2]], [[0]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]):
            assert int_det_adjugate(m) == (0, None)

    def test_singular_det_stops_at_the_empty_column(self):
        # column p is zero or a combination of the columns before it, so
        # live column p is empty after p pivots: elimination stops there
        rng = random.Random(2719)
        for n in range(2, 7):
            for p in (0, n // 2, n - 1):
                for zero in (True, False):
                    m = [[_rational(rng) for _ in range(n)] for _ in range(n)]
                    weights = [0 if zero else _rational(rng) for _ in range(p)]
                    for row in m:
                        row[p] = sum((w * v for w, v in zip(weights, row)), Fraction(0))
                    assert rational_det(m) == oracle.frac_det(m) == 0, m
                    a = cone_lattice._int_rows(m)[0]
                    assert cone_lattice._bareiss(a, cone_lattice._in_column)[0] == p, m

    def test_row_scales_do_not_leak_into_det(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert rational_det(m) == Fraction(1, 14) - Fraction(1, 15)
        assert rational_det([[0, 1], [1, 0]]) == -1
        with pytest.raises(ConeShapeError):
            rational_det([[1, 2]])


class TestGlAct:
    def test_identity(self):
        ident = GroupElement(matrix=((1, 0), (0, 1)))
        assert gl_act(ident, SIGMA0).generators == SIGMA0.generators

    def test_swap_on_principal(self):
        moved = gl_act(SWAP, SIGMA0)
        assert moved.generators == (E22, E11, ZETA12)

    def test_shear_on_e11(self):
        gamma = GroupElement(matrix=((1, 0), (1, 1)))
        assert transform_matrix(gamma, E11) == ((1, 1), (1, 1))

    def test_element_of_other_size_rejected(self):
        # the library guard; the CLI checks sizes when it reads the group
        gamma = GroupElement(matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ConeShapeError, match=r"^group element is 3x3, cone has g=2$"):
            gl_act(gamma, SIGMA0)

    def test_preserves_volume_and_ranks(self):
        rng = random.Random(23)
        for _ in range(50):
            gamma = random_unimodular(rng, 2)
            moved = gl_act(gamma, SIGMA0)
            assert lattice_volume(moved) == 1
            for a, b in zip(SIGMA0.generators, moved.generators):
                ea, eb = edge_class(a), edge_class(b)
                assert (ea.kind, ea.rank) == (eb.kind, eb.rank)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ConeShapeError):
            GroupElement(matrix=((2, 0), (0, 1)))

    def test_long_determinant_is_quoted_short(self):
        with pytest.raises(ConeShapeError,
                           match=r"^matrix has determinant 9{40}\.\.\. \(4000 characters\), "
                                 r"expected \+-1$"):
            GroupElement(matrix=((int("9" * 4000),),))


class TestMeet:
    def test_reflexive(self):
        assert cones_meet_nontrivially(SIGMA0, SIGMA0)

    def test_opposite_cone_disjoint(self):
        neg = cone2(*(tuple(tuple(-v for v in row) for row in m)
                      for m in SIGMA0.generators))
        assert not cones_meet_nontrivially(SIGMA0, neg)

    def test_shared_edge(self):
        a = cone2(E11, E22)
        b = cone2(E11, ZETA12)
        assert cones_meet_nontrivially(a, b)

    def test_symmetric(self):
        rng = random.Random(41)
        for _ in range(20):
            gens = []
            for _ in range(2):
                r = [rng.randint(-2, 2) for _ in range(3)]
                m = ((r[0], r[1]), (r[1], r[2]))
                gens.append(m)
            try:
                a = cone2(gens[0])
                b = cone2(gens[1])
            except ConeShapeError:
                continue
            assert cones_meet_nontrivially(a, b) == cones_meet_nontrivially(b, a)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(4243)
        seen = set()
        for _ in range(300):
            g = rng.choice((2, 2, 3))
            a, b = (_random_cone(rng, g, rng.choice((1, 2))) for _ in range(2))
            got = cones_meet_nontrivially(a, b)
            assert got == meet_oracle(a, b), (a.generators, a.scale, b.generators, b.scale)
            seen.add((a.scale, b.scale, got))
        # both verdicts on every combination of lattice scales 1 and 2
        assert seen == {(s, t, m) for s in (1, 2) for t in (1, 2) for m in (False, True)}


def _random_cone(rng, g, scale):
    """A simplicial cone of 1..N small random generators in scale*Sym_g(Z)."""
    n = sym_dim(g)
    while True:
        gens = []
        for _ in range(rng.randint(1, n)):
            c = [rng.randint(-2, 2) for _ in range(n)]
            m = [[0] * g for _ in range(g)]
            for (i, j), v in zip(delta_index_pairs(g), c):
                m[i][j] = m[j][i] = scale * v
            gens.append(tuple(map(tuple, m)))
        try:
            return MarkedCone(g=g, scale=scale, generators=tuple(gens))
        except ConeShapeError:
            continue


def _faces_of(cone):
    """All nonempty generator-subset faces as cones."""
    out = []
    n = len(cone.generators)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            out.append(MarkedCone(g=cone.g, scale=cone.scale,
                                  generators=tuple(cone.generators[i] for i in subset)))
    return out


class TestFan:
    def test_single_cone_with_faces(self):
        assert is_fan(Fan([SIGMA0] + _faces_of(SIGMA0))) == ()

    def test_overlapping_interiors_rejected(self):
        # second cone shares the interior direction of the first
        a = cone2(E11, E22)
        b = cone2(((1, 0), (0, 1)), ((1, 0), (0, 2)))
        assert is_fan(Fan([a, b]))

    def test_equal_cone_under_swap(self):
        assert is_fan(Fan([SIGMA0, gl_act(SWAP, SIGMA0)])) == ()

    def test_two_chambers_share_facet(self):
        gamma = GroupElement(matrix=((1, 0), (1, 1)))
        assert is_fan(Fan([SIGMA0, gl_act(gamma, SIGMA0)])) == ()


# ----------------------------------------------------------------------
# oracles for is_fan and cones_meet_nontrivially: one pinned LP per
# generator for the support, a normalization-row LP for whether the cones
# meet, membership of scaled points


def meet_oracle(a, b):
    """True iff some sum lambda_i u_i = sum mu_j v_j with lambda, mu >= 0
    and sum lambda_i = 1.  The normalization is legitimate because the
    generators of each cone are linearly independent, so no nonzero
    nonnegative combination of them vanishes."""
    ua, vb = a.coords, b.coords
    rows = [[a.scale * u[k] for u in ua] + [-b.scale * v[k] for v in vb]
            for k in range(sym_dim(a.g))]
    rows.append([1] * len(ua) + [0] * len(vb))
    return feasible_eq_nonneg(rows, [0] * (len(rows) - 1) + [1], len(ua) + len(vb))


def _support_indices_oracle(a, b):
    """Indices i of a's generators with lambda_i > 0 somewhere on a cap b:
    feasibility of the meet system with lambda_i pinned to 1."""
    ua, vb = a.coords, b.coords
    nvars = len(ua) + len(vb)
    rows = [[a.scale * u[k] for u in ua] + [-b.scale * v[k] for v in vb]
            for k in range(sym_dim(a.g))]
    return [i for i in range(len(ua))
            if feasible_eq_nonneg(rows + [[int(p == i) for p in range(nvars)]],
                                  [0] * len(rows) + [1], nvars)]


def _gen_in_cone_oracle(a, idx, b):
    point = [a.scale * v for v in a.coords[idx]]
    return cone_membership(point, [[b.scale * v for v in row] for row in b.coords])


def is_fan_oracle(fan):
    cones = fan.cones
    violations = []
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            a, b = cones[i], cones[j]
            if not meet_oracle(a, b):
                continue
            for idx in _support_indices_oracle(a, b):
                if not _gen_in_cone_oracle(a, idx, b):
                    violations.append(
                        f"cones {i} and {j}: intersection is not a face of cone {i} "
                        f"(generator {idx} escapes)")
                    break
            else:
                for idx in _support_indices_oracle(b, a):
                    if not _gen_in_cone_oracle(b, idx, a):
                        violations.append(
                            f"cones {i} and {j}: intersection is not a face of cone {j} "
                            f"(generator {idx} escapes)")
                        break
    return tuple(violations)


def is_fan_per_side_oracle(fan):
    """The fan check with one support LP per side of a pair: the maximal
    support of sigma cap tau in sigma's generators, then a membership LP
    per supported generator up to the first outside tau, and the same
    with the cones swapped."""
    cones = fan.cones
    violations = []
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            for own, other in ((i, j), (j, i)):
                u, v = cones[own].coords, cones[other].coords
                rows = [[a[r] for a in u] + [-b[r] for b in v] for r in range(len(u[0]))]
                support = maximal_support(rows, len(u) + len(v), len(u))
                if not support:
                    break
                escaping = next((k for k in support if not cone_membership(u[k], v)), None)
                if escaping is not None:
                    violations.append(
                        f"cones {i} and {j}: intersection is not a face of cone {own} "
                        f"(generator {escaping} escapes)")
                    break
    return tuple(violations)


def _marked(cone, marking):
    return MarkedCone(g=cone.g, scale=cone.scale,
                      generators=tuple(cone.generators[k] for k in marking))


def _translate_fan(rng, g, size):
    """`size` GL(g,Z) translates of the principal cone, shuffled markings."""
    base = principal_cone(g)
    cones = []
    for _ in range(size):
        marking = list(range(len(base.generators)))
        rng.shuffle(marking)
        cones.append(_marked(gl_act(random_unimodular(rng, g), base), marking))
    return cones


def _subcone(rng, cone):
    """A cone spanned by nonnegative integer mixes of cone's generators:
    inside cone, and not a face of it unless the mix is a selection."""
    n = len(cone.generators)
    while True:
        mix = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        gens = [tuple(tuple(sum(row[k] * cone.generators[k][r][c] for k in range(n))
                            for c in range(cone.g)) for r in range(cone.g)) for row in mix]
        try:
            return MarkedCone(g=cone.g, scale=cone.scale, generators=tuple(gens))
        except ConeShapeError:
            continue


def _merged(rng, cone):
    """cone with two generators replaced by their sum: inside cone, and
    not a face of it."""
    a, b = sorted(rng.sample(range(len(cone.generators)), 2))
    u = cone.generators
    merged = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(u[a], u[b]))
    gens = [merged] + [m for k, m in enumerate(u) if k not in (a, b)]
    rng.shuffle(gens)
    return MarkedCone(g=cone.g, scale=cone.scale, generators=tuple(gens))


def _mixed_fan(rng, g):
    """Translates of the principal cone beside faces, subcones and merged
    cones of some of them, shuffled."""
    base = principal_cone(g)
    translates = [gl_act(random_unimodular(rng, g), base) for _ in range(rng.randint(2, 4))]
    cones = list(translates)
    for _ in range(rng.randint(1, 3)):
        sigma = rng.choice(translates)
        kind = rng.random()
        if kind < 0.3:
            keep = sorted(rng.sample(range(len(base.generators)),
                                     rng.randint(1, len(base.generators) - 1)))
            cones.append(_marked(sigma, keep))
        elif kind < 0.65:
            cones.append(_subcone(rng, sigma))
        else:
            cones.append(_merged(rng, sigma))
    rng.shuffle(cones)
    return cones


# relative positions of two genus-3 principal-cone translates: (h, marking
# of the first cone, marking of the second); the second cone is moved by h
G3_PAIRS = {
    "fast-a": ([[1, 0, 0], [0, 1, 0], [0, -1, 1]],
               [2, 3, 1, 4, 5, 0], [0, 1, 4, 2, 3, 5]),
    "fast-b": ([[1, -1, 0], [0, 1, 1], [1, -1, 1]],
               [5, 1, 0, 4, 2, 3], [4, 0, 5, 1, 2, 3]),
    "slow-a": ([[1, 0, -1], [-1, 1, 1], [0, 1, 1]],
               [5, 0, 1, 2, 4, 3], [5, 2, 0, 4, 3, 1]),
    "slow-b": ([[1, 1, -1], [0, 1, -1], [0, 1, 0]],
               [2, 3, 5, 0, 4, 1], [4, 1, 2, 0, 5, 3]),
}


class TestFanOracle:
    def test_g2_translate_fans(self):
        rng = random.Random(2207)
        for _ in range(6):
            fan = Fan(_translate_fan(rng, 2, rng.randint(4, 9)))
            assert is_fan(fan) == is_fan_oracle(fan) == ()

    def test_principal_beside_non_face_subcone(self):
        rng = random.Random(3307)
        violations = []
        for g in (2, 2, 2, 2, 2, 2, 3, 3):
            sigma = gl_act(random_unimodular(rng, g), principal_cone(g))
            tau = _subcone(rng, sigma)
            for fan in (Fan([sigma, tau]), Fan([tau, sigma])):
                found = is_fan(fan)
                assert found == is_fan_oracle(fan), fan.cones
                violations += found
        # both sides of the check are exercised
        assert any("face of cone 0" in v for v in violations)
        assert any("face of cone 1" in v for v in violations)

    @pytest.mark.parametrize("name", sorted(G3_PAIRS))
    def test_g3_relative_positions(self, name):
        h, m1, m2 = G3_PAIRS[name]
        frame = GroupElement(matrix=((1, 1, 0), (0, 1, -1), (1, 1, -1)))
        base = principal_cone(3)
        moved = gl_act(frame, gl_act(GroupElement(matrix=tuple(map(tuple, h))), base))
        fan = Fan([_marked(gl_act(frame, base), m1), _marked(moved, m2)])
        assert is_fan(fan) == is_fan_oracle(fan) == ()


class TestFanSingleLP:
    """is_fan reads both smallest faces from one support LP per pair."""

    def test_matches_per_side_oracle_on_mixed_fans(self):
        rng = random.Random(1907)
        violations, fans = 0, 0
        for g in (2, 2, 2, 3, 3, 3, 4, 4):
            for _ in range(4):
                fan = Fan(_mixed_fan(rng, g))
                found = is_fan(fan)
                assert found == is_fan_per_side_oracle(fan), [c.generators for c in fan.cones]
                violations += len(found)
                fans += not found
        assert violations >= 40 and fans

    def test_valid_fan_runs_one_support_lp_per_pair(self, monkeypatch):
        calls = {"support": 0, "membership": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cone_lattice, "maximal_support",
                            counted("support", maximal_support))
        monkeypatch.setattr(cone_lattice, "cone_membership",
                            counted("membership", cone_membership))
        assert is_fan(Fan(_translate_fan(random.Random(1913), 3, 8))) == ()
        assert calls == {"support": 8 * 7 // 2, "membership": 0}


class TestSeparable:
    def test_swap_violation_on_principal(self):
        found = is_separable(Fan([SIGMA0]), [SWAP])
        assert found and found[0].cone_index == 0

    def test_identity_separable(self):
        assert is_separable(Fan([SIGMA0]), [GroupElement(matrix=((1, 0), (0, 1)))]) == ()

    def test_minus_identity_acts_trivially(self):
        assert is_separable(Fan([SIGMA0]), [GroupElement(matrix=((-1, 0), (0, -1)))]) == ()

    def test_elements_fixing_each_cone_need_no_meeting_test(self, monkeypatch):
        def meet(a, b):
            raise AssertionError("meeting test called")

        monkeypatch.setattr(cone_lattice, "cones_meet_nontrivially", meet)
        fan = Fan(_translate_fan(random.Random(5501), 2, 4))
        group = [GroupElement(matrix=((1, 0), (0, 1))),
                 GroupElement(matrix=((-1, 0), (0, -1)))]
        assert is_separable(fan, group) == ()

    def test_matches_oracle_on_translates(self):
        # the oracle asks whether the cones meet first, then for the first
        # moved generator
        rng = random.Random(6607)
        kinds = set()
        for _ in range(12):
            g = rng.choice((2, 2, 3))
            cones = _translate_fan(rng, g, rng.randint(1, 3))
            group = [random_unimodular(rng, g) for _ in range(3)]
            group.append(GroupElement(matrix=tuple(
                tuple(-int(i == j) for j in range(g)) for i in range(g))))
            want = []
            for gi, gamma in enumerate(group):
                for ci, cone in enumerate(cones):
                    moved = gl_act(gamma, cone)
                    meets = meet_oracle(moved, cone)
                    k = next((k for k, gen in enumerate(cone.generators)
                              if moved.generators[k] != gen), None)
                    kinds.add((meets, k is not None))
                    if meets and k is not None:
                        want.append((gi, ci, k))
            assert [tuple(v) for v in is_separable(Fan(cones), group)] == want
        # fixed cones, and moved cones that meet their original or miss it
        assert kinds == {(True, False), (True, True), (False, True)}


class TestConstructionInvariants:
    def test_proportional_generators_rejected(self):
        with pytest.raises(ConeShapeError):
            cone2(E11, ((2, 0), (0, 0)))

    def test_proportional_classes_name_first_pair(self):
        # classes {0, 3} (a negative multiple) and {1, 2}; the class with the
        # smallest first index is named, not the first repeat met (2)
        e11, e22 = ((1, 0, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 1, 0), (0, 0, 0))
        gens = (e11, e22, ((0, 0, 0), (0, 3, 0), (0, 0, 0)), ((-2, 0, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(ConeShapeError, match=r"^generators 0 and 3 are proportional$"):
            MarkedCone(g=3, scale=1, generators=gens)

    def test_dependent_generators_rejected(self):
        # E11 + E22 is the sum of the other two; no pair is proportional
        with pytest.raises(ConeShapeError, match=r"^generators are linearly dependent "
                                                 r"\(cone not simplicial\)$"):
            cone2(E11, E22, ((1, 0), (0, 1)))

    def test_too_many_generators_rejected(self):
        with pytest.raises(ConeShapeError):
            cone2(E11, E22, ZETA12, ((1, 1), (1, 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ConeShapeError):
            cone2(((0, 1), (0, 0)),)

    def test_lattice_violation_rejected(self):
        with pytest.raises(NotInLatticeError):
            cone2(E11, scale=2)

    def test_lattice_violation_is_a_shape_error(self):
        with pytest.raises(ConeShapeError, match=r"^entry \(1,1\)=1 not divisible by scale 2$"):
            cone2(E11, scale=2)

    def test_fan_mixed_scales_rejected(self):
        a = cone2(E11)
        b = cone2(((2, 0), (0, 0)), scale=2)
        with pytest.raises(ConeShapeError):
            Fan(cones=(a, b))

    def test_primitive_ray(self):
        assert primitive_ray((2, -4, 6)) == (1, -2, 3)
