"""Exact LP: the integer-tableau simplex against the Fourier-Motzkin oracle."""

import random
from fractions import Fraction

import pytest

from naive_oracle import fm_feasible_eq_nonneg
from siegeltoric.exactlp import cone_membership, feasible_eq_nonneg, maximal_support


def test_trivial_feasible():
    # x0 + x1 = 1, x >= 0
    assert feasible_eq_nonneg([[1, 1]], [1], 2)


def test_trivial_infeasible():
    # x0 + x1 = -1, x >= 0
    assert not feasible_eq_nonneg([[1, 1]], [-1], 2)


def test_inconsistent_equalities():
    assert not feasible_eq_nonneg([[1, 1], [1, 1]], [1, 2], 2)


def test_zero_rhs_always_feasible():
    assert feasible_eq_nonneg([[1, -1], [2, -2]], [0, 0], 2)


def test_forced_negative_variable():
    # x0 - x1 = 1 and x0 = 0 forces x1 = -1
    assert not feasible_eq_nonneg([[1, -1], [1, 0]], [1, 0], 2)


def test_shape_errors():
    with pytest.raises(ValueError):
        feasible_eq_nonneg([[1, 1]], [1], 3)
    with pytest.raises(ValueError):
        feasible_eq_nonneg([[1, 1]], [1, 2], 2)


def test_methods_agree_on_random_systems():
    rng = random.Random(2718)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        assert feasible_eq_nonneg(rows, rhs, n) == fm_feasible_eq_nonneg(rows, rhs, n), \
            (rows, rhs)


def test_methods_agree_with_rational_data():
    rng = random.Random(3141)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(m)]
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
        assert feasible_eq_nonneg(rows, rhs, n) == fm_feasible_eq_nonneg(rows, rhs, n), \
            (rows, rhs)


def _degenerate_system(rng):
    """A system whose basic solutions are degenerate: zero right-hand
    sides, repeated rows and rows that are rational multiples of others."""
    n = rng.randint(2, 6)
    base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    base_rhs = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in base]
    rows, rhs = [], []
    for row, b in zip(base, base_rhs):
        for _ in range(rng.randint(1, 3)):
            f = rng.choice((1, 1, -1, 2, Fraction(-3, 2), Fraction(1, 3)))
            rows.append([f * v for v in row])
            rhs.append(f * b)
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [rows[i] for i in order], [rhs[i] for i in order], n


def test_degenerate_systems_agree_with_oracle():
    """Bland's rule must terminate with the right verdict where zero
    right-hand sides and dependent rows make every pivot degenerate."""
    rng = random.Random(1618)
    for _ in range(150):
        rows, rhs, n = _degenerate_system(rng)
        assert feasible_eq_nonneg(rows, rhs, n) == fm_feasible_eq_nonneg(rows, rhs, n), \
            (rows, rhs)


def test_zero_rhs_with_duplicated_and_multiple_rows():
    rows = [[1, -1, 2], [1, -1, 2], [-2, 2, -4], [Fraction(1, 2), Fraction(-1, 2), 1]]
    assert feasible_eq_nonneg(rows, [0, 0, 0, 0], 3)
    # x0 + x1 = 0 twice over and x2 = 1: forces x0 = x1 = 0, feasible
    assert feasible_eq_nonneg([[1, 1, 0], [2, 2, 0], [0, 0, 1]], [0, 0, 1], 3)
    # x0 + x1 = 0 and 3 x0 + 3 x1 = 1 are inconsistent multiples
    assert not feasible_eq_nonneg([[1, 1], [3, 3]], [0, 1], 2)


def _oracle_support(rows, n, k):
    return [i for i in range(k)
            if fm_feasible_eq_nonneg(rows + [[int(j == i) for j in range(n)]],
                                     [0] * len(rows) + [1], n)]


def test_maximal_support_examples():
    # x0 = x1 + x2: every index is positive somewhere, though no vertex of
    # {x0 + x1 + x2 <= 2} is positive at all three
    assert maximal_support([[1, -1, -1]], 3, 3) == [0, 1, 2]
    # x0 + x1 = 0 pins x0 = x1 = 0 while x2 stays free
    assert maximal_support([[1, 1, 0]], 3, 3) == [2]
    assert maximal_support([[1, 1, 0]], 3, 2) == []
    # only x = 0
    assert maximal_support([[1, 0], [0, 1]], 2, 2) == []
    assert maximal_support([], 2, 2) == [0, 1]


def test_maximal_support_agrees_with_oracle():
    rng = random.Random(577)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            rows.append([2 * v for v in rows[0]])
        assert maximal_support(rows, n, k) == _oracle_support(rows, n, k), (rows, k)


def test_cone_membership_basic():
    gens = [[1, 0], [1, 1]]
    assert cone_membership([2, 1], gens)       # 1*(1,0) + 1*(1,1)
    assert not cone_membership([-1, 0], gens)
    assert not cone_membership([0, 1], gens)   # would need negative weight


def test_cone_membership_interior_witness():
    gens = [[1, 0, 0], [0, 0, 1], [1, -1, 1]]
    point = [2, -1, 2]  # sum of all three generators
    assert cone_membership(point, gens)
