"""Exact Siegel-space, Riemann-relation, and nilpotent-orbit checks."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from siegeltoric import cli
from siegeltoric import period_domain as exact
from siegeltoric.period_domain import (
    CuspNilpotent,
    block_volume_identity,
    nilpotent_orbit_check,
    positive_cone_membership,
    riemann_check,
    siegel_membership,
    weight_filtration,
)
from siegeltoric.volume_ke import CostGuardError

from filtration_oracle import dual_cusp_filtration, filtration_from_tau, nilpotent_matrix
import period_domain_oracle as oracle
from period_domain_oracle import complex_array, exact_pair, exact_rows, random_siegel_point
from test_cli import FIRST_RELATION_FAILS
from test_cli_fuzz import BLOCK, NILPOTENT, TAU

TOL = 1e-9


def symplectic_involution_image(tau: np.ndarray) -> np.ndarray:
    """Image -tau^{-1} of tau under the standard symplectic involution."""
    return -np.linalg.inv(np.asarray(tau, dtype=complex))


class TestSymplecticForm:
    def test_shape_and_square(self):
        for g in (1, 2, 3):
            psi = oracle.symplectic_form(g)
            assert np.array_equal(psi.T, -psi)
            assert np.allclose(psi @ psi, -np.eye(2 * g))

    def test_pairing_convention(self):
        psi = oracle.symplectic_form(2)
        e0 = np.eye(4)[:, 0]
        e2 = np.eye(4)[:, 2]
        assert psi[0, 2] == -1 and e0 @ psi @ e2 == -1


class TestSiegelMembership:
    def test_i_identity(self):
        assert siegel_membership(exact_pair(1j * np.eye(3)), TOL)

    def test_real_identity_fails(self):
        assert not siegel_membership(exact_pair(np.eye(3)), TOL)

    def test_offdiagonal_example(self):
        tau = exact_pair([[1j, 0.5], [0.5, 2j]])
        assert siegel_membership(tau, TOL)

    def test_asymmetric_fails(self):
        tau = exact_pair([[1j, 0.5], [0.3, 2j]])
        assert not siegel_membership(tau, TOL)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="tau must be square, got 2x3"):
            siegel_membership(exact_pair(np.zeros((2, 3))), TOL)


class TestFiltration:
    def test_i_identity(self):
        f = complex_array(filtration_from_tau(exact_pair(1j * np.eye(2))))
        assert np.allclose(f[:2], 1j * np.eye(2))
        assert np.allclose(f[2:], np.eye(2))

    def test_bottom_block_always_identity(self):
        rng = np.random.default_rng(5)
        tau = random_siegel_point(3, rng)
        assert np.allclose(complex_array(filtration_from_tau(exact_pair(tau)))[3:], np.eye(3))

    def test_g1(self):
        re, im = filtration_from_tau(exact_pair([[2j]]))
        assert re == [[0], [1]] and im == [[2], [0]]
        assert all(type(v) is Fraction for part in (re, im) for row in part for v in row)

    def test_membership_enforced(self):
        with pytest.raises(ValueError, match="tau is not in the Siegel space"):
            riemann_check(exact_pair(np.eye(2)), TOL)


class TestRiemannCheck:
    def test_i_identity_positivity_is_2i(self):
        g = 2
        f = filtration_from_tau(exact_pair(1j * np.eye(g)))
        psi = oracle.symplectic_form(g)
        h = 1j * (complex_array(f).T @ psi @ complex_array(f).conj())
        assert np.allclose(h, 2 * np.eye(g))
        assert riemann_check(f, TOL)

    def test_real_columns_fail_positivity(self):
        g = 2
        f = np.vstack([np.eye(g), np.zeros((g, g))]).astype(complex)
        assert not riemann_check(exact_pair(f), TOL)

    def test_random_siegel_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tau = random_siegel_point(2, rng)
            assert riemann_check(filtration_from_tau(exact_pair(tau)), TOL)

    def test_first_relation_fails(self):
        # full rank, but F^T psi F has the entry -5i
        f = (np.array(FIRST_RELATION_FAILS["re"])
             + 1j * np.array(FIRST_RELATION_FAILS["im"]))
        psi = oracle.symplectic_form(2)
        assert np.allclose(f.T @ psi @ f, [[0, -5j], [5j, 0]])
        assert not riemann_check(exact_pair(f), TOL)
        assert not oracle.riemann_check(f, TOL)

    def test_rank_deficient_rejected(self):
        f = np.zeros((4, 2), dtype=complex)
        f[:, 0] = [1, 0, 0, 0]
        f[:, 1] = [1, 0, 0, 0]
        with pytest.raises(ValueError, match="rank deficient"):
            riemann_check(exact_pair(f), TOL)

    def test_involution_keeps_membership(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            tau = random_siegel_point(2, rng)
            assert siegel_membership(exact_pair(symplectic_involution_image(tau)), TOL)


class TestPositiveCone:
    def test_identity_block(self):
        n = CuspNilpotent(g=2, k=0, u=exact_rows(np.eye(2)))
        assert positive_cone_membership(n, TOL)

    def test_negative_identity(self):
        n = CuspNilpotent(g=2, k=0, u=exact_rows(-np.eye(2)))
        assert not positive_cone_membership(n, TOL)

    def test_off_diagonal_pd(self):
        n = CuspNilpotent(g=2, k=0, u=exact_rows(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert positive_cone_membership(n, TOL)

    def test_block_layout(self):
        u = np.array([[5.0]])
        n = CuspNilpotent(g=2, k=1, u=exact_rows(u))
        mat = np.array(nilpotent_matrix(n), dtype=float)
        assert mat[1, 3] == 5.0
        assert np.count_nonzero(mat) == 1

    def test_nilpotency(self):
        rng = np.random.default_rng(3)
        for g, k in ((2, 0), (2, 1), (3, 1), (3, 2)):
            q = rng.standard_normal((g - k, g - k))
            n = CuspNilpotent(g=g, k=k, u=exact_rows(q @ q.T + 0.1 * np.eye(g - k)))
            mat = np.array(nilpotent_matrix(n), dtype=float)
            assert np.max(np.abs(mat @ mat)) == 0

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError):
            CuspNilpotent(g=2, k=0, u=exact_rows(np.zeros((2, 2))))

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            CuspNilpotent(g=3, k=1, u=exact_rows(np.eye(3)))


class TestWeightFiltration:
    def test_g2_k0_dimensions(self):
        n = CuspNilpotent(g=2, k=0, u=exact_rows(np.eye(2)))
        rank, nullity = weight_filtration(n, TOL)
        assert rank == 2 and nullity == 2

    def test_dimensions_general(self):
        rng = np.random.default_rng(7)
        for g, k in ((2, 1), (3, 0), (3, 1), (3, 2)):
            q = rng.standard_normal((g - k, g - k))
            n = CuspNilpotent(g=g, k=k, u=exact_rows(q @ q.T + 0.1 * np.eye(g - k)))
            rank, nullity = weight_filtration(n, TOL)
            assert rank == g - k
            assert nullity == g + k


class TestNilpotentOrbit:
    def test_exp_is_exactly_linear(self):
        # N^2 = 0, so the exponential series stops at I + iN; the oracle's
        # N has the package's block layout
        n = oracle.CuspNilpotent(g=3, k=1, u=np.eye(2))
        assert not (n.matrix @ n.matrix).any()
        assert np.array_equal(oracle.exp_i_n(n), np.eye(6) + 1j * n.matrix)
        assert np.array_equal(n.matrix,
                              nilpotent_matrix(CuspNilpotent(g=3, k=1, u=exact_rows(np.eye(2)))))

    def test_minimal_cusp_identity_block(self):
        n = CuspNilpotent(g=2, k=0, u=exact_rows(np.eye(2)))
        assert nilpotent_orbit_check(n, None, TOL)

    def test_depth_one_with_cusp_point(self):
        n = CuspNilpotent(g=2, k=1, u=exact_rows(np.array([[1.0]])))
        assert nilpotent_orbit_check(n, exact_pair([[1j]]), TOL)

    def test_orbit_lands_on_block_diagonal_point(self):
        # exp(iN) Fdual spans the filtration of diag(tau_cusp, i*u)
        rng = np.random.default_rng(31)
        g, k = 3, 1
        q = rng.standard_normal((g - k, g - k))
        u = q @ q.T + 0.2 * np.eye(g - k)
        tau_c = random_siegel_point(k, rng)
        n = CuspNilpotent(g=g, k=k, u=exact_rows(u))
        moved = (oracle.exp_i_n(oracle.CuspNilpotent(g=g, k=k, u=u))
                 @ complex_array(dual_cusp_filtration(n, exact_pair(tau_c))))
        top, bottom = moved[:g], moved[g:]
        tau = top @ np.linalg.inv(bottom)
        expected = np.zeros((g, g), dtype=complex)
        expected[:k, :k] = tau_c
        expected[k:, k:] = 1j * u
        assert np.allclose(tau, expected, atol=1e-10)

    def test_indefinite_u_rejected(self):
        n = CuspNilpotent(g=2, k=0, u=exact_rows(-np.eye(2)))
        with pytest.raises(ValueError):
            nilpotent_orbit_check(n, None, TOL)

    def test_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            g = int(rng.integers(2, 4))
            k = int(rng.integers(0, g))
            q = rng.standard_normal((g - k, g - k))
            u = q @ q.T + 0.1 * np.eye(g - k)
            tau_c = exact_pair(random_siegel_point(k, rng)) if k else None
            n = CuspNilpotent(g=g, k=k, u=exact_rows(u))
            assert nilpotent_orbit_check(n, tau_c, TOL)


def _well_conditioned_im(g, rng):
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    eigs = rng.uniform(0.5, 2.0, size=g)
    return q @ np.diag(eigs) @ q.T


class TestBlockVolume:
    def test_identity_blocks(self):
        ok = block_volume_identity(exact_pair(1j * np.eye(2)), exact_pair(1j * np.eye(1)),
                                   exact_pair(np.zeros((2, 1))), 1e-10)
        assert ok

    def test_zero_coupling_multiplicativity(self):
        rng = np.random.default_rng(17)
        tau_p = random_siegel_point(2, rng)
        z = random_siegel_point(1, rng)
        assert block_volume_identity(exact_pair(tau_p), exact_pair(z),
                                     exact_pair(np.zeros((2, 1))), 1e-10)

    def test_random_coupling(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            x = rng.standard_normal((2, 2))
            tau_p = (x + x.T) / 2 + 1j * _well_conditioned_im(2, rng)
            z = rng.standard_normal() + 1j * rng.uniform(0.5, 2.0)
            s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            assert block_volume_identity(exact_pair(tau_p), exact_pair([[z]]), exact_pair(s),
                                         1e-8)

    def test_assembled_point_is_siegel(self):
        rng = np.random.default_rng(29)
        tau_p = random_siegel_point(2, rng)
        z = random_siegel_point(1, rng)
        s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        tau = oracle.assemble_block_tau(tau_p, z, s)
        assert siegel_membership(exact_pair(tau), 1e-10)
        lhs = np.linalg.det(tau.imag)
        rhs = np.linalg.det(tau_p.imag) * np.linalg.det(z.imag)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="tau' is not in its Siegel space"):
            block_volume_identity(exact_pair(np.eye(2)), exact_pair(1j * np.eye(1)),
                                  exact_pair(np.zeros((2, 1))), 1e-9)
        with pytest.raises(ValueError, match="S must be 2x1, got 1x2"):
            block_volume_identity(exact_pair(1j * np.eye(2)), exact_pair(1j * np.eye(1)),
                                  exact_pair(np.zeros((1, 2))), 1e-9)


class TestBinary64Overflow:
    """Inputs whose binary64 intermediates leave the finite range get exact
    verdicts; only a genuinely asymmetric u is still rejected.  The CLI
    tests cover the Im(tau), F^T psi F and block-assembly stages."""

    def test_asymmetry(self):
        tau = exact_pair([[1j, 1e308], [-1e308, 1j]])
        assert not siegel_membership(tau, TOL)

    def test_positive_cone_symmetrization(self):
        n = CuspNilpotent(g=1, k=0, u=exact_rows(np.array([[1.7e308]])))
        assert positive_cone_membership(n, TOL)
        assert weight_filtration(n, TOL) == (1, 1)

    def test_weight_singular_values(self):
        # singular values 2e308 and 0
        n = CuspNilpotent(g=2, k=0, u=exact_rows(np.full((2, 2), 1e308)))
        assert weight_filtration(n, TOL) == (1, 3)

    def test_asymmetric_u(self):
        with pytest.raises(ValueError, match="u must be symmetric"):
            CuspNilpotent(g=2, k=0, u=exact_rows(np.array([[1, 1e308], [-1e308, 1]])))


def _cli_mix_point(rng, g):
    """X + iY with X symmetric and Y = Q Q^T + I/2, as the benchmark's
    cli-mix workload draws them."""
    x = [[rng.uniform(-1, 1) for _ in range(g)] for _ in range(g)]
    q = [[rng.uniform(-1, 1) for _ in range(g)] for _ in range(g)]
    re = [[(x[i][j] + x[j][i]) / 2 for j in range(g)] for i in range(g)]
    im = [[sum(q[i][k] * q[j][k] for k in range(g)) + (0.5 if i == j else 0.0)
           for j in range(g)] for i in range(g)]
    return {"re": re, "im": im}


def _oracle_corpus():
    """(argv tail, document) pairs: the valid seed inputs of the CLI fuzz
    test, then seeded cli-mix points at g = 1..4 with their negated-Y
    twins, cusp nilpotents u = Q Q^T + I and their negatives, and block
    coordinates."""
    cases = [(["siegel"], TAU), (["riemann"], TAU), (["nilpotent"], NILPOTENT),
             (["weight"], NILPOTENT), (["block-volume"], BLOCK),
             (["block-volume", "--tol", "1e-8"], BLOCK)]
    rng = random.Random(2024)
    for g in (1, 2, 3, 4):
        for _ in range(5):
            tau = _cli_mix_point(rng, g)
            lower = dict(tau, im=[[-v for v in row] for row in tau["im"]])
            cases += [(["siegel"], tau), (["siegel", "--output", "text"], lower),
                      (["riemann"], tau), (["riemann"], lower)]
            k = rng.randrange(g)
            m = g - k
            q = [[rng.uniform(-1, 1) for _ in range(m)] for _ in range(m)]
            u = [[sum(q[i][t] * q[j][t] for t in range(m)) + (1.0 if i == j else 0.0)
                  for j in range(m)] for i in range(m)]
            for sign in (1, -1):
                nilp = {"g": g, "k": k, "u": [[sign * v for v in row] for row in u]}
                if k:
                    nilp["tau_cusp"] = _cli_mix_point(rng, k)
                cases += [(["nilpotent"], nilp), (["weight"], nilp)]
            if g > 1:
                g1 = rng.randint(1, g - 1)
                s = {part: [[rng.uniform(-1, 1) for _ in range(g - g1)] for _ in range(g1)]
                     for part in ("re", "im")}
                block = {"tau_prime": _cli_mix_point(rng, g1),
                         "Z": _cli_mix_point(rng, g - g1), "S": s}
                cases.append((["block-volume", "--tol", "1e-8"], block))
    return cases


class TestNumpyOracle:
    """The exact route against the binary64 one it replaced."""

    def test_cli_reports_match_oracle(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "input.json"
        codes = set()
        for tail, doc in _oracle_corpus():
            path.write_text(json.dumps(doc))
            argv = ["hodge", tail[0], str(path), *tail[1:]]
            runs = []
            for module in (exact, oracle):
                monkeypatch.setattr(cli, "period_domain", module)
                code = cli.main(argv)
                runs.append((code, capsys.readouterr().out))
            assert runs[0] == runs[1], (argv, doc)
            codes.add(runs[0][0])
        assert codes == {0, 1, 2}

    def test_weight_rank_near_threshold(self):
        # spectra with singular values within 10^-6..10^-2 of the threshold
        # tol * max(1, s_max), zero ones and large ones
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            s_max = 10.0 ** rng.uniform(-3, 3)
            tol = 10.0 ** rng.uniform(-12, -1)
            threshold = tol * max(1.0, s_max)
            lam = [s_max]
            for _ in range(m - 1):
                r = rng.random()
                if r < 0.3:
                    v = threshold * (1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -2))
                else:
                    v = 0.0 if r < 0.5 else s_max * rng.uniform(0.1, 1)
                lam.append(v * rng.choice([-1, 1]))
            u = q @ np.diag(lam) @ q.T
            u = (u + u.T) / 2
            want = oracle.weight_filtration(oracle.CuspNilpotent(g=m, k=0, u=u), tol)
            assert weight_filtration(CuspNilpotent(g=m, k=0, u=exact_rows(u)), tol) == want

    @pytest.mark.parametrize("diag,tol,rank", [
        ([2.0 ** -29, 2.0], 2.0 ** -30, 1),
        ([2.0, 2.0 ** -29], 2.0 ** -30, 1),
        ([2.0 ** -29 * (1 + 2.0 ** -52), 2.0], 2.0 ** -30, 2),
        ([0.5, 2.0 ** -30], 2.0 ** -30, 1),
        ([0.5, 2.0 ** -30 * (1 + 2.0 ** -52)], 2.0 ** -30, 2),
        ([2.0, 2.0, 2.0 ** -29, 2.0 ** -29], 2.0 ** -30, 2),
        ([2.0, 1.0], 1.0, 0),
    ])
    def test_weight_rank_at_the_threshold(self, diag, tol, rank):
        # a singular value equal to tol * max(1, s_max) is not counted
        m = len(diag)
        u = np.diag(diag)
        got = weight_filtration(CuspNilpotent(g=m, k=0, u=exact_rows(u)), tol)
        assert got == (rank, 2 * m - rank)
        assert oracle.weight_filtration(oracle.CuspNilpotent(g=m, k=0, u=u), tol) == got

    def test_dimensions_of_singular_u(self):
        u = [[1.0, 2.0], [2.0, 4.0]]
        assert weight_filtration(CuspNilpotent(g=3, k=1, u=exact_rows(u)), TOL) == (1, 5)
        assert oracle.weight_filtration(oracle.CuspNilpotent(g=3, k=1, u=u), TOL) == (1, 5)


class TestCostGuard:
    def test_genus_bound(self):
        g = exact.HODGE_GENUS_MAX
        assert siegel_membership(exact_pair(1j * np.eye(g)), TOL)
        assert weight_filtration(CuspNilpotent(g=g, k=0, u=exact_rows(np.eye(g))), TOL) == (g, g)
        message = f"limited to g <= {g}, got g={g + 1}"
        with pytest.raises(CostGuardError, match=message):
            siegel_membership(exact_pair(1j * np.eye(g + 1)), TOL)
        with pytest.raises(CostGuardError, match=message):
            riemann_check(exact_pair(np.vstack([1j * np.eye(g + 1), np.eye(g + 1)])), TOL)
        with pytest.raises(CostGuardError, match=message):
            CuspNilpotent(g=g + 1, k=1, u=exact_rows(np.eye(g)))
        with pytest.raises(CostGuardError, match=message):
            block_volume_identity(exact_pair(1j * np.eye(g)), exact_pair(1j * np.eye(1)),
                                  exact_pair(np.zeros((g, 1))), TOL)
