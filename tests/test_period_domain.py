"""Numeric Siegel-space, Riemann-relation, and nilpotent-orbit checks."""

import numpy as np
import pytest

from siegeltoric.period_domain import (
    CuspNilpotent,
    assemble_block_tau,
    block_volume_identity,
    dual_cusp_filtration,
    exp_i_n,
    filtration_from_tau,
    nilpotent_orbit_check,
    positive_cone_membership,
    random_siegel_point,
    riemann_check,
    siegel_membership,
    symplectic_form,
    weight_filtration,
)

TOL = 1e-9


def symplectic_involution_image(tau: np.ndarray) -> np.ndarray:
    """Image -tau^{-1} of tau under the standard symplectic involution."""
    return -np.linalg.inv(np.asarray(tau, dtype=complex))


class TestSymplecticForm:
    def test_shape_and_square(self):
        for g in (1, 2, 3):
            psi = symplectic_form(g)
            assert np.array_equal(psi.T, -psi)
            assert np.allclose(psi @ psi, -np.eye(2 * g))

    def test_pairing_convention(self):
        psi = symplectic_form(2)
        e0 = np.eye(4)[:, 0]
        e2 = np.eye(4)[:, 2]
        assert psi[0, 2] == -1 and e0 @ psi @ e2 == -1


class TestSiegelMembership:
    def test_i_identity(self):
        assert siegel_membership(1j * np.eye(3), TOL)

    def test_real_identity_fails(self):
        assert not siegel_membership(np.eye(3) + 0j, TOL)

    def test_offdiagonal_example(self):
        tau = np.array([[1j, 0.5], [0.5, 2j]])
        assert siegel_membership(tau, TOL)

    def test_asymmetric_fails(self):
        tau = np.array([[1j, 0.5], [0.3, 2j]])
        assert not siegel_membership(tau, TOL)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            siegel_membership(np.zeros((2, 3)), TOL)


class TestFiltration:
    def test_i_identity(self):
        f = filtration_from_tau(1j * np.eye(2))
        assert np.allclose(f[:2], 1j * np.eye(2))
        assert np.allclose(f[2:], np.eye(2))

    def test_bottom_block_always_identity(self):
        rng = np.random.default_rng(5)
        tau = random_siegel_point(3, rng)
        assert np.allclose(filtration_from_tau(tau)[3:], np.eye(3))

    def test_g1(self):
        f = filtration_from_tau(np.array([[2j]]))
        assert np.allclose(f, np.array([[2j], [1]]))

    def test_membership_enforced(self):
        with pytest.raises(ValueError):
            filtration_from_tau(np.eye(2) + 0j)


class TestRiemannCheck:
    def test_i_identity_positivity_is_2i(self):
        g = 2
        f = filtration_from_tau(1j * np.eye(g))
        psi = symplectic_form(g)
        h = 1j * (f.T @ psi @ f.conj())
        assert np.allclose(h, 2 * np.eye(g))
        assert riemann_check(f, TOL)

    def test_real_columns_fail_positivity(self):
        g = 2
        f = np.vstack([np.eye(g), np.zeros((g, g))]).astype(complex)
        assert not riemann_check(f, TOL)

    def test_random_siegel_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tau = random_siegel_point(2, rng)
            assert riemann_check(filtration_from_tau(tau), TOL)

    def test_rank_deficient_rejected(self):
        f = np.zeros((4, 2), dtype=complex)
        f[:, 0] = [1, 0, 0, 0]
        f[:, 1] = [1, 0, 0, 0]
        with pytest.raises(ValueError):
            riemann_check(f, TOL)

    def test_involution_keeps_membership(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            tau = random_siegel_point(2, rng)
            assert siegel_membership(symplectic_involution_image(tau), TOL)


class TestPositiveCone:
    def test_identity_block(self):
        n = CuspNilpotent(g=2, k=0, u=np.eye(2))
        assert positive_cone_membership(n, TOL)

    def test_negative_identity(self):
        n = CuspNilpotent(g=2, k=0, u=-np.eye(2))
        assert not positive_cone_membership(n, TOL)

    def test_off_diagonal_pd(self):
        n = CuspNilpotent(g=2, k=0, u=np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert positive_cone_membership(n, TOL)

    def test_block_layout(self):
        u = np.array([[5.0]])
        n = CuspNilpotent(g=2, k=1, u=u)
        mat = n.matrix
        assert mat[1, 3] == 5.0
        assert np.count_nonzero(mat) == 1

    def test_nilpotency(self):
        rng = np.random.default_rng(3)
        for g, k in ((2, 0), (2, 1), (3, 1), (3, 2)):
            q = rng.standard_normal((g - k, g - k))
            n = CuspNilpotent(g=g, k=k, u=q @ q.T + 0.1 * np.eye(g - k))
            assert np.max(np.abs(n.matrix @ n.matrix)) == 0

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError):
            CuspNilpotent(g=2, k=0, u=np.zeros((2, 2)))

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            CuspNilpotent(g=3, k=1, u=np.eye(3))


class TestWeightFiltration:
    def test_g2_k0_dimensions(self):
        n = CuspNilpotent(g=2, k=0, u=np.eye(2))
        rank, nullity, image, kernel = weight_filtration(n, TOL)
        assert rank == 2 and nullity == 2

    def test_dimensions_general(self):
        rng = np.random.default_rng(7)
        for g, k in ((2, 1), (3, 0), (3, 1), (3, 2)):
            q = rng.standard_normal((g - k, g - k))
            n = CuspNilpotent(g=g, k=k, u=q @ q.T + 0.1 * np.eye(g - k))
            rank, nullity, image, kernel = weight_filtration(n, TOL)
            assert rank == g - k
            assert nullity == g + k

    def test_image_inside_kernel(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = rng.standard_normal((3, 3))
            n = CuspNilpotent(g=3, k=0, u=q @ q.T + 0.1 * np.eye(3))
            _, _, image, _ = weight_filtration(n, TOL)
            assert np.max(np.abs(n.matrix @ image)) < 1e-8


class TestNilpotentOrbit:
    def test_exp_is_exactly_linear(self):
        n = CuspNilpotent(g=3, k=1, u=np.eye(2))
        direct = exp_i_n(n)
        assert np.array_equal(direct, np.eye(6, dtype=complex) + 1j * n.matrix)

    def test_minimal_cusp_identity_block(self):
        n = CuspNilpotent(g=2, k=0, u=np.eye(2))
        fdual = dual_cusp_filtration(n)
        assert nilpotent_orbit_check(fdual, n, TOL)

    def test_depth_one_with_cusp_point(self):
        n = CuspNilpotent(g=2, k=1, u=np.array([[1.0]]))
        fdual = dual_cusp_filtration(n, tau_cusp=np.array([[1j]]))
        assert nilpotent_orbit_check(fdual, n, TOL)

    def test_orbit_lands_on_block_diagonal_point(self):
        # exp(iN) Fdual spans the filtration of diag(tau_cusp, i*u)
        rng = np.random.default_rng(31)
        g, k = 3, 1
        q = rng.standard_normal((g - k, g - k))
        u = q @ q.T + 0.2 * np.eye(g - k)
        tau_c = random_siegel_point(k, rng)
        n = CuspNilpotent(g=g, k=k, u=u)
        moved = exp_i_n(n) @ dual_cusp_filtration(n, tau_c)
        top, bottom = moved[:g], moved[g:]
        tau = top @ np.linalg.inv(bottom)
        expected = np.zeros((g, g), dtype=complex)
        expected[:k, :k] = tau_c
        expected[k:, k:] = 1j * u
        assert np.allclose(tau, expected, atol=1e-10)

    def test_indefinite_u_rejected(self):
        n = CuspNilpotent(g=2, k=0, u=-np.eye(2))
        fdual = dual_cusp_filtration(n)
        with pytest.raises(ValueError):
            nilpotent_orbit_check(fdual, n, TOL)

    def test_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            g = int(rng.integers(2, 4))
            k = int(rng.integers(0, g))
            q = rng.standard_normal((g - k, g - k))
            u = q @ q.T + 0.1 * np.eye(g - k)
            tau_c = random_siegel_point(k, rng) if k else None
            n = CuspNilpotent(g=g, k=k, u=u)
            fdual = dual_cusp_filtration(n, tau_c)
            assert nilpotent_orbit_check(fdual, n, TOL)


def _well_conditioned_im(g, rng):
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    eigs = rng.uniform(0.5, 2.0, size=g)
    return q @ np.diag(eigs) @ q.T


class TestBlockVolume:
    def test_identity_blocks(self):
        ok = block_volume_identity(1j * np.eye(2), 1j * np.eye(1),
                                   np.zeros((2, 1), dtype=complex), 1e-10)
        assert ok

    def test_zero_coupling_multiplicativity(self):
        rng = np.random.default_rng(17)
        tau_p = random_siegel_point(2, rng)
        z = random_siegel_point(1, rng)
        assert block_volume_identity(tau_p, z, np.zeros((2, 1), dtype=complex), 1e-10)

    def test_random_coupling(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            x = rng.standard_normal((2, 2))
            tau_p = (x + x.T) / 2 + 1j * _well_conditioned_im(2, rng)
            z = rng.standard_normal() + 1j * rng.uniform(0.5, 2.0)
            s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
            assert block_volume_identity(tau_p, np.array([[z]]), s, 1e-8)

    def test_assembled_point_is_siegel(self):
        rng = np.random.default_rng(29)
        tau_p = random_siegel_point(2, rng)
        z = random_siegel_point(1, rng)
        s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        tau = assemble_block_tau(tau_p, z, s)
        assert siegel_membership(tau, 1e-10)
        im = tau.imag
        lhs = np.linalg.det(im)
        rhs = np.linalg.det(tau_p.imag) * np.linalg.det(z.imag)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            block_volume_identity(np.eye(2) + 0j, 1j * np.eye(1),
                                  np.zeros((2, 1)), 1e-9)
        with pytest.raises(ValueError):
            block_volume_identity(1j * np.eye(2), 1j * np.eye(1),
                                  np.zeros((1, 2)), 1e-9)


class TestBinary64Overflow:
    """An intermediate outside the binary64 range raises a ValueError that
    names the stage, and numpy warns nothing (warnings fail the suite).
    The CLI tests cover the Im(tau), F^T psi F and block-assembly stages."""

    def test_asymmetry(self):
        tau = np.array([[1j, 1e308], [-1e308, 1j]])
        with pytest.raises(ValueError, match=r"\|tau - tau\^T\| is not finite"):
            siegel_membership(tau, TOL)

    def test_positive_cone_symmetrization(self):
        n = CuspNilpotent(g=1, k=0, u=np.array([[1.7e308]]))
        with pytest.raises(ValueError, match=r"u \+ u\^T is not finite"):
            positive_cone_membership(n, TOL)
        assert weight_filtration(n, TOL)[:2] == (1, 1)

    def test_weight_singular_values(self):
        n = CuspNilpotent(g=2, k=0, u=np.full((2, 2), 1e308))
        with pytest.raises(ValueError, match="singular values of N is not finite"):
            weight_filtration(n, TOL)

    def test_asymmetric_u(self):
        with pytest.raises(ValueError, match=r"u - u\^T is not finite"):
            CuspNilpotent(g=2, k=0, u=np.array([[1, 1e308], [-1e308, 1]]))
