"""Transmission factors, conditioning and isotropy residuals.

The independent oracle throughout is numpy's dense eigen/SVD machinery;
the implementation route is the hand-rolled Jacobi scheme.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoglide.errors import ParallelSingularity, SerialSingularity, Unreachable
from orthoglide.kinematics import DesignParams, inverse_jacobian, inverse_kinematics, leg_states
from orthoglide.performance import (
    condition_number,
    isotropy_residual,
    manipulability_ellipsoid,
    transmission_factors,
)

L = 310.58
D = DesignParams(leg_length=L)
U2 = L / math.sqrt(6.0)


def diag_pose_matrix(a: float) -> np.ndarray:
    """Inverse Jacobian at pose (u, u, u): ones on the diagonal, a elsewhere."""
    return np.full((3, 3), a) + (1.0 - a) * np.eye(3)


def svd_oracle(jinv: np.ndarray) -> np.ndarray:
    """Ascending forward factors via numpy's dense decomposition."""
    w = np.linalg.eigvalsh(jinv.T @ jinv)
    return np.sort(1.0 / np.sqrt(w))


class TestTransmissionFactors:
    def test_identity(self):
        tf = transmission_factors(np.eye(3))
        assert np.array_equal(tf.sigma_fwd, np.ones(3))
        assert tf.kappa == 1.0
        assert tf.det_inv == 1.0
        assert not tf.parallel_flag
        assert not any(tf.serial_flags)

    def test_a_half(self):
        tf = transmission_factors(diag_pose_matrix(0.5))
        assert np.allclose(tf.sigma_fwd, [0.5, 2.0, 2.0], atol=1e-13)
        assert tf.kappa == pytest.approx(0.25, abs=1e-13)
        assert tf.kappa == pytest.approx(tf.sigma_fwd[0] / tf.sigma_fwd[2], rel=1e-14)
        assert np.allclose(tf.sigma_fwd, svd_oracle(diag_pose_matrix(0.5)), atol=1e-9)

    def test_a_minus_quarter(self):
        tf = transmission_factors(diag_pose_matrix(-0.25))
        assert np.allclose(tf.sigma_fwd, [0.8, 0.8, 2.0], atol=1e-13)
        assert tf.kappa == pytest.approx(0.4, abs=1e-13)

    def test_singular_input_flags_instead_of_raising(self):
        m = diag_pose_matrix(-0.5)  # det = 0: rows sum to zero
        tf = transmission_factors(m)
        assert tf.parallel_flag
        assert math.isinf(tf.sigma_fwd[2])
        assert np.allclose(tf.sigma_fwd[:2], [1 / 1.5, 1 / 1.5], atol=1e-7)
        assert tf.kappa == pytest.approx(0.0, abs=1e-7)

    def test_serial_flag_from_row_norm(self):
        m = np.eye(3)
        m[1] = [2e9, 1.0, 0.0]  # row norm ~ 2e9 = L/eta with eta = 5e-10 L
        tf = transmission_factors(m)
        assert tf.serial_flags == (False, True, False)

    def test_random_matches_oracle(self, rng):
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            tf = transmission_factors(m)
            assert np.allclose(tf.sigma_fwd, svd_oracle(m), rtol=1e-9)
            assert tf.det_inv == pytest.approx(np.linalg.det(m), rel=1e-10)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == 1.0

    def test_a_half_closed_form(self):
        # spectrum {1+2a, 1-a, 1-a}: kappa = (1-a)/(1+2a) for a > 0
        assert condition_number(diag_pose_matrix(0.5)) == pytest.approx(0.25, abs=1e-13)

    def test_rank_deficient_is_zero(self):
        assert condition_number(np.outer([1, 1, 1], [1, 2, 3])) == pytest.approx(0.0, abs=1e-7)

    @given(st.floats(min_value=0.05, max_value=20.0), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_scaling_and_inversion(self, scale, invert):
        m = diag_pose_matrix(0.3)
        base = condition_number(m)
        m2 = np.linalg.inv(m) if invert else m
        assert condition_number(scale * m2) == pytest.approx(base, rel=1e-9)

    def test_reciprocity_of_singular_values(self, rng):
        # sigma_fwd (computed without forming the inverse) must equal the
        # sorted singular values of the true inverse: dual route via numpy
        for _ in range(20):
            jinv = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            fwd = transmission_factors(jinv).sigma_fwd
            oracle = np.sort(np.linalg.svd(np.linalg.inv(jinv), compute_uv=False))
            assert np.allclose(fwd, oracle, atol=1e-10)
            s_i = np.sort(np.linalg.svd(jinv, compute_uv=False))[::-1]
            assert np.allclose(fwd * s_i, 1.0, atol=1e-12)


class TestIsotropyResidual:
    def test_origin_is_isotropic(self):
        res = isotropy_residual((0, 0, 0), D)
        assert res.ratio_dev == 0.0
        assert res.ortho_dev == 0.0
        assert res.is_isotropic()
        # unit transmission follows
        tf = transmission_factors(np.eye(3))
        assert np.array_equal(tf.sigma_fwd, np.ones(3))

    def test_q2_keeps_equal_ratios_but_not_orthogonality(self):
        res = isotropy_residual((U2, U2, U2), D)
        # all three per-leg ratios are equal on the diagonal ...
        rho = inverse_kinematics((U2, U2, U2), D)
        states = leg_states((U2, U2, U2), rho, D)
        ratios = [np.linalg.norm(s.c - s.b) / s.eta for s in states]
        assert max(ratios) - min(ratios) <= 1e-14
        # ... at the common value L/(2u), so the deviation from unity is
        assert res.ratio_dev == pytest.approx(L / (2 * U2) - 1.0, rel=1e-12)
        # orthogonality fails: oracle = normalized leg dot products
        legs = [s.c - s.b for s in states]
        dots = [
            abs(legs[i] @ legs[j]) / (np.linalg.norm(legs[i]) * np.linalg.norm(legs[j]))
            for i, j in ((0, 1), (1, 2), (2, 0))
        ]
        assert res.ortho_dev == pytest.approx(max(dots), rel=1e-14)
        assert res.ortho_dev > 0.5  # (2uh + u^2)/L^2 = 5/6 at a = 1/2

    def test_off_axis_pose_breaks_both(self):
        res = isotropy_residual((50.0, 0.0, 0.0), D)
        assert res.ratio_dev > 0.0
        assert res.ortho_dev > 0.0

    def test_errors_propagate_from_ik(self):
        with pytest.raises(Unreachable):
            isotropy_residual((0.0, 0.9 * L, 0.9 * L), D)
        with pytest.raises(SerialSingularity):
            isotropy_residual((0, 0, L), D)


class TestDiagonalSpectrum:
    def test_closed_form_vs_generic(self):
        # sigma(Jinv) = {1+2a, 1-a, 1-a} and det = (1-a)^2 (1+2a) on the diagonal
        for u in np.linspace(-73.0, 126.0, 15):
            a = u / math.sqrt(L**2 - 2 * u * u)
            p = (u, u, u)
            rho = inverse_kinematics(p, D)
            jinv = inverse_jacobian(p, rho, D)
            tf = transmission_factors(jinv)
            want_inv = np.sort([1 + 2 * a, abs(1 - a), abs(1 - a)])
            got_inv = np.sort(1.0 / tf.sigma_fwd)
            assert np.allclose(got_inv, want_inv, atol=1e-10)
            assert tf.det_inv == pytest.approx((1 - a) ** 2 * (1 + 2 * a), rel=1e-10)

    def test_kappa_peaks_at_origin(self):
        kappas = []
        for u in np.linspace(-73.0, 126.0, 21):
            p = (u, u, u)
            rho = inverse_kinematics(p, D)
            kappas.append(condition_number(inverse_jacobian(p, rho, D)))
        origin = condition_number(np.eye(3))
        assert origin == 1.0
        assert all(k < 1.0 for u, k in zip(np.linspace(-73.0, 126.0, 21), kappas) if u != 0.0)


class TestManipulabilityEllipsoid:
    def test_unit_sphere_at_identity(self):
        ell = manipulability_ellipsoid(np.eye(3))
        assert np.allclose(ell.semi_axes, 1.0, atol=1e-15)
        assert np.allclose(ell.directions @ ell.directions.T, np.eye(3), atol=1e-12)

    def test_a_half_axes_and_directions(self):
        ell = manipulability_ellipsoid(diag_pose_matrix(0.5))
        assert np.allclose(ell.semi_axes, [0.5, 2.0, 2.0], atol=1e-12)
        # the short axis (gain 0.5) lies along (1,1,1); the long axes span its
        # orthogonal complement
        short = ell.directions[:, 0]
        assert abs(abs(short @ (np.ones(3) / math.sqrt(3)))) == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2):
            assert abs(ell.directions[:, k] @ np.ones(3)) <= 1e-9

    def test_directions_orthonormal_and_volume(self, rng):
        for _ in range(20):
            m = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
            det = np.linalg.det(m)
            if abs(det) < 1e-2:
                continue
            ell = manipulability_ellipsoid(m)
            assert np.allclose(ell.directions.T @ ell.directions, np.eye(3), atol=1e-12)
            assert np.prod(ell.semi_axes) == pytest.approx(1.0 / abs(det), rel=1e-9)
            # semi-axes are exactly the forward transmission factors
            assert np.allclose(ell.semi_axes, transmission_factors(m).sigma_fwd, rtol=1e-13)
            # each direction maps through m with gain 1/semi-axis
            for k in range(3):
                gain = np.linalg.norm(m @ ell.directions[:, k])
                assert gain == pytest.approx(1.0 / ell.semi_axes[k], rel=1e-9)

    def test_semi_axes_are_the_transmission_factors_exactly(self, rng):
        # both come from forward_factors, so they agree bit for bit
        mats = np.eye(3) + 0.4 * rng.standard_normal((200, 3, 3))
        mats = mats[np.abs(np.linalg.det(mats)) > 1e-2]
        assert len(mats) > 150
        for m in mats:
            want = transmission_factors(m).sigma_fwd
            assert np.array_equal(manipulability_ellipsoid(m).semi_axes, want)

    def test_singular_raises(self):
        with pytest.raises(ParallelSingularity):
            manipulability_ellipsoid(diag_pose_matrix(-0.5))
