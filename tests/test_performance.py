"""Transmission factors, conditioning and isotropy residuals.

The independent oracle throughout is numpy's dense eigen/SVD machinery;
the implementation route is the hand-rolled Jacobi scheme.
"""

import math

import numpy as np
import pytest
from conftest import matrices3, same_bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthoglide.kinematics import SERIAL_TOL, DesignParams, inverse_jacobian, inverse_kinematics
from orthoglide.linalg3 import det3
from orthoglide.performance import (
    DET_TOL,
    forward_factors,
    isotropy_residual,
    kappa_from_factors,
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

    @given(matrices3())
    @example(np.full((3, 3), 1e150))  # inf - inf: NaN
    @example(1e150 * np.eye(3))  # inf
    @example(np.full((3, 3), 1e-150))  # underflow to 0
    @settings(max_examples=200, deadline=None)
    def test_one_matrix_glue_matches_batched_routes(self, m):
        # the report's float glue against the batched det3, kappa rule and
        # np.linalg.norm on the same matrix
        tf = transmission_factors(m)
        with np.errstate(all="ignore"):
            det = det3(m[None])[0]
            kappa = kappa_from_factors(forward_factors(m[None]))[0]
            norms = np.linalg.norm(m, axis=1)
        assert same_bits(tf.det_inv, det)
        assert same_bits(tf.kappa, kappa)
        assert tf.serial_flags == tuple(bool(n >= 1.0 / SERIAL_TOL) for n in norms)
        assert tf.parallel_flag == bool(abs(det) <= DET_TOL)

    @pytest.mark.parametrize(
        "jinv, message",
        [
            (np.full((3, 3), np.nan), "inverse Jacobian entries must be finite"),
            (np.diag([1.0, np.inf, 1.0]), "inverse Jacobian entries must be finite"),
            (np.eye(4), "expected a 3x3 matrix, got shape (4, 4)"),
        ],
        ids=["nan", "inf", "4x4"],
    )
    def test_rejects_invalid_input(self, jinv, message):
        with pytest.raises(ValueError) as err:
            transmission_factors(jinv)
        assert str(err.value) == message


class TestConditionNumber:
    def test_identity(self):
        assert transmission_factors(np.eye(3)).kappa == 1.0

    def test_a_half_closed_form(self):
        # spectrum {1+2a, 1-a, 1-a}: kappa = (1-a)/(1+2a) for a > 0
        assert transmission_factors(diag_pose_matrix(0.5)).kappa == pytest.approx(0.25, abs=1e-13)

    def test_rank_deficient_is_zero(self):
        assert transmission_factors(np.outer([1, 1, 1], [1, 2, 3])).kappa == pytest.approx(0.0, abs=1e-7)

    @given(st.floats(min_value=0.05, max_value=20.0), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_scaling_and_inversion(self, scale, invert):
        m = diag_pose_matrix(0.3)
        base = transmission_factors(m).kappa
        m2 = np.linalg.inv(m) if invert else m
        assert transmission_factors(scale * m2).kappa == pytest.approx(base, rel=1e-9)

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
        res = isotropy_residual((0, 0, 0), inverse_kinematics((0, 0, 0), D))
        assert res.ratio_dev == 0.0
        assert res.ortho_dev == 0.0
        assert res.is_isotropic()
        # unit transmission follows
        tf = transmission_factors(np.eye(3))
        assert np.array_equal(tf.sigma_fwd, np.ones(3))

    def test_q2_keeps_equal_ratios_but_not_orthogonality(self):
        rho = inverse_kinematics((U2, U2, U2), D)
        res = isotropy_residual((U2, U2, U2), rho)
        # all three per-leg ratios are equal on the diagonal ...
        legs = np.subtract((U2, U2, U2), np.diag(rho))
        ratios = [np.linalg.norm(v) / v[i] for i, v in enumerate(legs)]
        assert max(ratios) - min(ratios) <= 1e-14
        # ... at the common value L/(2u), so the deviation from unity is
        assert res.ratio_dev == pytest.approx(L / (2 * U2) - 1.0, rel=1e-12)
        # orthogonality fails: oracle = normalized leg dot products
        dots = [
            abs(legs[i] @ legs[j]) / (np.linalg.norm(legs[i]) * np.linalg.norm(legs[j]))
            for i, j in ((0, 1), (1, 2), (2, 0))
        ]
        assert res.ortho_dev == pytest.approx(max(dots), rel=1e-14)
        assert res.ortho_dev > 0.5  # (2uh + u^2)/L^2 = 5/6 at a = 1/2

    def test_off_axis_pose_breaks_both(self):
        res = isotropy_residual((50.0, 0.0, 0.0), inverse_kinematics((50.0, 0.0, 0.0), D))
        assert res.ratio_dev > 0.0
        assert res.ortho_dev > 0.0


class TestDiagonalSpectrum:
    def test_closed_form_vs_generic(self):
        # sigma(Jinv) = {1+2a, 1-a, 1-a} and det = (1-a)^2 (1+2a) on the diagonal
        for u in np.linspace(-73.0, 126.0, 15):
            a = u / math.sqrt(L**2 - 2 * u * u)
            p = (u, u, u)
            rho = inverse_kinematics(p, D)
            jinv = inverse_jacobian(p, rho)
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
            kappas.append(transmission_factors(inverse_jacobian(p, rho)).kappa)
        origin = transmission_factors(np.eye(3)).kappa
        assert origin == 1.0
        assert all(k < 1.0 for u, k in zip(np.linspace(-73.0, 126.0, 21), kappas) if u != 0.0)

