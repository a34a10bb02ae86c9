"""Prescribed-cube synthesis against the reported prototype dimensions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoglide.errors import DegenerateBounds
from orthoglide.kinematics import SERIAL_TOL, inverse_kinematics
from orthoglide.synthesis import (
    DiagonalLimits,
    diagonal_limits,
    reference_points,
    synthesize,
)
from orthoglide.workspace import Bounds, diagonal_factors, diagonal_profile, verify_cube

# frozen from the closed forms; cross-checked against the prototype
# dimensions (leg 310 mm, stroke 257 mm, r = 0.78) in the acceptance suite
PROTO_LEG = 310.5828541230249
PROTO_STROKE = 256.99301563680046
PROTO_RATIO = 0.7782312663417018
WIDE_LEG = 254.26446168553142
WIDE_STROKE = 269.2598912672501
WIDE_RATIO = 0.7427767985002001


def scan_admissible_interval(bounds: Bounds, n=200001, span=0.49999):
    """Brute-force oracle: scan a and keep the range where both diagonal
    factors stay inside the bounds (the interval is connected and contains 0)."""
    a = np.linspace(-span, 0.99999, n)
    f = diagonal_factors(a)
    ok = (f[:, 0] >= bounds.s_lo - 1e-9) & (f[:, 2] <= bounds.s_hi + 1e-9)
    return a[ok].min(), a[ok].max()


class TestDiagonalLimits:
    @pytest.mark.parametrize(
        "bounds,want",
        [
            (Bounds(0.5, 2.0), (-0.25, 0.5)),
            (Bounds(1.0 / 3.0, 3.0), (-1.0 / 3.0, 2.0 / 3.0)),
        ],
    )
    def test_closed_form_and_scan_oracle(self, bounds, want):
        lims = diagonal_limits(bounds)
        assert lims.a_min == pytest.approx(want[0], abs=1e-12)
        assert lims.a_max == pytest.approx(want[1], abs=1e-12)
        lo, hi = scan_admissible_interval(bounds)
        step = 1e-5
        assert lims.a_min == pytest.approx(lo, abs=2 * step)
        assert lims.a_max == pytest.approx(hi, abs=2 * step)

    def test_interval_keeps_factors_inside(self):
        for bounds in (Bounds(0.5, 2.0), Bounds(0.9, 10.0), Bounds(0.25, 1.5)):
            lims = diagonal_limits(bounds)
            f = diagonal_factors(np.linspace(lims.a_min, lims.a_max, 1001))
            assert f[:, 0].min() >= bounds.s_lo - 1e-12
            assert f[:, 2].max() <= bounds.s_hi + 1e-12
            # at least one factor binds at each endpoint
            for k in (0, -1):
                assert min(
                    abs(f[k, 0] - bounds.s_lo), abs(f[k, 2] - bounds.s_hi)
                ) <= 1e-12

    def test_unit_bounds_degenerate(self):
        for bounds in (Bounds(1.0, 1.0), Bounds(1.0, 2.0), Bounds(0.5, 1.0)):
            with pytest.raises(DegenerateBounds):
                diagonal_limits(bounds)

    @pytest.mark.parametrize(
        "bounds", [Bounds(0.01, 1e17), Bounds(0.01, 1e15), Bounds(1e-300, 1e300)]
    )
    def test_singular_bounds_degenerate(self, bounds):
        # 1 - 1/s_hi rounds to (or within SERIAL_TOL of) 1: Q2 would sit on
        # the parallel singularity a = 1
        with pytest.raises(DegenerateBounds, match="parallel singularity"):
            diagonal_limits(bounds)

    @given(
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=1.01, max_value=1e300),
    )
    @settings(max_examples=80, deadline=None)
    def test_interval_shape_property(self, s_lo, s_hi):
        try:
            lims = diagonal_limits(Bounds(s_lo, s_hi))
        except DegenerateBounds:
            # only an s_hi near 1/SERIAL_TOL or above reaches the singularity
            assert s_hi > 1e8
            return
        assert lims.a_min <= 0.0 <= lims.a_max
        assert lims.a_max < 1.0
        assert lims.a_min > -0.5
        assert 1.0 + 2.0 * lims.a_min > SERIAL_TOL
        assert 1.0 - lims.a_max > SERIAL_TOL


class TestReferencePoints:
    def test_prototype_reference_points(self):
        lims = diagonal_limits(Bounds(0.5, 2.0))
        q1, q2 = reference_points(310.58, lims)
        # u1 = -L/(3 sqrt 2), u2 = L/sqrt(6)
        assert q1[0] == pytest.approx(-310.58 / (3 * math.sqrt(2.0)), rel=1e-12)
        assert q2[0] == pytest.approx(310.58 / math.sqrt(6.0), rel=1e-12)
        # at the exact synthesized leg length these print as -73.21 / 126.79
        q1e, q2e = reference_points(PROTO_LEG, lims)
        assert q1e[0] == pytest.approx(-73.21, abs=5e-3)
        assert q2e[0] == pytest.approx(126.79, abs=5e-3)

    def test_binding_factors_at_references(self, design, proto):
        for q, target in ((proto.q1, 2.0), (proto.q2, 2.0)):
            fwd = diagonal_profile(design, q[0], q[0] + 1.0, 2).sigma_fwd[0]
            assert min(abs(v - target) for v in fwd) <= 1e-12
        fwd2 = diagonal_profile(design, proto.q2[0], proto.q2[0] + 1.0, 2).sigma_fwd[0]
        assert abs(fwd2[0] - 0.5) <= 1e-12

    def test_degenerate_interval_gives_origin(self):
        q1, q2 = reference_points(500.0, DiagonalLimits(0.0, 0.0))
        assert np.array_equal(q1, np.zeros(3))
        assert np.array_equal(q2, np.zeros(3))

    def test_zero_leg_length_rejected(self):
        with pytest.raises(ValueError, match="leg_length must be positive"):
            reference_points(0.0, diagonal_limits(Bounds(0.5, 2.0)))

    def test_linear_in_leg_length(self):
        lims = diagonal_limits(Bounds(0.5, 2.0))
        q1a, q2a = reference_points(310.0, lims)
        q1b, q2b = reference_points(620.0, lims)
        assert np.allclose(q1b, 2 * q1a, rtol=1e-15)
        assert np.allclose(q2b, 2 * q2a, rtol=1e-15)


class TestSynthesize:
    def test_prototype_dimensions(self, proto):
        assert proto.leg_length == pytest.approx(PROTO_LEG, rel=1e-14)
        assert proto.stroke == pytest.approx(PROTO_STROKE, rel=1e-14)
        assert proto.ratio == pytest.approx(PROTO_RATIO, rel=1e-14)
        # unit-length identities behind the prototype numbers
        u_span = 1 / math.sqrt(6.0) + 1 / (3 * math.sqrt(2.0))
        assert proto.cube_to_leg == pytest.approx(u_span, rel=1e-14)
        assert u_span == pytest.approx(0.64395, abs=5e-6)
        assert proto.stroke / proto.leg_length == pytest.approx(0.82745, abs=5e-6)

    def test_cube_geometry(self, proto):
        assert np.allclose(proto.q2 - proto.q1, 200.0, rtol=1e-13)
        assert proto.q1[0] == proto.q1[1] == proto.q1[2]
        assert proto.q2[0] == proto.q2[1] == proto.q2[2]
        assert proto.cube.side == pytest.approx(200.0, rel=1e-13)
        assert proto.ratio == pytest.approx(proto.lw / proto.stroke, rel=1e-15)

    def test_stroke_extremes_are_achieved_by_ik(self, proto, design):
        rho_corner = inverse_kinematics(proto.q2, design)
        assert rho_corner[0] == pytest.approx(proto.stroke_hi, abs=1e-9 * proto.leg_length)
        rho_face = inverse_kinematics((proto.q1[0], 0.0, 0.0), design)
        assert rho_face[0] == pytest.approx(proto.stroke_lo, abs=1e-9 * proto.leg_length)

    def test_stroke_extremes_bound_the_cube(self, proto, design):
        # no grid joint coordinate may leave [stroke_lo, stroke_hi]
        report = verify_cube(design, proto.cube, Bounds(0.5, 2.0), 13)
        assert report.n_stroke_violations == 0

    def test_scale_equivariance(self, proto):
        doubled = synthesize(400.0, Bounds(0.5, 2.0))
        for attr in ("leg_length", "stroke_lo", "stroke_hi", "stroke"):
            assert getattr(doubled, attr) == pytest.approx(
                2 * getattr(proto, attr), rel=1e-9
            )
        assert np.allclose(doubled.q1, 2 * proto.q1, rtol=1e-9)
        assert np.allclose(doubled.q2, 2 * proto.q2, rtol=1e-9)
        assert doubled.ratio == pytest.approx(proto.ratio, rel=1e-12)

    def test_ratio_independent_of_cube_side(self):
        rs = [synthesize(lw, Bounds(0.5, 2.0)).ratio for lw in (50.0, 200.0, 1234.5)]
        assert max(rs) - min(rs) <= 1e-12

    def test_widened_bounds(self):
        res = synthesize(200.0, Bounds(1.0 / 3.0, 3.0))
        assert res.leg_length == pytest.approx(WIDE_LEG, rel=1e-12)
        assert res.stroke == pytest.approx(WIDE_STROKE, rel=1e-12)
        assert res.ratio == pytest.approx(WIDE_RATIO, rel=1e-12)
        # its own cube passes verification
        report = verify_cube(res.design(), res.cube, res.bounds, 11)
        assert report.ok
        # the two cube ratios move in opposite directions vs bounds (0.5, 2):
        # Lw/stroke falls, Lw/L rises (finding, see README)
        assert res.ratio < PROTO_RATIO
        assert res.cube_to_leg > 0.6439505508593789

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            synthesize(-5.0, Bounds(0.5, 2.0))
        with pytest.raises(DegenerateBounds):
            synthesize(200.0, Bounds(1.0, 1.0))

    def test_asymmetric_bounds_far_corner(self):
        # |u1| > u2 here, so the slider maximum binds at the (u2, u1, u1) corner
        res = synthesize(100.0, Bounds(0.9, 10.0))
        assert abs(res.q1[0]) > res.q2[0]
        d = res.design()
        rho = inverse_kinematics((res.q2[0], res.q1[0], res.q1[0]), d)
        assert rho[0] == pytest.approx(res.stroke_hi, abs=1e-9 * res.leg_length)
        report = verify_cube(d, res.cube, res.bounds, 9)
        assert report.n_stroke_violations == 0
        assert report.n_unreachable == 0
