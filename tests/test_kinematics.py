"""Closed-form IK/FK and the inverse Jacobian of the zero-offset model."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import grid_xyz, random_cube_poses

from orthoglide import kinematics
from orthoglide.errors import DegenerateInput, NoAssemblyMode, SerialSingularity, Unreachable
from orthoglide.kinematics import (
    DesignParams,
    forward_kinematics,
    inverse_jacobian,
    inverse_kinematics,
    leg_radicands,
    within_stroke,
)
from orthoglide.synthesis import prototype_design
from orthoglide.workspace import Bounds, CubeSpec, map_cube

L = 310.58
D = DesignParams(leg_length=L)
U2 = L / math.sqrt(6.0)  # diagonal offset where the coupling ratio a = 1/2

# poses inside the prototype cube diagonal interval, away from boundaries
pose_coords = st.floats(min_value=-70.0, max_value=120.0)
poses = st.tuples(pose_coords, pose_coords, pose_coords)


def closure_residuals(p, rho, leg_length):
    """Independent oracle: distance of each leg from its nominal length."""
    p = np.asarray(p, float)
    return np.array(
        [abs(np.linalg.norm(p - rho[i] * np.eye(3)[i]) - leg_length) for i in range(3)]
    )


class TestInverseKinematics:
    def test_isotropic_pose(self):
        rho = inverse_kinematics((0, 0, 0), D)
        assert np.allclose(rho, [-L, -L, -L], rtol=0, atol=1e-12)

    def test_boundary_pose_is_serial_singular(self):
        with pytest.raises(SerialSingularity) as e:
            inverse_kinematics((0, 0, L), D)
        assert e.value.leg == 0

    def test_solve_fails_non_finite_radicands(self):
        # the non-raising core behind inverse_kinematics and the grid sweep
        rad = np.array([[np.nan, -np.inf, np.inf], [L * L, 0.0, -1.0]])
        rho, eta, fail = kinematics._working_mode(np.zeros((2, 3)), rad, L)
        assert fail.tolist() == [[True, True, True], [False, True, True]]
        assert rho[1, 0] == -L and eta[1, 0] == L

    def test_reference_point_q2(self):
        # eta = 2u there, so rho = u - 2u = -u; oracle: leg closure
        rho = inverse_kinematics((U2, U2, U2), D)
        assert np.allclose(rho, [-U2, -U2, -U2], rtol=1e-12)
        assert closure_residuals((U2, U2, U2), rho, L).max() <= 1e-9 * L
        # the spec's rounded figures (u = 126.79) hold to their print precision
        rho_r = inverse_kinematics((126.79, 126.79, 126.79), D)
        assert np.allclose(rho_r, [-126.79, -126.79, -126.79], atol=2e-2)

    def test_unreachable_reports_leg(self):
        with pytest.raises(Unreachable) as e:
            inverse_kinematics((0.0, 0.9 * L, 0.9 * L), D)
        assert e.value.leg == 0

    def test_stroke_violation_is_flagged_not_raised(self):
        tight = DesignParams(leg_length=L, stroke_min=-300.0, stroke_max=-200.0)
        rho = inverse_kinematics((0, 0, 0), tight)  # rho = -310.58 each
        assert not within_stroke(rho, tight).any()

    def test_batch_equals_single_poses(self, rng):
        pts = rng.uniform(-70.0, 120.0, (2, 50, 3))
        rho = inverse_kinematics(pts, D)
        assert rho.shape == (2, 50, 3)
        for idx in np.ndindex(2, 50):
            assert np.array_equal(rho[idx], inverse_kinematics(pts[idx], D))

    def test_batch_raises_for_first_failing_pose(self, rng):
        pts = rng.uniform(-70.0, 120.0, (2, 50, 3))
        pts[1, 7] = (0.0, 0.0, L)  # serial singularity, flat index 57
        pts[1, 20] = (0.0, 0.9 * L, 0.9 * L)  # unreachable, later
        with pytest.raises(SerialSingularity) as e:
            inverse_kinematics(pts, D)
        assert (e.value.index, e.value.leg) == (57, 0)
        with pytest.raises(SerialSingularity) as single:
            inverse_kinematics(pts[1, 7], D)
        assert str(e.value) == str(single.value)
        assert single.value.index is None
        pts[0, 3] = (0.9 * L, 0.0, 0.9 * L)
        with pytest.raises(Unreachable) as e:
            inverse_kinematics(pts, D)
        assert (e.value.index, e.value.leg) == (3, 1)

    @pytest.mark.parametrize(
        "pts, message",
        [
            (np.zeros((4, 2)), "expected a length-3 vector, got shape (4, 2)"),
            (np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]), "vector components must be finite"),
        ],
    )
    def test_batch_input_validated(self, pts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            inverse_kinematics(pts, D)

    @given(poses)
    @settings(max_examples=60, deadline=None)
    def test_closure_holds_everywhere(self, p):
        rho = inverse_kinematics(p, D)
        assert closure_residuals(p, rho, L).max() <= 1e-9 * L
        assert np.all(np.asarray(p) - rho > 0)  # working mode


class TestForwardKinematics:
    def test_symmetric_case_picks_isotropic_root(self):
        # the other root (-2L/3)(1,1,1) is also in the working mode but has
        # larger ||p||^2 and must be rejected
        p = forward_kinematics((-L, -L, -L), D)
        assert np.allclose(p, 0.0, atol=1e-9)

    def test_round_trip_can_give_the_other_assembly(self):
        # both roots are working-mode poses of the same sliders, and the one
        # with the smaller ||p||^2 is returned, not the pose IK started from
        d = prototype_design()
        p = np.array([-208.40, -77.55, -113.84])
        rho = inverse_kinematics(p, d)
        back = forward_kinematics(rho, d)
        assert np.allclose(back, [-200.344, -63.430, -101.981], rtol=0, atol=1e-3)
        assert inverse_kinematics(back, d).tobytes() == rho.tobytes()
        assert back @ back < p @ p

    def test_far_sliders_have_no_assembly(self):
        with pytest.raises(NoAssemblyMode):
            forward_kinematics((-3 * L, -3 * L, -3 * L), D)

    def test_q2_round_trip(self):
        p = forward_kinematics((-U2, -U2, -U2), D)
        assert np.allclose(p, [U2, U2, U2], rtol=1e-12)

    def test_one_zero_slider(self):
        rho = np.array([0.0, -0.8 * L, -0.7 * L])
        p = forward_kinematics(rho, D)
        assert closure_residuals(p, rho, L).max() <= 1e-9 * L
        assert np.all(p - rho > 0)
        assert np.allclose(inverse_kinematics(p, D), rho, rtol=0, atol=1e-9 * L)

    def test_zero_slider_double_root(self):
        # ||rho||^2 / 4 = L^2 with rho_1 = 0 leaves the double root t = 0,
        # p = rho / 2, with eta_1 = 0 on the workspace boundary: a serial
        # singularity, which inverse kinematics refuses too
        d = DesignParams(leg_length=5.0)
        with pytest.raises(NoAssemblyMode):
            forward_kinematics((0.0, -6.0, -8.0), d)
        with pytest.raises(SerialSingularity):
            inverse_kinematics((0.0, -3.0, -4.0), d)

    def test_two_zero_sliders_degenerate(self):
        with pytest.raises(DegenerateInput):
            forward_kinematics((0.0, 0.0, -L), D)

    @pytest.mark.parametrize(
        "eps", [1e-6, 1e-9, 1e-12, 1e-14, 0.0, -0.0, 1e-13, -1e-13, 1e-300]
    )
    def test_small_nonzero_slider_stays_accurate(self, eps):
        # the stable root formulas avoid the catastrophic cancellation the
        # naive quadratic suffers as a slider coordinate approaches zero, on
        # both sides of 1e-13 L and at zero itself
        rho = np.array([eps * L, -0.8 * L, -0.7 * L])
        p = forward_kinematics(rho, D)
        assert closure_residuals(p, rho, L).max() <= 1e-9 * L
        assert np.abs(inverse_kinematics(p, D) - rho).max() <= 1e-9 * L

    @given(poses)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, p):
        # the pose scaled by leg / L, at leg lengths near both ends of the
        # range DesignParams accepts, where squaring rho_i over- or underflows;
        # any RuntimeWarning fails the suite
        for leg in (L, 2e-154, 1.5e-154, 1e150, 1e154):
            d = DesignParams(leg_length=leg)
            pose = np.multiply(p, leg / L)
            back = forward_kinematics(inverse_kinematics(pose, d), d)
            assert np.allclose(back, pose, rtol=0, atol=1e-9 * leg)

    @pytest.mark.parametrize("rho", [(1e200,) * 3, (-1e155, 5.0, 7.0)])
    def test_sliders_beyond_twice_the_leg_have_no_assembly(self, rho):
        # every assembly has |p_i| <= L and |p_i - rho_i| <= L; the suite
        # fails on the overflow warning rho_i^2 would give
        with pytest.raises(NoAssemblyMode):
            forward_kinematics(rho, D)

    @given(st.tuples(*[st.floats(min_value=-1.3 * L, max_value=-0.5 * L)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_joint_round_trip_property(self, rho):
        # working-mode slider ranges: FK then IK must return the joints
        # (assemblies exactly on the workspace boundary may raise either way)
        rho = np.asarray(rho)
        try:
            p = forward_kinematics(rho, D)
            back = inverse_kinematics(p, D)
        except (NoAssemblyMode, SerialSingularity):
            return
        assert np.allclose(back, rho, rtol=0, atol=1e-9 * L)


class TestErrorMessages:
    """Errors name poses and joints as plain floats, never numpy scalars."""

    def test_huge_pose_is_unreachable_without_overflow_warning(self):
        p = np.array([1e308, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rad = leg_radicands(p, L)
            with pytest.raises(Unreachable) as e:
                inverse_kinematics(p, D)
        assert rad[1] == -math.inf and rad[2] == -math.inf
        assert "pose (1e+308, 0.0, 0.0) unreachable" in str(e.value)
        assert "np.float64" not in str(e.value)

    def test_boundary_pose_message(self):
        with pytest.raises(SerialSingularity) as e:
            inverse_kinematics(np.array([0.0, 0.0, L]), D)
        assert f"pose (0.0, 0.0, {L!r}) on workspace boundary" in str(e.value)

    # the quadratic, its admissibility check, and one zero slider
    @pytest.mark.parametrize(
        "rho", [(-3 * L, -3 * L, -3 * L), (-1e-3, 5.0, 7.0), (0.0, -2 * L, -2 * L)]
    )
    def test_forward_kinematics_messages(self, rho):
        with pytest.raises(NoAssemblyMode) as e:
            forward_kinematics(np.array(rho), D)
        assert f"joints {tuple(float(r) for r in rho)}" in str(e.value)
        assert "np.float64" not in str(e.value)


class TestDesignParams:
    def test_scalar_strokes_broadcast(self):
        d = DesignParams(leg_length=100.0, stroke_min=-50.0, stroke_max=-10.0)
        assert d.stroke_min == (-50.0, -50.0, -50.0)
        assert d.stroke_max == (-10.0, -10.0, -10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"leg_length": 0.0},
            {"leg_length": -10.0},
            # L*L overflows, or underflows below the normal range
            {"leg_length": 1e200},
            {"leg_length": 1e-160},
            {"leg_length": 100.0, "stroke_min": 5.0, "stroke_max": 5.0},
            {"leg_length": 100.0, "stroke_min": 10.0, "stroke_max": -10.0},
            {"leg_length": 100.0, "motor_vmax": 0.0},
            {"leg_length": 100.0, "motor_amax": -1.0},
            {"leg_length": 100.0, "stroke_min": [1.0, 2.0]},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DesignParams(**kwargs)

    def test_leg_length_at_the_ends_of_the_square_range(self):
        # the largest and smallest L whose square is a finite normal float
        big = np.sqrt(np.finfo(float).max)
        small = np.sqrt(np.finfo(float).tiny)
        assert DesignParams(leg_length=big).leg_length == big
        assert DesignParams(leg_length=small).leg_length == small


class TestLegStates:
    """eta_i = (c_i - b_i) . e_i = p_i - rho_i, each leg's transmission
    scalar, at the joints `inverse_kinematics` returns."""

    def test_isotropic_etas(self):
        eta = np.subtract((0, 0, 0), inverse_kinematics((0, 0, 0), D))
        assert list(eta) == pytest.approx([L, L, L])

    def test_q2_etas_match_dot_product_oracle(self):
        p = (U2, U2, U2)
        rho = inverse_kinematics(p, D)
        legs, eta = np.subtract(p, np.diag(rho)), np.subtract(p, rho)
        for i in range(3):
            assert eta[i] == pytest.approx(float(legs[i] @ np.eye(3)[i]), rel=1e-15)
            assert eta[i] == pytest.approx(2 * U2, rel=1e-12)
        # 2u = 253.58 for the spec's rounded u
        assert eta[0] == pytest.approx(253.58, abs=2e-2)

    def test_eta_vanishes_at_boundary(self):
        p = (0.0, 0.0, L - 1e-7 * L)
        eta = np.subtract(p, inverse_kinematics(p, D))
        assert 0 < eta[0] < 1e-3 * L


def fd_jacobian(p, d, step):
    """Independent oracle: central finite differences of IK."""
    p = np.asarray(p, float)
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        cols.append((inverse_kinematics(p + e, d) - inverse_kinematics(p - e, d)) / (2 * step))
    return np.column_stack(cols)


class TestInverseJacobian:
    def test_identity_at_origin(self):
        rho = inverse_kinematics((0, 0, 0), D)
        jinv = inverse_jacobian((0, 0, 0), rho)
        assert np.array_equal(jinv, np.eye(3))

    def test_diagonal_pose_closed_form(self):
        for u in (-60.0, 25.0, 100.0, U2):
            p = (u, u, u)
            a = u / math.sqrt(L**2 - 2 * u * u)
            want = np.full((3, 3), a) + (1 - a) * np.eye(3)
            rho = inverse_kinematics(p, D)
            assert np.allclose(inverse_jacobian(p, rho), want, rtol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            p = rng.uniform(-70.0, 120.0, 3)
            rho = inverse_kinematics(p, D)
            jinv = inverse_jacobian(p, rho)
            jfd = fd_jacobian(p, D, 1e-6 * L)
            assert np.abs(jfd - jinv).max() / np.abs(jinv).max() <= 1e-6

    @given(poses)
    @settings(max_examples=60, deadline=None)
    def test_diagonal_entries_exactly_one(self, p):
        rho = inverse_kinematics(p, D)
        jinv = inverse_jacobian(p, rho)
        assert all(jinv[i, i] == 1.0 for i in range(3))


def three_pass_jacobian(points, rho):
    """Rows (p - rho_i e_i) / eta_i in three broadcast passes, the formula
    `inverse_jacobian` was first written with."""
    points, rho = np.asarray(points, dtype=float), np.asarray(rho, dtype=float)
    rows = points[..., None, :] - rho[..., :, None] * np.eye(3)
    rows /= (points - rho)[..., :, None]
    return rows


class TestOnePassJacobian:
    """`inverse_jacobian` builds the rows in one pass, with the bits
    of the leg-vector formula."""

    @staticmethod
    def assert_same(points, rho):
        got, want = inverse_jacobian(points, rho), three_pass_jacobian(points, rho)
        assert np.array_equal(got, want)
        nonzero = want != 0.0
        assert np.array_equal(got.view(np.uint64)[nonzero], want.view(np.uint64)[nonzero])
        return got, want

    @pytest.mark.parametrize("case", ["map-export", "1.8x-prototype"])
    def test_reachable_grid_nodes(self, design, proto, case):
        if case == "map-export":
            corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
            cube = CubeSpec(corner, corner + 230.0)
        else:
            cube = CubeSpec(1.8 * proto.q1, 1.8 * proto.q2)
        nodes = map_cube(design, cube, Bounds(0.5, 2.0), 41).nodes
        assert case == "map-export" or 0 < np.count_nonzero(~nodes.reachable)
        p = grid_xyz(nodes.axes)[nodes.reachable]
        self.assert_same(p, inverse_kinematics(p, design))

    def test_signed_zero_coordinates(self, design):
        # every pose with a +-0.0 coordinate; at a reachable pose rho_i < 0
        # wherever p_j = 0, so the old formula gave every zero entry +0.0
        # and the bits agree in full, zero signs included
        values = [0.0, -0.0, 37.5, -12.25]
        p = np.array([v for v in itertools.product(values, repeat=3) if 0.0 in v])
        rho = inverse_kinematics(p, design)
        got, want = self.assert_same(p, rho)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for k in range(len(p)):
            one = inverse_jacobian(p[k], rho[k])
            assert np.array_equal(one.view(np.uint64), want[k].view(np.uint64))

    @pytest.mark.parametrize("layout", ["C", "F", "axis-first", "leading-2k", "one-pose"])
    def test_input_layouts(self, design, proto, rng, layout):
        # the result is a view of axis-first storage whatever the input's
        # layout; its diagonal is written through a view of that storage,
        # so it can never land in a copy and leave p_i / eta_i behind
        p = random_cube_poses(proto, rng, 64)
        rho = inverse_kinematics(p, design)
        if layout == "F":
            p, rho = np.asfortranarray(p), np.asfortranarray(rho)
        elif layout == "axis-first":
            p, rho = np.ascontiguousarray(p.T).T, np.ascontiguousarray(rho.T).T
        elif layout == "leading-2k":
            p, rho = p.reshape(2, -1, 3), rho.reshape(2, -1, 3)
        elif layout == "one-pose":
            p, rho = p[5], rho[5]
        got, want = self.assert_same(p, rho)
        assert got.shape == p.shape + (3,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all(np.diagonal(got, axis1=-2, axis2=-1) == 1.0)
        if p.ndim == 2:
            # entry (i, j) of every matrix is one contiguous row
            rows = np.moveaxis(got, (-2, -1), (0, 1))
            assert rows.flags.c_contiguous or rows.swapaxes(0, 1).flags.c_contiguous


class TestEquivariance:
    @given(poses, st.permutations([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_axis_permutation(self, p, perm):
        p = np.asarray(p)
        rho = inverse_kinematics(p, D)
        rho_p = inverse_kinematics(p[perm], D)
        assert np.array_equal(rho_p, rho[perm])
        jinv = inverse_jacobian(p, rho)
        jinv_p = inverse_jacobian(p[perm], rho_p)
        assert np.array_equal(jinv_p, jinv[np.ix_(perm, perm)])

    @given(poses, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling(self, p, lam):
        p = np.asarray(p)
        scaled = DesignParams(leg_length=lam * L)
        rho = inverse_kinematics(p, D)
        rho_s = inverse_kinematics(lam * p, scaled)
        assert np.allclose(rho_s, lam * rho, rtol=1e-12)
        assert np.allclose(
            inverse_jacobian(lam * p, rho_s),
            inverse_jacobian(p, rho),
            rtol=0,
            atol=1e-12,
        )
