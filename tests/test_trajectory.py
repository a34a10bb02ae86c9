"""Velocity mapping, feasible-speed limits and path profiling."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoglide.errors import NonMonotoneTime, SerialSingularity, Unreachable
from orthoglide.kinematics import DesignParams, inverse_jacobian, inverse_kinematics
from orthoglide.trajectory import (
    _interpolant_derivatives,
    joint_velocity,
    max_feasible_tool_speed,
    profile_arrays,
    read_waypoints_csv,
    write_profile_csv,
)

L = 310.58
D = DesignParams(leg_length=L)  # default motors: 1200 mm/s, 20000 mm/s^2
U2 = L / math.sqrt(6.0)

pose_coords = st.floats(min_value=-70.0, max_value=120.0)
poses = st.tuples(pose_coords, pose_coords, pose_coords)


class TestInterpolantDerivatives:
    """Derivatives of the polynomial through one stencil, from divided
    differences."""

    def test_standard_stencils(self):
        h = 0.25
        f = np.array([3.0, -1.0, 2.5, 7.0])
        d1, d2 = _interpolant_derivatives(h * np.arange(-1.0, 2.0), f[:3], 0.0)
        assert d1 == pytest.approx((f[2] - f[0]) / (2 * h), rel=1e-14)
        assert d2 == pytest.approx((f[0] - 2 * f[1] + f[2]) / h**2, rel=1e-14)
        d1, _ = _interpolant_derivatives(h * np.arange(3.0), f[:3], 0.0)
        assert d1 == pytest.approx((-3 * f[0] + 4 * f[1] - f[2]) / (2 * h), rel=1e-14)
        _, d2 = _interpolant_derivatives(h * np.arange(4.0), f, 0.0)
        assert d2 == pytest.approx((2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2, rel=1e-14)

    def test_two_nodes_give_slope_and_zero_curvature(self):
        for x0 in (0.5, 0.75):
            d1, d2 = _interpolant_derivatives(np.array([0.5, 0.75]), np.array([2.0, -1.0]), x0)
            assert (d1, d2) == (-12.0, 0.0)

    @given(
        # coefficients in [-10, 10] to 1e-5: subnormal terms would lose digits
        coefficients=st.lists(
            st.integers(-10**6, 10**6).map(lambda i: i / 1e5), min_size=2, max_size=4
        ),
        start=st.floats(-1.0, 1.0),
        gaps=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
        at=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_reproduces_polynomials_on_uneven_nodes(self, coefficients, start, gaps, at):
        # m nodes reproduce every polynomial of degree below m, to 1e-10 of
        # the size of its terms (differences cancel the values' digits)
        a = np.array(coefficients)
        m = len(a)
        nodes = start + np.cumsum([0.0, *gaps[: m - 1]])
        x0 = nodes[0] + at * (nodes[-1] - nodes[0])
        k = np.arange(m)
        d1, d2 = _interpolant_derivatives(nodes, np.polyval(a[::-1], nodes), x0)
        size = (np.abs(a) * (1 + k * k) * max(1.0, *np.abs(nodes)) ** k).sum()
        for got, w, power in ((d1, k, k - 1), (d2, k * (k - 1), k - 2)):
            want = (w * a * x0 ** np.maximum(power, 0)).sum()
            assert abs(got - want) <= 1e-10 * size

    @given(
        value=st.floats(-1e3, 1e3),
        exponent=st.floats(-300.0, 0.0),
        gaps=st.lists(st.floats(1.0, 2.0), min_size=2, max_size=4),
        at=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_constant_values_give_exact_zeros(self, value, exponent, gaps, at):
        # every term is a difference of the values: no product of tiny steps
        # can leave a residue, from steps of 1e-300 s to 1 s
        nodes = 10.0**exponent * np.cumsum(gaps)
        x0 = nodes[at % len(nodes)]
        d1, d2 = _interpolant_derivatives(nodes, np.full(len(nodes), value), x0)
        assert (d1, d2) == (0.0, 0.0)


class TestFdWeights:
    """A batch of stencils against one call per stencil, for each stencil
    width n and derivative order the profile uses."""

    @pytest.mark.parametrize("n, order", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
    def test_broadcast_equals_scalar_calls(self, rng, n, order):
        # as the profile calls it: nodes (n, b, 1), values (n, b, 3), x0 (b, 1)
        nodes = np.cumsum(rng.uniform(0.01, 0.3, (n, 40, 1)), axis=0) - 0.4
        values = rng.normal(-300.0, 100.0, (n, 40, 3))
        x0 = rng.uniform(-0.4, 0.4, (40, 1))
        x0[:10, 0] = nodes[1, :10, 0]  # at a node, as the profile stencils are
        got = _interpolant_derivatives(nodes, values, x0)[order - 1]
        assert got.shape == (40, 3)
        for b in range(40):
            one = _interpolant_derivatives(nodes[:, b, 0], values[:, b], x0[b, 0])[order - 1]
            assert np.array_equal(got[b], one)
            for col in range(3):
                want = stencil_derivatives(nodes[:, b, 0], values[:, b, col], x0[b, 0])
                assert got[b, col] == want[order - 1]
        # one x0 for every stencil
        got0 = _interpolant_derivatives(nodes, values, 0.0)[order - 1]
        for b in range(40):
            one = _interpolant_derivatives(nodes[:, b, 0], values[:, b], 0.0)[order - 1]
            assert np.array_equal(got0[b], one)


class TestJointVelocity:
    def test_unit_transmission_at_origin(self):
        assert np.array_equal(joint_velocity((0, 0, 0), (1000.0, 0, 0), D), [1000.0, 0, 0])

    def test_diagonal_direction_row_sums(self):
        s = 900.0
        v = s * np.ones(3) / math.sqrt(3.0)
        for u in (-60.0, 40.0, U2):
            a = u / math.sqrt(L**2 - 2 * u * u)
            jv = joint_velocity((u, u, u), v, D)
            assert np.allclose(jv, (1 + 2 * a) * s / math.sqrt(3.0), rtol=1e-12)

    def test_zero_velocity(self):
        assert np.array_equal(joint_velocity((30.0, -20.0, 50.0), (0, 0, 0), D), np.zeros(3))

    @given(poses, st.tuples(*[st.floats(-2000.0, 2000.0)] * 3))
    @settings(max_examples=50, deadline=None)
    def test_speed_ratio_within_singular_range(self, p, v):
        v = np.asarray(v)
        nv = np.linalg.norm(v)
        if nv < 1e-6:
            return
        rho = inverse_kinematics(p, D)
        jinv = inverse_jacobian(p, rho)
        s = np.linalg.svd(jinv, compute_uv=False)
        ratio = np.linalg.norm(joint_velocity(p, v, D)) / nv
        assert s.min() * (1 - 1e-9) <= ratio <= s.max() * (1 + 1e-9)


class TestMaxFeasibleToolSpeed:
    def test_any_direction_at_origin(self, rng):
        for _ in range(10):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert max_feasible_tool_speed((0, 0, 0), d, D) == pytest.approx(1200.0, rel=1e-12)

    def test_axis_direction_at_origin_is_exact(self):
        assert max_feasible_tool_speed((0, 0, 0), (1.0, 0.0, 0.0), D) == 1200.0

    def test_worst_direction_at_q2(self, rng):
        p = (U2, U2, U2)
        worst_dir = np.ones(3) / math.sqrt(3.0)  # largest-gain direction of Jinv
        got = max_feasible_tool_speed(p, worst_dir, D)
        assert got == pytest.approx(600.0, rel=1e-9)
        # oracle: sampled directions never do worse
        for _ in range(300):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert max_feasible_tool_speed(p, d, D) >= got * (1 - 1e-12)

    def test_floor_is_vmax_over_sigma_max(self, rng):
        p = (40.0, -30.0, 80.0)
        rho = inverse_kinematics(p, D)
        smax = np.linalg.svd(inverse_jacobian(p, rho), compute_uv=False).max()
        floor = D.motor_vmax / smax
        for _ in range(100):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert max_feasible_tool_speed(p, d, D) >= floor * (1 - 1e-12)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            max_feasible_tool_speed((0, 0, 0), (1.0, 1.0, 0.0), D)


def stencil_derivatives(nodes, values, x0):
    """First and second derivatives at x0 of the polynomial through one
    stencil, in plain Python floats: Newton divided differences, then
    Horner's rule on the Newton form."""
    x = [float(v) for v in nodes]
    c = [float(v) for v in values]
    x0 = float(x0)
    m = len(x)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (x[i] - x[i - j])
    p, d1, d2 = c[-1], 0.0, 0.0
    for k in range(m - 2, -1, -1):
        dx = x0 - x[k]
        d2 = d2 * dx + 2.0 * d1
        d1 = d1 * dx + p
        p = p * dx + c[k]
    return d1, d2


def reference_derivative(times, values, order):
    """The per-sample, per-joint stencil loop: 3-point centred inside,
    one-sided 3-point (velocity) or 4-point (acceleration) stencils at the
    ends, and every sample of a shorter path."""
    n = len(times)
    out = np.zeros_like(values)
    for i in range(n):
        width = min(3 if order == 1 or 0 < i < n - 1 else 4, n)
        lo = min(max(i - 1, 0), n - width)
        sel = slice(lo, lo + width)
        for col in range(values.shape[1]):
            out[i, col] = stencil_derivatives(times[sel], values[sel, col], times[i])[order - 1]
    return out


def reference_joints(poses, leg_length):
    """Per-waypoint IK: rho_i = p_i - sqrt(L^2 - (p_j^2 + p_k^2))."""
    out = np.empty((len(poses), 3))
    for k, (x, y, z) in enumerate(poses.tolist()):
        for i, (pi, pj, pk) in enumerate(((x, y, z), (y, x, z), (z, x, y))):
            out[k, i] = pi - math.sqrt(leg_length**2 - (pj * pj + pk * pk))
    return out


def sinusoid(t, center):
    """Tool pose, velocity and acceleration of a closed curve about center."""
    amp, mult, phase = np.array([60.0, 45.0, 70.0]), np.array([1.0, 2.0, 3.0]), np.array([0.3, 1.1, 2.0])
    w = 2 * math.pi * mult
    theta = np.asarray(t)[:, None] * w + phase
    return center + amp * np.sin(theta), amp * w * np.cos(theta), -amp * w * w * np.sin(theta)


def line_waypoints(p0, p1, speed, n):
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    duration = np.linalg.norm(p1 - p0) / speed
    ts = np.linspace(0.0, duration, n)
    return ts, p0 + (p1 - p0) * (ts[:, None] / duration)


class TestProfilePath:
    def test_stationary_pair(self):
        prof = profile_arrays([0.0, 1.0], [(10.0, 5.0, -20.0), (10.0, 5.0, -20.0)], D)
        assert np.array_equal(prof.joint_velocities, np.zeros((2, 3)))
        assert np.array_equal(prof.joint_accelerations, np.zeros((2, 3)))
        assert not prof.any_flags

    def test_stationary_path_is_exactly_at_rest(self, design):
        for step in (1e-9, 1e-8, 1e-3):
            poses = np.tile([10.0, -20.0, 30.0], (6, 1))
            prof = profile_arrays(step * np.arange(6.0), poses, design)
            assert np.array_equal(prof.joint_velocities, np.zeros((6, 3)))
            assert np.array_equal(prof.joint_accelerations, np.zeros((6, 3)))
            assert not prof.any_flags

    def test_q1_q2_line_at_1200_flags_velocity_near_q2(self, proto):
        d = proto.design()
        times, poses = line_waypoints(proto.q1, proto.q2, 1200.0, 81)
        prof = profile_arrays(times, poses, d)
        assert prof.velocity_flags.any()
        # peak joint speed reaches (1 + 2 a_max) * 1200 / sqrt(3) ~ 1385.6
        peak = np.abs(prof.joint_velocities).max()
        assert peak == pytest.approx(2 * 1200.0 / math.sqrt(3.0), rel=1e-2)
        # flags sit at the Q2 end of the path, not the Q1 end
        flagged = np.where(prof.velocity_flags.any(axis=1))[0]
        assert flagged.min() > len(times) // 2
        # oracle: finite differences track the Jacobian mapping mid-path
        k = 40
        v_exact = joint_velocity(prof.poses[k], (proto.q2 - proto.q1) / times[-1], d)
        assert np.allclose(prof.joint_velocities[k], v_exact, rtol=1e-3)

    def test_velocity_flags_exact_threshold(self, proto):
        # the same line traversed slowly never flags
        d = proto.design()
        prof = profile_arrays(*line_waypoints(proto.q1, proto.q2, 300.0, 41), d)
        assert not prof.velocity_flags.any()

    def test_axis_sinusoid_at_acceleration_limit(self):
        # x(t) = A sin(w t) with A w^2 = amax: on the x axis rho_1 = x - L
        # exactly, so the joint acceleration peak equals the tool peak; the
        # discrete estimate stays just under the limit, hence flag free
        amax = D.motor_amax
        freq = 4.0
        w = 2 * math.pi * freq
        A = amax / w**2
        ts = np.linspace(0.0, 1.0 / freq, 201)
        prof = profile_arrays(ts, [(A * math.sin(w * t), 0.0, 0.0) for t in ts], D)
        peak = np.abs(prof.joint_accelerations).max()
        assert peak == pytest.approx(amax, rel=2e-3)
        assert peak <= amax
        assert not prof.acceleration_flags.any()
        # and x-axis joint tracks tool exactly: rho_1(t) = x(t) - L
        assert np.allclose(prof.joints[:, 0], A * np.sin(w * ts) - L, atol=1e-9)

    def test_non_monotone_time(self):
        with pytest.raises(NonMonotoneTime):
            profile_arrays([0.0, 0.0], [(0, 0, 0), (1.0, 0, 0)], D)

    def test_unreachable_waypoint_reports_index(self):
        poses = [(0.0, 0.0, 0.0), (0.0, 0.9 * L, 0.9 * L)]
        with pytest.raises(Unreachable) as e:
            profile_arrays([0.0, 1.0], poses, D)
        assert "waypoint 1" in str(e.value)

    @pytest.mark.parametrize(
        "times, poses, shapes",
        [
            ([0.0, np.nan, 1.0], np.zeros((3, 2)), "(3,) and (3, 2)"),
            ([0.0, 1.0], np.zeros((3, 3)), "(2,) and (3, 3)"),
            ([[0.0, 1.0]], np.zeros((1, 2, 3)), "(1, 2) and (1, 2, 3)"),
        ],
    )
    def test_shapes_checked_first(self, times, poses, shapes):
        with pytest.raises(ValueError) as e:
            profile_arrays(times, poses, D)
        assert str(e.value) == f"expected times (n,) and poses (n, 3), got {shapes}"

    def test_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            profile_arrays([0.0], [(0, 0, 0)], D)

    @pytest.mark.parametrize("step", [1e-106, 1e-160, 1e-300])
    def test_tiny_time_steps_raise(self, step):
        # differences of equal positions are exactly zero at any step, so a
        # path at rest passes; a path gaining 1e-3 mm a step is refused, as
        # the third divided difference of the 4-point end stencil, about
        # 1e-3 mm / step^3, overflows
        times = step * np.arange(4.0)
        prof = profile_arrays(times, np.zeros((4, 3)), D)
        assert np.array_equal(prof.joint_velocities, np.zeros((4, 3)))
        assert np.array_equal(prof.joint_accelerations, np.zeros((4, 3)))
        assert not prof.any_flags
        poses = np.zeros((4, 3))
        poses[:, 0] = [0.0, 1e-3, 3e-3, 6e-3]
        with pytest.raises(ValueError) as e:
            profile_arrays(times, poses, D)
        assert str(e.value) == (
            "waypoint 0: joint rate or acceleration overflows; "
            "time steps too small near t[0] = 0"
        )

    def test_first_unsound_waypoint_across_orders(self):
        # a 0.03 mm step between waypoints 4 and 5, 1e-155 s apart: at
        # waypoint 4 the rate (1.5e153 mm/s) is finite but the acceleration
        # overflows, and it is named before waypoint 5, where both do
        times = [-3.0, -2.0, -1.0, -2e-155, -1e-155, 0.0, 1e-160, 2e-160, 1.0, 2.0]
        poses = np.zeros((10, 3))
        poses[5:, 0] = 0.03
        with pytest.raises(ValueError, match=r"^waypoint 4: .* near t\[4\] = -1e-155$"):
            profile_arrays(times, poses, D)

    def test_fd_velocity_convergence(self):
        # halving the step should cut the midpoint error by ~4 (2nd order);
        # require at least first-order improvement as specified
        p0, p1 = np.array([-60.0, -60.0, -60.0]), np.array([110.0, 110.0, 110.0])
        speed = 500.0
        errs = []
        for n in (21, 41, 81):
            times, poses = line_waypoints(p0, p1, speed, n)
            prof = profile_arrays(times, poses, D)
            mid = n // 2
            v = (p1 - p0) / times[-1]
            exact = joint_velocity(prof.poses[mid], v, D)
            errs.append(np.abs(prof.joint_velocities[mid] - exact).max())
        assert errs[1] <= errs[0] / 1.9
        assert errs[2] <= errs[1] / 1.9

    def test_isotropic_point_acceleration_matches_tool(self):
        # path resting at the origin with zero velocity and pure acceleration:
        # x(t) = A (1 - cos w t) has x(0) = 0, xdot(0) = 0, xddot(0) = A w^2,
        # and at the isotropic pose the joint accelerations equal the tool's
        w = 2 * math.pi
        A = 50.0
        ts = np.linspace(-0.05, 0.05, 41)
        prof = profile_arrays(ts, [(A * (1 - math.cos(w * t)), 0.0, 0.0) for t in ts], D)
        mid = len(ts) // 2
        tool_acc = A * w**2
        assert np.array_equal(prof.poses[mid], [0.0, 0.0, 0.0])
        assert prof.joint_accelerations[mid, 0] == pytest.approx(tool_acc, rel=1e-3)
        assert prof.joint_accelerations[mid, 1] == pytest.approx(0.0, abs=1e-3 * tool_acc)
        assert prof.joint_accelerations[mid, 2] == pytest.approx(0.0, abs=1e-3 * tool_acc)
        # velocities match too: rho_dot = p_dot = 0 at the rest point
        assert prof.joint_velocities[mid] == pytest.approx([0, 0, 0], abs=1e-6 * A * w)


class TestReferenceLoop:
    """The batched profile equals the per-sample loops bit for bit."""

    def assert_matches_loop(self, times, poses, d):
        prof = profile_arrays(times, poses, d)
        joints = reference_joints(np.asarray(poses, dtype=float), d.leg_length)
        assert np.array_equal(prof.joints, joints)
        assert np.array_equal(prof.joint_velocities, reference_derivative(times, joints, 1))
        assert np.array_equal(prof.joint_accelerations, reference_derivative(times, joints, 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_short_non_uniform_paths(self, proto, rng, n):
        from conftest import random_cube_poses

        times = np.cumsum(rng.uniform(0.001, 0.05, n))
        poses = random_cube_poses(proto, rng, n)
        self.assert_matches_loop(times, poses, proto.design())

    def test_long_seeded_sinusoid(self, proto, rng):
        times = np.linspace(0.0, 1.0, 2000) + rng.uniform(-1e-4, 1e-4, 2000)
        poses, _, _ = sinusoid(times, (proto.q1 + proto.q2) / 2)
        self.assert_matches_loop(times, poses, proto.design())

    def test_q1_q2_line(self, proto):
        self.assert_matches_loop(*line_waypoints(proto.q1, proto.q2, 1200.0, 81), proto.design())


class TestClosedForm:
    def test_fd_converges_to_closed_form_at_second_order(self, proto):
        # rho_dot_i = v_i + s_i / eta_i and rho_ddot_i = a_i + (v_j^2 + v_k^2
        # + p_j a_j + p_k a_k) / eta_i + s_i^2 / eta_i^3, s_i = p_j v_j + p_k
        # v_k, on a smoothly stretched time grid; at these steps the
        # truncation error is orders of magnitude above rounding
        d = proto.design()
        j, k = [1, 0, 0], [2, 2, 1]
        errs = []
        for n in (201, 401, 801):
            s = np.linspace(0.0, 1.0, n)
            t = s + 0.05 * np.sin(2 * math.pi * s)
            p, v, a = sinusoid(t, (proto.q1 + proto.q2) / 2)
            eta = np.sqrt(d.leg_length**2 - p[:, j] ** 2 - p[:, k] ** 2)
            sj = p[:, j] * v[:, j] + p[:, k] * v[:, k]
            rate = v + sj / eta
            acc = a + (v[:, j] ** 2 + v[:, k] ** 2 + p[:, j] * a[:, j] + p[:, k] * a[:, k]) / eta
            acc += sj**2 / eta**3
            prof = profile_arrays(t, p, d)
            errs.append(
                (
                    np.abs(prof.joint_velocities - rate)[1:-1].max(),
                    np.abs(prof.joint_accelerations - acc)[1:-1].max(),
                )
            )
        for coarse, fine in zip(errs, errs[1:]):
            assert fine[0] <= coarse[0] / 3.5
            assert fine[1] <= coarse[1] / 3.5


class TestErrorParity:
    """Bad paths give the messages the per-waypoint loop gave, and an
    unreachable or serially singular pose names its waypoint."""

    @staticmethod
    def long_path(n=3000):
        ts = np.linspace(0.0, 3.0, n)
        return ts, np.array(
            [(40.0 * math.sin(t), 30.0 * math.cos(2 * t), -20.0 * math.sin(3 * t)) for t in ts]
        )

    def test_first_unreachable_waypoint_deep_in_path(self):
        t, p = self.long_path()
        p[1234] = (0.9 * L, 0.0, 0.9 * L)
        p[2000] = (0.0, L, 0.0)
        p[2500] = (0.0, 0.9 * L, 0.9 * L)
        with pytest.raises(Unreachable) as e:
            profile_arrays(t, p, D)
        assert str(e.value) == (
            "waypoint 1234: pose (279.522, 0.0, 279.522) unreachable: leg 1 radicand -59805.2 < 0"
        )
        assert e.value.leg == 1

    def test_overflowing_pose_is_unreachable(self):
        t, p = self.long_path(50)
        p[7] = (1e200, 0.0, 0.0)
        with pytest.raises(Unreachable, match=r"^waypoint 7: pose \(1e\+200, 0.0, 0.0\) "
                           r"unreachable: leg 1 radicand -inf < 0$"):
            profile_arrays(t, p, D)

    def test_serial_singularity_before_unreachable(self):
        t, p = self.long_path()
        p[800] = (0.0, L, 0.0)
        p[1234] = (0.9 * L, 0.0, 0.9 * L)
        with pytest.raises(SerialSingularity) as e:
            profile_arrays(t, p, D)
        assert str(e.value) == "waypoint 800: pose (0.0, 310.58, 0.0) on workspace boundary: eta_1 = 0"
        assert e.value.leg == 0

    @pytest.mark.parametrize(
        "bad, message",
        [
            # an explicit id, so the test's name stays stable as cases are added or removed
            pytest.param(
                {9: (1.0, np.inf, 0.0), 12: (np.nan, 0.0, 0.0)},
                "vector components must be finite, got [ 1. inf  0.]",
                id="bad1-vector components must be finite, got [ 1. inf  0.]",
            ),
        ],
    )
    def test_first_bad_pose(self, bad, message):
        t, p = self.long_path(50)
        for k, pose in bad.items():
            p[k] = pose
        with pytest.raises(ValueError) as e:
            profile_arrays(t, p, D)
        assert str(e.value) == message

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time(self, t):
        # NaN compares False, so without its own check a NaN time passes the
        # strict-increase test and gives NaN rates with no flag
        times, p = self.long_path(50)
        times[20] = t
        p[30] = (1.0, np.inf, 0.0)
        message = rf"^waypoint times must be finite \(t\[20\] = {t:g}\)$"
        with pytest.raises(ValueError, match=message):
            profile_arrays(times, p, D)

    def test_time_checked_before_poses(self):
        t, p = self.long_path(50)
        p[5] = (1.0, np.inf, 0.0)
        t[20] = t[19]
        with pytest.raises(NonMonotoneTime, match=r"^waypoint times must increase strictly \(t\[19\]"):
            profile_arrays(t, p, D)


def reference_read(path):
    """The csv.reader row loop, one float() per cell: the reader's oracle."""
    out = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        col = {name: i for i, name in enumerate(next(reader, []))}
        missing = {"t_s", "x_mm", "y_mm", "z_mm"} - set(col)
        if missing:
            raise ValueError(f"waypoint CSV missing columns: {sorted(missing)}")
        it, ix, iy, iz = (col[c] for c in ("t_s", "x_mm", "y_mm", "z_mm"))
        pad = [None] * (max(it, ix, iy, iz) + 1)
        for k, row in enumerate(r + pad for r in reader if r):
            try:
                t, x, y, z = float(row[it]), float(row[ix]), float(row[iy]), float(row[iz])
            except (TypeError, ValueError) as e:
                raise ValueError(f"bad waypoint row {k + 2}: {e}") from e
            out.append((t, np.array([x, y, z])))
    return np.array([t for t, _ in out]), np.array([p for _, p in out]).reshape(-1, 3)


def seeded_waypoint_text(n):
    rng = np.random.default_rng(20021001)
    rows = ["t_s,x_mm,y_mm,z_mm"]
    rows += [",".join(repr(float(v)) for v in row) for row in rng.normal(0.0, 100.0, (n, 4))]
    return "\n".join(rows) + "\n"


H = "t_s,x_mm,y_mm,z_mm\n"


class TestReaderParity:
    """`read_waypoints_csv` gives the row loop's times and poses bit for bit,
    or its exception and message, whichever route reads the file."""

    CASES = {
        "lf": H + "0,1,2,3\n0.5,4,5,6\n",
        "crlf": H.replace("\n", "\r\n") + "0,1,2,3\r\n0.5,4,5,6\r\n",
        "bare-cr": H.replace("\n", "\r") + "0,1,2,3\r0.5,4,5,6\r",
        "mixed-endings": H + "0,1,2,3\r\n0.5,4,5,6\r1,7,8,9",
        "blank-lines": H + "\n\n0,1,2,3\n\r\n\n0.5,4,5,6\n\n",
        "whitespace-line": H + "0,1,2,3\n \n0.5,4,5,6\n",
        "tab-line": "x_mm,t_s,y_mm,z_mm\n0,1,2,3\n\t\n",
        "padded-cells": H + " 0 ,\t1,2\xa0,\u20033\n0.5,4,5,6\n",
        "quoted-cells": H + '"0","1",2,"3"\n0.5,4,5,6\n',
        "quoted-newline": "t_s,x_mm,y_mm,z_mm,note\n0,1,2,3,\"a\n0.5,4,5,6,b\"\n1,7,8,9,c\n",
        "unbalanced-quote": "t_s,x_mm,y_mm,z_mm,note\n0,1,2,3,\"a\n0.5,4,5,6,b\n1,7,8,9,c\n",
        "quote-mid-cell": "t_s,x_mm,y_mm,z_mm,note\n0,1,2,3,a\"b\n0.5,4,5,6,c\n",
        "quoted-header": '"t_s","x_mm",y_mm,"z_mm"\n0,1,2,3\n',
        "underscore": H + "0,1_0,2,3\n0.5,4,5,6\n",
        "nbsp-only": H + "0,\xa0,2,3\n",
        "arabic-digits": H + "0,\u0661\u0662,2,3\n0.5,4,5,6\n",
        "file-separator": H + "0,\x1c1,2,3\n0.5,4,5,6\n",
        "unit-separator-unused": "t_s,x_mm,y_mm,z_mm,note\n0,1,2,3,\x1f\n0.5,4,5,6,x\n",
        "nan-inf": H + "0,nan,-inf,+Infinity\n0.5,NaN,INF,-nan\n1,1e400,-1e-400,-0\n",
        "bad-cell": H + "0,1,2,3\n\n0.5,4,x,6\n",
        "hex-cell": H + "0,0x10,2,3\n",
        "empty-cell": H + "0,,2,3\n",
        "short-row": H + "0,1,2,3\n0.5,4,5\n",
        "short-row-reordered": "z_mm,y_mm,x_mm,t_s\n3,2,1,0\n6,5\n",
        "extra-columns": "t_s,x_mm,y_mm,z_mm,a,b\n0,1,2,3,x,y\n0.5,4,5,6,,\n1,7,8,9,z,z,z\n",
        "duplicate-columns": "z_mm,t_s,y_mm,x_mm,x_mm,t_s\n3,0,2,9,1,0.25\n6,1,5,9,4,0.75\n",
        "missing-column": "t_s,x_mm,y_mm\n0,0,0\n",
        "empty-file": "",
        "blank-first-line": "\n" + H + "0,1,2,3\n",
        "header-only": H,
        "header-then-blank-lines": H + "\n\r\n\r",
        "header-no-newline": H.rstrip("\n"),
        "one-row": H + "0,1,2,3",
        "nul-unused": "t_s,x_mm,y_mm,z_mm,note\n0,1,2,3,a\x00b\n",
        "long-field": "t_s,x_mm,y_mm,z_mm,note\n0,1,2,3," + "x" * 131073 + "\n",
        "long-number": H + "0,1,2," + "0" * 131070 + "3\n",
        "seeded-10000": seeded_waypoint_text(10000),
    }

    @staticmethod
    def outcome(read, path):
        try:
            times, poses = read(path)
        except Exception as e:  # the exception itself is compared
            return type(e), str(e)
        assert times.shape == (len(poses),) and poses.shape == (len(times), 3)
        return times.dtype, times.tobytes(), poses.dtype, poses.tobytes()

    def check(self, path):
        assert self.outcome(read_waypoints_csv, path) == self.outcome(reference_read, path)

    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_same_result(self, tmp_path, text):
        f = tmp_path / "wp.csv"
        f.write_bytes(text.encode())
        self.check(f)

    def test_undecodable_byte_after_bad_row(self, tmp_path):
        f = tmp_path / "wp.csv"
        f.write_bytes((H + "0,1,2,3\n0.5,x,5,6\n").encode() + b"1,2,3,4\n" * 2000 + b"\xff\n")
        self.check(f)
        f.write_bytes((H + "0,1,2,3\n").encode() + b"1,2,3,4\n" * 2000 + b"\xff\n")
        self.check(f)


class TestCsv:
    def test_waypoint_reader(self, tmp_path):
        f = tmp_path / "wp.csv"
        f.write_text("t_s,x_mm,y_mm,z_mm\n0,0,0,0\n0.5,10,20,30\n")
        times, poses = read_waypoints_csv(f)
        assert times[0] == 0.0
        assert np.array_equal(poses[1], [10.0, 20.0, 30.0])

    def test_waypoint_reader_skips_blank_lines(self, tmp_path):
        f = tmp_path / "wp.csv"
        f.write_text("z_mm,t_s,y_mm,x_mm,x_mm\n\n3,0.5,2,9,1\n\n\n6,1.5,5,9,4,extra\n")
        times, poses = read_waypoints_csv(f)
        assert times.tolist() == [0.5, 1.5]
        assert np.array_equal(poses[1], [4.0, 5.0, 6.0])  # the last x_mm column

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t_s,x_mm,y_mm,z_mm\n\n0,0,0,0\n\n0.1,1,2\n", "bad waypoint row 3: float() argument "
             "must be a string or a real number, not 'NoneType'"),
            ("t_s,x_mm,y_mm,z_mm\n0,0,0,0\n\n0.1,1,2,x\n", "bad waypoint row 3: could not convert "
             "string to float: 'x'"),
            ("t_s,x_mm,y_mm\n0,0,0\n", "waypoint CSV missing columns: ['z_mm']"),
            ("", "waypoint CSV missing columns: ['t_s', 'x_mm', 'y_mm', 'z_mm']"),
        ],
    )
    def test_waypoint_reader_messages(self, tmp_path, text, message):
        f = tmp_path / "wp.csv"
        f.write_text(text)
        with pytest.raises(ValueError) as e:
            read_waypoints_csv(f)
        assert str(e.value) == message

    def test_waypoint_reader_rejects_bad_header(self, tmp_path):
        f = tmp_path / "wp.csv"
        f.write_text("time,x,y,z\n0,0,0,0\n")
        with pytest.raises(ValueError):
            read_waypoints_csv(f)

    def test_profile_writer_deterministic(self):
        outs = []
        for _ in range(2):
            prof = profile_arrays([0.0, 0.1, 0.2], [(0, 0, 0), (20.0, 0, 0), (40.0, 0, 0)], D)
            buf = io.StringIO()
            write_profile_csv(prof, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        header = outs[0].splitlines()[0]
        assert header.startswith("t_s,x_mm,y_mm,z_mm,rho1_mm")
        assert len(outs[0].splitlines()) == 4
