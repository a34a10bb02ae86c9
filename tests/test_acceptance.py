"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (run pytest with -s or -rA to see
them inline) before asserting, so the gate status is visible either way.
"""

import math
import time

import numpy as np
import pytest

from orthoglide.kinematics import (
    forward_kinematics,
    inverse_jacobian,
    inverse_kinematics,
)
from orthoglide.performance import transmission_factors
from orthoglide.synthesis import synthesize
from orthoglide.trajectory import joint_velocity, max_feasible_tool_speed
from orthoglide.workspace import Bounds, diagonal_profile, verify_cube

BOUNDS = Bounds(0.5, 2.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_prototype_reproduction():
    t0 = time.perf_counter()
    res = synthesize(200.0, BOUNDS)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(res.leg_length - 310.0) <= 1.0
        and abs(res.stroke - 257.0) <= 1.0
        and abs(res.ratio - 0.78) <= 0.005
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"leg {res.leg_length:.3f} mm (310±1), stroke {res.stroke:.3f} mm (257±1), "
        f"r {res.ratio:.4f} (0.78±0.005), {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_isotropy_at_origin(design):
    rho = inverse_kinematics((0.0, 0.0, 0.0), design)
    jinv = inverse_jacobian((0.0, 0.0, 0.0), rho, design)
    tf = transmission_factors(jinv)
    dev_j = np.abs(jinv - np.eye(3)).max()
    dev_s = np.abs(tf.sigma_fwd - 1.0).max()
    dev_k = abs(tf.kappa - 1.0)
    ok = dev_j <= 1e-12 and dev_s <= 1e-12 and dev_k <= 1e-12
    report(
        2,
        ok,
        f"|Jinv - I|max = {dev_j:.2e}, |sigma - 1|max = {dev_s:.2e}, "
        f"|kappa - 1| = {dev_k:.2e} (all <= 1e-12)",
    )


def test_criterion_3_reference_point_binding(proto, design):
    u1, u2 = proto.q1[0], proto.q2[0]
    s1, s2 = diagonal_profile(design, u1, u2, 2).sigma_fwd
    dev_q2_hi = abs(s2[2] - 2.0)
    dev_q2_lo = abs(s2[0] - 0.5)
    dev_q1_hi = abs(s1[2] - 2.0)
    ok = max(dev_q2_hi, dev_q2_lo, dev_q1_hi) <= 1e-9
    report(
        3,
        ok,
        f"Q2 hits 2 and 0.5 (dev {dev_q2_hi:.2e}, {dev_q2_lo:.2e}), "
        f"Q1 hits 2 (dev {dev_q1_hi:.2e}), tolerance 1e-9",
    )


def test_criterion_4_cube_oracle(proto, design):
    t0 = time.perf_counter()
    rep = verify_cube(design, proto.cube, BOUNDS, 21)
    elapsed = time.perf_counter() - t0

    nodes = rep.nodes
    x, y, z = nodes.xyz.T
    diag = (x == y) & (y == z)
    diag_ok = bool(
        np.all(
            (nodes.sigma_min[diag] >= 0.5 * (1 - 1e-9))
            & (nodes.sigma_max[diag] <= 2.0 * (1 + 1e-9))
        )
    )
    off_min = float(nodes.sigma_min[~diag].min())
    off_max = float(nodes.sigma_max[~diag].max())
    guard_ok = off_min >= 0.45 and off_max <= 2.1
    contained = off_min >= 0.5 * (1 - 1e-9) and off_max <= 2.0 * (1 + 1e-9)
    ok = (
        rep.n_unreachable == 0
        and rep.n_stroke_violations == 0
        and diag_ok
        and guard_ok
        and elapsed < 5.0
    )
    report(
        4,
        ok,
        f"21^3: unreachable {rep.n_unreachable}, stroke violations "
        f"{rep.n_stroke_violations}, diagonal in [0.5, 2] to 1e-9: {diag_ok}; "
        f"off-diagonal worst sigma [{off_min:.9f}, {off_max:.9f}] within guard "
        f"band [0.45, 2.1]; exact containment (the diagonal-sufficiency claim "
        f"under test) measured: {contained}; {elapsed * 1e3:.0f} ms",
    )


def test_criterion_5_jacobian_vs_finite_differences(proto, design, rng):
    L = design.leg_length
    step = 1e-6 * L
    worst = 0.0
    for _ in range(100):
        p = proto.q1 + (proto.q2 - proto.q1) * rng.random(3)
        rho = inverse_kinematics(p, design)
        jinv = inverse_jacobian(p, rho, design)
        cols = []
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            cols.append(
                (inverse_kinematics(p + e, design) - inverse_kinematics(p - e, design))
                / (2 * step)
            )
        jfd = np.column_stack(cols)
        worst = max(worst, np.abs(jfd - jinv).max() / np.abs(jinv).max())
    ok = worst <= 1e-6
    report(5, ok, f"100 random poses, worst relative FD deviation {worst:.2e} <= 1e-6")


def test_criterion_6_round_trip_identity(proto, design):
    L = design.leg_length
    axes = [np.linspace(proto.q1[k], proto.q2[k], 11) for k in range(3)]
    worst = 0.0
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                p = np.array([x, y, z])
                back = forward_kinematics(inverse_kinematics(p, design), design)
                worst = max(worst, np.abs(back - p).max())
    ok = worst <= 1e-9 * L
    report(6, ok, f"11^3 grid, worst |FK(IK(p)) - p| = {worst:.2e} mm <= 1e-9 L")


def test_criterion_7_velocity_mapping(proto, design):
    devs = []
    for k in range(3):
        v = np.zeros(3)
        v[k] = 1.0
        devs.append(np.abs(joint_velocity((0.0, 0.0, 0.0), v, design) - v).max())
    origin_ok = max(devs) <= 1e-12

    worst_dir = np.ones(3) / math.sqrt(3.0)
    speed = max_feasible_tool_speed(proto.q2, worst_dir, design)
    target = design.motor_vmax / 2.0
    q2_ok = abs(speed - target) / target <= 1e-6
    ok = origin_ok and q2_ok
    report(
        7,
        ok,
        f"origin axis-velocity deviation {max(devs):.2e} <= 1e-12; worst-direction "
        f"speed at Q2 = {speed:.6f} mm/s vs vmax/2 = {target:.1f} (rel "
        f"{abs(speed - target) / target:.2e} <= 1e-6)",
    )


def test_criterion_8_bounds_widening_experiment():
    wide = Bounds(1.0 / 3.0, 3.0)
    res = synthesize(200.0, wide)
    rep = verify_cube(res.design(), res.cube, wide, 21)
    base = synthesize(200.0, BOUNDS)
    ok = rep.ok
    direction = "falls" if res.ratio < base.ratio else "rises"
    report(
        8,
        ok,
        f"bounds (1/3, 3): r = Lw/stroke = {res.ratio:.4f}, Lw/L = "
        f"{res.cube_to_leg:.4f}; own cube verifies clean: {rep.ok}. Finding: vs "
        f"bounds (0.5, 2), r {direction} ({base.ratio:.4f} -> {res.ratio:.4f}) "
        f"while Lw/L rises ({base.cube_to_leg:.4f} -> {res.cube_to_leg:.4f}); a "
        f"'ratio grows with wider limits' expectation holds for Lw/L, not for r "
        f"(reported, not asserted)",
    )


def test_criterion_9_scale_property():
    small = synthesize(200.0, BOUNDS)
    big = synthesize(400.0, BOUNDS)
    pairs = {
        "leg": (big.leg_length, small.leg_length),
        "stroke_lo": (big.stroke_lo, small.stroke_lo),
        "stroke_hi": (big.stroke_hi, small.stroke_hi),
        "stroke": (big.stroke, small.stroke),
        "q1": (big.q1[0], small.q1[0]),
        "q2": (big.q2[0], small.q2[0]),
    }
    worst = max(abs(b - 2 * s) / abs(2 * s) for b, s in pairs.values())
    r_dev = abs(big.ratio - small.ratio)
    ok = worst <= 1e-9 and r_dev <= 1e-12
    report(
        9,
        ok,
        f"Lw 400 doubles every length (worst rel dev {worst:.2e} <= 1e-9), "
        f"r unchanged (dev {r_dev:.2e})",
    )
