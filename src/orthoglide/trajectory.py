"""Joint-space motion profiling and motor-capability checks.

Tool velocities map to joint velocities through the inverse Jacobian.
Joint rates and accelerations along a sampled path are estimated by finite
differences of the IK joint positions in time, with one-sided stencils at
the path ends, and checked against the motor velocity/acceleration
capability.  IK and the interior stencils each run once, batched over the
whole path.  Closed forms exist (with s_i = p_j v_j + p_k v_k, the joint
rate is rho_dot_i = v_i + s_i / eta_i), but they need the tool velocity and
acceleration at each sample, which timed waypoints do not carry.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .errors import NonMonotoneTime, Unreachable
from .kinematics import DesignParams, as_point, inverse_jacobian, inverse_kinematics


def joint_velocity(p, v, d: DesignParams) -> np.ndarray:
    """Joint rates rho_dot = Jinv(p) . p_dot at pose p (mm/s).

    Reachability and singularity errors propagate from the kinematics.
    """
    v = as_point(v)
    rho = inverse_kinematics(p, d)
    return inverse_jacobian(p, rho, d) @ v


def max_feasible_tool_speed(p, direction, d: DesignParams) -> float:
    """Largest tool speed along a unit direction within motor capability.

    Bounds the joint-speed vector magnitude: speed = vmax / ||Jinv . dir||_2,
    which keeps every individual joint under motor_vmax as well.  Over all
    directions the worst case is vmax / sigma_max(Jinv), attained along the
    largest-gain direction of the inverse map.
    """
    direction = as_point(direction)
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, got norm {nrm}")
    rho = inverse_kinematics(p, d)
    jv = inverse_jacobian(p, rho, d) @ direction
    return d.motor_vmax / float(np.linalg.norm(jv))


@dataclass
class PathProfile:
    """Sampled joint-space profile of a Cartesian path.

    Arrays are indexed by sample; flags mark samples where a joint exceeds
    motor_vmax (velocity_flags) or motor_amax (acceleration_flags), strict
    comparison so running exactly at the limit is admissible.
    """

    times: np.ndarray
    poses: np.ndarray
    joints: np.ndarray
    joint_velocities: np.ndarray
    joint_accelerations: np.ndarray
    velocity_flags: np.ndarray
    acceleration_flags: np.ndarray

    @property
    def any_flags(self) -> bool:
        return bool(self.velocity_flags.any() or self.acceleration_flags.any())


def fd_weights(nodes, x0, order: int) -> np.ndarray:
    """Finite-difference weights for the `order`-th derivative at x0.

    Fornberg's recursion on arbitrary (distinct) nodes; exact for
    polynomials up to degree len(nodes) - 1.  Nodes (..., n) and x0 (...)
    broadcast to weights (..., n), bit for bit those of one call per set.
    """
    x = np.moveaxis(np.asarray(nodes, dtype=float), -1, 0)
    n = len(x)
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((n, order + 1, *np.broadcast_shapes(x.shape[1:], np.shape(x0))))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return np.moveaxis(c[:, order], 0, -1)


def _derivative(times: np.ndarray, values: np.ndarray, order: int) -> np.ndarray:
    """Per-sample derivative of values (n, 3) by local FD stencils.

    Interior samples use the 3-point centred stencil, all in one batch;
    endpoints use one-sided stencils (3 points for velocity, 4 for
    acceleration, so both stay second order where enough samples exist).
    """
    n = len(times)
    out = np.zeros_like(values)
    if n == 2:
        if order == 1:
            out[:] = (values[1] - values[0]) / (times[1] - times[0])
        return out  # curvature is indeterminate from two samples
    sel = np.arange(n - 2)[:, None] + np.arange(3)
    w = fd_weights(times[sel], times[1:-1], order)
    # batched matmul rounds as the per-sample w @ values[sel] does; einsum or
    # an explicit sum would change the last digits, which cancellation exposes
    out[1:-1] = np.matmul(w[:, None, :], values[sel])[:, 0, :]
    end_w = 3 if order == 1 else min(4, n)
    for i, ends in ((0, slice(0, end_w)), (n - 1, slice(n - end_w, n))):
        out[i] = fd_weights(times[ends], times[i], order) @ values[ends]
    return out


def profile_path(waypoints, d: DesignParams) -> PathProfile:
    """Joint positions, rates and accelerations along timed waypoints.

    `waypoints` is a sequence of (time_s, pose) pairs with finite, strictly
    increasing times; every pose must be reachable.  Joint positions come
    from one batched IK call, derivatives from finite differences of those
    positions.
    """
    if len(waypoints) < 2:
        raise ValueError("need at least 2 waypoints")
    times = np.array([float(t) for t, _ in waypoints])
    if not np.isfinite(times).all():
        k = int(np.argmin(np.isfinite(times)))
        raise ValueError(f"waypoint times must be finite (t[{k}] = {times[k]:g})")
    if np.any(np.diff(times) <= 0.0):
        k = int(np.where(np.diff(times) <= 0.0)[0][0])
        raise NonMonotoneTime(
            f"waypoint times must increase strictly (t[{k}] = {times[k]:g}, "
            f"t[{k + 1}] = {times[k + 1]:g})"
        )
    try:
        poses = np.array([p for _, p in waypoints], dtype=float)
    except (TypeError, ValueError, OverflowError):
        poses = np.empty(0)
    if poses.shape[1:] != (3,) or not np.isfinite(poses).all():
        poses = np.array([as_point(p) for _, p in waypoints])  # the first bad pose raises
    try:
        joints = inverse_kinematics(poses, d)
    except Unreachable as e:
        raise Unreachable(f"waypoint {e.index}: {e}", leg=e.leg) from e

    vel = _derivative(times, joints, 1)
    acc = _derivative(times, joints, 2)
    return PathProfile(
        times=times,
        poses=poses,
        joints=joints,
        joint_velocities=vel,
        joint_accelerations=acc,
        velocity_flags=np.abs(vel) > d.motor_vmax,
        acceleration_flags=np.abs(acc) > d.motor_amax,
    )


PROFILE_CSV_HEADER = (
    "t_s,x_mm,y_mm,z_mm,rho1_mm,rho2_mm,rho3_mm,"
    "v1_mm_s,v2_mm_s,v3_mm_s,a1_mm_s2,a2_mm_s2,a3_mm_s2,"
    "vel_flag1,vel_flag2,vel_flag3,acc_flag1,acc_flag2,acc_flag3"
)


def read_waypoints_csv(path) -> list[tuple[float, np.ndarray]]:
    """Read timed waypoints (header t_s,x_mm,y_mm,z_mm), row by row as csv.DictReader would."""
    out = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        col = {name: i for i, name in enumerate(next(reader, []))}
        missing = {"t_s", "x_mm", "y_mm", "z_mm"} - set(col)
        if missing:
            raise ValueError(f"waypoint CSV missing columns: {sorted(missing)}")
        it, ix, iy, iz = (col[c] for c in ("t_s", "x_mm", "y_mm", "z_mm"))
        pad = [None] * (max(it, ix, iy, iz) + 1)  # a short row's missing cells read None
        for k, row in enumerate(r + pad for r in reader if r):
            try:
                t, x, y, z = float(row[it]), float(row[ix]), float(row[iy]), float(row[iz])
            except (TypeError, ValueError) as e:
                raise ValueError(f"bad waypoint row {k + 2}: {e}") from e
            out.append((t, np.array([x, y, z])))
    return out


def write_profile_csv(profile: PathProfile, out) -> None:
    """Write one row per sample with 12-significant-digit formatting."""
    write_table(
        out,
        PROFILE_CSV_HEADER,
        [
            profile.times,
            *profile.poses.T,
            *profile.joints.T,
            *profile.joint_velocities.T,
            *profile.joint_accelerations.T,
            *profile.velocity_flags.T,
            *profile.acceleration_flags.T,
        ],
    )
