"""Joint-space motion profiling and motor-capability checks.

Tool velocities map to joint velocities through the inverse Jacobian.
Joint rates and accelerations along a sampled path are estimated by finite
differences of the IK joint positions in time, with one-sided stencils at
the path ends, and checked against the motor velocity/acceleration
capability.  `profile_arrays` profiles a path given as arrays of times and
poses; IK and the interior stencils each run once, batched over the whole
path.  `read_waypoints_csv` reads a waypoint file straight into those
arrays.  Closed forms exist (with s_i = p_j v_j + p_k v_k, the joint rate
is rho_dot_i = v_i + s_i / eta_i), but they need the tool velocity and
acceleration at each sample, which timed waypoints do not carry.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .errors import NonMonotoneTime, SerialSingularity, Unreachable
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
    return d.motor_vmax / float(np.linalg.norm(joint_velocity(p, direction, d)))


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


#: the weights of a derivative sum to zero (they annihilate constants); weights
#: that miss by more than this share of their magnitudes have lost their
#: digits to products of time steps that underflow (steps below about 1e-100 s)
_STENCIL_SUM_TOL = 1e-9


def _sound(w: np.ndarray) -> np.ndarray:
    """Per stencil of weights (..., m): whether the weights are finite and sum
    to zero within _STENCIL_SUM_TOL of their magnitudes."""
    size = np.abs(w).sum(axis=-1)
    return np.isfinite(size) & (np.abs(w.sum(axis=-1)) <= _STENCIL_SUM_TOL * size)


def _derivative(
    times: np.ndarray, values: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample derivative of values (n, 3) by local FD stencils.

    Interior samples use the 3-point centred stencil, all in one batch;
    endpoints use one-sided stencils (3 points for velocity, 4 for
    acceleration, so both stay second order where enough samples exist).
    Returns the derivative and, per sample, whether its weights are sound
    (`_sound`); an unsound sample's derivative is meaningless, and the
    overflow or invalid values behind it are not warned about.
    """
    n = len(times)
    out = np.zeros_like(values)
    sound = np.ones(n, dtype=bool)
    if n == 2:
        if order == 1:
            out[:] = (values[1] - values[0]) / (times[1] - times[0])
        return out, sound  # curvature is indeterminate from two samples
    sel = np.arange(n - 2)[:, None] + np.arange(3)
    with np.errstate(all="ignore"):
        w = fd_weights(times[sel], times[1:-1], order)
        sound[1:-1] = _sound(w)
        # batched matmul rounds as the per-sample w @ values[sel] does; einsum
        # or an explicit sum would change the last digits, which cancellation
        # exposes
        out[1:-1] = np.matmul(w[:, None, :], values[sel])[:, 0, :]
        end_w = 3 if order == 1 else min(4, n)
        for i, ends in ((0, slice(0, end_w)), (n - 1, slice(n - end_w, n))):
            w = fd_weights(times[ends], times[i], order)
            sound[i] = _sound(w)
            out[i] = w @ values[ends]
    return out, sound


def profile_arrays(times, poses, d: DesignParams) -> PathProfile:
    """Joint positions, rates and accelerations along a timed path.

    `times` (n,) must be finite and strictly increasing, with n >= 2;
    `poses` (n, 3) must be finite and reachable.  Joint positions come from
    one batched IK call, derivatives from finite differences of those
    positions.  Unreachable and SerialSingularity name the first failing
    waypoint, and ValueError the first whose velocity or acceleration
    stencil weights are not sound (see _STENCIL_SUM_TOL).
    """
    times = np.asarray(times, dtype=float)
    poses = np.asarray(poses, dtype=float)
    if times.ndim != 1 or poses.shape != (*times.shape, 3):
        raise ValueError(
            f"expected times (n,) and poses (n, 3), got {times.shape} and {poses.shape}"
        )
    if len(times) < 2:
        raise ValueError("need at least 2 waypoints")
    if not np.isfinite(times).all():
        k = int(np.argmin(np.isfinite(times)))
        raise ValueError(f"waypoint times must be finite (t[{k}] = {times[k]:g})")
    if np.any(np.diff(times) <= 0.0):
        k = int(np.where(np.diff(times) <= 0.0)[0][0])
        raise NonMonotoneTime(
            f"waypoint times must increase strictly (t[{k}] = {times[k]:g}, "
            f"t[{k + 1}] = {times[k + 1]:g})"
        )
    finite = np.isfinite(poses).all(axis=1)
    if not finite.all():
        as_point(poses[np.argmin(finite)])  # raises for the first non-finite pose
    try:
        joints = inverse_kinematics(poses, d)
    except (Unreachable, SerialSingularity) as e:
        raise type(e)(f"waypoint {e.index}: {e}", leg=e.leg) from e

    vel, vel_sound = _derivative(times, joints, 1)
    acc, acc_sound = _derivative(times, joints, 2)
    sound = vel_sound & acc_sound
    if not sound.all():
        k = int(np.argmin(sound))
        raise ValueError(
            f"waypoint {k}: finite-difference weights lost to rounding; "
            f"time steps too small near t[{k}] = {times[k]:g}"
        )
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


# characters on which np.loadtxt and float() disagree: csv quoting, and the
# separators U+001C-U+001F, which loadtxt strips from a cell like whitespace
_ROW_LOOP_CHARS = '"\x1c\x1d\x1e\x1f'


def read_waypoints_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read timed waypoints (header t_s,x_mm,y_mm,z_mm) as times (n,) and poses (n, 3).

    The file is read as csv.reader reads it: the last of duplicate columns
    wins, blank lines are skipped, extra cells are ignored, and every cell
    is parsed as float() parses it.  A plain file is parsed in one
    np.loadtxt pass.  A file that pass may read differently (quotes, cells
    longer than csv's field limit, U+001C-U+001F) or refuses (a short row,
    a cell loadtxt cannot parse) goes through the csv row loop, which
    raises `bad waypoint row k` for the first bad row.
    """
    with open(path, newline="") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:  # the row loop raises it where it occurs
            if not f.seekable():
                raise
            f.seek(0)
            rows = _read_rows(f)
        else:
            rows = _loadtxt_rows(text)
            if rows is None:
                rows = _read_rows(io.StringIO(text, newline=""))
    return rows[:, 0], rows[:, 1:]


def _loadtxt_rows(text: str) -> np.ndarray | None:
    """The (n, 4) rows of a waypoint file parsed by np.loadtxt, or None
    where the row loop must read it."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # as csv ends lines
    if (
        any(c in text for c in _ROW_LOOP_CHARS)
        or max(map(len, lines)) > csv.field_size_limit()
        or not any(lines[1:])  # loadtxt warns on a file with no data
    ):
        return None
    cols = _waypoint_columns(next(csv.reader(lines[:1]), []))
    try:
        return np.loadtxt(
            lines, delimiter=",", comments=None, quotechar=None, skiprows=1, usecols=cols, ndmin=2
        )
    except ValueError:
        return None


def _waypoint_columns(header: list[str]) -> tuple[int, ...]:
    col = {name: i for i, name in enumerate(header)}
    missing = {"t_s", "x_mm", "y_mm", "z_mm"} - set(col)
    if missing:
        raise ValueError(f"waypoint CSV missing columns: {sorted(missing)}")
    return tuple(col[c] for c in ("t_s", "x_mm", "y_mm", "z_mm"))


def _read_rows(f) -> np.ndarray:
    """The csv.reader row loop of `read_waypoints_csv`: (n, 4) rows, one
    float() per cell."""
    reader = csv.reader(f)
    cols = _waypoint_columns(next(reader, []))
    pad = [None] * (max(cols) + 1)  # a short row's missing cells read None
    out = []
    for k, row in enumerate(r + pad for r in reader if r):
        try:
            out.append([float(row[i]) for i in cols])
        except (TypeError, ValueError) as e:
            raise ValueError(f"bad waypoint row {k + 2}: {e}") from e
    return np.array(out).reshape(-1, 4)


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
