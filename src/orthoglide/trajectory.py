"""Joint-space motion profiling and motor-capability checks.

Tool velocities map to joint velocities through the inverse Jacobian.
Joint rates and accelerations along a sampled path are the derivatives of
the polynomial through the IK joint positions of a few samples (centred
stencils inside, one-sided at the ends), taken from divided differences so
that a path at rest reads exactly zero, and are checked against the motor
velocity/acceleration capability.  `profile_arrays` profiles a path given
as arrays of times and poses, batched over the whole path;
`read_waypoints_csv` reads a waypoint file straight into those arrays.
Closed forms exist (with s_i = p_j v_j + p_k v_k, the joint rate is
rho_dot_i = v_i + s_i / eta_i), but they need the tool velocity and
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
    p, v = as_point(p), as_point(v)
    return inverse_jacobian(p, inverse_kinematics(p, d)) @ v


def max_feasible_tool_speed(p, direction, d: DesignParams) -> float:
    """Largest tool speed along a unit direction within motor capability.

    Bounds the joint-speed vector magnitude: speed = vmax / ||Jinv . dir||_2,
    which keeps every individual joint under motor_vmax as well.  Over all
    directions the worst case is vmax / sigma_max(Jinv), attained along the
    largest-gain direction of the inverse map.  A direction that needs no
    joint motion (Jinv . dir = 0, at a parallel singularity) gets +inf.
    """
    direction = as_point(direction)
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, got norm {nrm}")
    rate = float(np.linalg.norm(joint_velocity(p, direction, d)))
    return d.motor_vmax / rate if rate else np.inf


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


def _interpolant_derivatives(nodes, values, x0) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives at x0 of the polynomial through (nodes,
    values), each (m, ...) with one stencil along the first axis; x0
    broadcasts against nodes[0] and values[0].

    Newton divided differences, then Horner's rule on the Newton form.  The
    derivatives read only differences of the values, so constant values
    give exactly 0 at any node spacing.  A stencil spanning less than 1/2
    runs in units of 2^e, the power of two just above its span; scaling up
    by a power of two is exact, so it moves no bit, and a higher divided
    difference overflows only where a rate or acceleration itself would.
    Elementwise, so a batch gives the bits of one call per stencil.
    """
    e = np.minimum(np.frexp(nodes[-1] - nodes[0])[1], 0)
    nodes, x0 = np.ldexp(nodes, -e), np.ldexp(x0, -e)
    c = list(values)
    m = len(c)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - j])
    p = c[-1]
    d1 = d2 = np.zeros(np.broadcast_shapes(np.shape(x0), np.shape(nodes[0]), np.shape(p)))
    for k in range(m - 2, -1, -1):
        dx = x0 - nodes[k]
        d2 = d2 * dx + 2.0 * d1
        d1 = d1 * dx + p
        if k:
            p = p * dx + c[k]
    return np.ldexp(d1, -e), np.ldexp(d2, -2 * e)


def profile_arrays(times, poses, d: DesignParams) -> PathProfile:
    """Joint positions, rates and accelerations along a timed path.

    `times` (n,) must be finite and strictly increasing, with n >= 2;
    `poses` (n, 3) must be finite and reachable.  Joint positions come from
    one batched IK call.  Rates, and accelerations inside, come from the
    3-point stencil centred on each sample (the first or last three at an
    end), end accelerations from one-sided 4-point stencils, so all are
    second order; two samples give the slope and zero curvature.
    Unreachable and SerialSingularity name the first failing waypoint, and
    ValueError the first whose joint rate or acceleration overflows (time
    steps too small).
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

    n = len(times)
    m = min(3, n)
    sel = np.arange(m)[:, None] + np.clip(np.arange(n) - 1, 0, n - m)
    with np.errstate(all="ignore"):  # an overflow raises below
        vel, acc = _interpolant_derivatives(times[sel, None], joints[sel], times[:, None])
        if n >= 4:
            ends = np.arange(4)[:, None] + [0, n - 4]
            acc[[0, -1]] = _interpolant_derivatives(
                times[ends, None], joints[ends], times[[0, -1], None]
            )[1]
    finite = np.isfinite(np.hstack([vel, acc])).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"waypoint {k}: joint rate or acceleration overflows; "
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

    The file is read as UTF-8, after a byte order mark if it has one (as
    spreadsheets save "CSV UTF-8"), and as csv.reader reads it: the last of
    duplicate columns wins, blank lines are skipped, extra cells are
    ignored, and every cell is parsed as float() parses it.  A plain file is
    parsed in one np.loadtxt pass.  A file that pass may read differently
    (quotes, cells longer than csv's field limit, U+001C-U+001F) or refuses
    (a short row, a cell loadtxt cannot parse) goes through the csv row
    loop, which raises `bad waypoint row k` for the first bad row.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
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
    if "\r" in text:  # end lines as csv does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
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
