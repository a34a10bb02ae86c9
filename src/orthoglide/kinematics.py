"""Machine model and closed-form kinematics of the orthogonal-slider machine.

Model conventions (zero-offset reduction):

* the fixed frame's axes coincide with the three slider directions, so the
  unit axis vectors are e_1, e_2, e_3 = columns of the identity;
* slider i sits at b_i = rho_i * e_i, its axis origin a_i is the frame
  origin (the physical slider/tool offsets visible on the real machine only
  shift the origins of rho and p by constants, so they are absorbed here);
* the tool point is c_i = p for every leg, and each parallelogram leg keeps
  a fixed length:  ||c_i - b_i|| = L;
* working mode: eta_i = (c_i - b_i) . e_i > 0 for all legs (slider behind
  the tool along each axis), the branch that contains the isotropic pose.

All lengths are millimetres, speeds mm/s, accelerations mm/s^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NoAssemblyMode, SerialSingularity, Unreachable

#: eta_i below SERIAL_TOL * L counts as a serial singularity.
SERIAL_TOL = 1e-9

_EYE = np.eye(3)
# the other two axes j, k of each leg i
_J = np.array([1, 0, 0])
_K = np.array([2, 2, 1])
# column c: the axes in ascending order for c = (x > y) + 2 (y > z) + 4 (x > z),
# ties in axis order; no pose has c = 3 or 4 (x > y > z >= x, or the reverse)
_SORTED = np.array([[0, 1, 0, 0, 0, 1, 2, 2], [1, 0, 2, 1, 1, 2, 0, 1], [2, 2, 1, 2, 2, 0, 1, 0]])


def _floats(v) -> tuple[float, ...]:
    """Plain-float tuple of a vector, for error messages."""
    return tuple(float(x) for x in v)


def as_point(p) -> np.ndarray:
    """Normalize a pose/vector argument to a float array of shape (3,)."""
    return _as_points(p, batch=False)


def _as_points(p, batch: bool = True) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape[-1:] != (3,) or (v.ndim != 1 and not batch):
        raise ValueError(f"expected a length-3 vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"vector components must be finite, got {v}")
    return v


@dataclass
class DesignParams:
    """Geometric identity and motor capability of one machine instance.

    stroke_min/stroke_max are per-axis slider travel limits (mm); scalars
    are broadcast to the three axes.  motor_vmax is mm/s, motor_amax mm/s^2
    (defaults: the prototype motor sizing, 1.2 m/s and 20 m/s^2).
    """

    leg_length: float
    stroke_min: tuple[float, float, float] = (-np.inf, -np.inf, -np.inf)
    stroke_max: tuple[float, float, float] = (np.inf, np.inf, np.inf)
    motor_vmax: float = 1200.0
    motor_amax: float = 20000.0

    def __post_init__(self):
        self.leg_length = float(self.leg_length)
        self.stroke_min = _per_axis(self.stroke_min)
        self.stroke_max = _per_axis(self.stroke_max)
        if not self.leg_length > 0:
            raise ValueError("leg_length must be positive")
        # L*L enters every IK radicand, so it must be a finite normal float
        if not np.finfo(float).tiny <= self.leg_length * self.leg_length < np.inf:
            raise ValueError(
                f"leg_length {self.leg_length:g} out of range: L*L over- or underflows"
            )
        for lo, hi in zip(self.stroke_min, self.stroke_max):
            if not lo < hi:
                raise ValueError("stroke_min must be below stroke_max on each axis")
        if not self.motor_vmax > 0:
            raise ValueError("motor_vmax must be positive")
        if not self.motor_amax > 0:
            raise ValueError("motor_amax must be positive")


def _per_axis(value) -> tuple[float, float, float]:
    arr = np.asarray(value, dtype=float)
    if arr.shape == ():
        return (float(arr),) * 3
    if arr.shape == (3,):
        return tuple(float(x) for x in arr)
    raise ValueError("per-axis value must be a scalar or length 3")


def _leg_vectors(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Leg vectors p - rho_i e_i as the rows of (..., 3, 3) arrays."""
    return p[..., None, :] - rho[..., :, None] * _EYE


def leg_radicands(p: np.ndarray, leg_length: float) -> np.ndarray:
    """Per-leg radicand L^2 - p_j^2 - p_k^2 of the IK square root.

    Broadcasts over leading dimensions of `p` (shape (..., 3)).  The two
    cross terms are summed pairwise so the result is exactly equivariant
    under coordinate permutations.
    """
    # a square that overflows is +inf and the radicand -inf: unreachable
    with np.errstate(over="ignore"):
        sq = np.asarray(p, dtype=float) ** 2
        cross = sq[..., _J] + sq[..., _K]
    return leg_length**2 - cross


def pose_order(p) -> np.ndarray:
    """Indices that sort a pose (3,), or axis-first (3, n) for poses (n, 3).
    The grid sweep and `analyze` take a pose's factors from its sorted
    pose's Jacobian, P Jinv P^T as the IK and `inverse_jacobian` are
    exactly equivariant, so every permutation of a pose gets the same bits
    (ties differ at most in the sign of a zero, which neither sees)."""
    x, y, z = np.asarray(p).T
    return _SORTED[:, (x > y) + 2 * (y > z) + 4 * (x > z)]


def inverse_kinematics(p, d: DesignParams) -> np.ndarray:
    """Slider coordinates reaching pose `p`, shape (..., 3), in the working mode.

    Closed form rho_i = p_i - sqrt(L^2 - p_j^2 - p_k^2), the branch with
    eta_i > 0.  Stroke-limit violations never raise (see `within_stroke`);
    unreachable poses raise Unreachable, workspace-boundary poses raise
    SerialSingularity, for the first failing pose in C order (`index`).
    """
    p = _as_points(p)
    rad = leg_radicands(p, d.leg_length)
    rho, eta, fail = _working_mode(p, rad, d.leg_length)
    fail = fail.reshape(-1, 3)
    if fail.any():
        k = int(fail.any(axis=1).argmax())
        pose = _floats(p.reshape(-1, 3)[k])
        rad, eta = rad.reshape(-1, 3)[k], eta.reshape(-1, 3)[k]
        if (rad < 0.0).any():
            i = int((rad < 0.0).argmax())
            err = Unreachable(f"pose {pose} unreachable: leg {i} radicand {rad[i]:.6g} < 0", leg=i)
        else:
            i = int(fail[k].argmax())
            msg = f"pose {pose} on workspace boundary: eta_{i + 1} = {eta[i]:.6g}"
            err = SerialSingularity(msg, leg=i)
        err.index = k if p.ndim > 1 else None
        raise err
    return rho


def _working_mode(p: np.ndarray, rad: np.ndarray, leg_length: float):
    """rho = p - eta, eta = sqrt(max(rad, 0)) and the mask of failing legs,
    eta not above SERIAL_TOL * L (rad < 0, the workspace boundary or a
    non-finite rad): the solve of `inverse_kinematics`, without raising."""
    eta = np.sqrt(np.maximum(rad, 0.0))
    return p - eta, eta, ~((eta > SERIAL_TOL * leg_length) & np.isfinite(rad))


def within_stroke(rho, d: DesignParams) -> np.ndarray:
    """Per-axis boolean flags: slider coordinate inside its travel limits."""
    rho = np.asarray(rho, dtype=float)
    lo = np.asarray(d.stroke_min)
    hi = np.asarray(d.stroke_max)
    return (rho >= lo) & (rho <= hi)


def forward_kinematics(rho, d: DesignParams) -> np.ndarray:
    """Tool pose from slider coordinates (working-mode assembly).

    The pairwise differences of the leg spheres ||p - rho_i e_i||^2 = L^2
    leave 2 rho_i p_i - rho_i^2 equal for all legs, so p lies on the line
    p = rho / 2 + t n, n = (rho_2 rho_3, rho_1 rho_3, rho_1 rho_2), and any
    one sphere gives ||n||^2 t^2 + rho_1 rho_2 rho_3 t + ||rho||^2 / 4 - L^2
    = 0.  Nothing divides by a slider coordinate, so a slider at the origin
    needs no special case; two leave n = 0 and p underdetermined.  Every
    assembly has |p_i| <= L and |p_i - rho_i| <= L, so a slider beyond 2L
    is refused first, and the solve runs in units of 2^e, the power of two
    just above L (an exact scaling), where |rho_i| < 2 and no product can
    overflow.  Among real roots with all eta_i > SERIAL_TOL L, the poses
    `inverse_kinematics` accepts, the one with smaller ||p||^2 (closer to
    the isotropic assembly) is returned.  Both roots can be such poses, so
    FK(IK(p)) need not be p: for some reachable p it is the other assembly
    of the same sliders.
    """
    rho = as_point(rho)
    L = d.leg_length

    n_zero = int((np.abs(rho) <= 1e-13 * L).sum())
    if n_zero >= 2:
        raise DegenerateInput(
            f"{n_zero} sliders at the axis origin: leg spheres coincide and the "
            "assembly point is underdetermined"
        )
    if (np.abs(rho) > 2.0 * L).any():
        raise NoAssemblyMode(f"joints {_floats(rho)}: leg spheres do not intersect")
    e = math.frexp(L)[1]
    r, l = np.ldexp(rho, -e), math.ldexp(L, -e)
    n = r[_J] * r[_K]
    a, b, c = float(n @ n), float(np.prod(r)), float(r @ r) / 4.0 - l * l
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoAssemblyMode(f"joints {_floats(rho)}: leg spheres do not intersect")
    # cancellation-free pair of roots; q = 0 only at the double root t = 0
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    admissible = []
    for t in (q / a, c / q if q else 0.0):
        p = r / 2.0 + t * n
        if np.all(p - r > SERIAL_TOL * l):
            resid = np.abs(np.linalg.norm(_leg_vectors(p, r), axis=1) - l)
            if np.max(resid) <= 1e-9 * l:
                admissible.append((float(p @ p), p))
    if not admissible:
        raise NoAssemblyMode(
            f"joints {_floats(rho)}: no assembly point in the working mode"
        )
    return np.ldexp(min(admissible, key=lambda sp: sp[0])[1], e)


def inverse_jacobian(points: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Inverse Jacobians, row i = (c_i - b_i)^T / eta_i, mapping tool velocity
    to joint velocity, for (points, rho) of shape (..., 3), rho as
    `inverse_kinematics` returned it; the diagonal entries are exactly 1.

    No singularity guard: `inverse_kinematics` has refused every eta at or
    below SERIAL_TOL * L, and rows blow up near serial singularities, which
    grid sweeps treat as data.  Returns shape (..., 3, 3), a view of
    axis-first storage: each of the nine entries (i, j) is one contiguous
    row across the poses, the rows stored column by column (the order
    `linalg3` reads them in), so callers must not assume C order.

    One broadcast pass: off the diagonal, entry (i, j) of the rows
    (p - rho_i e_i)^T / eta_i is p_j / eta_i, and the diagonal is
    eta_i / eta_i, the same bits.  Adding +0.0 to p turns a -0.0 coordinate
    into +0.0, the sign p_j - rho_i * 0 has wherever rho_i < 0, as it is at
    every reachable pose with p_j = 0 (up to rounding at the workspace
    boundary), so the zero entries keep their signs too.
    """
    points = np.asarray(points, dtype=float)
    rho = np.asarray(rho, dtype=float)
    eta = (points - rho).T
    # flat[3 j + i] is entry (i, j); flat is fresh, so cols is a view of it
    flat = np.empty((9,) + eta.shape[1:])
    cols = flat.reshape((3, 3) + eta.shape[1:])
    np.divide((points.T + 0.0)[:, None], eta, out=cols)
    np.divide(eta, eta, out=flat[::4])
    return cols.T
