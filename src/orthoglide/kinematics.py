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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    InconsistentPair,
    NoAssemblyMode,
    SerialSingularity,
    Unreachable,
)

#: eta_i below SERIAL_TOL * L counts as a serial singularity.
SERIAL_TOL = 1e-9
#: pose/joint pairs with closure residual above CLOSURE_TOL * L are rejected.
CLOSURE_TOL = 1e-6

_EYE = np.eye(3)
# the other two axes j, k of each leg i
_J = np.array([1, 0, 0])
_K = np.array([2, 2, 1])


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


class LegStates(NamedTuple):
    """The three legs at a consistent pose: row i of `vectors` is the leg
    vector c_i - b_i = p - rho_i e_i, eta[i] = (c_i - b_i) . e_i and
    closure_residual[i] = | ||c_i - b_i|| - L |."""

    vectors: np.ndarray
    eta: np.ndarray
    closure_residual: np.ndarray


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

    Solves the sphere system through the scalar w = ||p||^2 - L^2, which the
    pairwise sphere differences make common to all legs: w = 2 rho_i p_i -
    rho_i^2.  Substituting p_i = (w + rho_i^2) / (2 rho_i) into the norm
    gives a quadratic in w; among real roots with all eta_i > 0 the one with
    smaller ||p||^2 (closer to the isotropic assembly) is returned.
    """
    rho = as_point(rho)
    L = d.leg_length

    zero = np.abs(rho) <= 1e-13 * L
    n_zero = int(zero.sum())
    if n_zero >= 2:
        raise DegenerateInput(
            f"{n_zero} sliders at the axis origin: leg spheres coincide and the "
            "assembly point is underdetermined"
        )
    if n_zero == 1:
        p = _fk_one_zero_slider(rho, int(np.where(zero)[0][0]), L)
        return _fk_accept([p], rho, L)

    # quadratic A w^2 + B w + C = 0; A > 0 and B = 1/2 always
    a_coef = float(np.sum(1.0 / (4.0 * rho**2)))
    c_coef = float(np.sum(rho**2) / 4.0 - L**2)
    disc = 0.25 - 4.0 * a_coef * c_coef
    if disc < 0.0:
        raise NoAssemblyMode(f"joints {_floats(rho)}: leg spheres do not intersect")
    # cancellation-free pair of roots; q <= -1/4 so both divisions are safe
    q = -(0.5 + np.sqrt(disc)) / 2.0
    candidates = [(w + rho**2) / (2.0 * rho) for w in (q / a_coef, c_coef / q)]
    return _fk_accept(candidates, rho, L)


def _fk_one_zero_slider(rho: np.ndarray, i: int, L: float) -> np.ndarray:
    # sphere i is centred at the origin, so ||p||^2 = L^2 exactly (w = 0)
    p = np.zeros(3)
    others = [k for k in range(3) if k != i]
    for k in others:
        p[k] = rho[k] / 2.0
    rad = L**2 - p[others[0]] ** 2 - p[others[1]] ** 2
    if rad < 0.0:
        raise NoAssemblyMode(f"joints {_floats(rho)}: leg spheres do not intersect")
    p[i] = np.sqrt(rad)  # + branch: the working mode needs eta_i = p_i > 0
    return p


def _fk_accept(candidates, rho: np.ndarray, L: float) -> np.ndarray:
    admissible = []
    for p in candidates:
        if np.all(p - rho > -SERIAL_TOL * L):
            resid = np.abs(np.linalg.norm(_leg_vectors(p, rho), axis=1) - L)
            if np.max(resid) <= 1e-9 * L:
                admissible.append((float(p @ p), p))
    if not admissible:
        raise NoAssemblyMode(
            f"joints {_floats(rho)}: no assembly point in the working mode"
        )
    return min(admissible, key=lambda sp: sp[0])[1]


def leg_states(p, rho, d: DesignParams) -> LegStates:
    """Leg vectors c_i - b_i, transmission scalars eta_i and closure residuals.

    Raises InconsistentPair when the pose/joint pair violates leg closure
    by more than CLOSURE_TOL * L.
    """
    p = as_point(p)
    rho = as_point(rho)
    L = d.leg_length
    vectors = _leg_vectors(p, rho)
    # one norm per leg: a row-wise axis=1 norm may differ in the last bit
    resid = np.array([abs(float(np.linalg.norm(v)) - L) for v in vectors])
    bad = np.flatnonzero(resid > CLOSURE_TOL * L)
    if bad.size:
        i = int(bad[0])
        raise InconsistentPair(
            f"leg {i}: closure residual {resid[i]:.6g} mm exceeds {CLOSURE_TOL * L:.6g} mm"
        )
    return LegStates(vectors, vectors.diagonal().copy(), resid)


def inverse_jacobian(p, rho, d: DesignParams) -> np.ndarray:
    """3x3 inverse Jacobian: row i = (c_i - b_i)^T / eta_i.

    Maps tool velocity to joint velocity.  Diagonal entries are exactly 1
    in the working mode.  Raises SerialSingularity when some eta_i falls
    below SERIAL_TOL * L.
    """
    p = as_point(p)
    rho = as_point(rho)
    eta = p - rho
    low = np.where(eta <= SERIAL_TOL * d.leg_length)[0]
    if low.size:
        i = int(low[0])
        raise SerialSingularity(f"eta_{i + 1} = {eta[i]:.6g} mm too small", leg=i)
    return batch_inverse_jacobian(p, rho)


def batch_inverse_jacobian(points: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Inverse Jacobians for consistent (points, rho) arrays of shape (..., 3).

    No singularity guard: rows blow up near serial singularities, which grid
    sweeps treat as data.  Returns shape (..., 3, 3), a view of axis-first
    storage: each of the nine entries (i, j) is one contiguous row across
    the poses, the rows stored column by column (the order `linalg3` reads
    them in), so callers must not assume C order.

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
