"""Closed-form model of the orthogonal-slider machine, written independently
of the library so that the benchmark's generators and oracles never call the
code they measure.

Lengths are mm, speeds mm/s, accelerations mm/s^2.  Singular values come
from `np.linalg.svd`, not from the library's Jacobi kernel.
"""

from __future__ import annotations

import math

import numpy as np

VMAX_M_S = 1.2
AMAX_M_S2 = 20.0
VMAX = VMAX_M_S * 1000.0
AMAX = AMAX_M_S2 * 1000.0
#: relative slack of the program's bound checks (binding points pass).
BOUND_REL_TOL = 1e-9
#: eta below this share of L is a serial singularity (unreachable node).
SERIAL_TOL = 1e-9


def synthesis(lw: float, s_lo: float, s_hi: float) -> dict:
    """Leg length, reference points and strokes of the prescribed-cube design.

    On the diagonal the forward factors are 1/(1+2a) and 1/(1-a); the
    admissible coupling interval [a_min, a_max] keeps both in [s_lo, s_hi],
    and u/L = a/sqrt(1+2a^2) maps it onto the cube diagonal.
    """
    a_max = min((1.0 / s_lo - 1.0) / 2.0, 1.0 - 1.0 / s_hi)
    a_min = max((1.0 / s_hi - 1.0) / 2.0, 1.0 - 1.0 / s_lo)
    uh1 = a_min / math.sqrt(1.0 + 2.0 * a_min * a_min)
    uh2 = a_max / math.sqrt(1.0 + 2.0 * a_max * a_max)
    leg = lw / (uh2 - uh1)
    u1, u2 = uh1 * leg, uh2 * leg
    far = u1 if abs(u1) > abs(u2) else u2
    return {
        "leg_length": leg,
        "u1": u1,
        "u2": u2,
        # face centre (u1, 0, 0) and far corner (u2, far, far) of axis 1
        "stroke_lo": u1 - leg,
        "stroke_hi": u2 - math.sqrt(leg * leg - 2.0 * far * far),
    }


PROTOTYPE = synthesis(200.0, 0.5, 2.0)


def prototype_config() -> dict:
    """Explicit-design config keys of the prototype (mirrors the CLI flags)."""
    return {
        "leg_length": PROTOTYPE["leg_length"],
        "stroke_min": PROTOTYPE["stroke_lo"],
        "stroke_max": PROTOTYPE["stroke_hi"],
        "vmax": VMAX_M_S,
        "amax": AMAX_M_S2,
    }


def grid_points(q1, side: float, n: int) -> np.ndarray:
    """Closed n^3 grid over the cube at q1, x-major then y then z."""
    axes = [np.linspace(q1[k], q1[k] + side, n) for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def radicands(p: np.ndarray, leg: float) -> np.ndarray:
    """L^2 - p_j^2 - p_k^2 per leg, shape (..., 3)."""
    sq = p * p
    return leg * leg - np.stack(
        [sq[..., 1] + sq[..., 2], sq[..., 0] + sq[..., 2], sq[..., 0] + sq[..., 1]], axis=-1
    )


def ik(p: np.ndarray, leg: float) -> tuple[np.ndarray, np.ndarray]:
    """Working-mode joints rho_i = p_i - eta_i and eta, for reachable poses."""
    eta = np.sqrt(radicands(p, leg))
    return p - eta, eta


def jinv(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Inverse Jacobians: row i = (p - rho_i e_i) / eta_i, shape (..., 3, 3)."""
    rows = p[..., None, :] - rho[..., :, None] * np.eye(3)
    return rows / (p - rho)[..., :, None]


def factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending forward transmission factors and kappa of inverse Jacobians."""
    s = np.linalg.svd(m, compute_uv=False)  # descending
    return 1.0 / s, s[..., -1] / s[..., 0]


def joint_rates(p, v, a, leg: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic joint rates and accelerations along a tool path.

    With s_i = p_j v_j + p_k v_k:  rho_dot_i = v_i + s_i / eta_i and
    rho_ddot_i = a_i + (v_j^2 + v_k^2 + p_j a_j + p_k a_k) / eta_i
    + s_i^2 / eta_i^3.
    """
    eta = np.sqrt(radicands(p, leg))
    pv, vv, pa = p * v, v * v, p * a
    others = ((1, 2), (0, 2), (0, 1))
    s = np.stack([pv[:, j] + pv[:, k] for j, k in others], axis=1)
    q = np.stack([vv[:, j] + vv[:, k] + pa[:, j] + pa[:, k] for j, k in others], axis=1)
    return v + s / eta, a + q / eta + s * s / eta**3
