"""Transmission factors, conditioning, isotropy and manipulability.

Convention note: the condition number used throughout is the SMALLEST over
LARGEST singular value, a number in [0, 1] where 1 means isotropic and 0
means singular.  This is the reciprocal of the textbook convention.

The singular values of the forward velocity map J are the velocity
transmission factors: gains from joint speed to tool speed along the
principal axes of the manipulability ellipsoid.  They are computed as
reciprocals of the singular values of Jinv, never by forming the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kinematics
from .errors import ParallelSingularity
from .kinematics import SERIAL_TOL, DesignParams
from .linalg3 import det3, singular_values3

#: |det(Jinv)| at or below this is treated as a parallel singularity.
DET_TOL = 1e-9


@dataclass
class TransmissionReport:
    """Forward-map singular values and singularity flags at one pose.

    sigma_fwd is ascending; entries are +inf where Jinv is rank deficient.
    kappa = sigma_fwd[0] / sigma_fwd[2] in [0, 1] (see module note).
    """

    sigma_fwd: np.ndarray
    kappa: float
    det_inv: float
    serial_flags: tuple[bool, bool, bool]
    parallel_flag: bool


@dataclass
class IsotropyResidual:
    """Deviation of a pose from the isotropy conditions.

    ratio_dev: max over legs of |(1/eta_i) ||c_i - b_i|| - 1|, zero exactly
    when every transmission ratio is 1.
    ortho_dev: max over leg pairs of the normalized dot product magnitude,
    zero exactly when the parallelograms are mutually orthogonal.
    """

    ratio_dev: float
    ortho_dev: float

    def is_isotropic(self, tol: float = 1e-9) -> bool:
        return self.ratio_dev <= tol and self.ortho_dev <= tol


@dataclass
class Ellipsoid:
    """Manipulability ellipsoid: image of the unit joint-speed sphere.

    semi_axes are the forward transmission factors, ascending; direction
    column k is the unit vector along semi_axes[k].
    """

    semi_axes: np.ndarray
    directions: np.ndarray


def forward_factors(jinv: np.ndarray) -> np.ndarray:
    """Ascending forward transmission factors, batched over (..., 3, 3).

    Reciprocals of the singular values of Jinv; +inf where a singular value
    vanishes.  The single place where singular values become factors: the
    pose report and the grid sweep both go through it.  Exactly invariant
    under P Jinv P^T for a permutation P (see `singular_values3`), so poses
    whose coordinates are permutations of each other get the same bits.
    """
    s_inv = singular_values3(jinv)
    out = np.full_like(s_inv, np.inf)
    np.divide(1.0, s_inv, out=out, where=s_inv > 0.0)
    return out[..., ::-1]


def kappa_from_factors(sigma_fwd: np.ndarray) -> np.ndarray:
    """kappa = sigma_fwd[0] / sigma_fwd[2] of ascending factors (batched).

    0 where the largest factor is infinite (Jinv rank deficient).
    """
    lo, hi = sigma_fwd[..., 0], sigma_fwd[..., 2]
    out = np.zeros_like(lo)
    np.divide(lo, hi, out=out, where=np.isfinite(hi))
    return out


def transmission_factors(jinv) -> TransmissionReport:
    """Full conditioning report for one inverse Jacobian.

    Singular input never raises: rank deficiency shows up as +inf entries
    in sigma_fwd and the parallel flag (|det| at or below DET_TOL).  Serial
    flags fire when a row norm reaches 1/SERIAL_TOL (row i norm is L/eta_i
    for this machine).
    """
    jinv = np.asarray(jinv, dtype=float)
    if jinv.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {jinv.shape}")
    if not np.all(np.isfinite(jinv)):
        raise ValueError("inverse Jacobian entries must be finite")

    sigma_fwd = forward_factors(jinv)
    kappa = float(kappa_from_factors(sigma_fwd))
    det_inv = float(det3(jinv))
    row_norms = np.linalg.norm(jinv, axis=1)
    serial = tuple(bool(n >= 1.0 / SERIAL_TOL) for n in row_norms)
    return TransmissionReport(
        sigma_fwd=sigma_fwd,
        kappa=kappa,
        det_inv=det_inv,
        serial_flags=serial,
        parallel_flag=bool(abs(det_inv) <= DET_TOL),
    )


def condition_number(jinv) -> float:
    """sigma_min / sigma_max of the map, in [0, 1]; invariant under inversion."""
    return float(kappa_from_factors(forward_factors(jinv)))


def isotropy_residual(p, d: DesignParams) -> IsotropyResidual:
    """Residuals of the unit-ratio and leg-orthogonality conditions at `p`.

    Reachability/singularity errors propagate from inverse_kinematics.
    Both residuals are zero exactly at the isotropic configuration.
    """
    rho = kinematics.inverse_kinematics(p, d)
    states = kinematics.leg_states(p, rho, d)
    legs = np.stack([s.c - s.b for s in states])
    norms = np.linalg.norm(legs, axis=1)
    etas = np.array([s.eta for s in states])
    ratio_dev = float(np.max(np.abs(norms / etas - 1.0)))
    ortho = [
        abs(float(legs[i] @ legs[j])) / (norms[i] * norms[j])
        for i, j in ((0, 1), (1, 2), (2, 0))
    ]
    return IsotropyResidual(ratio_dev=ratio_dev, ortho_dev=float(max(ortho)))


def manipulability_ellipsoid(jinv) -> Ellipsoid:
    """Semi-axes and principal directions of the velocity ellipsoid.

    The semi-axes are the forward transmission factors (`forward_factors`).
    Direction column k is the eigenvector of Jinv^T Jinv (the forward map's
    output principal axes), from `np.linalg.eigh`, with eigenvalue
    1/semi_axes[k]^2.  Raises ParallelSingularity when |det(Jinv)| is at or
    below DET_TOL.
    """
    jinv = np.asarray(jinv, dtype=float)
    det_inv = float(det3(jinv))
    if abs(det_inv) <= DET_TOL:
        raise ParallelSingularity(f"|det(Jinv)| = {abs(det_inv):.3g} <= {DET_TOL:.3g}")
    directions = np.linalg.eigh(jinv.T @ jinv)[1][:, ::-1]
    return Ellipsoid(semi_axes=forward_factors(jinv), directions=directions)
