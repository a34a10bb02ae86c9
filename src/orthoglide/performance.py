"""Transmission factors, conditioning and isotropy.

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
from .kinematics import SERIAL_TOL
from .linalg3 import det3, singular_values3

#: |det(Jinv)| at or below this is treated as a parallel singularity.
DET_TOL = 1e-9

#: both isotropy residuals at or below this count as isotropic.
ISOTROPY_TOL = 1e-9


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

    def is_isotropic(self) -> bool:
        return self.ratio_dev <= ISOTROPY_TOL and self.ortho_dev <= ISOTROPY_TOL


def _reciprocal_factors(s_inv: np.ndarray) -> np.ndarray:
    """Forward transmission factors 1/s of singular values s of Jinv,
    elementwise; +inf where s vanishes.  The single place where singular
    values become factors: `forward_factors` (the pose report and the grid
    sweep) and the diagonal's closed form both go through it."""
    out = np.full_like(s_inv, np.inf)
    np.divide(1.0, s_inv, out=out, where=s_inv > 0.0)
    return out


def forward_factors(jinv: np.ndarray) -> np.ndarray:
    """Ascending forward transmission factors, batched over (..., 3, 3).

    The `_reciprocal_factors` of the singular values of Jinv as given (see
    `singular_values3`); the pose routes pass the sorted pose's Jinv
    (`kinematics.pose_order`), so permuted poses get the same bits.
    """
    return _reciprocal_factors(singular_values3(jinv))[..., ::-1]


def kappa_from_factors(sigma_fwd: np.ndarray) -> np.ndarray:
    """kappa = sigma_fwd[0] / sigma_fwd[2] of ascending factors (batched).

    0 where the largest factor is infinite (Jinv rank deficient).
    """
    lo, hi = sigma_fwd[..., 0], sigma_fwd[..., 2]
    out = np.zeros_like(lo)
    np.divide(lo, hi, out=out, where=np.isfinite(hi))
    return out


def transmission_factors(jinv, order=None) -> TransmissionReport:
    """Full conditioning report for one inverse Jacobian.

    Singular input never raises: rank deficiency shows up as +inf entries
    in sigma_fwd and the parallel flag (|det| at or below DET_TOL).  Serial
    flags fire when a row norm reaches 1/SERIAL_TOL (row i norm is L/eta_i
    for this machine).  Raises ValueError unless Jinv is a finite 3x3.
    Given the pose's `kinematics.pose_order`, sigma_fwd and kappa are those
    of P Jinv P^T = Jinv[order][:, order], the sorted pose's; det_inv and
    the serial flags stay Jinv's, in leg order.
    """
    jinv = np.asarray(jinv, dtype=float)
    if jinv.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {jinv.shape}")
    if not np.all(np.isfinite(jinv)):
        raise ValueError("inverse Jacobian entries must be finite")
    sigma_fwd = forward_factors(jinv if order is None else jinv.take(order, 0).take(order, 1))
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


def isotropy_residual(p, rho) -> IsotropyResidual:
    """Residuals of the unit-ratio and leg-orthogonality conditions at `p`.

    `rho` must be the slider coordinates `inverse_kinematics(p, d)` returned,
    which also rules out unreachable and serially singular poses.  Both
    residuals are zero exactly at the isotropic configuration.
    """
    p = kinematics.as_point(p)
    rho = kinematics.as_point(rho)
    # leg i is c_i - b_i = p - rho_i e_i, and eta_i its i-th component
    legs = kinematics._leg_vectors(p, rho)
    norms = np.linalg.norm(legs, axis=1)
    ratio_dev = float(np.max(np.abs(norms / np.diagonal(legs) - 1.0)))
    ortho = [
        abs(float(legs[i] @ legs[j])) / (norms[i] * norms[j])
        for i, j in ((0, 1), (1, 2), (2, 0))
    ]
    return IsotropyResidual(ratio_dev=ratio_dev, ortho_dev=float(max(ortho)))
