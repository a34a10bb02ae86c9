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


@dataclass
class Ellipsoid:
    """Manipulability ellipsoid: image of the unit joint-speed sphere.

    semi_axes are the forward transmission factors, ascending; direction
    column k is the unit vector along semi_axes[k].
    """

    semi_axes: np.ndarray
    directions: np.ndarray


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

    The `_reciprocal_factors` of the singular values of Jinv.  Exactly
    invariant under P Jinv P^T for a permutation P (see `singular_values3`),
    so poses whose coordinates are permutations of each other get the same
    bits.
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


def transmission_factors(jinv) -> TransmissionReport:
    """Full conditioning report for one inverse Jacobian.

    Singular input never raises: rank deficiency shows up as +inf entries
    in sigma_fwd and the parallel flag (|det| at or below DET_TOL).  Serial
    flags fire when a row norm reaches 1/SERIAL_TOL (row i norm is L/eta_i
    for this machine).  Raises ValueError unless Jinv is a finite 3x3.
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


def manipulability_ellipsoid(jinv) -> Ellipsoid:
    """Semi-axes and principal directions of the velocity ellipsoid.

    The semi-axes are the forward transmission factors (`forward_factors`).
    Direction column k is the eigenvector of Jinv^T Jinv (the forward map's
    output principal axes), from `np.linalg.eigh`, with eigenvalue
    1/semi_axes[k]^2.  Raises ParallelSingularity when |det(Jinv)| is at or
    below DET_TOL, and ValueError unless Jinv is a finite 3x3.
    """
    tf = transmission_factors(jinv)
    if tf.parallel_flag:
        raise ParallelSingularity(f"|det(Jinv)| = {abs(tf.det_inv):.3g} <= {DET_TOL:.3g}")
    jinv = np.asarray(jinv, dtype=float)
    directions = np.linalg.eigh(jinv.T @ jinv)[1][:, ::-1]
    return Ellipsoid(semi_axes=tf.sigma_fwd, directions=directions)
