"""Dimensional synthesis from a prescribed cube and transmission bounds.

Given the cube side Lw and factor limits (s_lo, s_hi), the admissible
interval of the diagonal coupling ratio a fixes two reference points Q1, Q2
on the cube diagonal where the extreme factors bind exactly.  The leg
length follows from requiring Q2 - Q1 to span the diagonal, and the slider
strokes from the IK extremes over the whole cube (face-centre minimum,
far-corner maximum).  All lengths scale linearly with Lw, so the
compactness ratio r = Lw / stroke depends on the bounds alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBounds
from .kinematics import DesignParams, inverse_kinematics
from .workspace import Bounds, CubeSpec, _parallel_singular


@dataclass
class DiagonalLimits:
    """Admissible interval of the diagonal coupling ratio a.

    On the diagonal the forward factors are 1/(1+2a) and 1/(1-a) (twice),
    so -1/2 < a_min <= 0 <= a_max < 1.
    """

    a_min: float
    a_max: float


@dataclass
class SynthesisResult:
    """Dimensions produced by the prescribed-cube synthesis.

    Strokes are identical on the three axes by construction symmetry.
    ratio is Lw / stroke (the compactness figure); cube_to_leg is Lw / L,
    reported alongside because the two ratios move in opposite directions
    as the bounds widen.
    """

    lw: float
    bounds: Bounds
    limits: DiagonalLimits
    leg_length: float
    q1: np.ndarray
    q2: np.ndarray
    cube: CubeSpec
    stroke_lo: float
    stroke_hi: float
    stroke: float
    ratio: float
    cube_to_leg: float

    def design(self, **motors: float) -> DesignParams:
        """Complete machine parameters with strokes set to the synthesized
        extremes; `motors` are DesignParams' motor_vmax and motor_amax, which
        default to the prototype motor sizing."""
        return DesignParams(
            leg_length=self.leg_length,
            stroke_min=self.stroke_lo,
            stroke_max=self.stroke_hi,
            **motors,
        )


def diagonal_limits(b: Bounds) -> DiagonalLimits:
    """Largest interval of a keeping both diagonal factors inside [s_lo, s_hi].

    Intersection of s_lo <= 1/(1+2a) <= s_hi and s_lo <= 1/(1-a) <= s_hi;
    at each endpoint at least one factor binds.  Raises DegenerateBounds
    when the interval collapses to the isotropic point a = 0 (any unit
    bound does this), or reaches a parallel singularity, which would put Q1
    or Q2 on it (`workspace._parallel_singular`; s_hi of about 1e9 does this).
    """
    a_max = min((1.0 / b.s_lo - 1.0) / 2.0, 1.0 - 1.0 / b.s_hi)
    a_min = max((1.0 / b.s_hi - 1.0) / 2.0, 1.0 - 1.0 / b.s_lo)
    if a_max - a_min <= 0.0:
        raise DegenerateBounds(
            f"bounds {b} admit only the isotropic configuration (a_min = a_max)"
        )
    if _parallel_singular(a_min, a_max):
        raise DegenerateBounds(
            f"bounds {b} put a reference point on a parallel singularity "
            f"(a in [{a_min}, {a_max}] reaches a = -1/2 or a = 1)"
        )
    return DiagonalLimits(a_min=a_min, a_max=a_max)


def _unit_diagonal_offset(a: float) -> float:
    # u/L on the diagonal as a function of the coupling ratio
    return a / math.sqrt(1.0 + 2.0 * a * a)


def reference_points(leg_length: float, lims: DiagonalLimits) -> tuple[np.ndarray, np.ndarray]:
    """Reference poses Q1, Q2 on the diagonal where the extreme factors bind."""
    if not leg_length > 0:
        raise ValueError("leg_length must be positive")
    u1 = _unit_diagonal_offset(lims.a_min) * leg_length
    u2 = _unit_diagonal_offset(lims.a_max) * leg_length
    return np.full(3, u1), np.full(3, u2)


def synthesize(lw: float, b: Bounds) -> SynthesisResult:
    """Dimension the machine for a prescribed cube of side `lw`.

    The stroke extremes are evaluated through the actual IK operation at
    the extreme poses (Q1-side face centre for the minimum, the far cube
    corner for the maximum) so grid verifications agree bit for bit.
    """
    lw = float(lw)
    if not lw > 0:
        raise ValueError("cube side must be positive")
    lims = diagonal_limits(b)
    uh1 = _unit_diagonal_offset(lims.a_min)
    uh2 = _unit_diagonal_offset(lims.a_max)
    leg = lw / (uh2 - uh1)
    q1, q2 = reference_points(leg, lims)
    u1, u2 = float(q1[0]), float(q2[0])

    probe = DesignParams(leg_length=leg)
    # slider 1 travel extremes over the cube: sqrt term largest at the face
    # centre (u1, 0, 0), smallest at the farthest corner
    far = u1 if abs(u1) > abs(u2) else u2
    stroke_lo = float(inverse_kinematics((u1, 0.0, 0.0), probe)[0])
    stroke_hi = float(inverse_kinematics((u2, far, far), probe)[0])
    stroke = stroke_hi - stroke_lo

    return SynthesisResult(
        lw=lw,
        bounds=b,
        limits=lims,
        leg_length=leg,
        q1=q1,
        q2=q2,
        cube=CubeSpec(q1, q2),
        stroke_lo=stroke_lo,
        stroke_hi=stroke_hi,
        stroke=stroke,
        ratio=lw / stroke,
        cube_to_leg=lw / leg,
    )


def prototype_synthesis() -> SynthesisResult:
    """The reduced-scale prototype: 200 mm cube, factor bounds 0.5 and 2."""
    return synthesize(200.0, Bounds(0.5, 2.0))


def prototype_design() -> DesignParams:
    """Prototype dimensions with the prototype motor sizing (1.2 m/s, 20 m/s^2)."""
    return prototype_synthesis().design()
