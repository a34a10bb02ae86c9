"""Kinematic analysis and dimensional synthesis for the orthogonal-slider
3-DOF translational parallel machine.

Lengths are millimetres, speeds mm/s, accelerations mm/s^2 throughout the
library; unit conversion happens only at the command-line boundary.
"""

from .errors import (
    DegenerateBounds,
    DegenerateInput,
    InconsistentPair,
    NoAssemblyMode,
    NonMonotoneTime,
    OrthoglideError,
    ParallelSingularity,
    RangeOutsideWorkspace,
    SerialSingularity,
    Unreachable,
)
from .kinematics import (
    DesignParams,
    LegStates,
    forward_kinematics,
    inverse_jacobian,
    inverse_kinematics,
    leg_states,
    within_stroke,
)
from .performance import (
    Ellipsoid,
    IsotropyResidual,
    TransmissionReport,
    isotropy_residual,
    manipulability_ellipsoid,
    transmission_factors,
)
from .synthesis import (
    DiagonalLimits,
    SynthesisResult,
    diagonal_limits,
    prototype_design,
    prototype_synthesis,
    reference_points,
    synthesize,
)
from .trajectory import (
    PathProfile,
    joint_velocity,
    max_feasible_tool_speed,
    profile_arrays,
)
from .workspace import (
    Bounds,
    CubeSpec,
    DiagonalProfile,
    GridNodes,
    GridReport,
    diagonal_profile,
    verify_cube,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CubeSpec",
    "DegenerateBounds",
    "DegenerateInput",
    "DesignParams",
    "DiagonalLimits",
    "DiagonalProfile",
    "Ellipsoid",
    "GridNodes",
    "GridReport",
    "InconsistentPair",
    "IsotropyResidual",
    "LegStates",
    "NoAssemblyMode",
    "NonMonotoneTime",
    "OrthoglideError",
    "ParallelSingularity",
    "PathProfile",
    "RangeOutsideWorkspace",
    "SerialSingularity",
    "SynthesisResult",
    "TransmissionReport",
    "Unreachable",
    "diagonal_limits",
    "diagonal_profile",
    "forward_kinematics",
    "inverse_jacobian",
    "inverse_kinematics",
    "isotropy_residual",
    "joint_velocity",
    "leg_states",
    "manipulability_ellipsoid",
    "max_feasible_tool_speed",
    "profile_arrays",
    "prototype_design",
    "prototype_synthesis",
    "reference_points",
    "synthesize",
    "transmission_factors",
    "verify_cube",
    "within_stroke",
]
