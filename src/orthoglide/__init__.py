"""Kinematic analysis and dimensional synthesis for the orthogonal-slider
3-DOF translational parallel machine.

Lengths are millimetres, speeds mm/s, accelerations mm/s^2 throughout the
library; unit conversion happens only at the command-line boundary.

The public names below load lazily: `import orthoglide` imports no layer
module, and the first use of a name imports the module that defines it
(PEP 562), so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": (
        "DegenerateBounds",
        "DegenerateInput",
        "NoAssemblyMode",
        "NonMonotoneTime",
        "OrthoglideError",
        "RangeOutsideWorkspace",
        "SerialSingularity",
        "Unreachable",
    ),
    "kinematics": (
        "DesignParams",
        "forward_kinematics",
        "inverse_jacobian",
        "inverse_kinematics",
        "within_stroke",
    ),
    "performance": (
        "IsotropyResidual",
        "TransmissionReport",
        "isotropy_residual",
        "transmission_factors",
    ),
    "synthesis": (
        "DiagonalLimits",
        "SynthesisResult",
        "diagonal_limits",
        "prototype_design",
        "prototype_synthesis",
        "reference_points",
        "synthesize",
    ),
    "trajectory": (
        "PathProfile",
        "joint_velocity",
        "max_feasible_tool_speed",
        "profile_arrays",
    ),
    "workspace": (
        "Bounds",
        "CubeSpec",
        "DiagonalProfile",
        "GridNodes",
        "GridReport",
        "diagonal_profile",
        "map_cube",
        "verify_cube",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module of public name `name`, and keep its value here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
