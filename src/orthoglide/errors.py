"""Exception types raised by the kinematic and synthesis operations."""


class OrthoglideError(Exception):
    """Base class for all machine-model errors."""


class _PoseError(OrthoglideError):
    """A pose the kinematics reject: `leg` is the 0-based index of the first
    offending leg, `index` the flat index of the pose in a batch (else None)."""

    index: int | None = None

    def __init__(self, message: str, leg: int | None = None):
        super().__init__(message)
        self.leg = leg


class Unreachable(_PoseError):
    """Pose outside the reachable workspace (a leg radicand is negative)."""


class SerialSingularity(_PoseError):
    """A leg's parallelogram is perpendicular to its slider (eta_i ~ 0)."""


class ParallelSingularity(OrthoglideError):
    """det(Jinv) ~ 0: the tool gains uncontrolled mobility."""


class NoAssemblyMode(OrthoglideError):
    """The three leg spheres have no common point in the working mode."""


class DegenerateInput(OrthoglideError):
    """Slider coordinates leave the forward problem underdetermined."""


class InconsistentPair(OrthoglideError):
    """Pose and joint vector do not satisfy the leg closure constraint."""


class DegenerateBounds(OrthoglideError):
    """Transmission-factor bounds admit only the isotropic point itself, or
    put a diagonal reference point on a parallel singularity."""


class RangeOutsideWorkspace(OrthoglideError):
    """Requested diagonal interval leaves the reachable workspace."""


class NonMonotoneTime(OrthoglideError):
    """Waypoint timestamps are not strictly increasing."""
