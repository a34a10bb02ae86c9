"""Grid-based workspace mapping and transmission-bound verification.

The prescribed working volume is an axis-aligned cube whose diagonal carries
the two reference points used by the synthesis.  `verify_cube` is the
brute-force check that the whole cube, not just the diagonal, respects the
prescribed transmission-factor bounds: every point of a closed grid goes
through inverse kinematics and the forward-factor computation, and failures
are reported as data rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._table import write_table
from .errors import RangeOutsideWorkspace
from .kinematics import (
    SERIAL_TOL,
    DesignParams,
    batch_inverse_jacobian,
    leg_radicands,
    within_stroke,
)
from .performance import forward_factors, kappa_from_factors

#: relative slack applied to bound checks so binding points do not count.
BOUND_REL_TOL = 1e-9


@dataclass
class CubeSpec:
    """Axis-aligned cube between corners q1 and q2 (q2 - q1 = side * ones).

    A zero side denotes the degenerate single-point cube, accepted by the
    grid operations.
    """

    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        self.q1 = np.asarray(self.q1, dtype=float)
        self.q2 = np.asarray(self.q2, dtype=float)
        if self.q1.shape != (3,) or self.q2.shape != (3,):
            raise ValueError("cube corners must be length-3 points")
        if not (np.all(np.isfinite(self.q1)) and np.all(np.isfinite(self.q2))):
            raise ValueError(f"cube corners must be finite, got {self.q1} and {self.q2}")
        d = self.q2 - self.q1
        if d[0] < 0 or abs(d[0] - d[1]) > 1e-9 * max(1.0, abs(d[0])) or abs(
            d[0] - d[2]
        ) > 1e-9 * max(1.0, abs(d[0])):
            raise ValueError(f"corners do not span an axis-aligned cube: edges {d}")

    @property
    def side(self) -> float:
        return float(self.q2[0] - self.q1[0])

    @classmethod
    def from_corner(cls, q1, side: float) -> "CubeSpec":
        q1 = np.asarray(q1, dtype=float)
        return cls(q1, q1 + float(side))


@dataclass
class Bounds:
    """Transmission-factor limits 0 < s_lo <= 1 <= s_hi."""

    s_lo: float
    s_hi: float

    def __post_init__(self):
        self.s_lo = float(self.s_lo)
        self.s_hi = float(self.s_hi)
        if not (0.0 < self.s_lo <= 1.0 <= self.s_hi):
            raise ValueError(f"bounds must satisfy 0 < s_lo <= 1 <= s_hi, got {self}")


class DiagonalSample(NamedTuple):
    """One sample of the diagonal profile at pose (u, u, u)."""

    u: float
    a: float
    sigma_fwd: tuple[float, float, float]
    kappa: float


@dataclass
class GridNodes:
    """Per-node results of a grid sweep, in x-major, then y, then z order.

    xyz is (N, 3); the other fields are (N,).  sigma_min, sigma_max and
    kappa are NaN where a node is unreachable, and within_stroke is False
    there.
    """

    xyz: np.ndarray
    reachable: np.ndarray
    within_stroke: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    kappa: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.xyz)


@dataclass
class GridReport:
    """Summary of a cube grid sweep; `nodes` holds the per-node arrays.

    Violations count reachable nodes only; the worst values and their
    locations (None when no node is reachable) are over reachable nodes.
    """

    n_per_axis: int
    bounds: Bounds
    nodes: GridNodes
    n_unreachable: int
    n_stroke_violations: int
    n_bound_violations: int
    worst_sigma_min: float
    worst_sigma_min_at: tuple[float, float, float] | None
    worst_sigma_max: float
    worst_sigma_max_at: tuple[float, float, float] | None

    @property
    def n_points(self) -> int:
        return self.nodes.n_points

    @property
    def ok(self) -> bool:
        return not (self.n_unreachable or self.n_stroke_violations or self.n_bound_violations)


def diagonal_coupling(u, leg_length: float):
    """Coupling ratio a = u / sqrt(L^2 - 2 u^2) on the diagonal x = y = z = u."""
    u = np.asarray(u, dtype=float)
    rad = leg_length**2 - 2.0 * u * u
    return u / np.sqrt(rad)


def diagonal_factors(a) -> np.ndarray:
    """Ascending forward factors at coupling a: reciprocals of {|1+2a|, |1-a|, |1-a|}."""
    a = np.asarray(a, dtype=float)
    s_inv = np.stack(
        [np.abs(1.0 + 2.0 * a), np.abs(1.0 - a), np.abs(1.0 - a)], axis=-1
    )
    fwd = np.full_like(s_inv, np.inf)
    np.divide(1.0, s_inv, out=fwd, where=s_inv > 0.0)
    return np.sort(fwd, axis=-1)


def diagonal_profile(
    d: DesignParams, u_min: float, u_max: float, n: int
) -> list[DiagonalSample]:
    """Closed-form factor profile along the cube diagonal.

    Samples n poses (u, u, u) for u in [u_min, u_max].  The spectrum of the
    inverse Jacobian there is {1+2a, 1-a, 1-a} with a = u/sqrt(L^2 - 2u^2),
    so no decomposition is needed; this is the independent reference the
    generic grid path is checked against.  1 + 2a and 1 - a must exceed
    SERIAL_TOL: det Jinv = (1+2a)(1-a)^2 is a parallel singularity at a =
    -1/2 and a = 1, and since a grows with u only the endpoints need checking.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if u_min > u_max:
        raise ValueError("u_min must not exceed u_max")
    L = d.leg_length
    lim = L / math.sqrt(2.0)
    if max(abs(u_min), abs(u_max)) >= lim:
        raise RangeOutsideWorkspace(
            f"diagonal range [{u_min}, {u_max}] leaves |u| < L/sqrt(2) = {lim:.6g}"
        )
    a_lo, a_hi = diagonal_coupling([u_min, u_max], L)
    if 1.0 + 2.0 * a_lo <= SERIAL_TOL or 1.0 - a_hi <= SERIAL_TOL:
        raise RangeOutsideWorkspace(
            f"diagonal range [{u_min}, {u_max}] reaches a parallel singularity "
            f"(a = -1/2 at u = {-L / math.sqrt(6.0):.6g}, a = 1 at u = {L / math.sqrt(3.0):.6g})"
        )
    us = np.linspace(u_min, u_max, n)
    a = diagonal_coupling(us, L)
    fwd = diagonal_factors(a)
    kappa = kappa_from_factors(fwd)
    return [
        DiagonalSample(u=u_k, a=a_k, sigma_fwd=tuple(s_k), kappa=kappa_k)
        for u_k, a_k, s_k, kappa_k in zip(us.tolist(), a.tolist(), fwd.tolist(), kappa.tolist())
    ]


def _grid_axes(cube: CubeSpec, n_per_axis: int) -> list[np.ndarray]:
    # closed grid: faces and corners are sampled exactly; a zero-side cube
    # collapses to a single node per axis
    return [
        np.unique(np.linspace(cube.q1[k], cube.q2[k], n_per_axis)) for k in range(3)
    ]


def _wedge(axes: list[np.ndarray], d: DesignParams) -> tuple[np.ndarray, np.ndarray] | None:
    """The nodes that fix the results of a grid symmetric in x, y and z.

    When the three axes are equal element for element and the strokes are
    equal on the three axes, returns the flat indices of the nodes with grid
    indices i <= j <= k, in grid order, and for every node the position in
    that list of its sorted index triple.  Returns None otherwise.
    """
    ax = axes[0]
    if not (
        all(np.array_equal(ax, other) for other in axes[1:])
        and len(set(d.stroke_min)) == 1
        and len(set(d.stroke_max)) == 1
    ):
        return None
    m = len(ax)
    i, j, k = np.indices((m, m, m)).reshape(3, -1)
    lo = np.minimum(np.minimum(i, j), k)
    hi = np.maximum(np.maximum(i, j), k)
    sorted_flat = (lo * m + (i + j + k - lo - hi)) * m + hi
    wedge = np.flatnonzero(sorted_flat == np.arange(m**3))
    slot = np.empty(m**3, dtype=np.intp)
    slot[wedge] = np.arange(len(wedge))
    return wedge, slot[sorted_flat]


def evaluate_grid(d: DesignParams, cube: CubeSpec, n_per_axis: int) -> GridNodes:
    """Evaluate IK + forward factors on a closed grid over the cube.

    Vectorized over all nodes; matches the scalar operations bit for bit
    because both share the same radicand, Jacobian and factor kernels.
    Order is x-major, then y, then z, and is deterministic.

    Permuting a pose's coordinates permutes its radicands and the rows and
    columns of its inverse Jacobian exactly, and `forward_factors` is exactly
    invariant under that, so when the three grid axes are equal element for
    element and the strokes are equal on the three axes (every synthesized
    cube) only the nodes i <= j <= k, about a sixth, are evaluated, and
    every other node takes the results of its sorted index triple: the same
    bits as evaluating it.  Any other grid is evaluated node by node.

    Raises ValueError, before building anything, when n_per_axis^3 exceeds
    numpy's index range.
    """
    if n_per_axis < 2:
        raise ValueError("need at least 2 nodes per axis")
    if int(n_per_axis) ** 3 > np.iinfo(np.intp).max:
        raise ValueError(
            f"{n_per_axis}^3 nodes exceed numpy's index range ({np.iinfo(np.intp).max})"
        )
    axes = _grid_axes(cube, n_per_axis)
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    wedge = _wedge(axes, d)
    nodes = pts if wedge is None else pts[wedge[0]]

    L = d.leg_length
    rad = leg_radicands(nodes, L)
    reachable = np.all(rad > (SERIAL_TOL * L) ** 2, axis=1)

    n = len(nodes)
    sig_min = np.full(n, np.nan)
    sig_max = np.full(n, np.nan)
    kappa = np.full(n, np.nan)
    stroke_ok = np.zeros(n, dtype=bool)

    if np.any(reachable):
        p_r = nodes[reachable]
        eta = np.sqrt(rad[reachable])
        rho = p_r - eta
        stroke_ok[reachable] = np.all(within_stroke(rho, d), axis=1)

        fwd = forward_factors(batch_inverse_jacobian(p_r, rho))
        sig_min[reachable] = fwd[:, 0]
        sig_max[reachable] = fwd[:, 2]
        kappa[reachable] = kappa_from_factors(fwd)

    results = (reachable, stroke_ok, sig_min, sig_max, kappa)
    if wedge is not None:
        results = tuple(r[wedge[1]] for r in results)
    return GridNodes(pts, *results)


def verify_cube(d: DesignParams, cube: CubeSpec, b: Bounds, n_per_axis: int = 21) -> GridReport:
    """Check the prescribed cube against the transmission bounds on a grid.

    Failures (unreachable nodes, stroke-limit violations, factors outside
    [s_lo, s_hi] beyond BOUND_REL_TOL) are counted in the report, never raised.
    Each worst case is located at its first node in grid order.
    Deterministic for fixed inputs.
    """
    nodes = evaluate_grid(d, cube, n_per_axis)
    reach = nodes.reachable
    out_of_bounds = (nodes.sigma_min < b.s_lo * (1.0 - BOUND_REL_TOL)) | (
        nodes.sigma_max > b.s_hi * (1.0 + BOUND_REL_TOL)
    )
    worst_min, worst_min_at = math.nan, None
    worst_max, worst_max_at = math.nan, None
    idx = np.flatnonzero(reach)
    if idx.size:
        i = idx[np.argmin(nodes.sigma_min[idx])]
        j = idx[np.argmax(nodes.sigma_max[idx])]
        worst_min, worst_min_at = float(nodes.sigma_min[i]), tuple(nodes.xyz[i].tolist())
        worst_max, worst_max_at = float(nodes.sigma_max[j]), tuple(nodes.xyz[j].tolist())
    return GridReport(
        n_per_axis=n_per_axis,
        bounds=b,
        nodes=nodes,
        n_unreachable=int(np.count_nonzero(~reach)),
        n_stroke_violations=int(np.count_nonzero(reach & ~nodes.within_stroke)),
        n_bound_violations=int(np.count_nonzero(reach & out_of_bounds)),
        worst_sigma_min=worst_min,
        worst_sigma_min_at=worst_min_at,
        worst_sigma_max=worst_max,
        worst_sigma_max_at=worst_max_at,
    )


GRID_CSV_HEADER = "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"


def write_grid_csv(nodes: GridNodes, out) -> None:
    """Write grid nodes with 12-significant-digit, byte-stable formatting."""
    write_table(
        out,
        GRID_CSV_HEADER,
        [
            *nodes.xyz.T,
            nodes.reachable,
            nodes.within_stroke,
            nodes.sigma_min,
            nodes.sigma_max,
            nodes.kappa,
        ],
    )


def read_grid_csv(path) -> GridNodes:
    """Read back nodes written by write_grid_csv."""
    t = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
    return GridNodes(
        xyz=np.column_stack([t["x_mm"], t["y_mm"], t["z_mm"]]),
        reachable=t["reachable"] != 0,
        within_stroke=t["within_stroke"] != 0,
        sigma_min=t["sigma_min"],
        sigma_max=t["sigma_max"],
        kappa=t["kappa"],
    )
