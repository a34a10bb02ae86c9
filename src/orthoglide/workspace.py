"""Grid-based workspace mapping and transmission-bound verification.

The prescribed working volume is an axis-aligned cube whose diagonal carries
the two reference points used by the synthesis.  `verify_cube` is the
brute-force check that the whole cube, not just the diagonal, respects the
prescribed transmission-factor bounds: every point of a closed grid goes
through inverse kinematics and the forward-factor computation, and failures
are reported as data rather than raised.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import RangeOutsideWorkspace
from .kinematics import SERIAL_TOL, DesignParams, batch_inverse_jacobian, leg_radicands
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
class GridPoint:
    """Evaluation record of one grid node (sigma/kappa are NaN if unreachable)."""

    x: float
    y: float
    z: float
    reachable: bool
    within_stroke: bool
    sigma_min: float
    sigma_max: float
    kappa: float


@dataclass
class GridReport:
    """Summary of a cube grid sweep; `points` holds the per-node records."""

    n_per_axis: int
    bounds: Bounds
    points: list[GridPoint]
    unreachable: list[GridPoint] = field(default_factory=list)
    stroke_violations: list[GridPoint] = field(default_factory=list)
    bound_violations: list[GridPoint] = field(default_factory=list)
    worst_sigma_min: float = math.nan
    worst_sigma_min_at: tuple[float, float, float] | None = None
    worst_sigma_max: float = math.nan
    worst_sigma_max_at: tuple[float, float, float] | None = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_unreachable(self) -> int:
        return len(self.unreachable)

    @property
    def n_stroke_violations(self) -> int:
        return len(self.stroke_violations)

    @property
    def n_bound_violations(self) -> int:
        return len(self.bound_violations)

    @property
    def ok(self) -> bool:
        return not (self.unreachable or self.stroke_violations or self.bound_violations)


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
    generic grid path is checked against.
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
    us = np.linspace(u_min, u_max, n)
    a = diagonal_coupling(us, L)
    fwd = diagonal_factors(a)
    out = []
    for k in range(n):
        s = fwd[k]
        kappa = float(s[0] / s[2]) if math.isfinite(s[2]) and s[2] > 0 else 0.0
        out.append(
            DiagonalSample(
                u=float(us[k]),
                a=float(a[k]),
                sigma_fwd=(float(s[0]), float(s[1]), float(s[2])),
                kappa=kappa,
            )
        )
    return out


def _grid_axes(cube: CubeSpec, n_per_axis: int) -> list[np.ndarray]:
    # closed grid: faces and corners are sampled exactly; a zero-side cube
    # collapses to a single node per axis
    return [
        np.unique(np.linspace(cube.q1[k], cube.q2[k], n_per_axis)) for k in range(3)
    ]


def evaluate_grid(
    d: DesignParams, cube: CubeSpec, n_per_axis: int, *, serial_tol: float = SERIAL_TOL
) -> list[GridPoint]:
    """Evaluate IK + forward factors on a closed grid over the cube.

    Vectorized over all nodes; matches the scalar operations bit for bit
    because both share the same radicand, Jacobian and factor kernels.
    Order is x-major, then y, then z, and is deterministic.
    """
    if n_per_axis < 2:
        raise ValueError("need at least 2 nodes per axis")
    ax, ay, az = _grid_axes(cube, n_per_axis)
    gx, gy, gz = np.meshgrid(ax, ay, az, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    L = d.leg_length
    rad = leg_radicands(pts, L)
    reachable = np.all(rad > (serial_tol * L) ** 2, axis=1)

    n = len(pts)
    sig_min = np.full(n, np.nan)
    sig_max = np.full(n, np.nan)
    kappa = np.full(n, np.nan)
    stroke_ok = np.zeros(n, dtype=bool)

    if np.any(reachable):
        p_r = pts[reachable]
        eta = np.sqrt(rad[reachable])
        rho = p_r - eta
        lo = np.asarray(d.stroke_min)
        hi = np.asarray(d.stroke_max)
        stroke_ok[reachable] = np.all((rho >= lo) & (rho <= hi), axis=1)

        fwd = forward_factors(batch_inverse_jacobian(p_r, rho))
        sig_min[reachable] = fwd[:, 0]
        sig_max[reachable] = fwd[:, 2]
        kappa[reachable] = kappa_from_factors(fwd)

    return [
        GridPoint(
            x=float(pts[i, 0]),
            y=float(pts[i, 1]),
            z=float(pts[i, 2]),
            reachable=bool(reachable[i]),
            within_stroke=bool(stroke_ok[i]),
            sigma_min=float(sig_min[i]),
            sigma_max=float(sig_max[i]),
            kappa=float(kappa[i]),
        )
        for i in range(n)
    ]


def verify_cube(
    d: DesignParams,
    cube: CubeSpec,
    b: Bounds,
    n_per_axis: int = 21,
    *,
    rel_tol: float = BOUND_REL_TOL,
) -> GridReport:
    """Check the prescribed cube against the transmission bounds on a grid.

    Failures (unreachable nodes, stroke-limit violations, factors outside
    [s_lo, s_hi] beyond rel_tol) are collected in the report, never raised.
    Deterministic for fixed inputs.
    """
    points = evaluate_grid(d, cube, n_per_axis)
    report = GridReport(n_per_axis=n_per_axis, bounds=b, points=points)

    lo_edge = b.s_lo * (1.0 - rel_tol)
    hi_edge = b.s_hi * (1.0 + rel_tol)
    for pt in points:
        if not pt.reachable:
            report.unreachable.append(pt)
            continue
        if not pt.within_stroke:
            report.stroke_violations.append(pt)
        if pt.sigma_min < lo_edge or pt.sigma_max > hi_edge:
            report.bound_violations.append(pt)
        if not (pt.sigma_min >= report.worst_sigma_min):  # also catches nan init
            report.worst_sigma_min = pt.sigma_min
            report.worst_sigma_min_at = (pt.x, pt.y, pt.z)
        if not (pt.sigma_max <= report.worst_sigma_max):
            report.worst_sigma_max = pt.sigma_max
            report.worst_sigma_max_at = (pt.x, pt.y, pt.z)
    return report


def workspace_map(
    d: DesignParams,
    region: CubeSpec,
    b: Bounds,
    n_per_axis: int = 21,
    *,
    out=None,
) -> GridReport:
    """Gridded workspace map over `region`; optionally export records as CSV.

    Same evaluation as verify_cube; the per-node records sit in
    `report.points` and are written to `out` (path or file object) when
    given.
    """
    report = verify_cube(d, region, b, n_per_axis)
    if out is not None:
        write_grid_csv(report.points, out)
    return report


GRID_CSV_HEADER = "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_grid_csv(points: list[GridPoint], out) -> None:
    """Write grid records with 12-significant-digit, byte-stable formatting."""
    own = isinstance(out, (str, bytes)) or hasattr(out, "__fspath__")
    f = open(out, "w", newline="") if own else out
    try:
        f.write(GRID_CSV_HEADER + "\n")
        for p in points:
            f.write(
                ",".join(
                    [
                        _fmt(p.x),
                        _fmt(p.y),
                        _fmt(p.z),
                        str(int(p.reachable)),
                        str(int(p.within_stroke)),
                        _fmt(p.sigma_min),
                        _fmt(p.sigma_max),
                        _fmt(p.kappa),
                    ]
                )
                + "\n"
            )
    finally:
        if own:
            f.close()


def read_grid_csv(path) -> list[GridPoint]:
    """Read back records produced by write_grid_csv."""
    out = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            out.append(
                GridPoint(
                    x=float(row["x_mm"]),
                    y=float(row["y_mm"]),
                    z=float(row["z_mm"]),
                    reachable=bool(int(row["reachable"])),
                    within_stroke=bool(int(row["within_stroke"])),
                    sigma_min=float(row["sigma_min"]),
                    sigma_max=float(row["sigma_max"]),
                    kappa=float(row["kappa"]),
                )
            )
    return out
