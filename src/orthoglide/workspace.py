"""Grid-based workspace mapping and transmission-bound verification.

The prescribed working volume is an axis-aligned cube whose diagonal carries
the two reference points used by the synthesis.  `verify_cube` is the
brute-force check that the whole cube, not just the diagonal, respects the
prescribed transmission-factor bounds: every point of a closed grid goes
through inverse kinematics and the forward-factor computation, and failures
are reported as data rather than raised.  A caller that reads only the
summary gets it from a pass over boxes of nodes (`_boxes_to_evaluate`): a
box whose Weyl bounds and slider range show that no node of it can change
the summary is not evaluated at all, and every node of any other box is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._table import write_table
from .errors import RangeOutsideWorkspace
from .kinematics import (
    SERIAL_TOL,
    _J,
    _K,
    DesignParams,
    _working_mode,
    inverse_jacobian,
    leg_radicands,
    pose_order,
    within_stroke,
)
from .linalg3 import singular_values3
from .performance import _reciprocal_factors, forward_factors, kappa_from_factors

#: relative slack applied to bound checks so binding points do not count.
BOUND_REL_TOL = 1e-9

#: evaluated grid nodes per slab of `_evaluate`: the kernels' twenty or so
#: working arrays of this many doubles stay within a 2 MB L2 cache
_SLAB_NODES = 8192

#: grid nodes per axis of the boxes the summary-only pass bounds
_BOX_NODES = 4
#: relative margin, far above the factor kernel's rounding, by which a box's
#: bounds must clear the transmission bounds and the worst factors
_BOX_MARGIN = 1e-6
#: a box is kept whole unless its Weyl bound on the smallest singular value
#: of Jinv exceeds this fraction of the largest one
_BOX_CONDITION = 1e-3


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
        with np.errstate(over="ignore"):
            d = self.q2 - self.q1
        if not np.all(np.isfinite(d)):
            raise ValueError(f"cube edges overflow: {d}")
        if d[0] < 0 or abs(d[0] - d[1]) > 1e-9 * max(1.0, abs(d[0])) or abs(
            d[0] - d[2]
        ) > 1e-9 * max(1.0, abs(d[0])):
            raise ValueError(f"corners do not span an axis-aligned cube: edges {d}")

    @property
    def side(self) -> float:
        return float(self.q2[0] - self.q1[0])


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


class DiagonalProfile(NamedTuple):
    """The diagonal profile at poses (u, u, u): u, the coupling a and kappa
    are (n,), the ascending forward factors sigma_fwd (n, 3)."""

    u: np.ndarray
    a: np.ndarray
    sigma_fwd: np.ndarray
    kappa: np.ndarray


@dataclass
class GridNodes:
    """Per-node results of a grid sweep, in x-major, then y, then z order.

    `axes` holds the grid's x, y and z coordinates, and node (i, j, k) sits
    at (axes[0][i], axes[1][j], axes[2][k]); the other fields are (N,).
    sigma_min, sigma_max and kappa are NaN where a node is unreachable, and
    within_stroke is False there.  `verify_cube(...).nodes` is the one way
    to get them.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    reachable: np.ndarray
    within_stroke: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    kappa: np.ndarray


class _Layout(NamedTuple):
    """The nodes `_evaluate` evaluates: the grid's x, y and z axes, the
    (3, n) per-axis indices of the evaluated nodes, in grid order, and
    whether the grid is `_symmetric`, so that they are wedge nodes
    i <= j <= k, each standing for its permutations."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    index: np.ndarray
    symmetric: bool


class _Summary(NamedTuple):
    n_unreachable: int
    n_stroke_violations: int
    n_bound_violations: int
    worst_sigma_min: float
    worst_sigma_min_at: tuple[float, float, float] | None
    worst_sigma_max: float
    worst_sigma_max_at: tuple[float, float, float] | None


def _summary_field(name: str) -> property:
    return property(lambda report: getattr(report._summary, name))


@dataclass(repr=False)
class GridReport:
    """Summary of a cube grid sweep; `nodes` holds the per-node arrays.

    Violations count reachable nodes only; the worst values and their
    locations (None when no node is reachable) are over reachable nodes.
    Both the summary and `nodes` are worked out on first read.  Once
    `nodes` is built the summary is reduced from its results; read first,
    it comes from a pass over boxes of nodes (`_boxes_to_evaluate`) that
    evaluates only the nodes of the boxes it cannot decide, each with the
    results it has in `nodes`, so the summary has the same values.
    """

    n_per_axis: int
    _design: DesignParams
    _bounds: Bounds
    _layout: _Layout

    n_unreachable = _summary_field("n_unreachable")
    n_stroke_violations = _summary_field("n_stroke_violations")
    n_bound_violations = _summary_field("n_bound_violations")
    worst_sigma_min = _summary_field("worst_sigma_min")
    worst_sigma_min_at = _summary_field("worst_sigma_min_at")
    worst_sigma_max = _summary_field("worst_sigma_max")
    worst_sigma_max_at = _summary_field("worst_sigma_max_at")

    @property
    def n_points(self) -> int:
        return math.prod(len(a) for a in self._layout.axes)

    @functools.cached_property
    def _results(self) -> tuple[np.ndarray, ...]:
        # every evaluated node's results: what `nodes` is built from
        return _evaluate(self._design, self._layout)

    @functools.cached_property
    def nodes(self) -> GridNodes:
        axes, _, symmetric = self._layout
        results = self._results
        if symmetric:
            slot = _wedge_slots(len(axes[0]))
            results = tuple(r[slot] for r in results)
        return GridNodes(axes, *results)

    @functools.cached_property
    def _summary(self) -> _Summary:
        if "_results" in vars(self):
            return _summarize(self._layout, self._results, self._bounds)
        layout = _boxes_to_evaluate(self._design, self._bounds, self._layout)
        return _summarize(layout, _evaluate(self._design, layout), self._bounds)

    @property
    def ok(self) -> bool:
        return not (self.n_unreachable or self.n_stroke_violations or self.n_bound_violations)

    def __repr__(self) -> str:
        fields = (f"{k}={v!r}" for k, v in zip(_Summary._fields, self._summary))
        return f"GridReport(n_per_axis={self.n_per_axis!r}, {', '.join(fields)})"


def diagonal_coupling(u, leg_length: float):
    """Coupling ratio a = u / sqrt(L^2 - 2 u^2) on the diagonal x = y = z = u."""
    u = np.asarray(u, dtype=float)
    rad = leg_length**2 - 2.0 * u * u
    return u / np.sqrt(rad)


def _parallel_singular(a_lo: float, a_hi: float) -> bool:
    """Whether the coupling interval [a_lo, a_hi] reaches a parallel singularity:
    on the diagonal det Jinv = (1+2a)(1-a)^2, so 1 + 2 a_lo or 1 - a_hi is at
    or below SERIAL_TOL."""
    return 1.0 + 2.0 * a_lo <= SERIAL_TOL or 1.0 - a_hi <= SERIAL_TOL


def diagonal_factors(a) -> np.ndarray:
    """Ascending forward factors at coupling a: reciprocals of {|1+2a|, |1-a|, |1-a|}."""
    a = np.asarray(a, dtype=float)
    s_inv = np.stack(
        [np.abs(1.0 + 2.0 * a), np.abs(1.0 - a), np.abs(1.0 - a)], axis=-1
    )
    return np.sort(_reciprocal_factors(s_inv), axis=-1)


def diagonal_profile(d: DesignParams, u_min: float, u_max: float, n: int) -> DiagonalProfile:
    """Closed-form factor profile along the cube diagonal.

    Samples n poses (u, u, u) for u in [u_min, u_max].  The spectrum of the
    inverse Jacobian there is {1+2a, 1-a, 1-a} with a = u/sqrt(L^2 - 2u^2),
    so no decomposition is needed; this is the independent reference the
    generic grid path is checked against.  The range must not reach a
    parallel singularity (`_parallel_singular`); since a grows with u only
    the endpoints need checking.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise ValueError(f"diagonal range must be finite, got [{u_min}, {u_max}]")
    if u_min > u_max:
        raise ValueError("u_min must not exceed u_max")
    L = d.leg_length
    lim = L / math.sqrt(2.0)
    if max(abs(u_min), abs(u_max)) >= lim:
        raise RangeOutsideWorkspace(
            f"diagonal range [{u_min}, {u_max}] leaves |u| < L/sqrt(2) = {lim:.6g}"
        )
    a_lo, a_hi = diagonal_coupling([u_min, u_max], L)
    if _parallel_singular(a_lo, a_hi):
        raise RangeOutsideWorkspace(
            f"diagonal range [{u_min}, {u_max}] reaches a parallel singularity "
            f"(a = -1/2 at u = {-L / math.sqrt(6.0):.6g}, a = 1 at u = {L / math.sqrt(3.0):.6g})"
        )
    us = np.linspace(u_min, u_max, n)
    a = diagonal_coupling(us, L)
    fwd = diagonal_factors(a)
    return DiagonalProfile(us, a, fwd, kappa_from_factors(fwd))


def _grid_axes(cube: CubeSpec, n_per_axis: int) -> tuple[np.ndarray, ...]:
    # closed grid: faces and corners are sampled exactly; a zero-side cube
    # collapses to a single node per axis
    return tuple(
        np.unique(np.linspace(cube.q1[k], cube.q2[k], n_per_axis)) for k in range(3)
    )


def _symmetric(axes: tuple[np.ndarray, ...], d: DesignParams) -> bool:
    """Whether the grid is symmetric in x, y and z: its three axes are equal
    element for element and the strokes are equal on the three axes."""
    return (
        all(np.array_equal(axes[0], other) for other in axes[1:])
        and len(set(d.stroke_min)) == 1
        and len(set(d.stroke_max)) == 1
    )


def _in_wedge(m: int) -> np.ndarray:
    """Whether each node of an m^3 grid, in grid order, has indices i <= j <= k."""
    r = np.arange(m)
    return ((r[:, None, None] <= r[:, None]) & (r[:, None] <= r)).ravel()


def _wedge_slots(m: int) -> np.ndarray:
    """For every node of a symmetric m^3 grid, the position of its sorted
    index triple among the wedge nodes (`_in_wedge`) in grid order."""
    r = np.arange(m)
    i, j, k = r[:, None, None], r[:, None], r
    lo = np.minimum(np.minimum(i, j), k)
    hi = np.maximum(np.maximum(i, j), k)
    sorted_flat = ((lo * m + (i + j + k - lo - hi)) * m + hi).ravel()
    return (np.cumsum(_in_wedge(m)) - 1)[sorted_flat]


def _lattice(shape: tuple[int, int, int], wedge: bool = False) -> np.ndarray:
    """(3, n) per-axis indices of the nodes of a grid of `shape`, in grid
    order and in the smallest unsigned type that holds them (1 byte per axis
    up to 256 nodes): every node, or with `wedge`, on an m^3 grid, the
    nodes i <= j <= k (`_in_wedge`)."""
    index = np.indices(shape, dtype=np.min_scalar_type(max(shape) - 1)).reshape(3, -1)
    return index.compress(_in_wedge(shape[0]), axis=1) if wedge else index


def _orbit_sizes(index: np.ndarray) -> np.ndarray:
    """How many nodes of a symmetric grid each sorted index triple of the
    (3, n) `index` stands for: a triple with c distinct indices has
    c (c + 1) / 2 permutations, 1, 3 or 6."""
    i, j, k = index
    c = 1 + np.add(i < j, j < k, dtype=np.intp)
    return c * (c + 1) // 2


def _layout(d: DesignParams, cube: CubeSpec, n_per_axis: int) -> _Layout:
    """The closed grid over the cube and the nodes `_evaluate` evaluates on
    it: every node, unless the grid is `_symmetric`; then the wedge
    i <= j <= k, and every other node has the results of its sorted index
    triple.

    Raises ValueError, before building anything, when n_per_axis^3 exceeds
    numpy's index range, and MemoryError when the node indices cannot be
    allocated.
    """
    if n_per_axis < 2:
        raise ValueError("need at least 2 nodes per axis")
    if int(n_per_axis) ** 3 > np.iinfo(np.intp).max:
        raise ValueError(
            f"{n_per_axis}^3 nodes exceed numpy's index range ({np.iinfo(np.intp).max})"
        )
    axes = _grid_axes(cube, n_per_axis)
    symmetric = _symmetric(axes, d)
    return _Layout(axes, _lattice(tuple(len(a) for a in axes), symmetric), symmetric)


def _evaluate(d: DesignParams, layout: _Layout):
    """Evaluate IK + forward factors on the nodes of `layout`: those of
    `_layout` fix the results of every node of the grid, those
    `_boxes_to_evaluate` keeps the summary's.

    Returns their (n,) reachable, within_stroke, sigma_min, sigma_max and
    kappa arrays, in the order of `layout.index`; the factors are NaN
    exactly where a node is unreachable.

    Every per-node stage runs in slabs of _SLAB_NODES evaluated nodes: the
    coordinates, gathered from the axes by node index, the IK solve, the
    reach and stroke flags, then the inverse Jacobians and forward factors
    of the slab's reachable nodes, written into its slice of the results, so
    no working array of floats grows with the grid.  The flags are the pose's
    own (strokes may differ per axis), the Jacobian and factors the sorted
    pose's (`pose_order`).  Every per-node array of a slab is stored
    axis-first: the coordinates are the (n, 3) view `.T` of (3, n) rows,
    which the elementwise IK, flag and reduction stages keep, and the
    Jacobians and factors are views of rows too (see `inverse_jacobian`),
    so each coordinate, joint, flag and matrix entry is one contiguous row
    and no stage reads a strided column.  No matrix's factors depend on its
    batch (see `linalg3`), so the slabs give the bits of one whole batch.
    Matches the scalar operations bit for bit because both share the same
    radicand, working-mode solve, Jacobian and factor kernels: a node is
    reachable exactly when `inverse_kinematics` would not raise there.
    Order is x-major, then y, then z, and is deterministic.

    Permuting a pose's coordinates permutes its radicands and joints
    exactly, and its factors are those of its sorted pose, so when the three
    grid axes are equal element for element and the strokes are equal on
    the three axes (every synthesized cube) only the nodes i <= j <= k,
    about a sixth, are evaluated, and every other node takes the results of
    its sorted index triple (`GridReport.nodes`): the same bits as
    evaluating it; a wedge node is sorted already.  Any other grid is
    evaluated node by node.
    """
    axes, index, symmetric = layout
    n = index.shape[1]
    L = d.leg_length
    reachable = np.empty(n, dtype=bool)
    stroke_ok = np.empty(n, dtype=bool)
    sig_min = np.full(n, np.nan)
    sig_max = np.full(n, np.nan)
    kappa = np.full(n, np.nan)
    for start in range(0, n, _SLAB_NODES):
        slab = slice(start, start + _SLAB_NODES)
        p = np.stack([a[i] for a, i in zip(axes, index[:, slab])]).T
        rho, _, fail = _working_mode(p, leg_radicands(p, L), L)
        ok = ~fail.any(axis=1)
        reachable[slab] = ok
        within = within_stroke(rho, d)
        stroke_ok[slab] = ok & within[:, 0] & within[:, 1] & within[:, 2]
        # a slab with every node reachable needs no gather or scatter
        sel = slice(None) if ok.all() else ok
        p, rho = p[sel], rho[sel]
        if not symmetric:  # a wedge node has x <= y <= z already
            order = pose_order(p)
            p, rho = (np.take_along_axis(v.T, order, axis=0).T for v in (p, rho))
        fwd = forward_factors(inverse_jacobian(p, rho))
        sig_min[slab][sel] = fwd[:, 0]
        sig_max[slab][sel] = fwd[:, 2]
        kappa[slab][sel] = kappa_from_factors(fwd)
    return reachable, stroke_ok, sig_min, sig_max, kappa


# the six off-diagonal entries (i, j) of Jinv, and the third axis k of each
_ROW = np.array([0, 0, 1, 1, 2, 2])
_COL = np.array([1, 2, 0, 2, 0, 1])
_THIRD = 3 - _ROW - _COL


class _BoxBounds(NamedTuple):
    """Bounds on the forward factors over boxes of poses, each (n,): where
    `valid`, every pose in box b has sigma_min in [sigma_min_lo[b],
    sigma_min_hi[b]] and sigma_max in [sigma_max_lo[b], sigma_max_hi[b]]."""

    valid: np.ndarray
    sigma_min_lo: np.ndarray
    sigma_min_hi: np.ndarray
    sigma_max_lo: np.ndarray
    sigma_max_hi: np.ndarray


def _square_range(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest computed p^2 on each axis of boxes
    spanning [lo, hi]: at the end nearer zero, or 0 where the box straddles
    it, and at the end farther from it.  Squaring is monotone in |p|."""
    return np.square(np.maximum(np.maximum(lo, -hi), 0.0)), np.square(np.maximum(-lo, hi))


def _slider_range(lo: np.ndarray, hi: np.ndarray, leg_length: float):
    """(rho_lo, rho_hi), each (3, n): every rho_i the IK computes at a pose
    of box b, spanning [lo[k][b], hi[k][b]] on axis k, lies in
    [rho_lo[i][b], rho_hi[i][b]].

    rho_i = p_i - sqrt(max(L^2 - (p_j^2 + p_k^2), 0)) grows with p_i and
    shrinks as p_j^2 and p_k^2 grow, so rho_lo takes lo_i with the least
    squares (`_square_range`) and rho_hi takes hi_i with the greatest.
    Each end is worked out with the float steps of `leg_radicands` and
    `_working_mode`, and rounding keeps every step monotone, so the range
    holds the computed rho at every pose of the box, not only the exact one.
    """
    with np.errstate(over="ignore"):
        near, far = _square_range(lo, hi)
        return tuple(
            _working_mode(p, leg_length**2 - (sq[_J] + sq[_K]), leg_length)[0]
            for p, sq in ((lo, near), (hi, far))
        )


def _entry_bounds(lo: np.ndarray, hi: np.ndarray, leg_length: float):
    """Intervals of the off-diagonal Jinv entries over n boxes of poses, the
    box b spanning [lo[k][b], hi[k][b]] on axis k.

    Returns `entry_lo, entry_hi, eta_min`: every entry (_ROW[e], _COL[e])
    of Jinv at a pose of box b lies in [entry_lo[e][b], entry_hi[e][b]],
    and every eta_i there is at least eta_min[b].  An entry is p_j / eta_i,
    with eta_i = sqrt(L^2 - p_j^2 - p_k^2); it increases with p_j, and its
    magnitude with p_k^2, so it is least at p_j = lo_j and greatest at
    p_j = hi_j, each with the least or the greatest p_k^2 on the box (0
    where the box straddles zero), as the sign of p_j asks.  Each float
    step is rounded outward with `np.nextafter`, and each is a step that
    `leg_radicands`, `_working_mode` and `inverse_jacobian` take, so the
    intervals hold both the exact entries and the computed ones at every
    pose of the box: rounding is monotone.
    """
    up, down = np.inf, -np.inf
    with np.errstate(all="ignore"):
        sq_min, sq_max = _square_range(lo, hi)
        sq_min, sq_max = np.nextafter(sq_min, down), np.nextafter(sq_max, up)
        # row 0 bounds each entry from above, at p_j = hi_j, row 1 from
        # below, at p_j = lo_j; `least` marks where that takes the least eta
        p = np.stack([hi[_COL], lo[_COL]])
        least = (p >= 0.0) == np.array([[[True]], [[False]]])
        toward = np.where(least, up, down)
        sq_k = np.where(least, sq_max[_THIRD], sq_min[_THIRD])
        cross = np.nextafter(np.nextafter(np.square(p), toward) + sq_k, toward)
        rad = np.nextafter(np.nextafter(leg_length**2, -toward) - cross, -toward)
        eta = np.nextafter(np.sqrt(np.maximum(rad, 0.0)), -toward)
        entry_hi, entry_lo = np.nextafter(p / eta, np.array([[[up]], [[down]]]))
    # the greatest |p_j| of each axis is an end taking the least eta, so
    # the least eta of all is eta_i at the greatest p_j^2 and p_k^2
    return entry_lo, entry_hi, eta.min(axis=(0, 1))


def _box_bounds(lo: np.ndarray, hi: np.ndarray, leg_length: float) -> _BoxBounds:
    """Weyl bounds on the forward factors over n boxes of poses, the box b
    spanning [lo[k][b], hi[k][b]] on axis k.

    With C the midpoint matrix of the `_entry_bounds` (and a unit
    diagonal) and r an upper bound on the Frobenius norm of the entrywise
    radius, Weyl's inequality puts every singular value s_k of Jinv in the
    box within r of s_k(C), and the forward factors, 1 / s_k, follow; each
    float step is rounded outward.  A box is `valid` when every eta_i in it
    exceeds 2 SERIAL_TOL L, so every node of it is reachable, and s_1(C) - r
    exceeds _BOX_CONDITION s_3(C), so the kernel resolves every matrix of
    the box to well under _BOX_MARGIN; s_k(C) comes from that kernel too.
    """
    up, down = np.inf, -np.inf
    entry_lo, entry_hi, eta_min = _entry_bounds(lo, hi, leg_length)
    with np.errstate(all="ignore"):
        mid = (entry_hi + entry_lo) / 2.0
        radius = np.maximum(np.nextafter(entry_hi - mid, up), np.nextafter(mid - entry_lo, up))
        r2 = 0.0
        for x in radius:
            r2 = np.nextafter(r2 + np.nextafter(np.square(x), up), up)
        r = np.nextafter(np.sqrt(r2), up)
        c = np.zeros((len(r), 3, 3))
        c[:, [0, 1, 2], [0, 1, 2]] = 1.0
        c[:, _ROW, _COL] = mid.T
        s = singular_values3(c)
        # s_1 and s_3 of every matrix in the box lie in [lo1, hi1] and [lo3, hi3]
        lo1, hi1 = np.nextafter(s[:, 0] - r, down), np.nextafter(s[:, 0] + r, up)
        lo3, hi3 = np.nextafter(s[:, 2] - r, down), np.nextafter(s[:, 2] + r, up)
        valid = (eta_min > 2.0 * SERIAL_TOL * leg_length) & (lo1 > _BOX_CONDITION * s[:, 2])
        return _BoxBounds(
            valid,
            np.nextafter(1.0 / hi3, down),
            np.nextafter(1.0 / lo3, up),
            np.nextafter(1.0 / hi1, down),
            np.nextafter(1.0 / lo1, up),
        )


def _boxes_to_evaluate(d: DesignParams, b: Bounds, layout: _Layout) -> _Layout:
    """`layout` keeping only the nodes the summary must evaluate, in grid
    order: those of the boxes of _BOX_NODES^3 grid nodes that bounds over
    the box cannot decide, box (I, J, K) holding the nodes i // _BOX_NODES
    = I, and so on.

    A box is decided when its `_box_bounds` are valid and, widened by the
    relative margin _BOX_MARGIN, lie strictly inside the bounds' edges
    [s_lo (1 - BOUND_REL_TOL), s_hi (1 + BOUND_REL_TOL)], strictly below
    the largest lower bound on sigma_max of a valid box, and strictly above
    the smallest upper bound on sigma_min of one, and its `_slider_range`
    lies within the strokes on every axis.  The box giving either worst
    bound is not decided, so its reachable nodes are evaluated, and no node
    of a decided box can break a bound, nor be or tie a worst factor; every
    node of it is reachable (valid bounds ask every eta_i to exceed
    2 SERIAL_TOL L) and within the strokes, so it adds to no count.  On a
    symmetric grid only the boxes that meet the wedge i <= j <= k,
    I <= J <= K, are bounded.
    """
    axes, index, symmetric = layout
    first = [np.arange(0, len(a), _BOX_NODES) for a in axes]
    shape = tuple(len(f) for f in first)
    box = _lattice(shape, symmetric)
    lo = np.stack([a[f][i] for a, f, i in zip(axes, first, box)])
    hi = np.stack(
        [a[np.minimum(f + _BOX_NODES, len(a)) - 1][i] for a, f, i in zip(axes, first, box)]
    )
    bounds = _box_bounds(lo, hi, d.leg_length)
    valid = bounds.valid
    # with no valid box these are -inf and inf, and no box is decided
    worst_max = np.max(bounds.sigma_max_lo, where=valid, initial=-np.inf) * (1.0 - _BOX_MARGIN)
    worst_min = np.min(bounds.sigma_min_hi, where=valid, initial=np.inf) * (1.0 + _BOX_MARGIN)
    low = bounds.sigma_min_lo * (1.0 - _BOX_MARGIN)
    high = bounds.sigma_max_hi * (1.0 + _BOX_MARGIN)
    # the comparisons of `within_stroke`, at the ends of each slider range
    rho_lo, rho_hi = _slider_range(lo, hi, d.leg_length)
    in_stroke = (rho_lo.T >= d.stroke_min) & (rho_hi.T <= d.stroke_max)
    decided = np.zeros(shape, dtype=bool)
    decided[tuple(box)] = (
        valid
        & (low > b.s_lo * (1.0 - BOUND_REL_TOL))
        & (high < b.s_hi * (1.0 + BOUND_REL_TOL))
        & (high < worst_max)
        & (low > worst_min)
        & in_stroke.all(axis=1)
    )
    # each node's box, flat; the nodes of undecided boxes keep grid order
    node_box = np.ravel_multi_index(index // _BOX_NODES, shape)
    return layout._replace(index=index.compress(~decided.take(node_box), axis=1))


def _summarize(layout: _Layout, results: tuple[np.ndarray, ...], b: Bounds) -> _Summary:
    """The counts and worst cases over the evaluated nodes' results, each
    worst case at its first node in grid order.  On a symmetric grid each
    wedge node counts once per node it stands for, and a worst wedge node
    is also the first of its permutations in grid order, since its sorted
    triple comes first and the wedge is in grid order.  The nodes left out
    by `_boxes_to_evaluate` add to no count and neither are nor tie a worst
    case, and those it keeps have the results the whole grid's evaluation
    gives them, so the first among the nodes kept is the first of the
    grid."""
    axes, index, symmetric = layout
    reach, within, sig_min, sig_max, _ = results
    weight = _orbit_sizes(index) if symmetric else None

    def count(mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask) if weight is None else weight @ mask)

    out_of_bounds = (sig_min < b.s_lo * (1.0 - BOUND_REL_TOL)) | (
        sig_max > b.s_hi * (1.0 + BOUND_REL_TOL)
    )
    worst_min, worst_min_at = math.nan, None
    worst_max, worst_max_at = math.nan, None
    # NaN marks the unreachable nodes: no bound comparison or nan-reduction
    # counts them
    if reach.any():
        i = np.nanargmin(sig_min)
        j = np.nanargmax(sig_max)

        def at(k: int) -> tuple[float, float, float]:
            return tuple(float(a[m]) for a, m in zip(axes, index[:, k]))

        worst_min, worst_min_at = float(sig_min[i]), at(i)
        worst_max, worst_max_at = float(sig_max[j]), at(j)
    return _Summary(
        count(~reach),
        count(reach & ~within),
        count(out_of_bounds),
        worst_min,
        worst_min_at,
        worst_max,
        worst_max_at,
    )


def verify_cube(d: DesignParams, cube: CubeSpec, b: Bounds, n_per_axis: int = 21) -> GridReport:
    """Check the prescribed cube against the transmission bounds on a grid.

    Failures (unreachable nodes, stroke-limit violations, factors outside
    [s_lo, s_hi] beyond BOUND_REL_TOL) are counted in the report, never raised.
    Each worst case is located at its first node in grid order.
    Deterministic for fixed inputs.

    The grid is laid out here (`_layout`), so a grid too large to index or
    to allocate raises now; the report evaluates it on first read.
    """
    return GridReport(n_per_axis, d, b, _layout(d, cube, n_per_axis))


GRID_CSV_HEADER = "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"


def write_grid_csv(nodes: GridNodes, out) -> None:
    """Write grid nodes with 12-significant-digit, byte-stable formatting.

    x, y and z go out as coded columns (axis, node index), so each axis
    value is formatted once.
    """
    write_table(
        out,
        GRID_CSV_HEADER,
        [
            *zip(nodes.axes, _lattice(tuple(len(a) for a in nodes.axes))),
            nodes.reachable,
            nodes.within_stroke,
            nodes.sigma_min,
            nodes.sigma_max,
            nodes.kappa,
        ],
    )
