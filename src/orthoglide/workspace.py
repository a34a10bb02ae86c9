"""Grid-based workspace mapping and transmission-bound verification.

The prescribed working volume is an axis-aligned cube whose diagonal carries
the two reference points used by the synthesis.  `verify_cube` checks that
the whole cube, not just the diagonal, respects the prescribed
transmission-factor bounds on a closed grid, whose nodes go through inverse
kinematics and the forward-factor computation; failures are reported as
data rather than raised.  `map_cube` also returns every node's results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    within_stroke is False there.  `map_cube(...).nodes` is the one way to
    get them.
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


@dataclass
class GridReport:
    """Summary of a cube grid sweep; `nodes` holds every node's results
    from `map_cube`, and is None from `verify_cube`.

    Violations count reachable nodes only; the worst values and their
    locations (None when no node is reachable) are over reachable nodes.
    """

    n_per_axis: int
    n_points: int
    n_unreachable: int
    n_stroke_violations: int
    n_bound_violations: int
    worst_sigma_min: float
    worst_sigma_min_at: tuple[float, float, float] | None
    worst_sigma_max: float
    worst_sigma_max_at: tuple[float, float, float] | None
    nodes: GridNodes | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not (self.n_unreachable or self.n_stroke_violations or self.n_bound_violations)


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


def _grid(d: DesignParams, cube: CubeSpec, n_per_axis: int):
    """The closed grid's axes over the cube, and whether it is `_symmetric`.

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
    return axes, _symmetric(axes, d)


def _layout(d: DesignParams, cube: CubeSpec, n_per_axis: int) -> _Layout:
    """The `_grid` and the nodes `_evaluate` evaluates on it to fix every
    node's results: every node, unless the grid is `_symmetric`; then the
    wedge i <= j <= k, and every other node has the results of its sorted
    index triple.  Raises MemoryError when the node indices cannot be
    allocated.
    """
    axes, symmetric = _grid(d, cube, n_per_axis)
    return _Layout(axes, _lattice(tuple(len(a) for a in axes), symmetric), symmetric)


def _evaluate(d: DesignParams, layout: _Layout):
    """Evaluate IK + forward factors on the nodes of `layout`: those of
    `_layout` fix the results of every node of the grid, those
    `_summary_nodes` keeps the summary's.

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
    its sorted index triple (`map_cube`): the same bits as evaluating it; a
    wedge node is sorted already.  Any other grid is evaluated node by node.
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

    Returns `entry_lo, entry_hi, eta_min`.  At every pose of box b, the
    exact entry (_ROW[e], _COL[e]) of Jinv lies in
    [entry_lo[e][b], entry_hi[e][b]], and so does the entry
    `inverse_jacobian` computes there from the IK's rho, wherever the pose
    is reachable; every eta_i there, exact or computed, is at least
    eta_min[b].  An entry is p_j / eta_i, with
    eta_i = sqrt(L^2 - p_j^2 - p_k^2); it increases with p_j, and its
    magnitude with p_k^2, so it is least at p_j = lo_j and greatest at
    p_j = hi_j, each with the least or the greatest p_k^2 on the box (0
    where the box straddles zero), as the sign of p_j asks.

    At those ends the float steps of `leg_radicands` and `_working_mode`
    run once: cross = fl(p_j^2) + fl(p_k^2), rad = fl(L^2) - cross and
    eta = sqrt(max(rad, 0)), then the quotient p_j / eta.  Rounding is
    monotone, so rad bounds the radicand the IK computes at every pose of
    the box, as the exact radicand at the ends bounds the exact ones.  Two
    widenings, each once per interval, make the ends hold the exact and the
    computed entries.  With u = 2^-53, fl(x o y) = (x o y)(1 + d),
    |d| <= u, plus an absolute error of at most 2^-1075 where a product or
    a quotient underflows; sums and differences never do.

    * rad moves by 2^-49 (L^2 + cross) = 16u (L^2 + cross), absolutely:
      cancellation near the reach boundary defeats any relative bound.
      Against the exact radicand, the subtraction is off by u |rad|, L**2
      by an ulp, 2u L^2, the addition by u cross, the squares by u cross
      and 2^-1074, which is at most 2u L^2 as L^2 is normal
      (`DesignParams`): under 5.01u (L^2 + cross) in all.  The widening's
      own rounding takes at most 1.1u more, so the widened rad lies at
      least 8.9u L^2 beyond every exact radicand of the box, and 13.9u L^2
      beyond every computed one.  Every radicand is below 1.01 L^2, so
      their square roots lie more than 8.9u L^2 / (2.02 L) > 4.4u L apart
      (6.8u L for the computed ones).  For the exact entries that covers
      the rounding of the square root and of the quotient, u eta <= 1.01u L
      each.  For the computed ones it covers the square root's, and that
      of the eta `inverse_jacobian` divides by: fl(p_i - rho_i), with
      rho_i = fl(p_i - eta), is within u (2 + u) eta + u (1 + u) |p_i|
      < 3.05u L of eta, as |p_i| <= (1 + 2u) L wherever every leg is
      reachable (leg j's radicand then has fl(p_i^2) below L**2); their
      quotient needs nothing, being monotone in both operands.
    * the quotient moves by 2^-1074: where it underflows, its rounding is
      an absolute 2^-1075, which no relative slack covers.

    Only a box reaching the boundary has an end at eta = 0: eta_min is 0
    there, and the interval infinite, or NaN (no claim) where p_j = 0.
    """
    L2 = leg_length**2
    with np.errstate(all="ignore"):
        sq_min, sq_max = _square_range(lo, hi)
        # row 0 bounds each entry from above, at p_j = hi_j, row 1 from
        # below, at p_j = lo_j; `least` marks where that takes the least eta
        p = np.stack([hi[_COL], lo[_COL]])
        least = (p >= 0.0) == np.array([[[True]], [[False]]])
        cross = np.square(p) + np.where(least, sq_max[_THIRD], sq_min[_THIRD])
        # toward the least eta where `least`, else away from it
        step = np.where(least, -(2.0**-49), 2.0**-49)
        eta = np.sqrt(np.maximum((L2 - cross) + step * (L2 + cross), 0.0))
        entry_hi, entry_lo = p / eta + np.array([[[2.0**-1074]], [[-(2.0**-1074)]]])
    # the greatest |p_j| of each axis is an end taking the least eta, so
    # the least eta of all is eta_i at the greatest p_j^2 and p_k^2
    return entry_lo, entry_hi, eta.min(axis=(0, 1))


def _gram_coefficients(mid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tr, e2, det) of G = C^T C, each (2, n): row 0 their computed values
    and row 1 their magnitudes, for the matrices C with a unit diagonal and
    the six off-diagonal entries mid (6, n) at (_ROW, _COL).

    By Cauchy-Binet they are sums of squares of C itself: tr = ||C||_F^2,
    e2 the sum of the squared 2x2 minors (the cofactors) of C, and
    det = (det C)^2, so no rounded G enters.  The magnitudes are the same
    float steps on |C| with each subtraction an addition: see
    `_eigenvalues_beyond`.
    """
    m = np.zeros((2, 3, 3, mid.shape[1]))
    m[:, [0, 1, 2], [0, 1, 2]] = 1.0
    m[0, _ROW, _COL] = mid
    m[1, _ROW, _COL] = np.abs(mid)
    # cofactor (i, j) is m[i+1][j+1] m[i+2][j+2] - m[i+1][j+2] m[i+2][j+1],
    # indices mod 3; its magnitude adds the two products
    one, two = np.array([1, 2, 0]), np.array([2, 0, 1])
    i, j = one[:, None], two[:, None]
    sign = np.array([-1.0, 1.0])[:, None, None, None]
    cof = m[:, i, one] * m[:, j, two] + sign * (m[:, i, two] * m[:, j, one])
    tr = np.square(m).sum(axis=(1, 2))
    e2 = np.square(cof).sum(axis=(1, 2))
    det = np.square((m[:, 0] * cof[:, 0]).sum(axis=1))
    return tr, e2, det


def _eigenvalues_beyond(coefficients, tau_lo, tau_hi) -> tuple[np.ndarray, np.ndarray]:
    """(above, below), each (n,): where every eigenvalue of C^T C certainly
    lies above tau_lo[b], and where every one certainly lies below
    tau_hi[b], for the `_gram_coefficients` of C.  A False is no claim.

    The characteristic polynomial of G - tau I is (1, -tr', e2', -det'),
    with tr' = tr + 3s, e2' = e2 + s (2 tr + 3s) and
    det' = det + s (e2 + s (tr + s)) at s = -tau.  G is symmetric, so its
    roots are real, and Descartes' rule counts them exactly: every
    eigenvalue lies above tau when tr', e2' and det' are all positive, and
    below it when tr' < 0 < e2' and det' < 0.

    A sign counts only where the computed value exceeds 2^-48 M^, M^ being
    the computed magnitude: the same float steps, from the entries of |C|
    and from s = +tau, with every term added.  Why that holds: each value
    is a tree of + and * over the entries of C (exact floats) and s, and
    M is the sum of the absolute values of its expanded terms.  With
    fl(x o y) = (x o y)(1 + e), |e| <= u = 2^-53, an expanded term picks up
    one factor (1 + e) per operation it passes, and at a product those of
    both operands too: at most k = 16 (tr 9, e2 13, det 11, and det' 16 by
    the Horner steps above).  So the computed value is within
    g M of the exact one, g = k u / (1 - k u), and M^ >= (1 - g) M, which
    puts the error below g / (1 - g) M^ < 16.01 u M^; 2^-48 M^ = 32 u M^.
    The slack covers underflow: a product below 2^-1022 is off by at most
    2^-1075 absolutely, and it is later scaled by less than 3 M, while
    M >= 1 from the unit diagonal.  Rounding of G itself does not arise:
    tr, e2 and det are formed from C (`_gram_coefficients`).  An inf or a
    NaN anywhere compares False, so it claims nothing.
    """
    s = np.stack([tau_lo, tau_hi])[:, None] * np.array([-1.0, 1.0])[:, None]
    tr, e2, det = coefficients
    with np.errstate(all="ignore"):
        shifted = np.stack(
            [tr + 3.0 * s, e2 + s * (2.0 * tr + 3.0 * s), det + s * (e2 + s * (tr + s))]
        )
        value, err = shifted[:, :, 0], shifted[:, :, 1] * 2.0**-48
        # the signs of (tr', e2', det') above tau_lo, and below tau_hi
        sign = np.array([[1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])[:, :, None]
        above, below = (sign * value > err).all(axis=0)
    return above, below


def _box_spectra(lo: np.ndarray, hi: np.ndarray, leg_length: float):
    """(valid, coefficients, r) of n boxes of poses, the box b spanning
    [lo[k][b], hi[k][b]] on axis k: the box is `valid` when every eta_i in
    it exceeds 2 SERIAL_TOL L, so every node of it is reachable; C is the
    midpoint matrix of the `_entry_bounds` (with a unit diagonal), whose
    `_gram_coefficients` are `coefficients`; and r[b] >= ||Jinv - C||_F at
    every pose of the box, for the exact Jinv and for the computed one.

    Both Jinv have a unit diagonal and their entries in the intervals, so
    ||Jinv - C||_F is at most the norm of the half-widths
    d_e = max(hi_e - C_e, C_e - lo_e).  Each difference is computed as
    d_e (1 + d), |d| <= u = 2^-53.  Floored at 2^-511, no square underflows,
    so the squares, the five additions and the square root leave the
    computed norm at least (1 - u)^5 > 1 - 5.01u times the norm of the d_e;
    the factor 1 + 2^-49 = 1 + 16u, itself rounded, adds at least 14.9u.
    """
    entry_lo, entry_hi, eta_min = _entry_bounds(lo, hi, leg_length)
    with np.errstate(all="ignore"):
        mid = (entry_hi + entry_lo) / 2.0
        half = np.maximum(np.maximum(entry_hi - mid, mid - entry_lo), 2.0**-511)
        r = np.sqrt(np.square(half).sum(axis=0)) * (1.0 + 2.0**-49)
        coefficients = _gram_coefficients(mid)
    return eta_min > 2.0 * SERIAL_TOL * leg_length, coefficients, r


def _within(coefficients, r: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """Where every singular value of every matrix within r of C (`_box_spectra`)
    certainly lies strictly between t_lo and t_hi.  By Weyl's inequality
    each lies within r of one of C, so it suffices that every eigenvalue of
    C^T C lies above (t_lo + r)^2, rounded up, and below (t_hi - r)^2,
    rounded down (below a negative number where t_hi <= r)."""
    up, down = np.inf, -np.inf
    with np.errstate(all="ignore"):
        tau_lo = np.nextafter(np.square(np.nextafter(t_lo + r, up)), up)
        t = np.maximum(np.nextafter(t_hi - r, down), 0.0)
        tau_hi = np.nextafter(np.square(t), down)
    above, below = _eigenvalues_beyond(coefficients, tau_lo, tau_hi)
    return above & below


def _box_nodes(box: np.ndarray, shape: tuple[int, int, int], symmetric: bool) -> np.ndarray:
    """(3, n) per-axis indices of the nodes of the boxes (3, nb) `box` on a
    grid of `shape`, box (I, J, K) holding the nodes i // _BOX_NODES = I,
    and so on; on a symmetric grid only its nodes i <= j <= k.  In grid
    order, and in `_lattice`'s unsigned type.

    The boxes are disjoint, so one sort of a flat key orders the nodes:
    i, j and k packed in fields of `bits` bits, 32 in all up to 2^10 nodes
    per axis, and 63 at most, as fewer than 2^21 are indexable (`_grid`).
    """
    bits = (max(shape) - 1).bit_length()
    key_type = np.uint32 if 3 * bits <= 32 else np.uint64
    offset = np.arange(_BOX_NODES, dtype=key_type)
    i, j, k = (x.astype(key_type)[:, None] * _BOX_NODES + offset for x in box)
    i, j, k = i[:, :, None, None], j[:, None, :, None], k[:, None, None, :]
    keep = (i < shape[0]) & (j < shape[1]) & (k < shape[2])
    if symmetric:
        keep &= (i <= j) & (j <= k)
    key = ((i << 2 * bits) | (j << bits) | k)[keep]
    key.sort()
    field = (1 << bits) - 1
    index = np.stack([key >> 2 * bits, (key >> bits) & field, key & field])
    return index.astype(np.min_scalar_type(max(shape) - 1))


def _box_pass(d: DesignParams, b: Bounds, lo: np.ndarray, hi: np.ndarray):
    """(passed, clear_of) of n boxes of poses, the box b spanning
    [lo[k][b], hi[k][b]] on axis k.

    A box `passed` when it is `valid` (`_box_spectra`), its `_slider_range`
    lies within the strokes on every axis, and every singular value of
    Jinv in it lies strictly between t_lo and t_hi (`_within`): with
    t_hi = (1 - d) / (s_lo (1 - BOUND_REL_TOL)) and t_lo the greater of
    (1 + d) / (s_hi (1 + BOUND_REL_TOL)) and _BOX_CONDITION t_hi, d being
    _BOX_MARGIN, every factor in it clears the bounds' edges by d, and it
    is conditioned well enough that the factor kernel resolves each of its
    nodes to well under d.  `clear_of(w_max, w_min)` tells where, besides,
    the singular values lie above (1 + d) / w_max and below
    (1 - d) / w_min, so that every factor in the box stays below w_max and
    above w_min by d.
    """
    L = d.leg_length
    valid, coefficients, r = _box_spectra(lo, hi, L)
    # the comparisons of `within_stroke`, at the ends of each slider range
    rho_lo, rho_hi = _slider_range(lo, hi, L)
    in_stroke = ((rho_lo.T >= d.stroke_min) & (rho_hi.T <= d.stroke_max)).all(axis=1)
    # the edges `_summarize` compares each factor with
    edge_lo, edge_hi = b.s_lo * (1.0 - BOUND_REL_TOL), b.s_hi * (1.0 + BOUND_REL_TOL)
    t_hi = math.nextafter((1.0 - _BOX_MARGIN) / edge_lo, 0.0)
    t_lo = math.nextafter(max((1.0 + _BOX_MARGIN) / edge_hi, _BOX_CONDITION * t_hi), math.inf)

    def clear_of(w_max: float, w_min: float) -> np.ndarray:
        return _within(
            coefficients,
            r,
            max(t_lo, math.nextafter((1.0 + _BOX_MARGIN) / w_max, math.inf)),
            min(t_hi, math.nextafter((1.0 - _BOX_MARGIN) / w_min, 0.0)),
        )

    return valid & in_stroke & _within(coefficients, r, t_lo, t_hi), clear_of


def _box_extent(axes, box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (3, nb): the least and the greatest node coordinate on
    each axis of the boxes (3, nb) `box` of _BOX_NODES^3 grid nodes, box
    (I, J, K) holding the nodes i // _BOX_NODES = I, and so on."""
    first = box.astype(np.intp) * _BOX_NODES
    lo = np.stack([a[f] for a, f in zip(axes, first)])
    hi = np.stack([a[np.minimum(f + _BOX_NODES, len(a)) - 1] for a, f in zip(axes, first)])
    return lo, hi


def _summary_nodes(d: DesignParams, b: Bounds, axes, symmetric: bool):
    """The `_Layout` of the nodes the summary must evaluate, in grid order,
    and their `_evaluate` results: those of the boxes of _BOX_NODES^3 grid
    nodes (`_box_extent`) that `_box_pass` cannot decide.  Only the boxes
    meeting the wedge I <= J <= K of a symmetric grid are bounded.

    The nodes of the boxes that do not pass, and of the grid's corner
    boxes, are evaluated first.  W_max and W_min, the extreme factors of
    their reachable nodes, are references: a passed box is decided when
    it is `clear_of` them, so that no node of it can be or tie a worst
    factor.  The other passed boxes (all of them when no evaluated node is
    reachable) are evaluated in a second call, and the two are merged.
    Every node of a decided box is reachable and within the strokes, so
    it adds to no count.
    """
    shape = tuple(len(a) for a in axes)
    box = _lattice(tuple(-(-m // _BOX_NODES) for m in shape), symmetric)
    passed, clear_of = _box_pass(d, b, *_box_extent(axes, box))
    corner = ((box == 0) | (box == box.max(axis=1, keepdims=True))).all(axis=0)
    layout = _Layout(axes, _box_nodes(box[:, ~passed | corner], shape, symmetric), symmetric)
    results = _evaluate(d, layout)
    reach, _, sig_min, sig_max, _ = results
    again = passed & ~corner
    if reach.any():
        again &= ~clear_of(float(np.nanmax(sig_max)), float(np.nanmin(sig_min)))
    if not again.any():
        return layout, results
    more = layout._replace(index=_box_nodes(box[:, again], shape, symmetric))
    index = np.concatenate([layout.index, more.index], axis=1)
    order = np.argsort(np.ravel_multi_index(index, shape))
    merged = tuple(np.concatenate(pair)[order] for pair in zip(results, _evaluate(d, more)))
    return layout._replace(index=index[:, order]), merged


def _summarize(
    n_per_axis: int, layout: _Layout, results: tuple[np.ndarray, ...], b: Bounds
) -> GridReport:
    """The report, with no `nodes`, of the counts and worst cases over the
    evaluated nodes' results, each worst case at its first node in grid
    order.  On a symmetric grid each wedge node counts once per node it
    stands for, and a worst wedge node is also the first of its
    permutations in grid order, since its sorted triple comes first and the
    wedge is in grid order.  The nodes left out by `_summary_nodes` add
    to no count and neither are nor tie a worst case, and those it keeps
    have the results the whole grid's evaluation gives them, so the first
    among the nodes kept is the first of the grid."""
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
    return GridReport(
        n_per_axis,
        math.prod(len(a) for a in axes),
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

    Only the nodes of the boxes `_summary_nodes` cannot decide are
    evaluated, each with the results `map_cube` gives it, so the two
    summaries are equal.  A grid too large to index raises ValueError
    (`_grid`), and one whose boxes cannot be allocated MemoryError.
    """
    return _summarize(n_per_axis, *_summary_nodes(d, b, *_grid(d, cube, n_per_axis)), b)


def map_cube(d: DesignParams, cube: CubeSpec, b: Bounds, n_per_axis: int = 21) -> GridReport:
    """`verify_cube`'s report, with `nodes` holding every node's results.

    Every node is evaluated, or on a symmetric grid the wedge i <= j <= k
    (`_layout`); the summary is reduced from those results, then the wedge
    is expanded to the whole grid (`_wedge_slots`).
    """
    layout = _layout(d, cube, n_per_axis)
    results = _evaluate(d, layout)
    report = _summarize(n_per_axis, layout, results, b)
    if layout.symmetric:
        slot = _wedge_slots(len(layout.axes[0]))
        results = tuple(r[slot] for r in results)
    report.nodes = GridNodes(layout.axes, *results)
    return report


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
