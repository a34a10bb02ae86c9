"""3x3 singular values via cyclic Jacobi rotations, and 3x3 determinants.

The fixed 3x3 size makes a general-purpose decomposition unnecessary: a few
cyclic sweeps of Givens rotations annihilate the off-diagonal entries of
mat^T mat to machine precision, including for clustered eigenvalues where
closed-form cubic formulas lose accuracy.  Both routines broadcast over
leading batch dimensions.

`singular_values3` runs an eigenvalue-only Jacobi kernel: one sweep body,
`_sweep`, and one NaN-last ascending order.  A batch sweeps the six unique
entries of each matrix as (N,) arrays, and drops the matrices that are exactly
diagonal from the sweeps, once, when they are at least half the batch.  One
matrix sweeps Python floats, which skips numpy's per-call cost on (1,) arrays.
Every matrix gets the same bits whatever batch it is in, and on either route,
so the grid sweep and the single-pose report agree exactly.  A bare matrix
gets the values of that matrix; exact invariance under permuting a pose's
x, y and z is a promise of the pose routes (`kinematics.pose_order`).  No
routine here computes eigenvectors, and no module of the package calls a
general eigen-solver or SVD: this kernel is its one spectral routine.
`det3` splits the same way: one cofactor expression runs on a batch's
arrays or on one (3, 3) matrix's Python floats, with the same bits.

A batch is stored axis-first: one contiguous (N,) row per matrix entry and
per eigenvalue, read without a copy (`m.transpose(1, 2, 0)`) from the
Jacobians `kinematics.inverse_jacobian` builds.  The (..., 3, 3) arrays it
takes and the (..., 3) arrays it returns may be views of such rows, so no
caller may assume C order.  A min/max network sorts a batch's eigenvalues;
its rows holding a NaN are sorted by `np.sort`, as one matrix's are, so
NaNs come last, as `np.sort` writes them.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

# The kernel stops once its batch is exactly diagonal, which
# takes 5 sweeps on the synthesized cube grids and on random matrices; the
# cap only bounds non-finite or pathological input.
_MAX_SWEEPS = 10
_PAIRS = ((0, 1), (0, 2), (1, 2))
# for the k-th pair (p, q) with remaining index r: the positions of a_rp and
# a_rq in the off-diagonal list (a01, a02, a12)
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _rotate(app, aqq, apq, arp, arq, xp):
    """One Jacobi rotation in the (p, q) plane, r the remaining index: the
    new a_pp, a_qq, a_rp and a_rq (a_pq becomes 0).  Operator arithmetic and
    five elementwise functions of `xp`, so one body runs on (N,) arrays with
    xp = numpy and on one matrix's Python floats with xp = `_Floats`.
    """
    # a_pq is negligible when it cannot change the smaller of
    # |a_pp|, |a_qq| even scaled by 100
    small = xp.minimum(abs(app), abs(aqq))
    rotate = small + 100.0 * abs(apq) != small
    # smaller-angle root of t^2 + 2 theta t - 1 = 0; theta = 0
    # gives t = 1, and an overflowing theta the t = 0 limit
    theta = xp.divide(aqq - app, 2.0 * apq)
    t = xp.copysign(1.0 / (abs(theta) + xp.sqrt(1.0 + theta * theta)), theta)
    t = xp.where(rotate, t, 0.0)
    c = 1.0 / xp.sqrt(1.0 + t * t)
    s = t * c
    z = t * apq
    return app - z, aqq + z, c * arp - s * arq, s * arp + c * arq


# `_rotate`'s elementwise functions on Python floats, with numpy's float64
# answers where Python's differ: `minimum` is NaN if either side is, and
# a / +-0 is +-inf, or NaN for a = 0 or NaN, where Python raises
_Floats = SimpleNamespace(
    minimum=lambda a, b: a if a != a or a < b else b,
    divide=lambda a, b: a / b if b else a * math.copysign(math.inf, b),
    sqrt=math.sqrt,
    copysign=math.copysign,
    where=lambda cond, a, b: a if cond else b,
)


def _sweep(diag, off, xp, zero) -> None:
    """One cyclic Jacobi sweep, `_rotate` on the pairs (0, 1), (0, 2) and
    (1, 2), updating the lists `diag` and `off` in place; the annihilated
    entries become `zero`, which no step writes into, so they may share it."""
    for k, (p, q) in enumerate(_PAIRS):
        i, j = _OTHERS[k]
        diag[p], diag[q], off[i], off[j] = _rotate(
            diag[p], diag[q], off[k], off[i], off[j], xp
        )
        off[k] = zero


def _jacobi_eigenvalues(diag, off) -> tuple[np.ndarray, int]:
    """Eigenvalues of N symmetric 3x3 matrices by cyclic Jacobi, values only.

    `diag` holds (a00, a11, a22) and `off` holds (a01, a02, a12), each an
    (N,) array; both lists, and the arrays in `diag`, are updated in place.
    Returns the (N, 3) ascending eigenvalues, a view of (3, N) rows, and the
    number of sweeps run.

    Every step is elementwise, and a sweep (`_sweep`) leaves a converged
    matrix (all off-diagonal entries zero) bit for bit unchanged, so no
    matrix's result depends on its batch.  The batch is compacted once: from
    the first sweep that starts with at most half of it not yet converged,
    the sweeps run on those matrices only, and the ones among them that
    converge later stay in.  The loop ends as soon as every off-diagonal
    entry of the batch is exactly zero, or after _MAX_SWEEPS sweeps.

    Three compare-exchanges sort the eigenvalues.  They agree with `np.sort`
    on every row without a NaN: no diagonal entry is ever -0.0 (the Gram
    entries add +0.0), so there is no tie of +-0 to break.  np.maximum
    carries a NaN to the last row, and the rows holding one are sorted by
    `np.sort`, as one matrix is, NaN last.
    """
    # the full-size diagonal; once the batch is compacted, only its entries
    # idx are still being swept, and `diag` and `off` hold just those
    out, idx = diag, None
    sweeps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            live = (off[0] != 0.0) | (off[1] != 0.0) | (off[2] != 0.0)
            n_live = np.count_nonzero(live)
            if not n_live or sweeps == _MAX_SWEEPS:
                break
            # compacting copies the six working arrays: once at least half
            # the batch is diagonal that costs less than the sweep saves
            if idx is None and 2 * n_live <= len(live):
                idx = np.flatnonzero(live)
                diag = [d[idx] for d in diag]
                off = [o[idx] for o in off]
            sweeps += 1
            _sweep(diag, off, np, np.zeros(len(diag[0])))
    if idx is not None:
        for full, d in zip(out, diag):
            full[idx] = d
    a, b, c = out
    w = np.empty((3, len(a)))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    np.maximum(hi, c, out=w[2])
    np.minimum(hi, c, out=hi)
    np.minimum(lo, hi, out=w[0])
    np.maximum(lo, hi, out=w[1])
    nan = np.flatnonzero(np.isnan(w[2]))
    if nan.size:
        w[:, nan] = np.sort(np.stack([r[nan] for r in out], axis=-1), axis=-1).T
    return w.T, sweeps


def _gram_entries(c) -> tuple[list, list]:
    """Diagonal and off-diagonal entries of m^T m, the dot products of the
    columns of m, where c[k][p] is entry (k, p) of m: (N,) arrays for a
    batch of matrices, floats for one."""

    # +0.0 turns any -0.0 into +0.0, so a rotation with a_pq = 0 is an
    # exact no-op (x - 0.0 * y and x + 0.0 * y give back x for x != -0.0)
    def dot(p: int, q: int):
        return c[0][p] * c[0][q] + c[1][p] * c[1][q] + c[2][p] * c[2][q] + 0.0

    return [dot(k, k) for k in range(3)], [dot(p, q) for p, q in _PAIRS]


def singular_values3(mat: np.ndarray) -> np.ndarray:
    """Ascending singular values of a (not necessarily symmetric) 3x3.

    Square roots of the eigenvalues of mat^T mat; negatives from rounding
    are clipped before the square root.  Batched over leading axes.  A batch
    runs the Jacobi sweeps (`_sweep`) on arrays, one matrix runs them on
    Python floats, and both sort NaN last (see `_jacobi_eigenvalues`): the
    same bits.  The result may be a view of (3, ...) rows, not C-ordered.

    The values of `mat` as given: P mat P^T may round differently.  Permuted
    poses get identical factors because the pose routes hand this kernel
    the Jacobian of the sorted pose (`kinematics.pose_order`).
    """
    m = _as_matrices(mat)
    if m.size == 9:
        # Python floats round each step as numpy's float64 loops do
        diag, off = _gram_entries(m.reshape(3, 3).tolist())
        for _ in range(_MAX_SWEEPS):
            if not any(off):
                break
            _sweep(diag, off, _Floats, 0.0)
        w = np.sort(diag)
    else:
        # Gram entries that overflow are inf, and inf - inf is NaN, silently,
        # as on the float route
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _gram_entries(m.reshape(-1, 3, 3).transpose(1, 2, 0))
        w = _jacobi_eigenvalues(*gram)[0]
    return np.sqrt(np.maximum(w, 0.0)).reshape(m.shape[:-2] + (3,))


def _as_matrices(mat) -> np.ndarray:
    """`mat` as a float array of shape (..., 3, 3); ValueError otherwise."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrix, got {m.shape}")
    return m


def _cofactor_det(m):
    """Cofactor expansion along the first row, where m[i][j] is entry (i, j):
    (...) arrays for a batch of matrices, floats for one."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def det3(mat: np.ndarray) -> np.ndarray | float:
    """Determinant of a 3x3 (batched), by cofactor expansion.

    One (3, 3) matrix runs the expansion on Python floats and gives a float;
    a batch runs it on arrays and gives an array: the same bits, overflow
    to inf or NaN included.
    """
    m = _as_matrices(mat)
    if m.shape == (3, 3):
        return _cofactor_det(m.tolist())
    return _cofactor_det(np.moveaxis(m, (-2, -1), (0, 1)))
