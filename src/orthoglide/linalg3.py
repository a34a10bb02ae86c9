"""3x3 symmetric eigenvalues and singular values via cyclic Jacobi rotations.

The fixed 3x3 size makes a general-purpose decomposition unnecessary: a few
cyclic sweeps of Givens rotations annihilate the off-diagonal entries to
machine precision, including for clustered eigenvalues where closed-form
cubic formulas lose accuracy.  All routines broadcast over leading batch
dimensions.

`eigvalsh3` and `singular_values3` share one eigenvalue-only kernel.  It
works on the six unique entries of each matrix as (N,) arrays, stops as
soon as the whole batch is exactly diagonal, and gives every matrix the
same bits whatever batch it is in, so the grid sweep and the single-pose
report agree exactly.  `eigh3` also rotates the eigenvectors; only the
manipulability ellipsoid needs them.
"""

from __future__ import annotations

import numpy as np

# eigh3 runs a fixed number of sweeps: convergence is quadratic, and on the
# prototype cube the off-diagonal residual is ~1e-21 relative after 4.
_SWEEPS = 6
# The eigenvalue-only kernel stops once its batch is exactly diagonal, which
# takes 5 sweeps on the synthesized cube grids and on random matrices; the
# cap only bounds non-finite or pathological input.
_MAX_SWEEPS = 10
_PAIRS = ((0, 1), (0, 2), (1, 2))
# for the k-th pair (p, q) with remaining index r: the positions of a_rp and
# a_rq in the off-diagonal list (a01, a02, a12)
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Apply one batched Jacobi rotation zeroing a[..., p, q] in place."""
    apq = a[..., p, q]
    app = a[..., p, p]
    aqq = a[..., q, q]

    active = np.abs(apq) > 0.0
    # tan(2*theta) = 2*apq / (aqq - app); smaller-angle root for stability.
    # Huge tau overflows to an infinite denominator and t collapses to 0,
    # the correct negligible-rotation limit, so overflow is benign.
    with np.errstate(over="ignore", invalid="ignore"):
        tau = np.where(active, (aqq - app) / np.where(active, 2.0 * apq, 1.0), 0.0)
        t = np.where(
            active,
            np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)),
            0.0,
        )
    t = np.where(active & (tau == 0.0), 1.0, t)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    rows_p = a[..., p, :].copy()
    rows_q = a[..., q, :].copy()
    a[..., p, :] = c[..., None] * rows_p - s[..., None] * rows_q
    a[..., q, :] = s[..., None] * rows_p + c[..., None] * rows_q
    cols_p = a[..., :, p].copy()
    cols_q = a[..., :, q].copy()
    a[..., :, p] = c[..., None] * cols_p - s[..., None] * cols_q
    a[..., :, q] = s[..., None] * cols_p + c[..., None] * cols_q
    # force exact symmetry of the annihilated pair
    a[..., p, q] = 0.0
    a[..., q, p] = 0.0

    vcols_p = v[..., :, p].copy()
    vcols_q = v[..., :, q].copy()
    v[..., :, p] = c[..., None] * vcols_p - s[..., None] * vcols_q
    v[..., :, q] = s[..., None] * vcols_p + c[..., None] * vcols_q


def eigh3(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric 3x3.

    `mat` has shape (..., 3, 3); returns (..., 3) eigenvalues and (..., 3, 3)
    eigenvectors as columns, paired with the sorted eigenvalues.
    """
    a = np.array(mat, dtype=float, copy=True)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrix, got {a.shape}")
    v = np.broadcast_to(np.eye(3), a.shape).copy()

    for _ in range(_SWEEPS):
        for p, q in _PAIRS:
            _rotate(a, v, p, q)

    w = np.diagonal(a, axis1=-2, axis2=-1).copy()
    order = np.argsort(w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    return w, v


def _jacobi_eigenvalues(diag, off) -> tuple[np.ndarray, int]:
    """Eigenvalues of N symmetric 3x3 matrices by cyclic Jacobi, values only.

    `diag` holds (a00, a11, a22) and `off` holds (a01, a02, a12), each an
    (N,) array.  Returns the (N, 3) ascending eigenvalues and the number of
    sweeps run.

    Each rotation uses the classic updates a_pp -= t a_pq, a_qq += t a_pq,
    a_pq = 0, then rotates a_rp and a_rq.  It is skipped, and a_pq zeroed,
    once a_pq is negligible next to both a_pp and a_qq.  Every step is
    elementwise, and a converged matrix (all off-diagonal entries zero) is
    left bit for bit unchanged by the sweeps the rest of its batch still
    needs, so no matrix's result depends on its batch.  The loop ends as
    soon as every off-diagonal entry of the batch is exactly zero, or after
    _MAX_SWEEPS sweeps.
    """
    # +0.0 turns any -0.0 into +0.0, so a rotation with a_pq = 0 is an
    # exact no-op (x - 0.0 * y and x + 0.0 * y give back x for x != -0.0)
    diag = [d + 0.0 for d in diag]
    off = [o + 0.0 for o in off]
    sweeps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while sweeps < _MAX_SWEEPS and any(o.any() for o in off):
            sweeps += 1
            for k, (p, q) in enumerate(_PAIRS):
                app, aqq, apq = diag[p], diag[q], off[k]
                # a_pq is negligible when it cannot change the smaller of
                # |a_pp|, |a_qq| even scaled by 100
                small = np.minimum(np.abs(app), np.abs(aqq))
                rotate = small + 100.0 * np.abs(apq) != small
                # smaller-angle root of t^2 + 2 theta t - 1 = 0; theta = 0
                # gives t = 1, and an overflowing theta the t = 0 limit
                theta = (aqq - app) / (2.0 * apq)
                t = np.copysign(1.0 / (np.abs(theta) + np.sqrt(1.0 + theta * theta)), theta)
                t = np.where(rotate, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                z = t * apq
                diag[p] = app - z
                diag[q] = aqq + z
                off[k] = np.zeros_like(apq)
                # the other two off-diagonal entries, a_rp and a_rq
                i, j = _OTHERS[k]
                arp, arq = off[i], off[j]
                off[i] = c * arp - s * arq
                off[j] = s * arp + c * arq
    return np.sort(np.stack(diag, axis=-1), axis=-1), sweeps


def _batched(mat) -> tuple[np.ndarray, tuple[int, ...]]:
    """`mat` as an (N, 3, 3) float array, and its leading shape."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrix, got {m.shape}")
    return m.reshape(-1, 3, 3), m.shape[:-2]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def _gram_entries(m: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Diagonal and off-diagonal entries of m^T m for (N, 3, 3) `m`: the dot
    products of its columns."""
    cols = np.moveaxis(m, -1, 0)
    diag = [_dot(cols[k], cols[k]) for k in range(3)]
    return diag, [_dot(cols[p], cols[q]) for p, q in _PAIRS]


def eigvalsh3(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric 3x3 (batched over leading axes)."""
    a, lead = _batched(mat)
    diag = [a[:, k, k] for k in range(3)]
    off = [a[:, p, q] for p, q in _PAIRS]
    return _jacobi_eigenvalues(diag, off)[0].reshape(lead + (3,))


def singular_values3(mat: np.ndarray) -> np.ndarray:
    """Ascending singular values of a (not necessarily symmetric) 3x3.

    Square roots of the eigenvalues of mat^T mat; negatives from rounding
    are clipped before the square root.  Batched over leading axes.
    """
    m, lead = _batched(mat)
    w = _jacobi_eigenvalues(*_gram_entries(m))[0]
    return np.sqrt(np.clip(w, 0.0, None)).reshape(lead + (3,))


def det3(mat: np.ndarray) -> np.ndarray:
    """Determinant of a 3x3 (batched), by cofactor expansion."""
    m = np.asarray(mat, dtype=float)
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )
