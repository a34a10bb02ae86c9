"""3x3 symmetric eigenvalues and singular values via cyclic Jacobi rotations.

The fixed 3x3 size makes a general-purpose decomposition unnecessary: a few
cyclic sweeps of Givens rotations annihilate the off-diagonal entries to
machine precision, including for clustered eigenvalues where closed-form
cubic formulas lose accuracy.  All routines broadcast over leading batch
dimensions.

`eigvalsh3` and `singular_values3` share one eigenvalue-only Jacobi kernel.  It
works on the six unique entries of each matrix as (N,) arrays, drops the
matrices that are exactly diagonal from the sweeps once they are at least
half the batch, and gives every matrix the same bits whatever batch it is
in, so the grid sweep and the single-pose report agree exactly.
`singular_values3` first reorders each matrix to a canonical one of its six
simultaneous row/column permutations, which makes it exactly
permutation-invariant.  No routine here computes eigenvectors: the
manipulability ellipsoid, the one place that needs them, takes them from
`np.linalg.eigh`.
"""

from __future__ import annotations

import itertools

import numpy as np

# The kernel stops once its batch is exactly diagonal, which
# takes 5 sweeps on the synthesized cube grids and on random matrices; the
# cap only bounds non-finite or pathological input.
_MAX_SWEEPS = 10
_PAIRS = ((0, 1), (0, 2), (1, 2))
# for the k-th pair (p, q) with remaining index r: the positions of a_rp and
# a_rq in the off-diagonal list (a01, a02, a12)
_OTHERS = ((1, 2), (0, 2), (0, 1))
# one row per simultaneous row/column permutation s, identity first: entry
# (a, b) of the candidate P M P^T for s is M[s_a, s_b], at row-major
# position _FLAT[s, 3a + b] of M
_FLAT = np.array(
    [
        [3 * s[a] + s[b] for a in range(3) for b in range(3)]
        for s in itertools.permutations(range(3))
    ]
)
# the row-major positions in the order candidates are compared: the
# off-diagonal entries, (0, 1) leading, then the diagonal
_ORDER = (1, 2, 3, 5, 6, 7, 0, 4, 8)


def _jacobi_eigenvalues(diag, off) -> tuple[np.ndarray, int]:
    """Eigenvalues of N symmetric 3x3 matrices by cyclic Jacobi, values only.

    `diag` holds (a00, a11, a22) and `off` holds (a01, a02, a12), each an
    (N,) array.  Returns the (N, 3) ascending eigenvalues and the number of
    sweeps run.

    Each rotation uses the classic updates a_pp -= t a_pq, a_qq += t a_pq,
    a_pq = 0, then rotates a_rp and a_rq.  It is skipped, and a_pq zeroed,
    once a_pq is negligible next to both a_pp and a_qq.  Every step is
    elementwise, and a sweep leaves a converged matrix (all off-diagonal
    entries zero) bit for bit unchanged, so no matrix's result depends on
    its batch, and once at most half the batch is not yet converged the
    sweeps run on those matrices only.  The loop ends as soon as every
    off-diagonal entry of the batch is exactly zero, or after _MAX_SWEEPS
    sweeps.
    """
    # +0.0 turns any -0.0 into +0.0, so a rotation with a_pq = 0 is an
    # exact no-op (x - 0.0 * y and x + 0.0 * y give back x for x != -0.0)
    diag = [d + 0.0 for d in diag]
    off = [o + 0.0 for o in off]
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
            if 2 * n_live <= len(live):
                keep = np.flatnonzero(live)
                if idx is None:
                    idx = keep
                else:
                    done = np.flatnonzero(~live)
                    for full, d in zip(out, diag):
                        full[idx[done]] = d[done]
                    idx = idx[keep]
                diag = [d[keep] for d in diag]
                off = [o[keep] for o in off]
            sweeps += 1
            # one zero array for the annihilated entries of the sweep; no
            # step writes into an entry array, so they may share it
            zero = np.zeros(len(diag[0]))
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
                off[k] = zero
                # the other two off-diagonal entries, a_rp and a_rq
                i, j = _OTHERS[k]
                arp, arq = off[i], off[j]
                off[i] = c * arp - s * arq
                off[j] = s * arp + c * arq
    if idx is not None:
        for full, d in zip(out, diag):
            full[idx] = d
    return np.sort(np.stack(out, axis=-1), axis=-1), sweeps


def _batched(mat) -> tuple[np.ndarray, tuple[int, ...]]:
    """`mat` as an (N, 3, 3) float array, and its leading shape."""
    m = np.asarray(mat, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrix, got {m.shape}")
    return m.reshape(-1, 3, 3), m.shape[:-2]


def _canonical(m: np.ndarray) -> np.ndarray:
    """The lexicographically smallest P m P^T of each (N, 3, 3) matrix.

    Candidates are compared entry by entry in _ORDER.  Every P m P^T has
    the same six candidates, so all of them map to the same representative.
    Comparisons treat -0.0 and +0.0 as equal, so the representatives of two
    permutations may differ in the signs of zero entries, but no more: the
    Gram entries then differ at most in the sign of a zero, which the Jacobi
    kernel drops, so the singular values agree bit for bit.

    The (0, 1) entry of the candidate for permutation s is m[s0, s1], so the
    candidate that puts the smallest off-diagonal entry there wins unless
    that value occurs more than once; only such rows compare further
    entries.  A row whose comparisons reach a NaN keeps its order.  The
    result is an (N, 3, 3) view whose entries are contiguous across the
    batch, which is how `_gram_entries` reads them.
    """
    e = m.reshape(-1, 9)
    choice = _smallest_candidate(e)
    start = 9 * np.arange(len(e))
    index = np.empty_like(start)
    out = np.empty((9, len(e)))
    for f, source in enumerate(_FLAT.T):
        np.add(source.take(choice), start, out=index)
        e.take(index, out=out[f])
    return out.reshape(3, 3, -1).transpose(2, 0, 1)


def _smallest_candidate(e: np.ndarray) -> np.ndarray:
    """For each row-major (N, 9) matrix, the row of _FLAT of its smallest
    candidate (see `_canonical`)."""
    keys = e[:, _FLAT[:, _ORDER[0]]]
    best = keys == keys.min(axis=1, keepdims=True)
    tied = np.flatnonzero(np.count_nonzero(best, axis=1) > 1)
    if tied.size:
        sub, alive = e[tied], best[tied]
        for f in _ORDER[1:]:
            keys = sub[:, _FLAT[:, f]]
            alive &= keys == np.where(alive, keys, np.inf).min(axis=1, keepdims=True)
        best[tied] = alive
    return best.argmax(axis=1)


def _gram_entries(m: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Diagonal and off-diagonal entries of m^T m for (N, 3, 3) `m`: the dot
    products of its columns."""
    c = m.transpose(1, 2, 0)  # c[k, p]: entry (k, p) of every matrix

    def dot(p: int, q: int) -> np.ndarray:
        return c[0, p] * c[0, q] + c[1, p] * c[1, q] + c[2, p] * c[2, q]

    return [dot(k, k) for k in range(3)], [dot(p, q) for p, q in _PAIRS]


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

    Exactly invariant under simultaneous row/column permutation: every
    P mat P^T gives the same bits, because each matrix is first reordered
    to the canonical one of its six permutations (`_canonical`).  The
    machine's Jacobian at a permuted pose is P Jinv P^T, so poses that
    differ by a permutation of x, y and z get identical factors.
    """
    m, lead = _batched(mat)
    w = _jacobi_eigenvalues(*_gram_entries(_canonical(m)))[0]
    return np.sqrt(np.clip(w, 0.0, None)).reshape(lead + (3,))


def det3(mat: np.ndarray) -> np.ndarray:
    """Determinant of a 3x3 (batched), by cofactor expansion."""
    m = np.asarray(mat, dtype=float)
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )
