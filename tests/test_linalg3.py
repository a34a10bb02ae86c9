"""Jacobi 3x3 eigensolver against the dense numpy decompositions."""

import itertools

import numpy as np
import pytest

from orthoglide.kinematics import batch_inverse_jacobian, leg_radicands
from orthoglide.linalg3 import (
    _MAX_SWEEPS,
    _gram_entries,
    _jacobi_eigenvalues,
    det3,
    eigvalsh3,
    singular_values3,
)
from orthoglide.synthesis import synthesize
from orthoglide.workspace import Bounds

EPS = np.finfo(float).eps


def random_symmetric(rng, n=1):
    a = rng.standard_normal((n, 3, 3))
    return (a + np.swapaxes(a, -1, -2)) / 2


def test_eigvals_match_numpy_on_random_batch(rng):
    mats = random_symmetric(rng, 500)
    got = eigvalsh3(mats)
    want = np.linalg.eigvalsh(mats)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_diagonal_matrix():
    w = eigvalsh3(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [-1.0, 2.0, 3.0])


def test_clustered_eigenvalues_stay_accurate():
    # the binding-pose product matrix: eigenvalues (0.25, 0.25, 4), a double
    # root where closed-form cubic formulas lose ~1e-8
    a = 0.5
    jinv = np.full((3, 3), a) + np.eye(3) * (1 - a)
    w = eigvalsh3(jinv.T @ jinv)
    assert np.allclose(w, [0.25, 0.25, 4.0], rtol=0, atol=1e-13)


def test_singular_values_match_numpy(rng):
    mats = rng.standard_normal((200, 3, 3))
    got = singular_values3(mats)
    want = np.sort(np.linalg.svd(mats, compute_uv=False), axis=-1)
    assert np.allclose(got, want, atol=1e-11)


def test_singular_matrix_has_zero_singular_value():
    # the normal-matrix route squares the condition number, so vanishing
    # singular values are only accurate to ~sqrt(eps) * ||m||
    m = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    s = singular_values3(m)
    scale = np.linalg.norm(m)
    assert s[0] <= 1e-7 * scale
    assert s[1] <= 1e-7 * scale
    assert s[2] == pytest.approx(scale, rel=1e-12)


def test_det3_matches_numpy(rng):
    mats = rng.standard_normal((200, 3, 3))
    assert np.allclose(det3(mats), np.linalg.det(mats), atol=1e-12)


def test_batched_equals_scalar(rng):
    mats = random_symmetric(rng, 10)
    batch = eigvalsh3(mats)
    for k in range(10):
        assert np.array_equal(eigvalsh3(mats[k]), batch[k])


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        eigvalsh3(np.eye(4))


def diag_pose_jinv(a):
    """Inverse Jacobian at a diagonal pose with coupling ratio a."""
    return np.full((3, 3), a) + np.eye(3) * (1 - a)


def cube_jinv(lw, s_lo, s_hi, n=41):
    """Inverse Jacobians at every node of an n^3 grid over a synthesized cube."""
    res = synthesize(lw, Bounds(s_lo, s_hi))
    axis = np.linspace(res.q1[0], res.q2[0], n)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = pts - np.sqrt(leg_radicands(pts, res.leg_length))
    return batch_inverse_jacobian(pts, rho)


PROTOTYPE_AND_WIDE = [(200.0, 0.5, 2.0), (200.0, 1 / 3, 3.0)]


def test_exact_double_root_at_diagonal_pose():
    # a = 0.5: Jinv^T Jinv has the double root 0.25 and the simple root 4
    jinv = diag_pose_jinv(0.5)
    assert np.array_equal(eigvalsh3(jinv.T @ jinv), [0.25, 0.25, 4.0])
    assert np.array_equal(singular_values3(jinv), [0.5, 0.5, 2.0])


def test_exact_triple_root_at_identity():
    assert np.array_equal(eigvalsh3(np.eye(3)), [1.0, 1.0, 1.0])
    assert np.array_equal(singular_values3(np.eye(3)), [1.0, 1.0, 1.0])
    _, sweeps = _jacobi_eigenvalues(*_gram_entries(np.eye(3)[None]))
    assert sweeps == 0


def test_result_does_not_depend_on_batch(rng):
    # quick-converging matrices inside a batch of random ones, which need
    # more sweeps: every extra sweep must leave them bit for bit unchanged
    targets = np.stack(
        [np.eye(3), diag_pose_jinv(0.5), diag_pose_jinv(-0.2), cube_jinv(200.0, 0.5, 2.0, 3)[7]]
    )
    noise = rng.standard_normal((300, 3, 3))
    batch = np.concatenate([noise[:150], targets, noise[150:]])
    _, alone = _jacobi_eigenvalues(*_gram_entries(targets[1:2]))
    _, together = _jacobi_eigenvalues(*_gram_entries(batch))
    assert alone < together
    got = singular_values3(batch)[150 : 150 + len(targets)]
    sym = np.swapaxes(batch, -1, -2) @ batch
    got_sym = eigvalsh3(sym)[150 : 150 + len(targets)]
    for k, m in enumerate(targets):
        assert np.array_equal(got[k], singular_values3(m))
        assert np.array_equal(got_sym[k], eigvalsh3(m.T @ m))


@pytest.mark.parametrize("lw, s_lo, s_hi", PROTOTYPE_AND_WIDE)
def test_cube_grid_matches_svd_to_4_eps(lw, s_lo, s_hi):
    # the normal-matrix route's rounding error scales with the largest
    # singular value, so the error is measured relative to it
    jinv = cube_jinv(lw, s_lo, s_hi)
    got = singular_values3(jinv)
    want = np.sort(np.linalg.svd(jinv, compute_uv=False), axis=-1)
    assert np.all(np.abs(got - want) <= 4 * EPS * want[:, 2:])


@pytest.mark.parametrize("lw, s_lo, s_hi", PROTOTYPE_AND_WIDE)
def test_sweep_cap_not_reached_on_cube_grids(lw, s_lo, s_hi):
    _, sweeps = _jacobi_eigenvalues(*_gram_entries(cube_jinv(lw, s_lo, s_hi)))
    assert sweeps < _MAX_SWEEPS


def test_rank_deficient_input():
    # a zero column makes row and column 2 of m^T m exactly zero: that
    # eigenvalue stays exactly 0 and the others are those of the 2x2 block
    m = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [5.0, 6.0, 0.0]])
    s = singular_values3(m)
    assert s[0] == 0.0
    want = np.linalg.svd(m, compute_uv=False)[::-1]
    assert np.all(np.abs(s[1:] - want[1:]) <= 4 * EPS * want[2])
    assert np.array_equal(singular_values3(np.zeros((3, 3))), np.zeros(3))
    # rank one: converges before the cap, with one non-zero value
    rank_one = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])[None]
    _, sweeps = _jacobi_eigenvalues(*_gram_entries(rank_one))
    assert sweeps < _MAX_SWEEPS


def test_leading_shape_is_kept(rng):
    mats = rng.standard_normal((4, 5, 3, 3))
    assert singular_values3(mats).shape == (4, 5, 3)
    assert eigvalsh3(mats + np.swapaxes(mats, -1, -2)).shape == (4, 5, 3)
    with pytest.raises(ValueError):
        singular_values3(np.eye(2))


def _invariance_batch(rng, kind, n=400):
    if kind == "random":
        return rng.standard_normal((n, 3, 3))
    if kind == "integer-ties":
        # few distinct values, so candidate permutations tie on many entries;
        # zeros of both signs
        mats = rng.integers(-2, 3, (n, 3, 3)).astype(float)
        return np.where(mats == 0.0, rng.choice([0.0, -0.0], mats.shape), mats)
    # rank 0, 1 and 2: products of random or integer factors, and matrices
    # with a zero row and column
    rank_one = np.einsum("ni,nj->nij", rng.integers(-2, 3, (n, 3)), rng.integers(-2, 3, (n, 3)))
    rank_two = rng.standard_normal((n, 3, 2)) @ rng.standard_normal((n, 2, 3))
    zero_cross = rng.standard_normal((n, 3, 3))
    zero_cross[:, 1, :] = 0.0
    zero_cross[:, :, 1] = 0.0
    return np.concatenate([rank_one.astype(float), rank_two, zero_cross, np.zeros((1, 3, 3))])


@pytest.mark.parametrize("kind", ["random", "integer-ties", "rank-deficient"])
def test_singular_values_exactly_permutation_invariant(rng, kind):
    # every simultaneous row/column permutation P m P^T gives the same bits
    mats = _invariance_batch(rng, kind)
    want = singular_values3(mats).view(np.uint64)
    for perm in itertools.permutations(range(3)):
        p = list(perm)
        got = singular_values3(mats[:, p][:, :, p])
        assert np.array_equal(got.view(np.uint64), want), perm
        assert np.array_equal(singular_values3(mats[7][p][:, p]).view(np.uint64), want[7])
