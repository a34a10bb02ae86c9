"""Jacobi 3x3 eigensolver against the dense numpy decompositions."""

import numpy as np
import pytest
from conftest import matrices3, same_bits
from hypothesis import example, given, settings

from orthoglide import linalg3
from orthoglide.kinematics import inverse_jacobian, leg_radicands
from orthoglide.linalg3 import (
    _MAX_SWEEPS,
    _gram_entries,
    _jacobi_eigenvalues,
    det3,
    singular_values3,
)
from orthoglide.synthesis import synthesize
from orthoglide.workspace import Bounds

EPS = np.finfo(float).eps


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


@given(matrices3())
@example(np.full((3, 3), 1e150))  # inf - inf: NaN
@example(1e150 * np.eye(3))  # inf
@example(np.full((3, 3), 1e-150))  # underflow to 0
@settings(max_examples=300, deadline=None)
def test_det3_one_matrix_route_matches_batch(m):
    # one matrix runs the cofactor expansion on Python floats, a batch on
    # arrays: the same bits, overflow to inf or NaN included
    one = det3(m)
    assert type(one) is float
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(one, det3(m[None])[0])


@pytest.mark.parametrize("shape", [(3, 4), (2, 2), (3,), (5, 3, 4)])
def test_det3_rejects_non_3x3(shape):
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 3, 3\) matrix"):
        det3(np.zeros(shape))


def diag_pose_jinv(a):
    """Inverse Jacobian at a diagonal pose with coupling ratio a."""
    return np.full((3, 3), a) + np.eye(3) * (1 - a)


def cube_jinv(lw, s_lo, s_hi, n=41):
    """Inverse Jacobians at every node of an n^3 grid over a synthesized cube."""
    res = synthesize(lw, Bounds(s_lo, s_hi))
    axis = np.linspace(res.q1[0], res.q2[0], n)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    rho = pts - np.sqrt(leg_radicands(pts, res.leg_length))
    return inverse_jacobian(pts, rho)


def gram(mats):
    """`_gram_entries` of an (N, 3, 3) batch, as `singular_values3` forms them."""
    return _gram_entries(mats.transpose(1, 2, 0))


PROTOTYPE_AND_WIDE = [(200.0, 0.5, 2.0), (200.0, 1 / 3, 3.0)]


def test_exact_double_root_at_diagonal_pose():
    # a = 0.5: Jinv^T Jinv has the double root 0.25 and the simple root 4
    jinv = diag_pose_jinv(0.5)
    assert np.array_equal(singular_values3(jinv), [0.5, 0.5, 2.0])


def test_exact_triple_root_at_identity():
    assert np.array_equal(singular_values3(np.eye(3)), [1.0, 1.0, 1.0])
    _, sweeps = _jacobi_eigenvalues(*gram(np.eye(3)[None]))
    assert sweeps == 0


def test_result_does_not_depend_on_batch(rng):
    # quick-converging matrices inside a batch of random ones, which need
    # more sweeps: every extra sweep must leave them bit for bit unchanged
    targets = np.stack(
        [np.eye(3), diag_pose_jinv(0.5), diag_pose_jinv(-0.2), cube_jinv(200.0, 0.5, 2.0, 3)[7]]
    )
    noise = rng.standard_normal((300, 3, 3))
    batch = np.concatenate([noise[:150], targets, noise[150:]])
    _, alone = _jacobi_eigenvalues(*gram(targets[1:2]))
    _, together = _jacobi_eigenvalues(*gram(batch))
    assert alone < together
    got = singular_values3(batch)[150 : 150 + len(targets)]
    for k, m in enumerate(targets):
        assert np.array_equal(got[k], singular_values3(m))


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
    _, sweeps = _jacobi_eigenvalues(*gram(cube_jinv(lw, s_lo, s_hi)))
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
    _, sweeps = _jacobi_eigenvalues(*gram(rank_one))
    assert sweeps < _MAX_SWEEPS


def test_leading_shape_is_kept(rng):
    mats = rng.standard_normal((4, 5, 3, 3))
    assert singular_values3(mats).shape == (4, 5, 3)
    with pytest.raises(ValueError):
        singular_values3(np.eye(2))


def _matrix_batch(rng, kind, n=400):
    if kind == "random":
        return rng.standard_normal((n, 3, 3))
    if kind == "integer-ties":
        # few distinct values, so many entries tie; zeros of both signs
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


def _cross_route_batch(rng, kind):
    if kind == "scale-1e-200":
        # the Gram entries underflow to subnormals and zeros
        return 1e-200 * np.concatenate([_matrix_batch(rng, k) for k in ("random", "integer-ties")])
    if kind == "scale-1e300":
        # the Gram entries overflow to inf, and inf - inf gives NaN.  In the
        # last matrix, with entries near sqrt(DBL_MAX), the first rotation
        # overflows a_00 and a_02 and cancels a_12 to 0, and the second
        # leaves a_00 and a_22 NaN next to a_11 = a_12 = 0: only a `minimum`
        # that returns NaN, as np.minimum does, makes the third rotate
        mats = [1e300 * _matrix_batch(rng, k) for k in ("random", "integer-ties")]
        mid_sweep = [[-1.2e154, 1.34e154, -1.2e154], [1.0, -1.2e154, 0.0], [5e153, 0.0, 1.0]]
        return np.concatenate(mats + [np.array([mid_sweep])])
    if kind == "overflow-pair":
        # a batch of two: every Gram entry overflows to inf
        return np.full((2, 3, 3), 1e300)
    if kind == "inf-pair":
        # a batch of two, one inf entry: inf * 0 in a Gram entry is NaN
        mats = np.array([np.eye(3), np.eye(3)])
        mats[1, 0, 2] = np.inf
        return mats
    if kind == "non-finite":
        # NaN and +-inf entries among random and integer ones
        mats = np.concatenate([_matrix_batch(rng, k) for k in ("random", "integer-ties")])
        special = rng.choice([np.nan, np.inf, -np.inf], mats.shape)
        return np.where(rng.random(mats.shape) < 0.15, special, mats)
    return _matrix_batch(rng, kind)


@pytest.mark.parametrize(
    "kind",
    [
        "random",
        "integer-ties",
        "rank-deficient",
        "scale-1e-200",
        "scale-1e300",
        "overflow-pair",
        "inf-pair",
        "non-finite",
    ],
)
def test_one_matrix_route_has_the_bits_of_the_batch(rng, kind):
    # one matrix runs the rotations on Python floats, a batch on arrays:
    # each matrix must get exactly the bits of its row in the batch, and
    # neither route warns on overflow or NaN (warnings fail the suite)
    mats = _cross_route_batch(rng, kind)
    want = singular_values3(mats).view(np.uint64)
    for k, m in enumerate(mats):
        assert np.array_equal(singular_values3(m).view(np.uint64), want[k]), m


def test_one_rotation_body_serves_both_routes(rng, monkeypatch):
    # a batch runs `_sweep`, and the `_rotate` calls in it, on arrays, one
    # matrix on Python floats, and one matrix never enters the batched
    # kernel; each call's `xp` is logged under its name
    seen = {"_sweep": [], "_rotate": []}
    for name, xp_at in (("_sweep", 2), ("_rotate", 5)):

        def counted(*args, body=getattr(linalg3, name), log=seen[name], xp_at=xp_at):
            log.append(args[xp_at])
            return body(*args)

        monkeypatch.setattr(linalg3, name, counted)
    m = rng.standard_normal((3, 3))
    singular_values3(np.stack([m, m.T]))
    for log in seen.values():
        assert log and all(xp is np for xp in log)
        log.clear()

    def refuse(*args):
        raise AssertionError("one matrix entered the batched route")

    monkeypatch.setattr(linalg3, "_jacobi_eigenvalues", refuse)
    singular_values3(m)
    singular_values3(m[None])
    for log in seen.values():
        assert log and all(xp is linalg3._Floats for xp in log)


def _sort_rows(rng, n=600):
    """(n, 3) rows of random values, +-inf, equal values and NaNs, some with
    the sign bit or a payload set.  No -0.0: the kernel never makes one."""
    rows = rng.standard_normal((n, 3))
    payload = np.array([0x7FF8000000000123, 0xFFF8000000000000], dtype=np.uint64).view(float)
    special = rng.choice(np.concatenate([[np.nan, np.inf, -np.inf, 1.0, 2.0], payload]), rows.shape)
    return np.where(rng.random(rows.shape) < 0.4, special, rows)


@pytest.mark.parametrize("with_nan", [True, False])
def test_eigenvalue_sort_has_the_bits_of_np_sort(rng, monkeypatch, with_nan):
    rows = _sort_rows(rng)
    if not with_nan:
        rows = np.where(np.isnan(rows), 0.5, rows)
    want = np.sort(rows, axis=-1).view(np.uint64)
    calls = []

    def counted(*args, body=np.sort, **kwargs):
        calls.append(args[0].shape)
        return body(*args, **kwargs)

    monkeypatch.setattr(np, "sort", counted)
    # exactly diagonal matrices: no sweep runs, so the kernel only sorts
    zeros = [np.zeros(len(rows)) for _ in range(3)]
    got, sweeps = _jacobi_eigenvalues([np.array(r) for r in rows.T], zeros)
    assert sweeps == 0
    assert np.array_equal(got.view(np.uint64), want)
    # the min/max network sorts a NaN-free batch alone; np.sort sees only
    # the rows holding a NaN
    n_nan = np.count_nonzero(np.isnan(rows).any(axis=1))
    assert calls == ([(n_nan, 3)] if with_nan else [])
