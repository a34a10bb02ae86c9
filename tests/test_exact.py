"""The exact singular-value oracle: integer Gram, Descartes' count, brackets."""

from fractions import Fraction

import numpy as np
import pytest

from orthoglide import _exact
from orthoglide.kinematics import inverse_jacobian, leg_radicands
from orthoglide.linalg3 import singular_values3
from orthoglide.synthesis import synthesize
from orthoglide.workspace import Bounds

EPS = np.finfo(float).eps


def outside(values, brackets) -> float:
    """How far the values lie outside their brackets, at most (0 inside)."""
    return max(max(lo - v, v - hi, 0.0) for v, (lo, hi) in zip(values, brackets))


def test_brackets_contain_svd_on_well_conditioned_matrices(rng):
    mats = rng.standard_normal((150, 3, 3))
    want = np.sort(np.linalg.svd(mats, compute_uv=False), axis=-1)
    well = want[:, 0] > 0.01 * want[:, 2]
    assert np.count_nonzero(well) >= 100
    for m, w in zip(mats[well], want[well]):
        br = _exact.brackets(m)
        assert all(0.0 <= lo <= hi <= lo + EPS * w[2] for lo, hi in br)
        assert outside(w, br) <= 4 * EPS * w[2]


def test_brackets_are_relative_on_a_wide_spectrum():
    # an absolute bisection over [0, tr G] bracketed 1e-9 here only to 2.7%
    m = np.diag([1.0, 1e-6, 1e-9])
    for want, (lo, hi) in zip([1e-9, 1e-6, 1.0], _exact.brackets(m)):
        assert Fraction(lo) <= Fraction(want) <= Fraction(hi)
        assert hi - lo <= 4 * EPS * lo


@pytest.mark.parametrize(
    "m, zeros",
    [
        (np.zeros((3, 3)), 3),
        (np.diag([2.0, 0.0, 1.0]), 1),
        (np.outer([1.0, -2.0, 0.5], [3.0, 1e-9, 1.0]), 2),
    ],
    ids=["zero", "rank-2", "rank-1"],
)
def test_brackets_are_exactly_zero_on_singular_matrices(m, zeros):
    br = _exact.brackets(m)
    assert br[:zeros] == [(0.0, 0.0)] * zeros
    assert all(0.0 < lo <= hi for lo, hi in br[zeros:])


def diagonal_jinv(u, leg_length):
    """The inverse Jacobian at the diagonal pose (u, u, u), as the pose
    routes build it: a unit diagonal and the float coupling a off it."""
    p = np.full(3, u)
    return inverse_jacobian(p, p - np.sqrt(leg_radicands(p, leg_length)))


@pytest.mark.parametrize("u", [-120.0, -73.2, -20.0, 0.0, 35.5, 90.0, 126.8, 170.0])
def test_brackets_contain_the_diagonal_closed_form(design, u):
    # the exact singular values of [[1, a, a], [a, 1, a], [a, a, 1]] are
    # |1 + 2a| and the double |1 - a|, for the float a the matrix holds
    jinv = diagonal_jinv(u, design.leg_length)
    a = Fraction(jinv[0, 1])
    assert np.all(np.diagonal(jinv) == 1.0) and np.all(jinv[~np.eye(3, dtype=bool)] == jinv[0, 1])
    want = sorted([abs(1 + 2 * a), abs(1 - a), abs(1 - a)])
    for w, (lo, hi) in zip(want, _exact.brackets(jinv)):
        assert Fraction(lo) <= w <= Fraction(hi)


def double_root_counts(count):
    """`count` at, just below and just above the double eigenvalue
    (1 - a)^2 of M^T M at a diagonal pose; Descartes gives [3, 1, 1]."""
    a = 0.3
    m = [[1.0, a, a], [a, 1.0, a], [a, a, 1.0]]
    lam, d = (1 - Fraction(a)) ** 2, Fraction(1, 2**80)
    return [count(m, lam - d), count(m, lam), count(m, lam + d)]


def test_count_is_exact_at_a_double_eigenvalue():
    assert double_root_counts(_exact.count_above) == [3, 1, 1]


def _leading_minors_count(g, t):
    # Jacobi's rule: sign changes of the leading principal minors count the
    # negative eigenvalues, unless a minor vanishes, as it does where tau is
    # an eigenvalue of a leading block
    b = _exact._shifted(g, t)
    minors = [1, b[0][0], b[0][0] * b[1][1] - b[0][1] * b[1][0], -_exact._coefficients(b)[3]]
    signs = [c > 0 for c in minors if c]
    return 3 - sum(u != v for u, v in zip(signs, signs[1:]))


def _zero_as_sign_count(g, t):
    signs = [c >= 0 for c in _exact._coefficients(_exact._shifted(g, t))]
    return sum(u != v for u, v in zip(signs, signs[1:]))


@pytest.mark.parametrize("mutant", [_leading_minors_count, _zero_as_sign_count])
def test_mutant_counts_fail_the_double_eigenvalue(monkeypatch, mutant):
    monkeypatch.setattr(_exact, "_count", mutant)
    assert double_root_counts(_exact.count_above) != [3, 1, 1]


@pytest.mark.parametrize("lw, s_lo, s_hi", [(200.0, 0.5, 2.0), (200.0, 1 / 3, 3.0)])
def test_sorted_pose_route_within_3_eps_of_exact(rng, lw, s_lo, s_hi):
    # a tightening of the svd comparisons: a few hundred nodes of the 41^3
    # grid, its corners included, through the route the grid and `analyze`
    # take, the Jacobian of the sorted pose
    res = synthesize(lw, Bounds(s_lo, s_hi))
    axis = np.linspace(res.q1[0], res.q2[0], 41)
    corners = np.array(np.meshgrid(*[axis[[0, -1]]] * 3, indexing="ij")).reshape(3, -1).T
    nodes = np.concatenate([corners, axis[rng.integers(0, 41, (200, 3))]])
    p = np.sort(nodes, axis=1)
    jinv = inverse_jacobian(p, p - np.sqrt(leg_radicands(p, res.leg_length)))
    for m, got in zip(jinv, singular_values3(jinv)):
        br = _exact.brackets(m)
        assert outside(got, br) <= 3 * EPS * br[2][1]
