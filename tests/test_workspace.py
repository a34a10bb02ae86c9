"""Grid sweeps over the prescribed cube and the diagonal profile oracle."""

import io
import math

import numpy as np
import pytest

from orthoglide.errors import RangeOutsideWorkspace
from orthoglide.kinematics import DesignParams, inverse_kinematics
from orthoglide.performance import transmission_factors
from orthoglide.kinematics import inverse_jacobian
from orthoglide.workspace import (
    Bounds,
    CubeSpec,
    diagonal_profile,
    evaluate_grid,
    read_grid_csv,
    verify_cube,
    workspace_map,
    write_grid_csv,
)

B = Bounds(0.5, 2.0)


class TestDiagonalProfile:
    def test_origin_sample(self, design):
        s = diagonal_profile(design, -10.0, 10.0, 3)[1]
        assert s.u == 0.0
        assert s.a == 0.0
        assert s.sigma_fwd == (1.0, 1.0, 1.0)
        assert s.kappa == 1.0

    def test_binding_samples(self, design):
        L = design.leg_length
        hi = diagonal_profile(design, 0.0, L / math.sqrt(6.0), 2)[-1]
        assert hi.a == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(hi.sigma_fwd, [0.5, 2.0, 2.0], atol=1e-12)
        lo = diagonal_profile(design, -L / (3 * math.sqrt(2.0)), 0.0, 2)[0]
        assert lo.a == pytest.approx(-0.25, abs=1e-12)
        assert np.allclose(lo.sigma_fwd, [0.8, 0.8, 2.0], atol=1e-12)

    def test_agrees_with_generic_route(self, design):
        # closed form vs inverse_jacobian + transmission_factors, 1e-10
        for s in diagonal_profile(design, -70.0, 120.0, 17):
            p = (s.u, s.u, s.u)
            rho = inverse_kinematics(p, design)
            tf = transmission_factors(inverse_jacobian(p, rho, design))
            assert np.allclose(s.sigma_fwd, tf.sigma_fwd, atol=1e-10)
            assert s.kappa == pytest.approx(tf.kappa, abs=1e-10)

    def test_range_validation(self, design):
        L = design.leg_length
        with pytest.raises(RangeOutsideWorkspace):
            diagonal_profile(design, -10.0, L, 5)
        with pytest.raises(ValueError):
            diagonal_profile(design, 0.0, 10.0, 1)


class TestVerifyCube:
    def test_synthesized_cube_is_clean(self, design, proto):
        report = verify_cube(design, proto.cube, B, 21)
        assert report.n_points == 21**3
        assert report.n_unreachable == 0
        assert report.n_stroke_violations == 0
        assert report.n_bound_violations == 0
        assert report.ok

    def test_diagonal_within_bounds(self, design, proto):
        report = verify_cube(design, proto.cube, B, 21)
        diag = [p for p in report.points if p.x == p.y == p.z]
        assert len(diag) == 21
        for p in diag:
            assert p.sigma_min >= B.s_lo * (1 - 1e-9)
            assert p.sigma_max <= B.s_hi * (1 + 1e-9)

    def test_worst_case_binds_at_far_corner(self, design, proto):
        report = verify_cube(design, proto.cube, B, 21)
        q1, q2 = tuple(proto.q1), tuple(proto.q2)
        assert report.worst_sigma_min == pytest.approx(0.5, abs=1e-12)
        assert report.worst_sigma_max == pytest.approx(2.0, abs=1e-12)
        assert report.worst_sigma_min_at == pytest.approx(q2)
        # sigma_max = 2 binds at both reference points; computed exactly from
        # the rounded inputs the two values round to the same double, so the
        # reported location may be either one
        at = report.worst_sigma_max_at
        assert at == pytest.approx(q1) or at == pytest.approx(q2)
        corners = [p for p in report.points if (p.x, p.y, p.z) in (q1, q2)]
        assert len(corners) == 2
        for p in corners:
            assert p.sigma_max == pytest.approx(2.0, abs=1e-12)

    def test_zero_side_cube_is_single_isotropic_point(self, design):
        cube = CubeSpec.from_corner((0.0, 0.0, 0.0), 0.0)
        report = verify_cube(design, cube, B, 5)
        assert report.n_points == 1
        pt = report.points[0]
        assert (pt.sigma_min, pt.sigma_max, pt.kappa) == (1.0, 1.0, 1.0)
        assert report.ok

    def test_inflated_cube_violates(self, design, proto):
        cube = CubeSpec(1.5 * proto.q1, 1.5 * proto.q2)
        report = verify_cube(design, cube, B, 11)
        assert report.n_bound_violations + report.n_unreachable > 0

    def test_grid_matches_scalar_route(self, design, proto, rng):
        # vectorized node evaluation == scalar IK + factor computation
        points = evaluate_grid(design, proto.cube, 5)
        for pt in rng.choice(points, size=20, replace=False):
            assert pt.reachable
            rho = inverse_kinematics((pt.x, pt.y, pt.z), design)
            tf = transmission_factors(inverse_jacobian((pt.x, pt.y, pt.z), rho, design))
            assert pt.sigma_min == tf.sigma_fwd[0]
            assert pt.sigma_max == tf.sigma_fwd[2]
            assert pt.kappa == tf.kappa

    def test_reachable_points_close_the_legs(self, design, proto):
        for pt in evaluate_grid(design, proto.cube, 5):
            assert pt.reachable
            rho = inverse_kinematics((pt.x, pt.y, pt.z), design)
            p = np.array([pt.x, pt.y, pt.z])
            resid = [
                abs(np.linalg.norm(p - rho[i] * np.eye(3)[i]) - design.leg_length)
                for i in range(3)
            ]
            assert max(resid) <= 1e-9 * design.leg_length

    def test_diagonal_profile_agrees_with_grid(self, design, proto):
        # the closed-form profile and the generic grid sweep share the cube
        # diagonal nodes; they must agree to 1e-10 there
        n = 9
        report = verify_cube(design, proto.cube, B, n)
        diag = [p for p in report.points if p.x == p.y == p.z]
        profile = diagonal_profile(design, proto.q1[0], proto.q2[0], n)
        assert len(diag) == len(profile) == n
        for pt, s in zip(sorted(diag, key=lambda p: p.x), profile):
            assert pt.x == s.u
            assert pt.sigma_min == pytest.approx(s.sigma_fwd[0], abs=1e-10)
            assert pt.sigma_max == pytest.approx(s.sigma_fwd[2], abs=1e-10)
            assert pt.kappa == pytest.approx(s.kappa, abs=1e-10)

    def test_monotone_refinement(self, design, proto):
        coarse = verify_cube(design, proto.cube, B, 6)
        fine = verify_cube(design, proto.cube, B, 11)  # 2n - 1 contains the coarse grid
        assert fine.worst_sigma_min <= coarse.worst_sigma_min
        assert fine.worst_sigma_max >= coarse.worst_sigma_max

    def test_octant_symmetry(self, design, proto):
        # the rotation sweep is not bitwise permutation-symmetric, so the
        # map is invariant to solver precision rather than exactly
        points = evaluate_grid(design, proto.cube, 6)
        table = {(p.x, p.y, p.z): (p.sigma_min, p.sigma_max, p.kappa) for p in points}
        for (x, y, z), vals in table.items():
            for perm in ((y, x, z), (z, y, x), (x, z, y), (y, z, x), (z, x, y)):
                assert table[perm] == pytest.approx(vals, abs=1e-12)


class TestWorkspaceMap:
    def test_tiny_grid_record_count(self, design):
        cube = CubeSpec.from_corner((-5.0, -5.0, -5.0), 10.0)
        report = workspace_map(design, cube, B, 2)
        assert report.n_points == 8
        assert all(p.reachable for p in report.points)
        assert all(abs(p.kappa - 1.0) < 0.05 for p in report.points)

    def test_full_grid_record_count(self, design, proto):
        report = workspace_map(design, proto.cube, B, 21)
        assert report.n_points == 9261

    def test_csv_round_trip(self, design, tmp_path):
        # region straddling the workspace edge so NaN columns are exercised;
        # the 12-digit format is stable: read records re-serialize to the
        # identical file, and values agree to the written precision
        cube = CubeSpec.from_corner((100.0, 100.0, 100.0), 150.0)
        first = tmp_path / "map.csv"
        report = workspace_map(design, cube, B, 4, out=first)
        assert any(not p.reachable for p in report.points)
        back = read_grid_csv(first)
        assert len(back) == len(report.points)
        second = tmp_path / "again.csv"
        write_grid_csv(back, second)
        assert second.read_bytes() == first.read_bytes()
        for a, b in zip(report.points, back):
            assert (a.x, a.y, a.z) == pytest.approx((b.x, b.y, b.z), rel=1e-11)
            assert (a.reachable, a.within_stroke) == (b.reachable, b.within_stroke)
            for fa, fb in ((a.sigma_min, b.sigma_min), (a.sigma_max, b.sigma_max), (a.kappa, b.kappa)):
                assert fa == pytest.approx(fb, rel=1e-11) or (math.isnan(fa) and math.isnan(fb))

    def test_csv_bytes_deterministic(self, design, proto):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            report = verify_cube(design, proto.cube, B, 4)
            write_grid_csv(report.points, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert bufs[0].splitlines()[0] == "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"


class TestSpecTypes:
    def test_cube_validation(self):
        with pytest.raises(ValueError):
            CubeSpec((0, 0, 0), (1.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            CubeSpec((0, 0, 0), (-1.0, -1.0, -1.0))
        with pytest.raises(ValueError):
            CubeSpec((np.nan, 0, 0), (np.nan, 1.0, 1.0))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds(0.0, 2.0)
        with pytest.raises(ValueError):
            Bounds(1.5, 2.0)
        with pytest.raises(ValueError):
            Bounds(0.5, 0.9)
