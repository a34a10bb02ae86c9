"""Grid sweeps over the prescribed cube and the diagonal profile oracle."""

import dataclasses
import io
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import grid_xyz
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoglide import _exact, cli, workspace
from orthoglide._table import write_table
from orthoglide.errors import RangeOutsideWorkspace, SerialSingularity, Unreachable
from orthoglide.kinematics import (
    SERIAL_TOL,
    DesignParams,
    inverse_jacobian,
    inverse_kinematics,
    leg_radicands,
    pose_order,
    within_stroke,
)
from orthoglide.performance import forward_factors, kappa_from_factors, transmission_factors
from orthoglide.synthesis import synthesize
from orthoglide.workspace import (
    BOUND_REL_TOL,
    Bounds,
    CubeSpec,
    diagonal_profile,
    map_cube,
    verify_cube,
    write_grid_csv,
)

B = Bounds(0.5, 2.0)
# L / sqrt(3) for the prototype: (U, U, U) is the parallel singularity a = 1
U = 179.3150944336107


def on_diagonal(nodes):
    x, y, z = grid_xyz(nodes.axes).T
    return (x == y) & (y == z)


class TestDiagonalProfile:
    def test_origin_sample(self, design):
        prof = diagonal_profile(design, -10.0, 10.0, 3)
        assert [f.shape for f in prof] == [(3,), (3,), (3, 3), (3,)]
        assert prof.u[1] == 0.0
        assert prof.a[1] == 0.0
        assert tuple(prof.sigma_fwd[1]) == (1.0, 1.0, 1.0)
        assert prof.kappa[1] == 1.0

    def test_binding_samples(self, design):
        L = design.leg_length
        hi = diagonal_profile(design, 0.0, L / math.sqrt(6.0), 2)
        assert hi.a[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(hi.sigma_fwd[-1], [0.5, 2.0, 2.0], atol=1e-12)
        lo = diagonal_profile(design, -L / (3 * math.sqrt(2.0)), 0.0, 2)
        assert lo.a[0] == pytest.approx(-0.25, abs=1e-12)
        assert np.allclose(lo.sigma_fwd[0], [0.8, 0.8, 2.0], atol=1e-12)

    def test_agrees_with_generic_route(self, design):
        # closed form vs inverse_jacobian + transmission_factors, 1e-10
        prof = diagonal_profile(design, -70.0, 120.0, 17)
        for u, fwd, kappa in zip(prof.u, prof.sigma_fwd, prof.kappa):
            p = (u, u, u)
            rho = inverse_kinematics(p, design)
            tf = transmission_factors(inverse_jacobian(p, rho))
            assert np.allclose(fwd, tf.sigma_fwd, atol=1e-10)
            assert kappa == pytest.approx(tf.kappa, abs=1e-10)

    def test_range_validation(self, design):
        L = design.leg_length
        with pytest.raises(RangeOutsideWorkspace):
            diagonal_profile(design, -10.0, L, 5)
        with pytest.raises(ValueError):
            diagonal_profile(design, 0.0, 10.0, 1)

    @pytest.mark.parametrize(
        "u_min, u_max", [(math.nan, 10.0), (0.0, math.nan), (-math.inf, 0.0), (0.0, math.inf)]
    )
    def test_non_finite_range_rejected(self, design, u_min, u_max):
        with pytest.raises(ValueError, match=r"^diagonal range must be finite"):
            diagonal_profile(design, u_min, u_max, 5)

    def test_parallel_singularity_rejected(self, design):
        # det Jinv = (1+2a)(1-a)^2 vanishes at a = -1/2 (u = -L/sqrt(6)) and
        # a = 1 (u = L/sqrt(3)), both inside |u| < L/sqrt(2)
        L = design.leg_length
        lo, hi = -L / math.sqrt(6.0), L / math.sqrt(3.0)
        for u_min, u_max in ((lo - 1.0, 0.0), (0.0, hi + 1.0), (lo - 1.0, hi + 1.0)):
            with pytest.raises(RangeOutsideWorkspace, match="parallel singularity"):
                diagonal_profile(design, u_min, u_max, 5)
        samples = diagonal_profile(design, lo + 1.0, hi - 1.0, 5)
        assert np.all(np.isfinite(samples.sigma_fwd))

    def test_near_parallel_singularity_rejected(self, design):
        # a range ending one ulp short of 1 + 2a = 0 or 1 - a = 0 would report
        # factors near 1e15; within SERIAL_TOL of either counts as singular
        L = design.leg_length
        lo, hi = -L / math.sqrt(6.0), L / math.sqrt(3.0)
        for u_min, u_max in ((np.nextafter(lo, 0.0), 0.0), (0.0, np.nextafter(hi, 0.0))):
            with pytest.raises(RangeOutsideWorkspace, match="parallel singularity"):
                diagonal_profile(design, u_min, u_max, 3)
        samples = diagonal_profile(design, lo + 1e-3, hi - 1e-3, 3)
        assert samples.sigma_fwd.max() < 1e6


class TestVerifyCube:
    def test_synthesized_cube_is_clean(self, design, proto):
        report = verify_cube(design, proto.cube, B, 21)
        assert report.n_points == 21**3
        assert report.n_unreachable == 0
        assert report.n_stroke_violations == 0
        assert report.n_bound_violations == 0
        assert report.ok

    def test_one_node_per_axis_rejected(self, design, proto):
        with pytest.raises(ValueError, match="need at least 2 nodes per axis"):
            verify_cube(design, proto.cube, B, 1)

    def test_diagonal_within_bounds(self, design, proto):
        report = map_cube(design, proto.cube, B, 21)
        diag = on_diagonal(report.nodes)
        assert np.count_nonzero(diag) == 21
        assert np.all(report.nodes.sigma_min[diag] >= B.s_lo * (1 - 1e-9))
        assert np.all(report.nodes.sigma_max[diag] <= B.s_hi * (1 + 1e-9))

    def test_worst_case_binds_at_far_corner(self, design, proto):
        report = map_cube(design, proto.cube, B, 21)
        q1, q2 = tuple(proto.q1), tuple(proto.q2)
        assert report.worst_sigma_min == pytest.approx(0.5, abs=1e-12)
        assert report.worst_sigma_max == pytest.approx(2.0, abs=1e-12)
        assert report.worst_sigma_min_at == pytest.approx(q2)
        # sigma_max = 2 binds at both reference points; computed exactly from
        # the rounded inputs the two values round to the same double, so the
        # reported location may be either one
        at = report.worst_sigma_max_at
        assert at == pytest.approx(q1) or at == pytest.approx(q2)
        xyz = grid_xyz(report.nodes.axes)
        corners = np.all(xyz == q1, axis=1) | np.all(xyz == q2, axis=1)
        assert np.count_nonzero(corners) == 2
        for sigma_max in report.nodes.sigma_max[corners]:
            assert sigma_max == pytest.approx(2.0, abs=1e-12)

    def test_zero_side_cube_is_single_isotropic_point(self, design):
        cube = CubeSpec((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        report = map_cube(design, cube, B, 5)
        assert report.n_points == 1
        nodes = report.nodes
        assert (nodes.sigma_min[0], nodes.sigma_max[0], nodes.kappa[0]) == (1.0, 1.0, 1.0)
        assert report.ok

    def test_inflated_cube_violates(self, design, proto):
        cube = CubeSpec(1.5 * proto.q1, 1.5 * proto.q2)
        report = verify_cube(design, cube, B, 11)
        assert report.n_bound_violations + report.n_unreachable > 0

    def test_grid_matches_scalar_route(self, design, proto):
        # vectorized node evaluation == scalar IK + factor computation of
        # the sorted pose, as `analyze` runs them, at every one of the 125 nodes
        report = map_cube(design, proto.cube, B, 5)
        nodes = report.nodes
        assert report.n_points == 125
        for k, p in enumerate(grid_xyz(nodes.axes)):
            assert nodes.reachable[k]
            rho = inverse_kinematics(p, design)
            tf = transmission_factors(inverse_jacobian(p, rho), pose_order(p))
            assert nodes.sigma_min[k] == tf.sigma_fwd[0]
            assert nodes.sigma_max[k] == tf.sigma_fwd[2]
            assert nodes.kappa[k] == tf.kappa

    @pytest.mark.parametrize(
        "make_cube",
        [
            # map-export's cube: off the diagonal, so every node is evaluated
            lambda r: CubeSpec(r.q1 + [-20.0, 10.0, 30.0], r.q1 + [210.0, 240.0, 260.0]),
            # partly unreachable, with near-singular nodes at its edge
            lambda r: CubeSpec(1.8 * r.q1, 1.8 * r.q2),
        ],
        ids=["off-diagonal", "oversized-1.8x"],
    )
    def test_grid_matches_pose_route_off_the_prototype(self, design, proto, make_cube):
        # a grid evaluates its nodes in batches, a pose query one matrix at
        # a time, as `analyze` does: every reachable node must get the same
        # bits either way
        nodes = map_cube(design, make_cube(proto), B, 15).nodes
        xyz = grid_xyz(nodes.axes)
        reachable = np.flatnonzero(nodes.reachable)
        assert len(reachable) >= 3000
        for k in reachable:
            p = xyz[k]
            jinv = inverse_jacobian(p, inverse_kinematics(p, design))
            tf = transmission_factors(jinv, pose_order(p))
            assert nodes.sigma_min[k] == tf.sigma_fwd[0]
            assert nodes.sigma_max[k] == tf.sigma_fwd[2]
            assert nodes.kappa[k] == tf.kappa

    def test_reachable_points_close_the_legs(self, design, proto):
        nodes = map_cube(design, proto.cube, B, 5).nodes
        for p, reachable in zip(grid_xyz(nodes.axes), nodes.reachable):
            assert reachable
            rho = inverse_kinematics(p, design)
            resid = [
                abs(np.linalg.norm(p - rho[i] * np.eye(3)[i]) - design.leg_length)
                for i in range(3)
            ]
            assert max(resid) <= 1e-9 * design.leg_length

    def test_diagonal_profile_agrees_with_grid(self, design, proto):
        # the closed-form profile and the generic grid sweep share the cube
        # diagonal nodes; they must agree to 1e-10 there
        n = 9
        nodes = map_cube(design, proto.cube, B, n).nodes
        xyz = grid_xyz(nodes.axes)
        diag = np.flatnonzero(on_diagonal(nodes))
        profile = diagonal_profile(design, proto.q1[0], proto.q2[0], n)
        assert len(diag) == len(profile.u) == n
        by_x = diag[np.argsort(xyz[diag, 0], kind="stable")]
        for k, u, fwd, kappa in zip(by_x, profile.u, profile.sigma_fwd, profile.kappa):
            assert xyz[k, 0] == u
            assert nodes.sigma_min[k] == pytest.approx(fwd[0], abs=1e-10)
            assert nodes.sigma_max[k] == pytest.approx(fwd[2], abs=1e-10)
            assert nodes.kappa[k] == pytest.approx(kappa, abs=1e-10)

    def test_monotone_refinement(self, design, proto):
        coarse = verify_cube(design, proto.cube, B, 6)
        fine = verify_cube(design, proto.cube, B, 11)  # 2n - 1 contains the coarse grid
        assert fine.worst_sigma_min <= coarse.worst_sigma_min
        assert fine.worst_sigma_max >= coarse.worst_sigma_max

    def test_octant_symmetry(self, design, proto):
        # permuting a pose permutes its joints exactly, and its factors are
        # those of the sorted pose, so the map is symmetric bit for bit
        nodes = map_cube(design, proto.cube, B, 6).nodes
        values = zip(nodes.sigma_min.tolist(), nodes.sigma_max.tolist(), nodes.kappa.tolist())
        table = dict(zip(map(tuple, grid_xyz(nodes.axes).tolist()), values))
        for (x, y, z), vals in table.items():
            for perm in ((y, x, z), (z, y, x), (x, z, y), (y, z, x), (z, x, y)):
                assert table[perm] == vals

    POSES = {
        "equal-coordinates": [(10.0, 10.0, 90.0), (90.0, 10.0, 90.0), (-50.0, 10.0, 10.0), (-50.0,) * 3],
        "signed-zeros": [(0.0, -0.0, 40.0), (-0.0, 40.0, -0.0), (-0.0, -60.0, 0.0), (0.0, -0.0, -0.0)],
    }

    @pytest.mark.parametrize("kind", ["random", "equal-coordinates", "signed-zeros"])
    def test_pose_permutations_get_identical_factors(self, design, proto, rng, monkeypatch, kind):
        # exact invariance is a promise of the pose routes, which take the
        # factors from the sorted pose: every permutation of a pose, ties and
        # zeros of either sign included, gets the same bits from a grid node
        # (a one-node cube) and from `analyze`
        if kind == "random":
            poses = (proto.q1 + (proto.q2 - proto.q1) * rng.random((4, 3))).tolist()
        else:
            poses = self.POSES[kind]
        docs = []
        monkeypatch.setattr(cli, "_emit_json", lambda doc, out, exact_keys=None: docs.append(doc))
        explicit = [
            *("--leg-length", repr(design.leg_length)),
            *("--stroke-min", repr(design.stroke_min[0]), "--stroke-max", repr(design.stroke_max[0])),
        ]
        for pose in poses:
            bits = set()
            for perm in itertools.permutations(pose):
                nodes = map_cube(design, CubeSpec(perm, perm), B, 2).nodes
                res = CliRunner().invoke(cli.main, ["analyze", *explicit, "--", *map(repr, perm)])
                assert res.exit_code == 0, res.output
                doc = docs.pop()
                grid = [nodes.sigma_min[0], nodes.sigma_max[0], nodes.kappa[0]]
                analyzed = [doc["sigma_fwd"][0], doc["sigma_fwd"][2], doc["kappa"]]
                assert np.array_equal(np.array(grid).view(np.uint64), np.array(analyzed).view(np.uint64))
                bits.add(np.array(grid).tobytes())
            assert len(bits) == 1, pose


class TestWorkspaceMap:
    def test_tiny_grid_record_count(self, design):
        cube = CubeSpec((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0))
        report = map_cube(design, cube, B, 2)
        assert report.n_points == 8
        assert np.all(report.nodes.reachable)
        assert np.all(np.abs(report.nodes.kappa - 1.0) < 0.05)

    def test_full_grid_record_count(self, design, proto):
        report = verify_cube(design, proto.cube, B, 21)
        assert report.n_points == 9261

    def test_csv_bytes_deterministic(self, design, proto):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            report = map_cube(design, proto.cube, B, 4)
            write_grid_csv(report.nodes, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert bufs[0].splitlines()[0] == "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"

    @pytest.mark.parametrize("case", ["coordinates-to-2e4", "zero-side"])
    def test_csv_is_the_table_of_the_expanded_columns(self, design, case):
        # the coordinates go out as coded columns (axis, index); the bytes
        # are those of writing the node coordinates as three float columns
        if case == "coordinates-to-2e4":
            # 8-word coordinates beside 6-word factors
            d, q1, n = DesignParams(leg_length=1e5), np.array([1e4, -2e4, 2.5e3]), 23
            cube = CubeSpec(q1, q1 + 1e4)
        else:
            d, p, n = design, np.array([12.5, 0.0, -7.25]), 3
            cube = CubeSpec(p, p)
        nodes = map_cube(d, cube, B, n).nodes
        got, want = io.StringIO(), io.StringIO()
        write_grid_csv(nodes, got)
        columns = [nodes.reachable, nodes.within_stroke, nodes.sigma_min, nodes.sigma_max]
        write_table(want, workspace.GRID_CSV_HEADER, [*grid_xyz(nodes.axes).T, *columns, nodes.kappa])
        assert got.getvalue() == want.getvalue()
        if case == "zero-side":
            assert got.getvalue().splitlines()[1].startswith("12.5,0,-7.25,1,1,")

    def test_export_builds_no_coordinate_array(self, design, proto):
        # GridNodes keeps the three axes and the five result arrays, and no
        # (N, 3) coordinate array, before or after the export
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        report = map_cube(design, CubeSpec(corner, corner + 230.0), B, 9)
        fields = ["axes", "reachable", "within_stroke", "sigma_min", "sigma_max", "kappa"]
        assert [f.name for f in dataclasses.fields(report.nodes)] == fields
        write_grid_csv(report.nodes, io.StringIO())
        assert list(vars(report.nodes)) == fields
        xyz = grid_xyz(report.nodes.axes)
        assert xyz.shape == (9**3, 3)
        assert [tuple(a) for a in report.nodes.axes] == [
            tuple(np.unique(xyz[:, k])) for k in range(3)
        ]


def reference_loop(nodes, b, rel_tol=BOUND_REL_TOL):
    """The per-node loop verify_cube once ran, as a plain Python oracle:
    counts (unreachable, stroke, bound), then the worst sigma_min and
    sigma_max with their first locations in grid order."""
    counts = [0, 0, 0]
    worst_min, worst_min_at = math.nan, None
    worst_max, worst_max_at = math.nan, None
    lo_edge = b.s_lo * (1.0 - rel_tol)
    hi_edge = b.s_hi * (1.0 + rel_tol)
    for xyz, reachable, within, s_min, s_max in zip(
        grid_xyz(nodes.axes).tolist(),
        nodes.reachable.tolist(),
        nodes.within_stroke.tolist(),
        nodes.sigma_min.tolist(),
        nodes.sigma_max.tolist(),
    ):
        if not reachable:
            counts[0] += 1
            continue
        if not within:
            counts[1] += 1
        if s_min < lo_edge or s_max > hi_edge:
            counts[2] += 1
        if not (s_min >= worst_min):  # also catches the nan start
            worst_min, worst_min_at = s_min, tuple(xyz)
        if not (s_max <= worst_max):
            worst_max, worst_max_at = s_max, tuple(xyz)
    return tuple(counts), worst_min, worst_min_at, worst_max, worst_max_at


class TestReferenceLoop:
    # (cube from the prototype synthesis, nodes per axis, counts measured
    # with the per-node loop: unreachable, stroke, bound)
    CASES = {
        "inflated-1.5x": (lambda r: CubeSpec(1.5 * r.q1, 1.5 * r.q2), 11, (0, 681, 311)),
        "oversized-1.8x": (lambda r: CubeSpec(1.8 * r.q1, 1.8 * r.q2), 15, (43, 2310, 1335)),
        "edge-straddling": (
            lambda r: CubeSpec((100.0, 100.0, 100.0), (250.0, 250.0, 250.0)),
            4,
            (25, 38, 35),
        ),
        "prototype-41": (lambda r: r.cube, 41, (0, 0, 0)),
        "all-unreachable": (lambda r: CubeSpec((400.0, 400.0, 400.0), (410.0, 410.0, 410.0)), 3, (27, 0, 0)),
        # sigma_max is +inf at the far corner (U, U, U)
        "parallel-singular-corner": (lambda r: CubeSpec(np.full(3, U - 10.0), np.full(3, U)), 3, (0, 27, 27)),
        # zero-side cubes: the one node at Q1 or at Q2, where the bounds bind
        "point-at-q1": (lambda r: CubeSpec(r.q1, r.q1), 2, (0, 0, 0)),
        "point-at-q2": (lambda r: CubeSpec(r.q2, r.q2), 2, (0, 0, 0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reductions_equal_the_loop(self, design, proto, case):
        make_cube, n, expected = self.CASES[case]
        report = map_cube(design, make_cube(proto), B, n)
        counts, worst_min, worst_min_at, worst_max, worst_max_at = reference_loop(report.nodes, B)
        got = (report.n_unreachable, report.n_stroke_violations, report.n_bound_violations)
        assert got == counts == expected
        assert report.ok == (counts == (0, 0, 0))
        # with no reachable node both sides keep nan and None
        assert np.array_equal(
            [report.worst_sigma_min, report.worst_sigma_max], [worst_min, worst_max], equal_nan=True
        )
        assert report.worst_sigma_min_at == worst_min_at
        assert report.worst_sigma_max_at == worst_max_at

    def test_infinite_sigma_max_is_the_worst(self, design, proto):
        make_cube, n, _ = self.CASES["parallel-singular-corner"]
        report = verify_cube(design, make_cube(proto), B, n)
        assert report.worst_sigma_max == math.inf
        assert report.worst_sigma_max_at == (U, U, U)

    def test_sigma_max_tie_resolves_to_first_node(self, design, proto):
        # at 41^3 sigma_max of the prototype ties at Q1 and Q2; the report
        # names the first in x-major order, as the loop's strict > did
        report = map_cube(design, proto.cube, B, 41)
        ties = np.flatnonzero(report.nodes.sigma_max == report.worst_sigma_max)
        assert len(ties) >= 2
        assert report.worst_sigma_max_at == tuple(grid_xyz(report.nodes.axes)[ties[0]].tolist())


def refuse_wedge_expansion(m):
    raise AssertionError("the wedge was expanded")


class TestWedgeReduction:
    """On a symmetric grid `map_cube` reduces over the wedge nodes it
    evaluated, each counted once per grid node it stands for, and then
    expands them to the whole grid's nodes."""

    def test_report_equals_the_loop_without_expanding(self, design, proto, monkeypatch):
        # the oversized cube: every count is nonzero, so the weights matter
        n = 15
        cube = CubeSpec(1.8 * proto.q1, 1.8 * proto.q2)
        layout = workspace._layout(design, cube, n)
        monkeypatch.setattr(workspace, "_wedge_slots", refuse_wedge_expansion)
        report = workspace._summarize(n, layout, workspace._evaluate(design, layout), B)
        assert report.n_points == n**3
        assert report.nodes is None
        monkeypatch.undo()
        mapped = map_cube(design, cube, B, n)
        assert dataclasses.replace(mapped, nodes=None) == report
        counts, worst_min, worst_min_at, worst_max, worst_max_at = reference_loop(mapped.nodes, B)
        assert all(counts)
        got = (report.n_unreachable, report.n_stroke_violations, report.n_bound_violations)
        assert got == counts
        assert (report.worst_sigma_min, report.worst_sigma_min_at) == (worst_min, worst_min_at)
        assert (report.worst_sigma_max, report.worst_sigma_max_at) == (worst_max, worst_max_at)

    @pytest.mark.parametrize("n", [2, 3, 15, 41])
    def test_weights_count_the_nodes_each_wedge_node_fills(self, design, proto, n):
        _, index, symmetric = workspace._layout(design, proto.cube, n)
        assert symmetric
        weights = workspace._orbit_sizes(index)
        assert weights.sum() == n**3
        slots = workspace._wedge_slots(n)
        assert np.array_equal(np.bincount(slots, minlength=len(weights)), weights)

    def test_other_grids_count_each_node_once(self, design, proto):
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        cube = CubeSpec(corner, corner + 230.0)
        _, index, symmetric = workspace._layout(design, cube, 5)
        assert not symmetric
        assert index.shape == (3, 5**3)
        report = map_cube(design, cube, B, 5)
        counts = reference_loop(report.nodes, B)[0]
        assert counts == (0, 46, 24)
        assert (report.n_unreachable, report.n_stroke_violations, report.n_bound_violations) == counts


def full_evaluation(d, cube, n):
    """Reference sweep: every node of the grid evaluated, no use of symmetry.
    The stroke flags are the node's own, its factors those of the pose with
    its coordinates sorted by `np.sort`.

    Returns (xyz, reachable, within_stroke, sigma_min, sigma_max, kappa)."""
    axes = [np.unique(np.linspace(cube.q1[k], cube.q2[k], n)) for k in range(3)]
    xyz = grid_xyz(axes)
    L = d.leg_length
    rad = leg_radicands(xyz, L)
    reachable = np.all(rad > (SERIAL_TOL * L) ** 2, axis=1)
    within = np.zeros(len(xyz), dtype=bool)
    fwd = np.full((len(xyz), 3), np.nan)
    kappa = np.full(len(xyz), np.nan)
    rho = xyz[reachable] - np.sqrt(rad[reachable])
    within[reachable] = np.all(within_stroke(rho, d), axis=1)
    xs = np.sort(xyz[reachable], axis=1)
    fwd[reachable] = forward_factors(inverse_jacobian(xs, xs - np.sqrt(leg_radicands(xs, L))))
    kappa[reachable] = kappa_from_factors(fwd[reachable])
    return xyz, reachable, within, fwd[:, 0], fwd[:, 2], kappa


def _synthesized(lw, s_lo, s_hi):
    res = synthesize(lw, Bounds(s_lo, s_hi))
    return res.design(), res.cube


def _scaled_1_8(d, cube):
    # the oversized cube of TestReferenceLoop: some nodes are unreachable
    return d, CubeSpec(1.8 * cube.q1, 1.8 * cube.q2)


def _one_ulp_off(d, cube):
    q2 = cube.q2.copy()
    q2[1] = np.nextafter(q2[1], np.inf)
    return d, CubeSpec(cube.q1, q2)


def _past_the_reach(d, cube):
    # a cube reaching far beyond the workspace: whole slabs of it unreachable
    return d, CubeSpec(np.full(3, -100.0), np.full(3, 500.0))


def _unequal_strokes(d, cube):
    # y travel starts later and z travel ends sooner: some nodes break them
    lo, hi = d.stroke_min[0], d.stroke_max[0]
    return DesignParams(d.leg_length, (lo, lo + 5.0, lo), (hi, hi, hi - 5.0)), cube


class TestSymmetricWedge:
    """A grid symmetric in x, y and z is evaluated on its i <= j <= k wedge
    only; the results equal a full evaluation bit for bit.  The evaluated
    nodes go through the IK in slabs of `_SLAB_NODES`, in order."""

    # (design and cube, nodes per axis, whether the wedge is used)
    CASES = {
        "prototype-41": (lambda: _synthesized(200.0, 0.5, 2.0), 41, True),
        "wide-bounds-41": (lambda: _synthesized(200.0, 1 / 3, 3.0), 41, True),
        "narrow-bounds-41": (lambda: _synthesized(120.0, 0.7, 1.5), 41, True),
        "unreachable-nodes": (lambda: _scaled_1_8(*_synthesized(200.0, 0.5, 2.0)), 15, True),
        "corner-one-ulp-off": (lambda: _one_ulp_off(*_synthesized(200.0, 0.5, 2.0)), 21, False),
        "unequal-strokes": (lambda: _unequal_strokes(*_synthesized(200.0, 0.5, 2.0)), 21, False),
        "unreachable-slab": (
            lambda: _one_ulp_off(*_past_the_reach(*_synthesized(200.0, 0.5, 2.0))),
            31,
            False,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_evaluation(self, monkeypatch, case):
        make, n, uses_wedge = self.CASES[case]
        d, cube = make()
        evaluated = []

        def counting_radicands(p, leg_length):
            evaluated.append(len(p))
            return leg_radicands(p, leg_length)

        monkeypatch.setattr(workspace, "leg_radicands", counting_radicands)
        nodes = map_cube(d, cube, B, n).nodes
        S = workspace._SLAB_NODES
        N = n * (n + 1) * (n + 2) // 6 if uses_wedge else n**3
        assert evaluated == [min(S, N - s) for s in range(0, N, S)]

        xyz, reachable, within, sigma_min, sigma_max, kappa = full_evaluation(d, cube, n)
        assert np.array_equal(grid_xyz(nodes.axes), xyz)
        assert np.array_equal(nodes.reachable, reachable)
        assert np.array_equal(nodes.within_stroke, within)
        for got, want in (
            (nodes.sigma_min, sigma_min),
            (nodes.sigma_max, sigma_max),
            (nodes.kappa, kappa),
        ):
            assert np.array_equal(got, want, equal_nan=True)
        if case == "unreachable-nodes":
            assert 0 < np.count_nonzero(~reachable) < len(xyz)
        if case == "unequal-strokes":
            assert 0 < np.count_nonzero(~within) < len(xyz)
        if case == "unreachable-slab":
            # the kernels get an empty (0, 3, 3) batch for the last slab
            per_slab = [np.count_nonzero(reachable[s : s + S]) for s in range(0, N, S)]
            assert per_slab[0] > 0 and per_slab[-1] == 0


def assert_pruned_summary_is_the_loop(d, cube, b, n):
    """`verify_cube`'s summary, from the box-pruned route, equals the
    reference loop over `map_cube`'s nodes: counts, worst values (==, or
    both NaN) and their locations.  Returns the counts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workspace, "_wedge_slots", refuse_wedge_expansion)
        report = verify_cube(d, cube, b, n)
    assert report.nodes is None
    counts = (report.n_unreachable, report.n_stroke_violations, report.n_bound_violations)
    worst_min, worst_min_at = report.worst_sigma_min, report.worst_sigma_min_at
    worst_max, worst_max_at = report.worst_sigma_max, report.worst_sigma_max_at
    want = reference_loop(map_cube(d, cube, b, n).nodes, b)
    assert counts == want[0]
    assert np.array_equal([worst_min, worst_max], [want[1], want[3]], equal_nan=True)
    assert (worst_min_at, worst_max_at) == (want[2], want[4])
    return counts


def exactly_at_least(a, p, e2) -> bool:
    """a <= p / sqrt(e2), decided in rationals, for e2 > 0."""
    if a <= 0 <= p:
        return True
    if p < 0 <= a or p <= 0 < a:
        return False
    # a and p of one sign: compare (a sqrt(e2))^2 with p^2
    return a * a * e2 <= p * p if a > 0 else a * a * e2 >= p * p


@st.composite
def grid_cases(draw):
    """(design, cube, bounds, nodes per axis): a synthesis with random lw,
    s_lo and s_hi, verified on its own cube or, under an explicit design
    with unequal strokes, on that cube shifted or scaled about its centre;
    grids of 2 to 45 nodes per axis."""
    lw = draw(st.floats(20.0, 500.0))
    s_lo = draw(st.floats(0.2, 0.95))
    s_hi = draw(st.floats(1.05, 5.0) | st.just(1e4))
    res = synthesize(lw, Bounds(s_lo, s_hi))
    d, cube = res.design(), res.cube
    kind = draw(st.sampled_from(["synthesized", "shifted", "scaled"]))
    if kind != "synthesized":
        lo, hi = d.stroke_min[0], d.stroke_max[0]
        nudge = st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3)
        d = DesignParams(
            d.leg_length,
            [lo + x * (hi - lo) for x in draw(nudge)],
            [hi + x * (hi - lo) for x in draw(nudge)],
        )
        centre = (cube.q1 + cube.q2) / 2.0
        if kind == "shifted":
            shift = lw * np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)))
            cube = CubeSpec(cube.q1 + shift, cube.q2 + shift)
        else:
            scale = draw(st.floats(0.5, 1.6))
            cube = CubeSpec(centre + scale * (cube.q1 - centre), centre + scale * (cube.q2 - centre))
    return d, cube, res.bounds, draw(st.integers(2, 45))


class TestPrunedSummary:
    """`verify_cube` evaluates only the nodes of the boxes that the sign
    tests of `_box_pass`, `_slider_range` and the worst-case references of
    `_summary_nodes` cannot decide, on every grid however small; each of
    those nodes gets the results the full evaluation gives it, and the
    summary equals the full evaluation's."""

    @pytest.mark.parametrize("case", sorted(TestReferenceLoop.CASES))
    def test_reference_loop_cases(self, design, proto, case):
        make_cube, n, _ = TestReferenceLoop.CASES[case]
        assert_pruned_summary_is_the_loop(design, make_cube(proto), B, n)

    @pytest.mark.parametrize("case", sorted(TestSymmetricWedge.CASES))
    def test_symmetric_wedge_cases(self, case):
        make, n, _ = TestSymmetricWedge.CASES[case]
        assert_pruned_summary_is_the_loop(*make(), B, n)

    # design-sweep's seed-1 and seed-2 requests: lw, s_lo, s_hi, at 41^3
    REQUESTS = [
        (336.69159650294466, 0.5894930328274591, 2.3416515849810082),
        (171.7197777530639, 0.4717337411617369, 1.6496086178564955),
        (380.71205150343707, 0.6696099198946595, 1.7018885294742414),
        (285.25287319668917, 0.6421106984654092, 2.7264626151379248),
        (129.91621188588425, 0.4817639156168482, 2.3043290426913887),
        (149.3474608839948, 0.46342735465325047, 2.738617350877074),
        (298.0629106408571, 0.5930454042225923, 2.631787839813443),
        (116.64197135694825, 0.5243987010941604, 1.5194437636190694),
    ]

    @pytest.mark.parametrize("request_", REQUESTS)
    def test_design_sweep_requests(self, request_):
        lw, s_lo, s_hi = request_
        res = synthesize(lw, Bounds(s_lo, s_hi))
        assert_pruned_summary_is_the_loop(res.design(), res.cube, res.bounds, 41)

    def test_tail_bounds_cube(self):
        # [0.5, 1e4]: sigma_max at Q2 is 10000.0000304, past the bound
        res = synthesize(200.0, Bounds(0.5, 1e4))
        assert_pruned_summary_is_the_loop(res.design(), res.cube, res.bounds, 41)

    @settings(max_examples=200, deadline=None)
    @given(grid_cases())
    def test_random_grids(self, case):
        assert_pruned_summary_is_the_loop(*case)

    # a stroke limit of axis 1 set one ulp inside the rho_1 the IK gives at
    # a corner node of a box of the 21^3 grid: stroke_max just below it at
    # the far corner (hi_1, the greatest |p_j| and |p_k|), stroke_min just
    # above it at the near corner (lo_1, the least |p_j| and |p_k|), so the
    # box's slider range only just leaves the stroke
    BINDING_STROKES = [
        ("stroke_max", (1, 2, 1)),
        ("stroke_max", (0, 4, 4)),
        ("stroke_max", (1, 1, 0)),
        ("stroke_min", (2, 1, 3)),
        ("stroke_min", (3, 2, 2)),
        ("stroke_min", (1, 4, 2)),
    ]

    BINDING_IDS = [f"{limit}-{''.join(map(str, box))}" for limit, box in BINDING_STROKES]

    @pytest.mark.parametrize("limit, box", BINDING_STROKES, ids=BINDING_IDS)
    def test_binding_stroke(self, design, proto, limit, box):
        d, cube = self._binding_stroke(design, proto, limit, box)
        counts = assert_pruned_summary_is_the_loop(d, cube, B, 21)
        assert counts[1] > 0

    @staticmethod
    def _binding_stroke(design, proto, limit, box):
        """The prototype's design with the one stroke limit of
        BINDING_STROKES moved, and its cube."""
        n = 21
        size = workspace._BOX_NODES
        axes = workspace._grid_axes(proto.cube, n)
        nodes = [a[size * i : size * (i + 1)] for a, i in zip(axes, box)]
        far = limit == "stroke_max"
        pose = [x[(np.argmax if far else np.argmin)(np.abs(x))] for x in nodes]
        pose[0] = nodes[0][-1 if far else 0]
        rho_1 = inverse_kinematics(pose, design)[0]
        strokes = {"stroke_min": list(design.stroke_min), "stroke_max": list(design.stroke_max)}
        strokes[limit][0] = np.nextafter(rho_1, -np.inf if far else np.inf)
        return DesignParams(design.leg_length, **strokes), proto.cube

    @pytest.mark.parametrize(
        "case",
        ["off-diagonal", "inflated-1.5x", "design-sweep", "wide-bounds", *BINDING_STROKES],
        ids=["off-diagonal", "inflated-1.5x", "design-sweep", "wide-bounds", *BINDING_IDS],
    )
    def test_kept_nodes_match_the_full_route(self, design, proto, case):
        # the nodes the box pass keeps get the full route's results, bit for
        # bit: NaN factors mean unreachable on both routes
        d, b, n = design, B, 41
        if case == "off-diagonal":  # map-export's cube
            corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
            cube = CubeSpec(corner, corner + 230.0)
        elif case == "inflated-1.5x":
            cube = CubeSpec(1.5 * proto.q1, 1.5 * proto.q2)
        elif case == "design-sweep":  # synthesized, so on the wedge
            lw, s_lo, s_hi = self.REQUESTS[0]
            res = synthesize(lw, Bounds(s_lo, s_hi))
            d, cube, b = res.design(), res.cube, res.bounds
        elif case == "wide-bounds":  # two calls, merged (`test_second_call`)
            cube, b, n = self._shifted(proto), self.WIDE, 21
        else:
            d, cube = self._binding_stroke(design, proto, *case)
            n = 21
        layout = workspace._layout(d, cube, n)
        kept, results = workspace._summary_nodes(d, b, *workspace._grid(d, cube, n))
        assert 0 < kept.index.shape[1] < layout.index.shape[1]
        shape = tuple(len(a) for a in layout.axes)
        at = np.searchsorted(
            np.ravel_multi_index(layout.index, shape), np.ravel_multi_index(kept.index, shape)
        )
        assert np.array_equal(layout.index[:, at], kept.index)
        for got, full in zip(results, workspace._evaluate(d, layout)):
            assert np.array_equal(got, full[at], equal_nan=True)

    WIDE = Bounds(0.2, 5.0)

    @staticmethod
    def _shifted(proto):
        shift = np.array([20.0, -10.0, 5.0])
        return CubeSpec(proto.q1 + shift, proto.q2 + shift)

    @pytest.mark.parametrize("shifted", [False, True], ids=["prototype", "shifted"])
    def test_second_call(self, design, proto, monkeypatch, shifted):
        # bounds every box passes: the first call evaluates the corner boxes
        # (and on the shifted cube the boxes that leave the strokes), and the
        # passed boxes whose factors come near their extremes go to a second
        # call, merged with the first in grid order
        cube = self._shifted(proto) if shifted else proto.cube
        sizes = []

        def counting_evaluate(d, layout):
            sizes.append(layout.index.shape[1])
            return evaluate(d, layout)

        evaluate = workspace._evaluate
        monkeypatch.setattr(workspace, "_evaluate", counting_evaluate)
        workspace._summary_nodes(design, self.WIDE, *workspace._grid(design, cube, 21))
        assert len(sizes) == 2 and min(sizes) > 0
        monkeypatch.undo()
        assert_pruned_summary_is_the_loop(design, cube, self.WIDE, 21)

    def test_few_nodes_reach_the_kernel(self, design, proto, monkeypatch):
        # the nodes the IK and the factor kernel see on the summary's route
        solved, sizes = [], []

        def counting_radicands(p, leg_length):
            solved.append(len(p))
            return leg_radicands(p, leg_length)

        def counting_factors(jinv):
            sizes.append(len(jinv))
            return forward_factors(jinv)

        monkeypatch.setattr(workspace, "leg_radicands", counting_radicands)
        monkeypatch.setattr(workspace, "forward_factors", counting_factors)
        report = verify_cube(design, proto.cube, B, 41)
        assert report.ok
        assert len(workspace._layout(design, proto.cube, 41).index[0]) == 12341
        # one verdict per box: every node the IK solves reaches the kernel
        assert 0 < sum(sizes) == sum(solved) <= 0.05 * 12341

    # design-sweep's seed-5 requests
    SEED_5 = [
        (339.22651832190644, 0.41803778317466966, 1.9687909854795815),
        (165.79405391722702, 0.489683746879316, 1.9510607031720644),
        (189.2870923124487, 0.5841419551314022, 2.7393603693216884),
        (366.6792223451455, 0.5099147105093044, 2.137420388572174),
    ]
    # the nodes the summary kept at 41^3 when every float step of the box
    # bounds was rounded outward by an ulp: the prototype's, then those of
    # REQUESTS and SEED_5
    KEPT = dict(
        zip([None, *REQUESTS, *SEED_5], [149, 39, 333, 39, 39, 69, 39, 39, 495, 149, 149, 39, 39])
    )

    @pytest.mark.parametrize("request_", list(KEPT))
    def test_one_kernel_call_per_summary(self, design, proto, request_):
        # the box pass decides its boxes with no kernel call, and its
        # worst-case references come from the nodes the summary evaluates;
        # every node is reachable, so the one call gets every node kept, and
        # the box bounds' error terms keep no more of them than before
        d, cube, b = design, proto.cube, B
        if request_ is not None:
            res = synthesize(request_[0], Bounds(*request_[1:]))
            d, cube, b = res.design(), res.cube, res.bounds
        calls = []

        def counting_factors(jinv):
            calls.append(len(jinv))
            return forward_factors(jinv)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workspace, "forward_factors", counting_factors)
            report = verify_cube(d, cube, b, 41)
        assert report.ok
        assert len(calls) == 1 and calls[0] <= self.KEPT[request_]

    def test_map_cube_runs_no_box_pass(self, design, proto, monkeypatch):
        def refuse(*args):
            raise AssertionError("the box pass ran")

        monkeypatch.setattr(workspace, "_entry_bounds", refuse)
        report = map_cube(design, proto.cube, B, 41)
        assert report.ok
        worst_max = reference_loop(report.nodes, B)[3:]
        assert (report.worst_sigma_max, report.worst_sigma_max_at) == worst_max
        with pytest.raises(AssertionError, match="the box pass ran"):
            verify_cube(design, proto.cube, B, 41)


def random_boxes(rng, q1, q2, n):
    """(lo, hi), each (3, n): boxes inside [q1, q2], a third of them single
    points and the others up to 60 mm on a side, per axis."""
    width = rng.uniform(0.0, 60.0, (3, n)) * (np.arange(n) % 3 != 0)
    lo = q1[:, None] + (q2 - q1)[:, None] * rng.random((3, n))
    return lo, np.minimum(lo + width, q2[:, None])


def box_nodes(lo, hi):
    """(8, 3) corners and (1, 3) centre of one box."""
    corners = grid_xyz(list(zip(lo, hi)))
    return np.vstack([corners, (lo + hi) / 2.0])


def ulps_from(x: float, k: int) -> float:
    """x moved k ulps up, or -k down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return x


def edge_boxes(rng, L, n):
    """(lo, hi), each (3, n): boxes with a far corner at a distance of
    1e-9 L down to about an ulp of L inside the reach boundary
    p_j^2 + p_k^2 = L^2 of one leg, and the third coordinate up to 0.6 L
    either way, axes shuffled; a third of them single points, the others
    reaching up to 20 mm inward on each axis."""
    gap = L * 10.0 ** rng.uniform(-15.7, -9.0, n)
    gap[::4] = np.spacing(L) * rng.integers(1, 5, len(gap[::4]))
    angle = rng.uniform(0.1, np.pi / 2 - 0.1, n)
    radius = L - gap
    far = np.stack([rng.uniform(-0.6, 0.6, n) * L, radius * np.cos(angle), radius * np.sin(angle)])
    far[1:] *= rng.choice([-1.0, 1.0], (2, n))
    width = rng.uniform(0.0, 20.0, (3, n)) * (np.arange(n) % 3 != 0)
    # the box reaches from the far corner toward the origin
    lo, hi = np.where(far > 0, far - width, far), np.where(far > 0, far, far + width)
    order = np.argsort(rng.random((3, n)), axis=0)
    return np.take_along_axis(lo, order, 0), np.take_along_axis(hi, order, 0)


# zeros of either sign, subnormals and tiny normals
TINY = [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -1e-310, 2.2250738585072014e-308, -1e-300, 1e-200]


def tiny_boxes(rng, n):
    """(lo, hi), each (3, n): boxes with one or two axes spanning two
    values of TINY, and the others up to 20 mm wide in [-150, 150]."""
    lo = rng.uniform(-150.0, 150.0, (3, n))
    hi = lo + rng.uniform(0.0, 20.0, (3, n)) * (np.arange(n) % 3 != 0)
    tiny = np.sort(rng.choice(TINY, (2, 3, n)), axis=0)
    axes = rng.random((3, n)) < 0.5
    axes[rng.integers(0, 3, n), np.arange(n)] = True
    return np.where(axes, tiny[0], lo), np.where(axes, tiny[1], hi)


def box_poses(rng, lo, hi, k=4):
    """The corners and centre of one box (`box_nodes`), then k random
    poses inside it."""
    inside = lo + (hi - lo) * rng.random((k, 3))
    return np.vstack([box_nodes(lo, hi), inside])


def sqrt_bracket(x: Fraction, bits: int = 128) -> tuple[Fraction, Fraction]:
    """Rationals a <= sqrt(x) <= b, b - a = 2^-bits / denominator(x)."""
    n, d = x.numerator, x.denominator
    s = math.isqrt((n * d) << 2 * bits)
    return Fraction(s, d << bits), Fraction(s + 1, d << bits)


def assert_entries_held(design, lo, hi, rng):
    """Every exact and every computed off-diagonal Jinv entry, and eta, at
    the corners, the centre and random poses of each box lies within its
    `_entry_bounds`.  Returns the poses checked exactly, and those of them
    with some radicand below 1e-8 L^2."""
    L = design.leg_length
    entry_lo, entry_hi, eta_min = workspace._entry_bounds(lo, hi, L)
    L2 = Fraction(L) ** 2
    checked = near = 0
    for b in range(lo.shape[1]):
        for p in box_poses(rng, lo[:, b], hi[:, b]):
            q = [Fraction(float(x)) for x in p]
            try:
                rho = inverse_kinematics(p, design)
            except (Unreachable, SerialSingularity):
                rho = None
            else:
                jinv = inverse_jacobian(p, rho)
                assert np.all(eta_min[b] <= p - rho)
            e2s = []
            for e, (i, j) in enumerate(zip(workspace._ROW, workspace._COL)):
                if rho is not None:
                    assert entry_lo[e, b] <= jinv[i, j] <= entry_hi[e, b]
                e2 = L2 - q[j] ** 2 - q[3 - i - j] ** 2
                if e2 > 0:
                    assert Fraction(float(eta_min[b])) ** 2 <= e2
                    # an end at eta = 0 is infinite, and holds every entry
                    lo_e, hi_e = entry_lo[e, b], entry_hi[e, b]
                    assert lo_e == -np.inf or exactly_at_least(Fraction(lo_e), q[j], e2)
                    assert hi_e == np.inf or exactly_at_least(-Fraction(hi_e), -q[j], e2)
                    e2s.append(e2)
            checked += len(e2s) == 6
            near += len(e2s) == 6 and min(e2s) < Fraction(1, 10**8) * L2
    return checked, near


class TestBoxBounds:
    """The entry intervals hold the exact and the computed Jinv entries at
    every pose of a box, the slider range the computed slider coordinates,
    the boxes the pass decides the factors the kernel gives there, and the
    float sign tests claim only what the exact count confirms."""

    def test_entry_intervals_hold_exact_and_computed_entries(self, design, rng):
        # a cube straddling zero on every axis, reaching near the workspace edge
        lo, hi = random_boxes(rng, np.full(3, -200.0), np.full(3, 200.0), 90)
        checked, _ = assert_entries_held(design, lo, hi, rng)
        assert checked >= 400

    def test_entry_intervals_hold_near_the_reach_boundary(self, design, rng):
        # rad = L^2 - cross cancels: only its absolute error term holds the
        # exact entries; the computed ones divide by fl(p_i - rho_i), off
        # eta by a few ulps of p_i, far more than an ulp of so small an eta
        lo, hi = edge_boxes(rng, design.leg_length, 120)
        checked, near = assert_entries_held(design, lo, hi, rng)
        assert checked >= 1000 and near >= 100

    def test_entry_intervals_hold_at_tiny_coordinates(self, design, rng):
        # zeros, subnormals and tiny normals: a quotient that underflows is
        # held only by the interval's absolute 2^-1074
        lo, hi = tiny_boxes(rng, 90)
        checked, _ = assert_entries_held(design, lo, hi, rng)
        assert checked >= 1000

    def test_nan_interval_claims_nothing(self):
        # p_j = 0 over a box whose far corner reaches past the boundary:
        # 0 / 0 leaves entry (0, 1) as [-5e-324, NaN] and r NaN, and the box
        # must read as undecided, never as passed
        L = 310.0
        lo, hi = np.zeros((3, 1)), np.array([[10.0], [0.0], [L]])
        entry_lo, entry_hi, _ = workspace._entry_bounds(lo, hi, L)
        assert (entry_lo[0, 0], workspace._ROW[0], workspace._COL[0]) == (-5e-324, 0, 1)
        assert np.isnan(entry_hi[0, 0])
        valid, _, r = workspace._box_spectra(lo, hi, L)
        assert np.isnan(r[0]) and not valid[0]
        d = DesignParams(L, stroke_min=(-1e3,) * 3, stroke_max=(1e3,) * 3)
        passed, clear_of = workspace._box_pass(d, Bounds(0.5, 2.0), lo, hi)
        assert not passed[0] and not clear_of(2.0, 0.5)[0]

    def test_weyl_radius_holds_exact_and_computed_jinv(self, design, rng):
        # r bounds ||J - C||_F for every J with its entries in the intervals,
        # in rationals, so for the exact and the computed Jinv at the
        # corners, the centre and random poses of each box
        L = design.leg_length
        boxes = [
            random_boxes(rng, np.full(3, -200.0), np.full(3, 200.0), 60),
            edge_boxes(rng, L, 30),
            tiny_boxes(rng, 30),
        ]
        lo, hi = (np.hstack(ends) for ends in zip(*boxes))
        valid, coefficients, r = workspace._box_spectra(lo, hi, L)
        entry_lo, entry_hi, _ = workspace._entry_bounds(lo, hi, L)
        # the C whose coefficients the pass uses (inf - inf where an end is
        # infinite, in a box that is not valid)
        with np.errstate(invalid="ignore"):
            mid = (entry_hi + entry_lo) / 2.0
            for got, want in zip(coefficients, workspace._gram_coefficients(mid)):
                assert np.array_equal(got, want, equal_nan=True)
        L2 = Fraction(L) ** 2
        checked = 0
        for b in np.flatnonzero(valid):
            c = [Fraction(float(x)) for x in mid[:, b]]
            r2 = Fraction(float(r[b])) ** 2
            ends = zip(entry_lo[:, b], entry_hi[:, b])
            half = [max(Fraction(hi_e) - m, m - Fraction(lo_e)) for (lo_e, hi_e), m in zip(ends, c)]
            assert sum(x * x for x in half) <= r2
            for p in box_poses(rng, lo[:, b], hi[:, b]):
                q = [Fraction(float(x)) for x in p]
                jinv = inverse_jacobian(p, inverse_kinematics(p, design))
                pairs = list(zip(workspace._ROW, workspace._COL))
                computed = [Fraction(float(jinv[i, j])) for i, j in pairs]
                assert sum((x - m) ** 2 for x, m in zip(computed, c)) <= r2
                # the exact entry lies between p_j / eta bracketed both ways
                exact = 0
                for (i, j), m in zip(pairs, c):
                    eta_lo, eta_hi = sqrt_bracket(L2 - q[j] ** 2 - q[3 - i - j] ** 2)
                    exact += max(abs(q[j] / eta_lo - m), abs(q[j] / eta_hi - m)) ** 2
                assert exact <= r2
                checked += 1
        assert checked >= 1000

    def test_slider_range_holds_the_computed_rho(self, design, rng):
        lo, hi = random_boxes(rng, np.full(3, -200.0), np.full(3, 200.0), 300)
        rho_lo, rho_hi = workspace._slider_range(lo, hi, design.leg_length)
        checked = tight = 0
        for b in range(lo.shape[1]):
            try:
                rho = inverse_kinematics(box_nodes(lo[:, b], hi[:, b]), design)
            except (Unreachable, SerialSingularity):
                continue
            assert np.all(rho_lo[:, b] <= rho.min(axis=0))
            assert np.all(rho.max(axis=0) <= rho_hi[:, b])
            checked += 1
            # off zero, each end is the rho of a corner, which is a node
            if np.all((lo[:, b] >= 0.0) | (hi[:, b] <= 0.0)):
                assert np.array_equal(rho_lo[:, b], rho.min(axis=0))
                assert np.array_equal(rho_hi[:, b], rho.max(axis=0))
                tight += 1
        assert checked >= 250 and tight >= 200

    def test_passed_boxes_hold_the_node_factors(self, design, proto, rng):
        # the strokes opened wide, so that the factor tests decide: every
        # box `_box_pass` passes keeps the computed factors of its corner and
        # centre nodes inside the bounds' edges by half the margin, and every
        # box also `clear_of` (w_max, w_min) inside those, the same way
        lo, hi = random_boxes(rng, proto.q1 - 30.0, proto.q2 + 30.0, 300)
        d = DesignParams(design.leg_length, stroke_min=(-1e3,) * 3, stroke_max=(1e3,) * 3)
        b, w_max, w_min = Bounds(0.4, 2.5), 1.9, 0.6
        passed, clear_of = workspace._box_pass(d, b, lo, hi)
        clear = passed & clear_of(w_max, w_min)
        assert 250 <= np.count_nonzero(passed) < len(passed)
        assert 0 < np.count_nonzero(clear) < np.count_nonzero(passed)
        low, high = 1.0 + workspace._BOX_MARGIN / 2.0, 1.0 - workspace._BOX_MARGIN / 2.0
        for k in np.flatnonzero(passed):
            p = box_nodes(lo[:, k], hi[:, k])
            fwd = forward_factors(inverse_jacobian(p, inverse_kinematics(p, d)))
            assert np.all(fwd[:, 0] > b.s_lo * (1.0 - BOUND_REL_TOL) * low)
            assert np.all(fwd[:, 2] < b.s_hi * (1.0 + BOUND_REL_TOL) * high)
            if clear[k]:
                assert np.all(fwd[:, 0] > w_min * low)
                assert np.all(fwd[:, 2] < w_max * high)

    def test_sign_tests_agree_with_the_exact_count(self, rng):
        # unit-diagonal C near the identity and near singular, and tau a few
        # ulps on each side of every eigenvalue of C^T C, at zero, and far
        # below and above the spectrum: where the float filter claims that
        # every eigenvalue lies above or below tau, Descartes' exact count
        # on the same C and the same tau agrees
        n = 60
        near_identity = 1e-3 * rng.standard_normal((6, n))
        singular = rng.standard_normal((6, n))
        # C = [[1, a, b], [c, 1, d], [e, f, 1]]: det C is affine in a, so
        # solving det C = 0 for a leaves it singular up to its rounding
        _, b_, c_, d_, e_, f_ = singular
        singular[0] = -(1.0 - d_ * f_ + b_ * c_ * f_ - b_ * e_) / (d_ * e_ - c_)
        mats, taus = [], []
        for mid in np.hstack([near_identity, singular]).T:
            m = np.eye(3)
            m[workspace._ROW, workspace._COL] = mid
            eigen = [lo * lo for lo, _ in _exact.brackets(m)]
            near = [ulps_from(lam, k) for lam in eigen for k in range(-4, 5)]
            for tau in [0.0, eigen[0] / 2.0, 2.0 * eigen[2] + 1.0, *near]:
                mats.append(m)
                taus.append(tau)
        counts = np.array([_exact.count_above(m, tau) for m, tau in zip(mats, taus)])
        mids = np.array(mats)[:, workspace._ROW, workspace._COL].T
        taus = np.array(taus)
        above, below = workspace._eigenvalues_beyond(workspace._gram_coefficients(mids), taus, taus)
        assert np.all(counts[above] == 3)
        assert np.all(counts[below] == 0)
        # the claims are not vacuous: far from the spectrum they are made
        assert np.count_nonzero(above) >= n and np.count_nonzero(below) >= 2 * n


class TestSlabs:
    """The grid is evaluated in slabs of `_SLAB_NODES` nodes; the Jacobian and
    factor kernels run once per slab over its reachable nodes, with the bits
    of one whole batch."""

    @staticmethod
    def _grid():
        # no wedge, unreachable nodes between reachable ones, and node and
        # reachable counts that fill several slabs and a partial last one
        return _one_ulp_off(*_scaled_1_8(*_synthesized(200.0, 0.5, 2.0))), 31

    def test_slabs_equal_whole_batch(self):
        (d, cube), n = self._grid()
        nodes = map_cube(d, cube, B, n).nodes
        xyz, reachable, within, sigma_min, sigma_max, kappa = full_evaluation(d, cube, n)
        n_reach = np.count_nonzero(reachable)
        assert n_reach > 2 * workspace._SLAB_NODES and n_reach % workspace._SLAB_NODES
        assert np.flatnonzero(~reachable)[0] < np.flatnonzero(reachable)[-1]
        assert np.array_equal(nodes.reachable, reachable)
        assert np.array_equal(nodes.within_stroke, within)
        for got, want in (
            (nodes.sigma_min, sigma_min),
            (nodes.sigma_max, sigma_max),
            (nodes.kappa, kappa),
        ):
            assert np.array_equal(got, want, equal_nan=True)

    def test_kernel_calls_bounded_by_slab(self, monkeypatch):
        (d, cube), n = self._grid()
        sizes = []

        def counting_factors(jinv):
            sizes.append(len(jinv))
            return forward_factors(jinv)

        monkeypatch.setattr(workspace, "forward_factors", counting_factors)
        nodes = map_cube(d, cube, B, n).nodes
        assert max(sizes) <= workspace._SLAB_NODES
        assert sum(sizes) == np.count_nonzero(nodes.reachable)
        assert len(sizes) == -(-(n**3) // workspace._SLAB_NODES)

    @pytest.mark.parametrize("case", ["off-diagonal", "wedge"])
    def test_verify_cube_memory_per_node(self, design, proto, case):
        # off-diagonal: map-export's cube, no wedge, every node reachable;
        # wedge: the prototype's own cube.  Both routes to the summary are
        # measured: `verify_cube` takes the box-pruned route, which peaks at
        # about 22 and 3.6 B/node, mostly the evaluated nodes' results and
        # the box pass's arrays (21 and 6 while it mapped every node to its
        # box, 39 and 11 with the IK on every evaluated node); the full
        # route evaluates the results `map_cube`'s nodes are built from, and
        # reduces them, at about 42 and 17.  tracemalloc counts numpy's
        # allocations, not time, so the bound does not depend on the host;
        # a whole-grid IK and stroke pass peaks at about 183 and 113
        # B/node, a whole-grid (N, 3) coordinate array at about 67 and 70,
        # and expanding the wedge to the whole grid, as `map_cube` does, at
        # about 46 on the wedge
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        cube = CubeSpec(corner, corner + 230.0) if case == "off-diagonal" else proto.cube
        n = 61
        verify_cube(design, cube, B, 5)  # one-time set-up is not counted
        for full in (False, True):
            tracemalloc.start()
            try:
                if full:
                    layout = workspace._layout(design, cube, n)
                    workspace._summarize(n, layout, workspace._evaluate(design, layout), B)
                else:
                    verify_cube(design, cube, B, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # B/node, box-pruned and full
            bound = (30, 50) if case == "off-diagonal" else (8, 25)
            assert peak <= bound[full] * n**3


class TestReachableMatchesIK:
    """A grid node is reachable exactly when `inverse_kinematics` does not
    raise there: the grid and the pose route share one working-mode solve."""

    @staticmethod
    def _ik_succeeds(p, d):
        try:
            inverse_kinematics(p, d)
        except (Unreachable, SerialSingularity):
            return False
        return True

    def test_oversized_cube(self, design, proto):
        report = map_cube(design, CubeSpec(1.8 * proto.q1, 1.8 * proto.q2), B, 15)
        nodes = report.nodes
        expected = [self._ik_succeeds(p, design) for p in grid_xyz(nodes.axes)]
        assert 0 < sum(expected) < report.n_points
        assert nodes.reachable.tolist() == expected

    POSES = {
        # a radicand of exactly 0
        "(0,L,0)": (lambda L: (0.0, L, 0.0), True),
        "(-L,0,0)": (lambda L: (-L, 0.0, 0.0), True),
        "(0,0,L)": (lambda L: (0.0, 0.0, L), True),
        # on the workspace edge up to rounding, and one ulp inside and outside
        "(3,4,0)*L/5": (lambda L: (0.6 * L, 0.8 * L, 0.0), False),
        "(0,L-ulp,0)": (lambda L: (0.0, np.nextafter(L, 0.0), 0.0), False),
        "(0,L+ulp,0)": (lambda L: (0.0, np.nextafter(L, np.inf), 0.0), False),
    }

    @pytest.mark.parametrize("case", list(POSES))
    def test_single_node_cubes(self, design, case):
        pose, zero_radicand = self.POSES[case]
        p = np.array(pose(design.leg_length))
        assert (0.0 in leg_radicands(p, design.leg_length)) == zero_radicand
        report = map_cube(design, CubeSpec(p, p), B, 2)
        nodes = report.nodes
        assert report.n_points == 1
        assert nodes.reachable.tolist() == [self._ik_succeeds(p, design)]
        if zero_radicand:
            assert not nodes.reachable[0]


class TestOversizedGrid:
    """A grid with more nodes than numpy can index is refused before any of
    it is built."""

    @staticmethod
    def _forbid_building(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("grid construction started")

        monkeypatch.setattr(workspace, "_grid_axes", forbidden)
        monkeypatch.setattr(np, "linspace", forbidden)

    @pytest.mark.parametrize("n", [2**21, 3_000_000])
    def test_refused_before_building(self, design, proto, monkeypatch, n):
        self._forbid_building(monkeypatch)
        message = rf"^{n}\^3 nodes exceed numpy's index range"
        with pytest.raises(ValueError, match=message):
            verify_cube(design, proto.cube, B, n)

    @pytest.mark.parametrize("n, error", [(100000, MemoryError), (2**21, ValueError)])
    def test_size_errors_raise_at_the_call(self, design, proto, n, error):
        # both calls lay the grid out first, and so refuse it
        for run in (verify_cube, map_cube):
            with pytest.raises(error):
                run(design, proto.cube, B, n)

    def test_largest_indexable_size_is_attempted(self, design, proto, monkeypatch):
        # (2^21 - 1)^3 < 2^63 - 1: the check lets it through to the build
        self._forbid_building(monkeypatch)
        with pytest.raises(AssertionError, match="grid construction started"):
            verify_cube(design, proto.cube, B, 2**21 - 1)


class TestSpecTypes:
    def test_cube_validation(self):
        with pytest.raises(ValueError):
            CubeSpec((0, 0, 0), (1.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            CubeSpec((0, 0, 0), (-1.0, -1.0, -1.0))
        with pytest.raises(ValueError):
            CubeSpec((np.nan, 0, 0), (np.nan, 1.0, 1.0))
        with pytest.raises(ValueError, match="cube edges overflow"):
            CubeSpec([-1e308] * 3, [1e308] * 3)
        with pytest.raises(ValueError, match="cube corners must be length-3 points"):
            CubeSpec((0.0, 0.0), (1.0, 1.0))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds(0.0, 2.0)
        with pytest.raises(ValueError):
            Bounds(1.5, 2.0)
        with pytest.raises(ValueError):
            Bounds(0.5, 0.9)
