"""Grid sweeps over the prescribed cube and the diagonal profile oracle."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from orthoglide import workspace
from orthoglide._table import write_table
from orthoglide.errors import RangeOutsideWorkspace, SerialSingularity, Unreachable
from orthoglide.kinematics import (
    SERIAL_TOL,
    DesignParams,
    batch_inverse_jacobian,
    inverse_jacobian,
    inverse_kinematics,
    leg_radicands,
    within_stroke,
)
from orthoglide.performance import forward_factors, kappa_from_factors, transmission_factors
from orthoglide.synthesis import synthesize
from orthoglide.workspace import (
    BOUND_REL_TOL,
    Bounds,
    CubeSpec,
    diagonal_profile,
    evaluate_grid,
    verify_cube,
    write_grid_csv,
)

B = Bounds(0.5, 2.0)
# L / sqrt(3) for the prototype: (U, U, U) is the parallel singularity a = 1
U = 179.3150944336107


def on_diagonal(nodes):
    x, y, z = nodes.xyz.T
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
            tf = transmission_factors(inverse_jacobian(p, rho, design))
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

    def test_diagonal_within_bounds(self, design, proto):
        report = verify_cube(design, proto.cube, B, 21)
        diag = on_diagonal(report.nodes)
        assert np.count_nonzero(diag) == 21
        assert np.all(report.nodes.sigma_min[diag] >= B.s_lo * (1 - 1e-9))
        assert np.all(report.nodes.sigma_max[diag] <= B.s_hi * (1 + 1e-9))

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
        xyz = report.nodes.xyz
        corners = np.all(xyz == q1, axis=1) | np.all(xyz == q2, axis=1)
        assert np.count_nonzero(corners) == 2
        for sigma_max in report.nodes.sigma_max[corners]:
            assert sigma_max == pytest.approx(2.0, abs=1e-12)

    def test_zero_side_cube_is_single_isotropic_point(self, design):
        cube = CubeSpec((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        report = verify_cube(design, cube, B, 5)
        assert report.n_points == 1
        nodes = report.nodes
        assert (nodes.sigma_min[0], nodes.sigma_max[0], nodes.kappa[0]) == (1.0, 1.0, 1.0)
        assert report.ok

    def test_inflated_cube_violates(self, design, proto):
        cube = CubeSpec(1.5 * proto.q1, 1.5 * proto.q2)
        report = verify_cube(design, cube, B, 11)
        assert report.n_bound_violations + report.n_unreachable > 0

    def test_grid_matches_scalar_route(self, design, proto):
        # vectorized node evaluation == scalar IK + factor computation, at
        # every one of the 125 nodes
        nodes = evaluate_grid(design, proto.cube, 5)
        assert nodes.n_points == 125
        for k, p in enumerate(nodes.xyz):
            assert nodes.reachable[k]
            rho = inverse_kinematics(p, design)
            tf = transmission_factors(inverse_jacobian(p, rho, design))
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
        # a time: every reachable node must get the same bits either way
        nodes = evaluate_grid(design, make_cube(proto), 15)
        reachable = np.flatnonzero(nodes.reachable)
        assert len(reachable) >= 3000
        for k in reachable:
            p = nodes.xyz[k]
            tf = transmission_factors(inverse_jacobian(p, inverse_kinematics(p, design), design))
            assert nodes.sigma_min[k] == tf.sigma_fwd[0]
            assert nodes.sigma_max[k] == tf.sigma_fwd[2]
            assert nodes.kappa[k] == tf.kappa

    def test_reachable_points_close_the_legs(self, design, proto):
        nodes = evaluate_grid(design, proto.cube, 5)
        for p, reachable in zip(nodes.xyz, nodes.reachable):
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
        nodes = verify_cube(design, proto.cube, B, n).nodes
        diag = np.flatnonzero(on_diagonal(nodes))
        profile = diagonal_profile(design, proto.q1[0], proto.q2[0], n)
        assert len(diag) == len(profile.u) == n
        by_x = diag[np.argsort(nodes.xyz[diag, 0], kind="stable")]
        for k, u, fwd, kappa in zip(by_x, profile.u, profile.sigma_fwd, profile.kappa):
            assert nodes.xyz[k, 0] == u
            assert nodes.sigma_min[k] == pytest.approx(fwd[0], abs=1e-10)
            assert nodes.sigma_max[k] == pytest.approx(fwd[2], abs=1e-10)
            assert nodes.kappa[k] == pytest.approx(kappa, abs=1e-10)

    def test_monotone_refinement(self, design, proto):
        coarse = verify_cube(design, proto.cube, B, 6)
        fine = verify_cube(design, proto.cube, B, 11)  # 2n - 1 contains the coarse grid
        assert fine.worst_sigma_min <= coarse.worst_sigma_min
        assert fine.worst_sigma_max >= coarse.worst_sigma_max

    def test_octant_symmetry(self, design, proto):
        # permuting a pose permutes the rows and columns of its inverse
        # Jacobian exactly, and the factor kernel is exactly invariant under
        # that, so the map is symmetric bit for bit
        nodes = evaluate_grid(design, proto.cube, 6)
        values = zip(nodes.sigma_min.tolist(), nodes.sigma_max.tolist(), nodes.kappa.tolist())
        table = dict(zip(map(tuple, nodes.xyz.tolist()), values))
        for (x, y, z), vals in table.items():
            for perm in ((y, x, z), (z, y, x), (x, z, y), (y, z, x), (z, x, y)):
                assert table[perm] == vals


class TestWorkspaceMap:
    def test_tiny_grid_record_count(self, design):
        cube = CubeSpec((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0))
        report = verify_cube(design, cube, B, 2)
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
            report = verify_cube(design, proto.cube, B, 4)
            write_grid_csv(report.nodes, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert bufs[0].splitlines()[0] == "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"

    @pytest.mark.parametrize("case", ["coordinates-to-2e4", "zero-side"])
    def test_csv_is_the_table_of_the_expanded_columns(self, design, case):
        # the coordinates go out as coded columns (axis, index); the bytes
        # are those of writing nodes.xyz as three float columns
        if case == "coordinates-to-2e4":
            # 8-word coordinates beside 6-word factors
            d, q1, n = DesignParams(leg_length=1e5), np.array([1e4, -2e4, 2.5e3]), 23
            cube = CubeSpec(q1, q1 + 1e4)
        else:
            d, p, n = design, np.array([12.5, 0.0, -7.25]), 3
            cube = CubeSpec(p, p)
        nodes = verify_cube(d, cube, B, n).nodes
        got, want = io.StringIO(), io.StringIO()
        write_grid_csv(nodes, got)
        columns = [nodes.reachable, nodes.within_stroke, nodes.sigma_min, nodes.sigma_max]
        write_table(want, workspace.GRID_CSV_HEADER, [*nodes.xyz.T, *columns, nodes.kappa])
        assert got.getvalue() == want.getvalue()
        if case == "zero-side":
            assert got.getvalue().splitlines()[1].startswith("12.5,0,-7.25,1,1,")

    def test_export_builds_no_coordinate_array(self, design, proto):
        # GridNodes keeps the three axes; xyz is built only when read
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        report = verify_cube(design, CubeSpec(corner, corner + 230.0), B, 9)
        write_grid_csv(report.nodes, io.StringIO())
        assert "xyz" not in vars(report.nodes)
        assert report.nodes.xyz.shape == (9**3, 3)
        assert [tuple(a) for a in report.nodes.axes] == [
            tuple(np.unique(report.nodes.xyz[:, k])) for k in range(3)
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
        nodes.xyz.tolist(),
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
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reductions_equal_the_loop(self, design, proto, case):
        make_cube, n, expected = self.CASES[case]
        report = verify_cube(design, make_cube(proto), B, n)
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
        report = verify_cube(design, proto.cube, B, 41)
        ties = np.flatnonzero(report.nodes.sigma_max == report.worst_sigma_max)
        assert len(ties) >= 2
        assert report.worst_sigma_max_at == tuple(report.nodes.xyz[ties[0]].tolist())


class TestWedgeReduction:
    """On a symmetric grid `verify_cube` reduces over the wedge nodes it
    evaluated, each counted once per grid node it stands for, and builds
    the whole grid's nodes only when `nodes` is first read."""

    def test_report_equals_the_loop_without_expanding(self, design, proto, monkeypatch):
        # the oversized cube: every count is nonzero, so the weights matter
        n = 15

        def refuse(m):
            raise AssertionError("the wedge was expanded")

        monkeypatch.setattr(workspace, "_wedge_slots", refuse)
        report = verify_cube(design, CubeSpec(1.8 * proto.q1, 1.8 * proto.q2), B, n)
        assert report.n_points == n**3
        assert "nodes" not in vars(report)
        monkeypatch.undo()
        counts, worst_min, worst_min_at, worst_max, worst_max_at = reference_loop(report.nodes, B)
        assert "nodes" in vars(report)
        assert all(counts)
        got = (report.n_unreachable, report.n_stroke_violations, report.n_bound_violations)
        assert got == counts
        assert (report.worst_sigma_min, report.worst_sigma_min_at) == (worst_min, worst_min_at)
        assert (report.worst_sigma_max, report.worst_sigma_max_at) == (worst_max, worst_max_at)

    @pytest.mark.parametrize("n", [2, 3, 15, 41])
    def test_weights_count_the_nodes_each_wedge_node_fills(self, design, proto, n):
        sweep = workspace._evaluate(design, proto.cube, n)
        assert sweep.symmetric
        weights = sweep.weights()
        assert weights.sum() == n**3
        slots = workspace._wedge_slots(n)
        assert np.array_equal(np.bincount(slots, minlength=len(weights)), weights)

    def test_other_grids_count_each_node_once(self, design, proto):
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        sweep = workspace._evaluate(design, CubeSpec(corner, corner + 230.0), 5)
        assert not sweep.symmetric
        assert sweep.weights() is None
        assert sweep.index.shape == (3, 5**3)


def full_evaluation(d, cube, n):
    """Reference sweep: every node of the grid evaluated, no use of symmetry.

    Returns (xyz, reachable, within_stroke, sigma_min, sigma_max, kappa)."""
    axes = [np.unique(np.linspace(cube.q1[k], cube.q2[k], n)) for k in range(3)]
    xyz = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    L = d.leg_length
    rad = leg_radicands(xyz, L)
    reachable = np.all(rad > (SERIAL_TOL * L) ** 2, axis=1)
    within = np.zeros(len(xyz), dtype=bool)
    fwd = np.full((len(xyz), 3), np.nan)
    kappa = np.full(len(xyz), np.nan)
    rho = xyz[reachable] - np.sqrt(rad[reachable])
    within[reachable] = np.all(within_stroke(rho, d), axis=1)
    fwd[reachable] = forward_factors(batch_inverse_jacobian(xyz[reachable], rho))
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
        nodes = evaluate_grid(d, cube, n)
        S = workspace._SLAB_NODES
        N = n * (n + 1) * (n + 2) // 6 if uses_wedge else n**3
        assert evaluated == [min(S, N - s) for s in range(0, N, S)]

        xyz, reachable, within, sigma_min, sigma_max, kappa = full_evaluation(d, cube, n)
        assert np.array_equal(nodes.xyz, xyz)
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
        nodes = evaluate_grid(d, cube, n)
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
        nodes = evaluate_grid(d, cube, n)
        assert max(sizes) <= workspace._SLAB_NODES
        assert sum(sizes) == np.count_nonzero(nodes.reachable)
        assert len(sizes) == -(-(n**3) // workspace._SLAB_NODES)

    @pytest.mark.parametrize("case", ["off-diagonal", "wedge"])
    def test_verify_cube_memory_per_node(self, design, proto, case):
        # off-diagonal: map-export's cube, no wedge, every node reachable;
        # wedge: the prototype's own cube.  tracemalloc counts numpy's
        # allocations, not time, so the bound does not depend on the host;
        # a whole-grid IK and stroke pass peaks at about 183 and 113 B/node,
        # a whole-grid (N, 3) coordinate array at about 67 and 70, and
        # expanding the wedge to the whole grid at about 44 on the wedge
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        cube = CubeSpec(corner, corner + 230.0) if case == "off-diagonal" else proto.cube
        n = 61
        verify_cube(design, cube, B, 5)  # one-time set-up is not counted
        tracemalloc.start()
        try:
            verify_cube(design, cube, B, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (50 if case == "off-diagonal" else 25) * n**3


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
        nodes = evaluate_grid(design, CubeSpec(1.8 * proto.q1, 1.8 * proto.q2), 15)
        expected = [self._ik_succeeds(p, design) for p in nodes.xyz]
        assert 0 < sum(expected) < nodes.n_points
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
        nodes = evaluate_grid(design, CubeSpec(p, p), 2)
        assert nodes.n_points == 1
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
            evaluate_grid(design, proto.cube, n)
        with pytest.raises(ValueError, match=message):
            verify_cube(design, proto.cube, B, n)

    def test_largest_indexable_size_is_attempted(self, design, proto, monkeypatch):
        # (2^21 - 1)^3 < 2^63 - 1: the check lets it through to the build
        self._forbid_building(monkeypatch)
        with pytest.raises(AssertionError, match="grid construction started"):
            evaluate_grid(design, proto.cube, 2**21 - 1)


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

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds(0.0, 2.0)
        with pytest.raises(ValueError):
            Bounds(1.5, 2.0)
        with pytest.raises(ValueError):
            Bounds(0.5, 0.9)
