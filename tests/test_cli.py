"""Command-line interface: exit codes, formats, determinism, round trips."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from orthoglide.cli import main

SYNTH = ["synthesize", "--lw", "200", "--s-lo", "0.5", "--s-hi", "2"]


@pytest.fixture()
def runner():
    return CliRunner()


class TestSynthesize:
    def test_prototype_numbers_and_exit_zero(self, runner):
        res = runner.invoke(main, SYNTH)
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["leg_length_mm"] == pytest.approx(310.6, abs=0.1)
        assert doc["stroke_mm"] == pytest.approx(257.0, abs=0.1)
        assert doc["ratio_cube_to_stroke"] == pytest.approx(0.778, abs=5e-4)
        assert doc["ratio_cube_to_leg"] == pytest.approx(0.644, abs=5e-4)
        v = doc["verification"]
        assert v["n_points"] == 21**3
        assert v["n_unreachable"] == 0
        assert v["n_bound_violations"] == 0

    def test_degenerate_bounds_exit_one(self, runner):
        res = runner.invoke(main, ["synthesize", "--lw", "200", "--s-lo", "1", "--s-hi", "1"])
        assert res.exit_code == 1
        assert "DegenerateBounds" in res.output

    def test_negative_cube_side_exit_one(self, runner):
        res = runner.invoke(main, ["synthesize", "--lw", "-5", "--s-lo", "0.5", "--s-hi", "2"])
        assert res.exit_code == 1

    def test_byte_identical_reruns(self, runner, tmp_path):
        files = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = runner.invoke(main, SYNTH + ["--out", str(out)])
            assert res.exit_code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestAnalyze:
    def test_origin_pose(self, runner):
        res = runner.invoke(main, ["analyze", "0", "0", "0", "--lw", "200"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["kappa"] == 1.0
        assert doc["isotropy"] == {"ratio_dev": 0.0, "ortho_dev": 0.0}
        assert doc["sigma_fwd"] == [1.0, 1.0, 1.0]
        assert doc["jacobian_inverse"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_q2_pose(self, runner):
        u2 = 310.5828541230249 / math.sqrt(6.0)
        res = runner.invoke(main, ["analyze", str(u2), str(u2), str(u2), "--lw", "200"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["sigma_fwd"] == pytest.approx([0.5, 2.0, 2.0], abs=1e-9)

    def test_boundary_pose_exit_three(self, runner):
        # z at the exact leg length: eta_1 = 0, a serial singularity
        res = runner.invoke(
            main,
            ["analyze", "--lw", "200", "--", "0", "0", "310.5828541230249"],
        )
        assert res.exit_code == 3
        assert "SerialSingularity" in res.output

    def test_unreachable_pose_exit_three(self, runner):
        res = runner.invoke(main, ["analyze", "--lw", "200", "--", "0", "0", "400"])
        assert res.exit_code == 3
        assert "Unreachable" in res.output

    def test_missing_design_exit_one(self, runner):
        res = runner.invoke(main, ["analyze", "0", "0", "0"])
        assert res.exit_code == 1

    def test_explicit_design(self, runner):
        res = runner.invoke(
            main,
            [
                "analyze", "0", "0", "0",
                "--leg-length", "310.582854123",
                "--stroke-min", "-383.78793488",
                "--stroke-max", "-126.794919243",
            ],
        )
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["within_stroke"] == [True, True, True]  # origin rho = -L is in range
        assert doc["rho_mm"] == pytest.approx([-310.582854123] * 3, rel=1e-9)


class TestConfigRoundTrip:
    def test_synthesis_json_feeds_back_as_design(self, runner, tmp_path):
        out = tmp_path / "synth.json"
        res = runner.invoke(main, SYNTH + ["--out", str(out)])
        assert res.exit_code == 0

        direct = runner.invoke(main, ["analyze", "--lw", "200", "--", "50", "20", "-10"])
        via_config = runner.invoke(
            main, ["analyze", "--config", str(out), "--", "50", "20", "-10"]
        )
        assert via_config.exit_code == 0
        # the design block keeps full precision, so outputs match exactly
        assert via_config.output == direct.output

    def test_flags_override_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lw": 200.0, "s_lo": 0.5, "s_hi": 2.0}))
        res = runner.invoke(
            main, ["synthesize", "--config", str(cfg), "--lw", "400"]
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["leg_length_mm"] == pytest.approx(621.2, abs=0.1)


class TestWorkspaceMap:
    def test_record_count_and_header(self, runner):
        res = runner.invoke(main, ["workspace-map", "--lw", "200", "--grid", "2"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "x_mm,y_mm,z_mm,reachable,within_stroke,sigma_min,sigma_max,kappa"
        assert len(lines) == 9

    def test_deterministic_file_output(self, runner, tmp_path):
        blobs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            res = runner.invoke(
                main, ["workspace-map", "--lw", "200", "--grid", "5", "--out", str(out)]
            )
            assert res.exit_code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_needs_cube(self, runner):
        res = runner.invoke(
            main,
            [
                "workspace-map",
                "--leg-length", "310.58",
                "--stroke-min", "-383.8",
                "--stroke-max", "-126.8",
            ],
        )
        assert res.exit_code == 1


class TestDiagProfile:
    def test_symmetric_range_midpoint_isotropic(self, runner):
        res = runner.invoke(
            main,
            [
                "diag-profile", "--u-min", "-50", "--u-max", "50", "--grid", "3",
                "--leg-length", "310.58", "--stroke-min", "-400", "--stroke-max", "-100",
            ],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "u_mm,a,sigma_fwd_1,sigma_fwd_2,sigma_fwd_3,kappa"
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert [float(v) for v in mid] == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]

    def test_range_outside_workspace_exit_one(self, runner):
        res = runner.invoke(
            main,
            [
                "diag-profile", "--u-min", "0", "--u-max", "400", "--grid", "3",
                "--leg-length", "310.58", "--stroke-min", "-400", "--stroke-max", "-100",
            ],
        )
        assert res.exit_code == 1

    def test_defaults_to_synthesized_cube(self, runner):
        res = runner.invoke(main, ["diag-profile", "--lw", "200", "--grid", "5"])
        assert res.exit_code == 0
        rows = [line.split(",") for line in res.output.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(-0.25, abs=1e-9)
        assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-9)

    def test_range_next_to_parallel_singularity_exit_one(self, runner):
        # one ulp short of det Jinv = 0 at u = L/sqrt(3): 1 - a is ~1e-16
        u_max = repr(float(np.nextafter(310.58 / math.sqrt(3.0), 0.0)))
        res = runner.invoke(
            main,
            [
                "diag-profile", "--u-min", "0", "--u-max", u_max, "--grid", "3",
                "--leg-length", "310.58", "--stroke-min", "-400", "--stroke-max", "-100",
            ],
        )
        assert res.exit_code == 1
        assert "RangeOutsideWorkspace" in res.output

    def test_range_through_parallel_singularity_exit_one(self, runner):
        # with L = 310.58 the range stays inside |u| < L/sqrt(2) but crosses
        # det Jinv = 0 at u = -126.8 mm and u = 179.3 mm
        res = runner.invoke(
            main, ["diag-profile", "--lw", "200", "--u-min", "-200", "--u-max", "200"]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error: RangeOutsideWorkspace" in res.output
        assert "parallel singularity" in res.output


class TestOversizedGrid:
    """A grid that cannot be allocated or indexed gives exit 1, no traceback.

    Both sizes fail on the grid's shape, before the grid itself is allocated."""

    @pytest.mark.parametrize("command", ["synthesize", "workspace-map"])
    @pytest.mark.parametrize(
        "grid, cause", [("100000", "MemoryError"), ("3000000", "ValueError")]
    )
    def test_clean_exit_one(self, runner, command, grid, cause):
        res = runner.invoke(main, [command, "--lw", "200", "--grid", grid])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert f"error: cannot evaluate a {grid}^3 grid: {cause}" in res.output

    def test_diag_profile_clean_exit_one(self, runner):
        # 728 TiB of samples: more than any 64-bit address space can map
        res = runner.invoke(main, ["diag-profile", "--lw", "200", "--grid", "100000000000000"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert "error: MemoryError" in res.output


class TestTrajCheck:
    def _write_line(self, path, q1, q2, speed, n):
        q1, q2 = np.asarray(q1), np.asarray(q2)
        duration = float(np.linalg.norm(q2 - q1)) / speed
        rows = ["t_s,x_mm,y_mm,z_mm"]
        for t in np.linspace(0.0, duration, n):
            p = q1 + (q2 - q1) * (t / duration)
            rows.append(f"{t},{p[0]},{p[1]},{p[2]}")
        path.write_text("\n".join(rows) + "\n")

    def test_fast_line_flags_and_exit_two(self, runner, tmp_path):
        from orthoglide.synthesis import prototype_synthesis

        proto = prototype_synthesis()
        wp = tmp_path / "wp.csv"
        self._write_line(wp, proto.q1, proto.q2, 1200.0, 41)
        out = tmp_path / "profile.csv"
        res = runner.invoke(
            main,
            ["traj-check", "--waypoints", str(wp), "--lw", "200", "--out", str(out)],
        )
        assert res.exit_code == 2
        assert out.exists()  # report written despite violations
        text = out.read_text()
        assert text.splitlines()[0].startswith("t_s,")
        assert ",1" in text  # some flag column fired

    def test_slow_line_passes(self, runner, tmp_path):
        from orthoglide.synthesis import prototype_synthesis

        proto = prototype_synthesis()
        wp = tmp_path / "wp.csv"
        self._write_line(wp, proto.q1, proto.q2, 200.0, 21)
        res = runner.invoke(main, ["traj-check", "--waypoints", str(wp), "--lw", "200"])
        assert res.exit_code == 0, res.output

    def test_missing_waypoints_exit_one(self, runner):
        res = runner.invoke(main, ["traj-check", "--lw", "200"])
        assert res.exit_code == 1

    def test_bad_waypoint_file_exit_one(self, runner, tmp_path):
        wp = tmp_path / "wp.csv"
        wp.write_text("not,a,waypoint,file\n1,2,3,4\n")
        res = runner.invoke(main, ["traj-check", "--waypoints", str(wp), "--lw", "200"])
        assert res.exit_code == 1

    def test_unreachable_waypoint_exit_three(self, runner, tmp_path):
        wp = tmp_path / "wp.csv"
        wp.write_text("t_s,x_mm,y_mm,z_mm\n0,0,0,0\n1,0,280,280\n")
        res = runner.invoke(main, ["traj-check", "--waypoints", str(wp), "--lw", "200"])
        assert res.exit_code == 3

    @pytest.mark.parametrize(
        "rows, code, message",
        [
            (
                "0,0,0,0\n0.1,1,2,3\n0.2,nan,0,0\n0.3,0,0,0\n",
                1,
                "ValueError: vector components must be finite, got [nan  0.  0.]",
            ),
            (
                "0,0,0,0\n0.1,1,2,3\n0.1,2,0,0\n0.3,0,0,0\n",
                1,
                "NonMonotoneTime: waypoint times must increase strictly (t[1] = 0.1, t[2] = 0.1)",
            ),
            (
                "0,0,0,0\n0.1,0,310.58,0\n0.2,0,400,400\n",
                3,
                "SerialSingularity: pose (0.0, 310.58, 0.0) on workspace boundary: eta_1 = 0",
            ),
            (
                "".join(f"{k / 100},{k / 10},0,0\n" for k in range(500)) + "5,0,230,230\n6,0,0,0\n",
                3,
                "Unreachable: waypoint 500: pose (0.0, 230.0, 230.0) unreachable: "
                "leg 0 radicand -9340.06 < 0",
            ),
            (
                "\n0,0,0,0\n\n0.1,1,2\n",
                1,
                "cannot read waypoints: bad waypoint row 3: float() argument must be a "
                "string or a real number, not 'NoneType'",
            ),
            (
                "0,0,0,0\nnan,1,2,3\n0.2,0,0,0\n",
                1,
                "ValueError: waypoint times must be finite (t[1] = nan)",
            ),
            (
                "0,0,0,0\ninf,1,2,3\n0.2,0,0,0\n",
                1,
                "ValueError: waypoint times must be finite (t[1] = inf)",
            ),
        ],
        ids=[
            "nan-pose", "non-monotone", "serial-boundary", "deep-unreachable", "short-row",
            "nan-time", "inf-time",
        ],
    )
    def test_error_message_and_exit_code(self, runner, tmp_path, rows, code, message):
        wp = tmp_path / "wp.csv"
        wp.write_text("t_s,x_mm,y_mm,z_mm\n" + rows)
        res = runner.invoke(
            main,
            ["traj-check", "--waypoints", str(wp), "--leg-length", "310.58",
             "--stroke-min", "-383.8", "--stroke-max", "-126.8"],
        )
        assert res.exit_code == code
        assert res.output == f"error: {message}\n"


EXPLICIT = ["--leg-length", "310.58", "--stroke-min", "-383.8", "--stroke-max", "-126.8"]


class TestNonFiniteInput:
    """Non-finite numbers give a clean `error:` line and exit 1, no traceback."""

    @staticmethod
    def _assert_clean_exit_one(res, what):
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert f"error: {what} must be finite" in res.output

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_synthesize_lw(self, runner, value):
        res = runner.invoke(main, ["synthesize", "--lw", value])
        self._assert_clean_exit_one(res, "--lw")

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["synthesize", "--lw", "200", "--s-lo", "nan"], "--s-lo"),
            (["synthesize", "--lw", "200", "--s-hi", "inf"], "--s-hi"),
            (["synthesize", "--lw", "200", "--vmax", "nan"], "--vmax"),
            (["synthesize", "--lw", "200", "--amax", "inf"], "--amax"),
            (["analyze", "0", "0", "0", *EXPLICIT, "--leg-length", "nan"], "--leg-length"),
            (["analyze", "0", "0", "0", *EXPLICIT, "--stroke-min", "-inf"], "--stroke-min"),
            (["analyze", "0", "0", "0", *EXPLICIT, "--stroke-max", "nan"], "--stroke-max"),
        ],
    )
    def test_float_flags(self, runner, args, flag):
        self._assert_clean_exit_one(runner.invoke(main, args), flag)

    @pytest.mark.parametrize(
        "doc, flag",
        [
            ('{"lw": NaN}', "--lw"),
            ('{"lw": 200, "s_hi": Infinity}', "--s-hi"),
            (
                '{"leg_length": 310.58, "stroke_min": [-383.8, NaN, -383.8],'
                ' "stroke_max": -126.8}',
                "--stroke-min",
            ),
        ],
    )
    def test_config_keys(self, runner, tmp_path, doc, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        res = runner.invoke(main, ["analyze", "0", "0", "0", "--config", str(cfg)])
        self._assert_clean_exit_one(res, flag)

    def test_config_cube(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"leg_length": 310.58, "stroke_min": -383.8, "stroke_max": -126.8,'
            ' "cube": {"q1": [NaN, 0, 0], "q2": [NaN, 10, 10]}}'
        )
        res = runner.invoke(main, ["workspace-map", "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error: bad cube in config: cube corners must be finite" in res.output

    def test_config_grid_not_a_number(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lw": 200, "grid": NaN}')
        res = runner.invoke(main, ["synthesize", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error: --grid must be an integer" in res.output

    @pytest.mark.parametrize("pose", [["nan", "0", "0"], ["0", "inf", "0"], ["0", "0", "-inf"]])
    def test_analyze_pose(self, runner, pose):
        res = runner.invoke(main, ["analyze", "--lw", "200", "--", *pose])
        self._assert_clean_exit_one(res, "pose")

    def test_huge_pose_is_unreachable(self, runner):
        res = runner.invoke(main, ["analyze", "--lw", "200", "--", "1e308", "0", "0"])
        assert res.exit_code == 3
        assert "Unreachable" in res.output
        assert "np.float64" not in res.output


class TestLegLengthOutOfRange:
    """A leg length whose square over- or underflows gives exit 1, no traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["synthesize", "--lw", "1e200", "--grid", "3"],
            ["synthesize", "--lw", "1e-300", "--grid", "3"],
            ["workspace-map", "--lw", "1e200", "--grid", "3"],
            ["analyze", "0", "0", "0", "--leg-length", "1e200", *EXPLICIT[2:]],
            ["analyze", "0", "0", "0", "--leg-length", "1e-200", *EXPLICIT[2:]],
        ],
    )
    def test_clean_exit_one(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert "out of range: L*L over- or underflows" in res.output
