"""Command-line interface: exit codes, formats, determinism, round trips."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import orthoglide
from orthoglide import cli, kinematics, trajectory, workspace
from orthoglide.cli import _FLOAT_KEYS, RunConfig, main
from orthoglide.kinematics import DesignParams

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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP, 'Accurate factors on the ill-conditioned tail': the kernel puts "
        "worst_sigma_max at 10000.0000304, past s_hi = 1e4, on the command's own cube",
    )
    def test_wide_bounds_cube_verifies(self, runner):
        res = runner.invoke(
            main, ["synthesize", "--lw", "200", "--s-lo", "0.5", "--s-hi", "1e4", "--grid", "21"]
        )
        assert res.exit_code == 0, res.output

    def test_degenerate_bounds_exit_one(self, runner):
        res = runner.invoke(main, ["synthesize", "--lw", "200", "--s-lo", "1", "--s-hi", "1"])
        assert res.exit_code == 1
        assert "DegenerateBounds" in res.output

    def test_singular_bounds_exit_one(self, runner):
        # 1 - 1/s_hi rounds to 1, which would put Q2 on a parallel singularity
        res = runner.invoke(
            main, ["synthesize", "--lw", "200", "--s-lo", "0.01", "--s-hi", "1e17", "--grid", "3"]
        )
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: DegenerateBounds:")
        assert res.stderr.count("\n") == 1

    def test_negative_cube_side_exit_one(self, runner):
        res = runner.invoke(main, ["synthesize", "--lw", "-5", "--s-lo", "0.5", "--s-hi", "2"])
        assert res.exit_code == 1

    def test_default_motor_limits(self, runner):
        # the defaults are DesignParams', shown in m/s and m/s^2
        res = runner.invoke(main, SYNTH + ["--grid", "3"])
        assert res.exit_code == 0, res.output
        design = json.loads(res.output)["design"]
        assert (design["vmax"], design["amax"]) == (1.2, 20.0)
        cfg = RunConfig({"lw": 200.0})
        assert cfg.motors == {"motor_vmax": 1200.0, "motor_amax": 20000.0}
        assert cfg.design_and_cube()[0].motor_vmax == DesignParams.motor_vmax

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

    def test_parallel_singular_pose_is_strict_json(self, runner):
        # (u, u, u) at a = 1, the parallel singularity: the largest forward
        # factor is infinite, and JSON has no Infinity, so it is written null
        u = "179.3150944336107"
        res = runner.invoke(main, ["analyze", "--lw", "200", "--", u, u, u])
        assert res.exit_code == 0, res.output

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads(res.output, parse_constant=reject)
        assert doc["parallel_flag"] is True
        assert doc["sigma_fwd"][2] is None
        assert all(math.isfinite(v) for v in doc["sigma_fwd"][:2])

    @pytest.mark.parametrize("rounded", [True, False])
    def test_non_finite_floats_become_null(self, rounded):
        # numpy scalars become Python ones, tuples lists and a bool array
        # floats (0.0/1.0); only `rounded` cuts a float to 12 digits
        third = 1.0 / 3.0
        value = {
            "a": [math.nan, 1.5],
            "b": np.array([np.inf, -np.inf]),
            "c": np.float64("nan"),
            "flag": np.bool_(True),
            "count": np.int64(7),
            "x": np.float64(third),
            "pair": (third, np.float64(-np.inf)),
            "mask": np.array([True, False]),
            "nested": [{"y": [third, np.nan]}],
        }
        f = float(f"{third:.12g}") if rounded else third
        got = cli._jsonable(value, rounded)
        assert got == {
            "a": [None, 1.5],
            "b": [None, None],
            "c": None,
            "flag": True,
            "count": 7,
            "x": f,
            "pair": [f, None],
            "mask": [1.0, 0.0],
            "nested": [{"y": [f, None]}],
        }
        assert type(got["flag"]) is bool and type(got["count"]) is int
        assert type(got["x"]) is float and type(got["mask"][0]) is float

    def test_one_ik_solve(self, runner, monkeypatch):
        # the isotropy residual reads the rho the command solved for
        solve, calls = kinematics.inverse_kinematics, []
        monkeypatch.setattr(
            kinematics, "inverse_kinematics", lambda *args: calls.append(args) or solve(*args)
        )
        res = runner.invoke(main, ["analyze", *EXPLICIT, "--", "10", "20", "-30"])
        assert res.exit_code == 0, res.output
        assert len(calls) == 1


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


def write_line_waypoints(path, q1, q2, speed, n):
    """n waypoints of a straight line from q1 to q2 at constant speed."""
    q1, q2 = np.asarray(q1), np.asarray(q2)
    duration = float(np.linalg.norm(q2 - q1)) / speed
    rows = ["t_s,x_mm,y_mm,z_mm"]
    for t in np.linspace(0.0, duration, n):
        p = q1 + (q2 - q1) * (t / duration)
        rows.append(f"{t},{p[0]},{p[1]},{p[2]}")
    path.write_text("\n".join(rows) + "\n")


def write_seeded_path(path, proto, n=2000, plain=True):
    """n waypoints of a seeded closed curve through the prototype cube.

    `plain` writes unquoted `repr` floats with LF line endings; otherwise the
    same values are written with CRLF line endings, a blank line after every
    100th row and every cell of every 7th row quoted, which csv reads alike.
    """
    rng = np.random.default_rng(20021)
    t = np.cumsum(rng.uniform(0.5e-3, 1.5e-3, n))
    theta = 2 * math.pi * t[:, None] * np.array([1.0, 2.0, 3.0]) + rng.uniform(0, 2 * math.pi, 3)
    p = (proto.q1 + proto.q2) / 2 + np.array([60.0, 45.0, 70.0]) * np.sin(theta)
    rows = ["t_s,x_mm,y_mm,z_mm"]
    for k, (tk, pk) in enumerate(zip(t, p)):
        cells = [repr(float(v)) for v in (tk, *pk)]
        if not plain and k % 7 == 3:
            cells = [f'"{c}"' for c in cells]
        rows.append(",".join(cells))
        if not plain and k % 100 == 99:
            rows.append("")
    end = "\n" if plain else "\r\n"
    path.write_bytes((end.join(rows) + end).encode())


class TestTrajCheck:
    def test_fast_line_flags_and_exit_two(self, runner, tmp_path):
        from orthoglide.synthesis import prototype_synthesis

        proto = prototype_synthesis()
        wp = tmp_path / "wp.csv"
        write_line_waypoints(wp, proto.q1, proto.q2, 1200.0, 41)
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
        write_line_waypoints(wp, proto.q1, proto.q2, 200.0, 21)
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

    def test_field_over_csv_limit_exit_one(self, runner, tmp_path):
        wp = tmp_path / "wp.csv"
        wp.write_text("t_s,x_mm,y_mm,z_mm,note\n0,0,0,0,\n1,0,0,1," + "x" * 131073 + "\n")
        res = runner.invoke(main, ["traj-check", "--waypoints", str(wp), "--lw", "200"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == "error: cannot read waypoints: field larger than field limit (131072)\n"

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
                "SerialSingularity: waypoint 1: pose (0.0, 310.58, 0.0) on workspace "
                "boundary: eta_1 = 0",
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
            # a path gaining 1e-3 mm per step: accelerations of order
            # 1e-3 / step^2 mm/s^2 overflow
            (
                "0,0,0,0\n1e-160,0.001,0,0\n2e-160,0.003,0,0\n3e-160,0.006,0,0\n",
                1,
                "ValueError: waypoint 0: joint rate or acceleration overflows; "
                "time steps too small near t[0] = 0",
            ),
            (
                "0,0,0,0\n1e-300,0.001,0,0\n2e-300,0.003,0,0\n3e-300,0.006,0,0\n",
                1,
                "ValueError: waypoint 0: joint rate or acceleration overflows; "
                "time steps too small near t[0] = 0",
            ),
        ],
        ids=[
            "nan-pose", "non-monotone", "serial-boundary", "deep-unreachable", "short-row",
            "nan-time", "inf-time", "steps-1e-160", "steps-1e-300",
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

    @pytest.mark.parametrize("step", ["1e-160", "1e-300"])
    def test_tiny_steps_at_rest_exit_zero(self, runner, tmp_path, step):
        # a path at rest reads exactly zero, and no warning is printed,
        # however small its time steps
        wp = tmp_path / "wp.csv"
        wp.write_text("t_s,x_mm,y_mm,z_mm\n" + "".join(f"{k}{step},0,0,0\n" for k in range(4)))
        out = tmp_path / "p.csv"
        args = ["traj-check", "--out", str(out), "--waypoints", str(wp), *EXPLICIT]
        res = runner.invoke(main, args)
        assert (res.exit_code, res.output) == (0, "")
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (4, 19)
        assert np.array_equal(rows[:, 7:], np.zeros((4, 12)))


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

    @pytest.mark.parametrize("key", ["lw", "s_lo", "s_hi", "leg_length", "vmax", "amax"])
    def test_config_scalar_key_given_a_list(self, runner, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lw": 200, key: [1, 2]}))
        res = runner.invoke(main, ["synthesize", "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == f"error: --{key.replace('_', '-')} must be a number, got [1, 2]\n"

    @pytest.mark.parametrize("value, shown", [("200", "'200'"), (True, "True")])
    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    def test_config_key_not_a_json_number(self, runner, tmp_path, key, value, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lw": 200, key: value}))
        res = runner.invoke(main, ["synthesize", "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == f"error: --{key.replace('_', '-')} must be a number, got {shown}\n"

    @pytest.mark.parametrize("entry", ["-383.8", False])
    def test_config_stroke_list_entry_not_a_json_number(self, runner, tmp_path, entry):
        stroke = [-383.8, entry, -383.8]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"leg_length": 310.58, "stroke_min": stroke, "stroke_max": -126.8})
        )
        res = runner.invoke(main, ["analyze", "0", "0", "0", "--config", str(cfg)])
        assert res.exit_code == 1, res.output
        assert res.output == f"error: --stroke-min must be a number, got {stroke!r}\n"

    def test_config_integer_beyond_a_double(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lw": 1' + "0" * 400 + "}")
        res = runner.invoke(main, ["synthesize", "--config", str(cfg), "--grid", "3"])
        self._assert_clean_exit_one(res, "--lw")

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

    def test_config_cube_edges_overflow(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"leg_length": 310.58, "stroke_min": -383.8, "stroke_max": -126.8,'
            ' "cube": {"q1": [-1e308, -1e308, -1e308], "q2": [1e308, 1e308, 1e308]}}'
        )
        res = runner.invoke(main, ["workspace-map", "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: bad cube in config: cube edges overflow")

    @pytest.mark.parametrize(
        "q1, q2", [(["-60", "-60", "-60"], [140, 140, 140]), ([True, 0, 0], [11, 10, 10])]
    )
    @pytest.mark.parametrize("command", ["workspace-map", "diag-profile"])
    def test_config_cube_corner_not_a_json_number(self, runner, tmp_path, command, q1, q2):
        # numpy would read both corners as a 200 mm and a 10 mm cube; a
        # string or a boolean is refused as it is for every scalar key
        cfg = tmp_path / "cfg.json"
        design = {"leg_length": 310.58, "stroke_min": -383.8, "stroke_max": -126.8}
        cfg.write_text(json.dumps({**design, "cube": {"q1": q1, "q2": q2}}))
        res = runner.invoke(main, [command, "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        message = f"bad cube in config: cube corners must be a number, got {q1!r}"
        assert res.output == f"error: {message}\n"

    @pytest.mark.parametrize("u_min, u_max", [("nan", "10"), ("0", "nan"), ("-inf", "0")])
    def test_diag_profile_range(self, runner, u_min, u_max):
        res = runner.invoke(
            main, ["diag-profile", "--lw", "200", "--u-min", u_min, "--u-max", u_max]
        )
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == (
            f"error: ValueError: diagonal range must be finite, got [{float(u_min)}, {float(u_max)}]\n"
        )

    def test_config_grid_not_a_number(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lw": 200, "grid": NaN}')
        res = runner.invoke(main, ["synthesize", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error: --grid must be an integer" in res.output

    @pytest.mark.parametrize("out", [5, True, 0, ["a"]])
    def test_config_out_not_a_string(self, runner, tmp_path, out):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lw": 200, "out": out}))
        res = runner.invoke(main, ["diag-profile", "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == f"error: --out must be a file path, got {out!r}\n"

    def test_config_empty_out_is_stdout(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lw": 200, "out": ""}))
        res = runner.invoke(main, ["diag-profile", "--config", str(cfg), "--grid", "3"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("u_mm,")

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


class TestGoldenBytes:
    """SHA-256 of CSV outputs recorded before the numpy formatter replaced
    the row-by-row `%.12g` writer, and of JSON outputs recorded before the
    Jacobi kernel's sort became `np.sort`: every byte must stay the same.
    The traj-check digests were re-recorded when the joint rates and
    accelerations came to be taken from divided differences: the moved
    cells changed by rounding only, with the same flags and the same error
    against the closed-form rates and accelerations.  The two off-diagonal
    workspace-map digests were re-recorded when the factors came to be
    taken from the sorted pose's Jacobian, with each moved cell checked
    against the exact singular values of `orthoglide._exact`.  The three
    analyze digests at a singular pose, outside the strokes and from a
    synthesize config were recorded before the JSON converter became one
    pass and the report glue moved to Python floats."""

    @staticmethod
    def _digest(runner, args, out, code=0):
        # --out right after the command name, before any "--" ending options
        res = runner.invoke(main, [args[0], "--out", str(out), *args[1:]])
        assert res.exit_code == code, res.output
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_workspace_map(self, runner, tmp_path):
        digest = self._digest(
            runner, ["workspace-map", "--lw", "200", "--grid", "21"], tmp_path / "m.csv"
        )
        assert digest == "23bbe4d86854e6265cabfaabb86c6fe86f840410ee7b1360d389effc94defec0"

    @pytest.mark.parametrize(
        "args, want",
        [
            (
                ["synthesize", "--lw", "200", "--grid", "21"],
                "40ba5d2a5023ba590eecc4c3d30f4e43858f596c8fc857acca670ff616052924",
            ),
            (
                ["analyze", "--lw", "200", "--", "50", "20", "-10"],
                "941647e7ae2b6ca2e3135b47ae892482d367e0e48038a6a65e0336362ab27332",
            ),
            (
                ["analyze", "--lw", "200", "--", "0", "0", "0"],
                "b1d8468f9a40d9532453b333584cd9478f001099ed3362d296d351b0ad1f91bf",
            ),
        ],
        ids=["synthesize", "analyze-generic", "analyze-origin"],
    )
    def test_json(self, runner, tmp_path, args, want):
        assert self._digest(runner, args, tmp_path / "out.json") == want

    def test_analyze_parallel_singular(self, runner, tmp_path):
        # a null factor, kappa 0 and the parallel flag set
        u = "179.3150944336107"
        args = ["analyze", "--lw", "200", "--", u, u, u]
        digest = self._digest(runner, args, tmp_path / "a.json")
        assert digest == "3c5f3bd4dbc39ea023f6a9a069607c5068d74fa0de320c96fa0c84dcd07e0cce"

    def test_analyze_outside_strokes(self, runner, tmp_path):
        # the first slider leaves its stroke: within_stroke is [false, true, true]
        strokes = ["--stroke-min", "-300", "--stroke-max", "-200"]
        args = ["analyze", "--leg-length", "310.58", *strokes, "--", "150", "0", "0"]
        digest = self._digest(runner, args, tmp_path / "a.json")
        assert digest == "12c4f88b63e673a56cc023f71c939d177dca47fb2aff3bf30c7bbd408b952410"

    def test_analyze_synthesized_config(self, runner, tmp_path):
        # the design comes from the full-precision "design" block of a
        # synthesize document, and gives the bytes of analyze-generic's flags
        synth = tmp_path / "synth.json"
        self._digest(runner, [*SYNTH, "--grid", "11"], synth)
        args = ["analyze", "--config", str(synth), "--", "50", "20", "-10"]
        digest = self._digest(runner, args, tmp_path / "a.json")
        assert digest == "941647e7ae2b6ca2e3135b47ae892482d367e0e48038a6a65e0336362ab27332"

    def test_oversized_cube_with_nan_rows(self, runner, tmp_path, design, proto):
        # demo 04's oversized region: 1.8x the prototype cube, partly unreachable
        cfg = tmp_path / "big.json"
        cfg.write_text(
            json.dumps(
                {
                    "leg_length": design.leg_length,
                    "stroke_min": list(design.stroke_min),
                    "stroke_max": list(design.stroke_max),
                    "s_lo": 0.5,
                    "s_hi": 2.0,
                    "grid": 15,
                    "cube": {"q1": (1.8 * proto.q1).tolist(), "q2": (1.8 * proto.q2).tolist()},
                }
            )
        )
        out = tmp_path / "big.csv"
        digest = self._digest(runner, ["workspace-map", "--config", str(cfg)], out, code=2)
        assert "nan" in out.read_text()
        assert digest == "33738728bd11fdeec6d4b68479351c469a1462350df5c36f7d4bf286bbc3df38"

    def test_off_diagonal_multi_slab_cube(self, runner, tmp_path, design, proto):
        # map-export's cube: no wedge, and 41^3 nodes fill several slabs
        corner = proto.q1 + np.array([-20.0, 10.0, 30.0])
        cfg = tmp_path / "off.json"
        cfg.write_text(
            json.dumps(
                {
                    "leg_length": design.leg_length,
                    "stroke_min": list(design.stroke_min),
                    "stroke_max": list(design.stroke_max),
                    "s_lo": 0.5,
                    "s_hi": 2.0,
                    "grid": 41,
                    "cube": {"q1": corner.tolist(), "q2": (corner + 230.0).tolist()},
                }
            )
        )
        digest = self._digest(
            runner, ["workspace-map", "--config", str(cfg)], tmp_path / "off.csv", code=2
        )
        assert digest == "f12b673de554fa46d45b0cee5d0565c0dbcde361c3631472aaaa9be45f4719b6"

    def test_off_diagonal_map_runs_no_box_pass(self, runner, tmp_path, design, proto, monkeypatch):
        # workspace-map reads the nodes before the summary: every node is
        # evaluated in full, and the summary's box pass never runs
        def refuse(*args):
            raise AssertionError("the box pass ran")

        monkeypatch.setattr(workspace, "_entry_bounds", refuse)
        self.test_off_diagonal_multi_slab_cube(runner, tmp_path, design, proto)

    def test_diag_profile(self, runner, tmp_path):
        digest = self._digest(
            runner, ["diag-profile", "--lw", "200", "--grid", "41"], tmp_path / "d.csv"
        )
        assert digest == "f62b39d2bbdfa3ab1ea3d98fc9d73ca65ce4531a09dbe5f6f8851f0318adbb6e"

    def test_multi_chunk_diag_profile(self, runner, tmp_path):
        # 5000 rows of 6 float columns: five chunks of the CSV writer
        digest = self._digest(
            runner, ["diag-profile", "--lw", "200", "--grid", "5000"], tmp_path / "d.csv"
        )
        assert digest == "f4a7ba84150fcd4d8c9999f083175cba72ed1ee0b8e354569e1a316664c1cf28"

    def test_flagged_traj_check(self, runner, tmp_path, proto):
        wp = tmp_path / "wp.csv"
        write_line_waypoints(wp, proto.q1, proto.q2, 1200.0, 41)
        digest = self._digest(
            runner,
            ["traj-check", "--waypoints", str(wp), "--lw", "200"],
            tmp_path / "p.csv",
            code=2,
        )
        assert digest == "015b472dce7992efd77d14073e20a3fbc7a66944bef6e1f10c5ab75d0d0de404"

    @pytest.mark.parametrize("plain", [True, False], ids=["loadtxt-pass", "row-loop"])
    def test_seeded_traj_check(self, runner, tmp_path, proto, plain, monkeypatch):
        # both files hold the same values, read by the two routes of the reader
        row_loop = []
        read_rows = trajectory._read_rows
        monkeypatch.setattr(trajectory, "_read_rows", lambda f: row_loop.append(1) or read_rows(f))
        wp = tmp_path / "wp.csv"
        write_seeded_path(wp, proto, plain=plain)
        digest = self._digest(
            runner, ["traj-check", "--waypoints", str(wp), "--lw", "200"], tmp_path / "p.csv", code=2
        )
        assert row_loop == ([] if plain else [1])
        assert digest == "90216711128519f69aa38353015a40d867c8a4f5584f369b4c5659f2cb512d54"


DESIGN_OPTIONS = {"--lw", "--s-lo", "--s-hi", "--leg-length", "--stroke-min", "--stroke-max"}


class TestOptions:
    """Each command takes only the options it reads, plus --out and --config."""

    EXPECTED = {
        "synthesize": {"--lw", "--s-lo", "--s-hi", "--vmax", "--amax", "--grid"},
        "analyze": DESIGN_OPTIONS,
        "workspace-map": DESIGN_OPTIONS | {"--grid"},
        "diag-profile": DESIGN_OPTIONS | {"--grid", "--u-min", "--u-max"},
        "traj-check": DESIGN_OPTIONS | {"--vmax", "--amax", "--waypoints"},
    }

    def test_option_sets(self):
        found = {
            name: {o for p in cmd.params if isinstance(p, click.Option) for o in p.opts}
            for name, cmd in main.commands.items()
        }
        assert found == {name: opts | {"--out", "--config"} for name, opts in self.EXPECTED.items()}
        assert sum(len(opts) for opts in found.values()) == 47

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0, res.output
        assert res.output.endswith(f", version {orthoglide.__version__}\n")


class TestUsageErrors:
    """Usage errors keep click's message and exit 1: exit 2 means violations."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["synthesize", "--lw", "200", "--leg-length", "5"], "No such option '--leg-length'"),
            (["analyze", "0", "0", "0", "--lw", "200", "--grid", "3"], "No such option '--grid'"),
            (["workspace-map", "--lw", "200", "--vmax", "2"], "No such option '--vmax'"),
            (["diag-profile", "--lw", "200", "--amax", "3"], "No such option '--amax'"),
            (["traj-check", "--lw", "200", "--grid", "5"], "No such option '--grid'"),
            (["synthesize", "--lw", "abc"], "Invalid value for '--lw'"),
            (["frobnicate"], "No such command 'frobnicate'"),
        ],
    )
    def test_exit_one(self, runner, args, message):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert f"Error: {message}" in res.output

    @pytest.mark.parametrize(
        "args, message",
        [(["--bogus"], "Error: No such option '--bogus'"), ([], "Commands:\n  analyze")],
    )
    def test_group_usage_exit_one(self, runner, args, message):
        # parsed before any command runs: an unknown group option, and a bare
        # invocation, which prints the help
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert message in res.output

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["analyze", "--help"]])
    def test_help_and_version_exit_zero(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.output


class TestFlagChecks:
    """Each check of the flags and the config gives one `error:` line and
    exit 1."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["synthesize", "--lw", "200", "--grid", "1"], "--grid must be at least 2"),
            (["synthesize", "--lw", "200", "--vmax=-1"], "--vmax and --amax must be positive"),
            (
                ["synthesize", "--lw", "200", "--s-lo", "2"],
                "bounds must satisfy 0 < s_lo <= 1 <= s_hi, got Bounds(s_lo=2.0, s_hi=2.0)",
            ),
            (
                ["analyze", "0", "0", "0", "--lw", "200", "--leg-length", "300"],
                "give either --leg-length or --lw, not both",
            ),
            (
                ["analyze", "0", "0", "0", "--leg-length", "300"],
                "explicit design needs --stroke-min and --stroke-max",
            ),
            (
                ["diag-profile", "--leg-length", "300", "--stroke-min", "-100", "--stroke-max", "100"],
                "give --u-min/--u-max or a synthesis request",
            ),
            (
                ["diag-profile", "--lw", "200", "--u-min", "10", "--u-max", "0"],
                "ValueError: u_min must not exceed u_max",
            ),
        ],
    )
    def test_exit_one(self, runner, args, message):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    def test_config_not_an_object(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        res = runner.invoke(main, ["synthesize", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == "error: config file must hold a JSON object\n"


def test_stdout_closed_early_exits_quietly(tmp_path):
    # a reader that stops after 100 bytes of a 6 MB grid CSV: exit 1, no traceback
    src = str(Path(orthoglide.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    err = tmp_path / "stderr"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "orthoglide.cli", "workspace-map", "--lw", "200", "--grid", "41"],
            stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=tmp_path,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert head.startswith(b"x_mm,y_mm,z_mm,")
    assert code == 1
    assert err.read_bytes() == b""


class TestUnreadableFiles:
    """An --out that cannot be opened, or a config that is not UTF-8 JSON,
    gives one `error:` line and exit 1."""

    def test_out_is_a_directory(self, runner, tmp_path):
        res = runner.invoke(main, ["analyze", "0", "0", "0", "--lw", "200", "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output == f"error: IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_out_in_missing_directory(self, runner, tmp_path):
        out = tmp_path / "missing" / "m.csv"
        res = runner.invoke(
            main, ["workspace-map", "--lw", "200", "--grid", "3", "--out", str(out)]
        )
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith("error: FileNotFoundError: ")
        assert res.output.count("\n") == 1

    def test_config_not_utf8(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"lw": 200}\xff')
        res = runner.invoke(main, ["synthesize", "--config", str(cfg)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.startswith(f"error: cannot read config {cfg}: 'utf-8' codec")

    @pytest.mark.parametrize("grid, shown", [("5.7", "5.7"), ("true", "True"), ('"3"', "'3'")])
    def test_config_grid_not_an_integer(self, runner, tmp_path, grid, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"lw": 200, "grid": {grid}}}')
        res = runner.invoke(main, ["synthesize", "--config", str(cfg)])
        assert res.exit_code == 1
        assert res.output == f"error: --grid must be an integer, got {shown}\n"

    @pytest.mark.parametrize("grid", ["3", "3.0"])
    def test_config_grid_integer(self, runner, tmp_path, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"lw": 200, "grid": {grid}}}')
        res = runner.invoke(main, ["synthesize", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["verification"]["n_per_axis"] == 3


class TestEntryPoints:
    """The console script (`CliRunner`), the in-process call the benchmark
    makes and `python -m orthoglide.cli` give the same code, stderr and
    output bytes; a fresh process imports each command's modules as that
    command first runs them."""

    @staticmethod
    def _cases(tmp_path, proto):
        wp, slow = tmp_path / "wp.csv", tmp_path / "slow.csv"
        write_line_waypoints(wp, proto.q1, proto.q2, 1200.0, 41)
        write_line_waypoints(slow, proto.q1, proto.q2, 100.0, 41)
        out = str(tmp_path / "out")
        return [
            (["synthesize", "--lw", "200", "--grid", "5", "--out", out], 0, ""),
            (["analyze", "--lw", "200", "--out", out, "--", "10", "-20", "30"], 0, ""),
            (["workspace-map", "--lw", "200", "--grid", "5", "--out", out], 0, ""),
            (["diag-profile", "--lw", "200", "--out", out], 0, ""),
            (["traj-check", "--waypoints", str(slow), "--lw", "200", "--out", out], 0, ""),
            (["analyze", "0", "0", "0", "--out", out], 1, "error: no design: give --leg-length"),
            (["traj-check", "--waypoints", str(wp), "--lw", "200", "--out", out], 2, ""),
            (
                ["analyze", "--lw", "200", "--out", out, "--", "0", "0", "400"],
                3,
                "error: Unreachable",
            ),
        ]

    @staticmethod
    def _take(path: Path):
        """The bytes of the output file, which goes, or None if none was written."""
        if not path.exists():
            return None
        data = path.read_bytes()
        path.unlink()
        return data

    def test_same_code_and_stderr(self, runner, tmp_path, proto, capsys):
        src = str(Path(orthoglide.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / "out"
        for args, code, prefix in self._cases(tmp_path, proto):
            res = runner.invoke(main, args)
            outputs = [self._take(out)]
            try:
                main.main(args, standalone_mode=False)
                in_process = 0
            except SystemExit as exc:
                in_process = exc.code
            outputs.append(self._take(out))
            proc = subprocess.run(
                [sys.executable, "-m", "orthoglide.cli", *args],
                capture_output=True, text=True, env=env, cwd=tmp_path,
            )
            outputs.append(self._take(out))
            stderr = capsys.readouterr().err
            assert (res.exit_code, in_process, proc.returncode) == (code, code, code), args
            assert res.output == stderr == proc.stderr
            assert stderr.startswith(prefix) and stderr.count("\n") == int(code in (1, 3))
            assert outputs[0] == outputs[1] == outputs[2]
            assert (outputs[0] is None) == (code in (1, 3)), args


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_cli_reads_no_private_name_of_the_package():
    # the commands go through the package's public functions, so a private
    # fork of one of them cannot serve a command
    tree = ast.parse(Path(cli.__file__).read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("orthoglide"))
    ]
    names = {alias.asname or alias.name for node in imports for alias in node.names}
    private = [alias.name for node in imports for alias in node.names if _private(alias.name)]
    private += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in names and _private(node.attr)
    ]
    assert private == []
