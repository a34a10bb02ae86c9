"""Command-line front end: synthesis, pose analysis, workspace mapping,
diagonal profiling and trajectory checking.

Units at this boundary: lengths in mm, motor limits in m/s and m/s^2
(converted to mm/s and mm/s^2 internally).  Structured results are JSON,
gridded/sampled data CSV, both with 12 significant digits so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 invalid configuration, 2 limit/bound violations
found (reports are still written), 3 kinematic failure.  Each command takes
only the options it reads, and raises; `_Cli` maps failures to exit codes.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np

from . import __version__, kinematics, performance, synthesis, trajectory, workspace
from ._table import open_out, write_table
from .errors import (
    DegenerateBounds,
    NonMonotoneTime,
    OrthoglideError,
    RangeOutsideWorkspace,
)
from .kinematics import DesignParams
from .workspace import Bounds, CubeSpec

EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2
EXIT_KINEMATIC = 3


class ConfigError(Exception):
    """Invalid combination or values of flags/config keys (exit 1)."""


def _jsonable(value, rounded: bool):
    """JSON-serializable copy of `value`: arrays become lists of floats,
    numpy scalars Python ones and non-finite floats None (JSON null); with
    `rounded`, every float is rounded to 12 significant digits, recursively,
    for stable JSON.  One pass: plain values dispatch on their exact type,
    and an array or numpy scalar is made plain once, then dispatched."""
    kind = type(value)
    if kind is float:
        if not math.isfinite(value):
            return None
        return float(f"{value:.12g}") if rounded else value
    if kind is dict:
        return {k: _jsonable(v, rounded) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_jsonable(v, rounded) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.astype(float).tolist(), rounded)
    if isinstance(value, np.generic):
        return _jsonable(value.item(), rounded)
    return value


def _emit_json(doc: dict, out: str | None, exact_keys: frozenset = frozenset()) -> None:
    # keys in exact_keys keep full float precision (machine-consumable
    # blocks that round-trip through --config); everything else is rounded
    # to 12 significant digits
    payload = {k: _jsonable(v, k not in exact_keys) for k, v in doc.items()}
    with open_out(out) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    # a synthesize output document is accepted directly: its "design"
    # object mirrors the explicit-design keys
    if isinstance(doc.get("design"), dict):
        merged = dict(doc["design"])
        merged.setdefault("out", doc.get("out"))
        return merged
    return doc


# config keys (and, with "-" for "_", flags) that take numbers
_FLOAT_KEYS = ("lw", "s_lo", "s_hi", "leg_length", "stroke_min", "stroke_max", "vmax", "amax")
_VECTOR_KEYS = ("stroke_min", "stroke_max")  # a number or one per axis


def _require_finite(flag: str, value, vector: bool = False) -> None:
    """ConfigError unless `value` is a finite number or, with `vector`, a
    finite number or list of numbers.  A string or a boolean is not a
    number, though numpy would convert it."""
    if value is None:
        return
    items = value if vector and isinstance(value, (list, tuple)) else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
        raise ConfigError(f"{flag} must be a number, got {value!r}")
    try:
        finite = all(math.isfinite(v) for v in items)
    except OverflowError:  # an integer beyond the range of a double
        finite = False
    if not finite:
        raise ConfigError(f"{flag} must be finite, got {value}")


class RunConfig:
    """Flags merged over the config file, resolved to model objects."""

    def __init__(self, flags: dict):
        cfg = _load_config_file(flags.get("config"))

        def pick(key, default=None):
            v = flags.get(key)
            return v if v is not None else cfg.get(key, default)

        self.lw = pick("lw")
        self.s_lo = pick("s_lo")
        self.s_hi = pick("s_hi")
        self.leg_length = pick("leg_length")
        self.stroke_min = pick("stroke_min")
        self.stroke_max = pick("stroke_max")
        self.vmax_m_s = pick("vmax", DesignParams.motor_vmax / 1000.0)
        self.amax_m_s2 = pick("amax", DesignParams.motor_amax / 1000.0)
        grid = pick("grid", 21)
        try:
            if isinstance(grid, (bool, str)) or (isinstance(grid, float) and not grid.is_integer()):
                raise ValueError(grid)
            self.grid = int(grid)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"--grid must be an integer, got {grid!r}") from None
        out = pick("out")
        if not isinstance(out, (str, type(None))):
            raise ConfigError(f"--out must be a file path, got {out!r}")
        self.out = out or None
        self.cube_doc = cfg.get("cube")
        for key in _FLOAT_KEYS:
            _require_finite(f"--{key.replace('_', '-')}", pick(key), key in _VECTOR_KEYS)
        if self.grid < 2:
            raise ConfigError("--grid must be at least 2")
        if self.vmax_m_s <= 0 or self.amax_m_s2 <= 0:
            raise ConfigError("--vmax and --amax must be positive")
        self.motors = dict(motor_vmax=self.vmax_m_s * 1000.0, motor_amax=self.amax_m_s2 * 1000.0)

    def bounds(self) -> Bounds:
        s_lo = 0.5 if self.s_lo is None else self.s_lo
        s_hi = 2.0 if self.s_hi is None else self.s_hi
        try:
            return Bounds(s_lo, s_hi)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def design_and_cube(self) -> tuple[DesignParams, CubeSpec | None]:
        """Resolve exactly one design source: explicit or synthesis request."""
        explicit = self.leg_length is not None
        requested = self.lw is not None
        if explicit and requested:
            raise ConfigError("give either --leg-length or --lw, not both")
        if explicit:
            if self.stroke_min is None or self.stroke_max is None:
                raise ConfigError("explicit design needs --stroke-min and --stroke-max")
            try:
                d = DesignParams(
                    leg_length=self.leg_length,
                    stroke_min=self.stroke_min,
                    stroke_max=self.stroke_max,
                    **self.motors,
                )
            except ValueError as e:
                raise ConfigError(str(e)) from e
            cube = None
            if self.cube_doc:
                try:
                    cube = CubeSpec(self.cube_doc["q1"], self.cube_doc["q2"])
                except (KeyError, TypeError, ValueError) as e:
                    raise ConfigError(f"bad cube in config: {e}") from e
            return d, cube
        if requested:
            result = self.synthesis_result()
            return result.design(**self.motors), result.cube
        raise ConfigError("no design: give --leg-length ... or a --lw synthesis request")

    def synthesis_result(self) -> synthesis.SynthesisResult:
        if self.lw is None or self.lw <= 0:
            raise ConfigError(f"--lw must be a positive cube side, got {self.lw}")
        try:
            return synthesis.synthesize(self.lw, self.bounds())
        except ValueError as e:
            raise ConfigError(str(e)) from e


# every option a command may read, in help order (config files take all keys)
_OPTIONS = {
    "lw": click.option("--lw", type=float, help="Prescribed cube side, mm."),
    "s-lo": click.option("--s-lo", type=float, help="Lower transmission bound."),
    "s-hi": click.option("--s-hi", type=float, help="Upper transmission bound."),
    "leg-length": click.option("--leg-length", type=float, help="Explicit leg length, mm."),
    "stroke-min": click.option("--stroke-min", type=float, help="Lower slider limit, mm."),
    "stroke-max": click.option("--stroke-max", type=float, help="Upper slider limit, mm."),
    "vmax": click.option("--vmax", type=float, help="Motor speed limit, m/s."),
    "amax": click.option("--amax", type=float, help="Motor acceleration limit, m/s^2."),
    "grid": click.option("--grid", type=int, help="Grid nodes per axis / samples."),
    "out": click.option("--out", type=click.Path(), help="Output file (default: stdout)."),
    "config": click.option("--config", type=click.Path(), help="JSON file mirroring the flags."),
}


def _options(*names):
    def decorate(f):
        for name in reversed((*names, "out", "config")):
            f = _OPTIONS[name](f)
        return f

    return decorate


class _Cli(click.Group):
    """The one failure boundary: command bodies raise, and each failure
    becomes an exit code and one `error:` line."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:  # the group's own options, or no command
            e.show()
            sys.exit(EXIT_CONFIG)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:  # click's message, but exit 2 means violations
            e.show()
            sys.exit(EXIT_CONFIG)
        except ConfigError as e:
            _fail(EXIT_CONFIG, str(e))
        except BrokenPipeError:  # stdout closed early: click exits 1 quietly
            raise
        except (DegenerateBounds, RangeOutsideWorkspace, NonMonotoneTime,
                ValueError, MemoryError, OSError) as e:
            _fail(EXIT_CONFIG, f"{type(e).__name__}: {e}")
        except OrthoglideError as e:
            _fail(EXIT_KINEMATIC, f"{type(e).__name__}: {e}")


@click.group(cls=_Cli)
@click.version_option(version=__version__)
def main():
    """Analysis and synthesis toolkit for the orthogonal-slider parallel machine."""


@main.command("synthesize")
@_options("lw", "s-lo", "s-hi", "vmax", "amax", "grid")
def cmd_synthesize(**flags):
    """Dimension the machine for a prescribed cube, then verify it on a grid."""
    cfg = RunConfig(flags)
    result = cfg.synthesis_result()
    design = result.design(**cfg.motors)
    report = _verify_cube(design, result.cube, result.bounds, cfg.grid)
    doc = {
        "request": {"lw_mm": result.lw, "s_lo": result.bounds.s_lo, "s_hi": result.bounds.s_hi},
        "leg_length_mm": result.leg_length,
        "q1_mm": result.q1,
        "q2_mm": result.q2,
        "stroke_lo_mm": result.stroke_lo,
        "stroke_hi_mm": result.stroke_hi,
        "stroke_mm": result.stroke,
        "ratio_cube_to_stroke": result.ratio,
        "ratio_cube_to_leg": result.cube_to_leg,
        "coupling_interval": [result.limits.a_min, result.limits.a_max],
        "design": {
            "leg_length": result.leg_length,
            "stroke_min": result.stroke_lo,
            "stroke_max": result.stroke_hi,
            "vmax": cfg.vmax_m_s,
            "amax": cfg.amax_m_s2,
            "s_lo": result.bounds.s_lo,
            "s_hi": result.bounds.s_hi,
            "cube": {"q1": result.q1, "q2": result.q2},
        },
        "verification": _report_doc(report),
    }
    _emit_json(doc, cfg.out, exact_keys=frozenset({"design"}))
    if not report.ok:
        sys.exit(EXIT_VIOLATIONS)


def _verify_cube(design, cube, bounds, grid: int) -> workspace.GridReport:
    # a grid too large for memory (MemoryError) or for numpy's index range
    # (ValueError) is a configuration error, not a crash
    try:
        return workspace.verify_cube(design, cube, bounds, grid)
    except (MemoryError, ValueError) as e:
        raise ConfigError(f"cannot evaluate a {grid}^3 grid: {type(e).__name__}: {e}") from e


def _report_doc(report: workspace.GridReport) -> dict:
    return {
        "n_per_axis": report.n_per_axis,
        "n_points": report.n_points,
        "n_unreachable": report.n_unreachable,
        "n_stroke_violations": report.n_stroke_violations,
        "n_bound_violations": report.n_bound_violations,
        "worst_sigma_min": report.worst_sigma_min,
        "worst_sigma_min_at": list(report.worst_sigma_min_at or ()),
        "worst_sigma_max": report.worst_sigma_max,
        "worst_sigma_max_at": list(report.worst_sigma_max_at or ()),
    }


@main.command("analyze")
@click.argument("x", type=float)
@click.argument("y", type=float)
@click.argument("z", type=float)
@_options("lw", "s-lo", "s-hi", "leg-length", "stroke-min", "stroke-max")
def cmd_analyze(x, y, z, **flags):
    """Full kinematic/conditioning report at pose X Y Z (mm)."""
    cfg = RunConfig(flags)
    pose = (x, y, z)
    _require_finite("pose", pose, vector=True)
    design, _ = cfg.design_and_cube()
    rho = kinematics.inverse_kinematics(pose, design)
    jinv = kinematics.inverse_jacobian(pose, rho)
    tf = performance.transmission_factors(jinv, kinematics.pose_order(pose))
    iso = performance.isotropy_residual(pose, rho)
    doc = {
        "pose_mm": list(pose),
        "rho_mm": rho,
        "eta_mm": np.subtract(pose, rho),
        "within_stroke": [bool(f) for f in kinematics.within_stroke(rho, design)],
        "jacobian_inverse": jinv,
        "sigma_fwd": tf.sigma_fwd,
        "kappa": tf.kappa,
        "det_inv": tf.det_inv,
        "serial_flags": list(tf.serial_flags),
        "parallel_flag": tf.parallel_flag,
        "isotropy": {"ratio_dev": iso.ratio_dev, "ortho_dev": iso.ortho_dev},
    }
    _emit_json(doc, cfg.out)


@main.command("workspace-map")
@_options("lw", "s-lo", "s-hi", "leg-length", "stroke-min", "stroke-max", "grid")
def cmd_workspace_map(**flags):
    """Evaluate a cube grid and export per-node records as CSV."""
    cfg = RunConfig(flags)
    design, cube = cfg.design_and_cube()
    if cube is None:
        raise ConfigError("workspace-map needs a cube (synthesis request or config cube)")
    report = _verify_cube(design, cube, cfg.bounds(), cfg.grid)
    workspace.write_grid_csv(report.nodes, cfg.out)
    if not report.ok:
        sys.exit(EXIT_VIOLATIONS)


@main.command("diag-profile")
@click.option("--u-min", type=float, default=None, help="Diagonal start, mm.")
@click.option("--u-max", type=float, default=None, help="Diagonal end, mm.")
@_options("lw", "s-lo", "s-hi", "leg-length", "stroke-min", "stroke-max", "grid")
def cmd_diag_profile(u_min, u_max, **flags):
    """Closed-form transmission profile along the cube diagonal, as CSV."""
    cfg = RunConfig(flags)
    design, cube = cfg.design_and_cube()
    if u_min is None or u_max is None:
        if cube is None:
            raise ConfigError("give --u-min/--u-max or a synthesis request")
        u_min = cube.q1[0] if u_min is None else u_min
        u_max = cube.q2[0] if u_max is None else u_max
    u, a, fwd, kappa = workspace.diagonal_profile(design, u_min, u_max, cfg.grid)
    write_table(cfg.out, "u_mm,a,sigma_fwd_1,sigma_fwd_2,sigma_fwd_3,kappa", [u, a, *fwd.T, kappa])


@main.command("traj-check")
@click.option("--waypoints", "waypoints_path", type=click.Path(), required=False)
@_options("lw", "s-lo", "s-hi", "leg-length", "stroke-min", "stroke-max", "vmax", "amax")
def cmd_traj_check(waypoints_path, **flags):
    """Profile a waypoint CSV (t_s,x_mm,y_mm,z_mm) and flag motor-limit hits."""
    cfg = RunConfig(flags)
    design, _ = cfg.design_and_cube()
    if not waypoints_path:
        raise ConfigError("traj-check needs --waypoints")
    try:
        times, poses = trajectory.read_waypoints_csv(waypoints_path)
    except (OSError, ValueError, csv.Error) as e:
        raise ConfigError(f"cannot read waypoints: {e}") from e
    profile = trajectory.profile_arrays(times, poses, design)
    trajectory.write_profile_csv(profile, cfg.out)
    if profile.any_flags:
        sys.exit(EXIT_VIOLATIONS)


if __name__ == "__main__":
    main()
