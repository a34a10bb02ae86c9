"""Command-line front end: synthesis, pose analysis, workspace mapping,
diagonal profiling and trajectory checking.

Units at this boundary: lengths in mm, motor limits in m/s and m/s^2
(converted to mm/s and mm/s^2 internally).  Structured results are JSON,
gridded/sampled data CSV, both with 12 significant digits so identical
configurations produce byte-identical files.

Exit codes: 0 success, 1 invalid configuration, 2 limit/bound violations
found (reports are still written), 3 kinematic failure.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import kinematics, performance, synthesis, trajectory, workspace
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
    """JSON-serializable copy of `value`: arrays become lists of floats and
    numpy scalars Python ones; with `rounded`, every float is rounded to 12
    significant digits, recursively, for stable JSON."""
    if isinstance(value, np.ndarray):
        value = value.astype(float).tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v, rounded) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, rounded) for v in value]
    if rounded and isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def _emit_json(doc: dict, out: str | None, exact_keys: frozenset = frozenset()) -> None:
    # keys in exact_keys keep full float precision (machine-consumable
    # blocks that round-trip through --config); everything else is rounded
    # to 12 significant digits
    payload = {k: _jsonable(v, k not in exact_keys) for k, v in doc.items()}
    with open_out(out) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
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


def _require_finite(flag: str, value) -> None:
    """ConfigError unless `value` (a number or list of numbers) is finite."""
    if value is None:
        return
    try:
        finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
    except (TypeError, ValueError):
        raise ConfigError(f"{flag} must be a number, got {value!r}") from None
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
        self.vmax_m_s = pick("vmax", 1.2)
        self.amax_m_s2 = pick("amax", 20.0)
        try:
            self.grid = int(pick("grid", 21))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"--grid must be an integer, got {pick('grid')!r}") from None
        self.out = pick("out") or None
        self.cube_doc = cfg.get("cube")
        for key in _FLOAT_KEYS:
            _require_finite(f"--{key.replace('_', '-')}", pick(key))
        if self.grid < 2:
            raise ConfigError("--grid must be at least 2")
        if self.vmax_m_s <= 0 or self.amax_m_s2 <= 0:
            raise ConfigError("--vmax and --amax must be positive")

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
                    motor_vmax=self.vmax_m_s * 1000.0,
                    motor_amax=self.amax_m_s2 * 1000.0,
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
            return (
                result.design(self.vmax_m_s * 1000.0, self.amax_m_s2 * 1000.0),
                result.cube,
            )
        raise ConfigError("no design: give --leg-length ... or a --lw synthesis request")

    def synthesis_result(self) -> synthesis.SynthesisResult:
        if self.lw is None or self.lw <= 0:
            raise ConfigError(f"--lw must be a positive cube side, got {self.lw}")
        try:
            return synthesis.synthesize(self.lw, self.bounds())
        except DegenerateBounds as e:
            raise ConfigError(f"DegenerateBounds: {e}") from e
        except ValueError as e:
            raise ConfigError(str(e)) from e


def _common_options(f):
    f = click.option("--config", type=click.Path(), help="JSON file mirroring the flags.")(f)
    f = click.option("--out", type=click.Path(), help="Output file (default: stdout).")(f)
    f = click.option("--grid", type=int, default=None, help="Grid nodes per axis / samples.")(f)
    f = click.option("--amax", type=float, default=None, help="Motor acceleration limit, m/s^2.")(f)
    f = click.option("--vmax", type=float, default=None, help="Motor speed limit, m/s.")(f)
    f = click.option("--stroke-max", type=float, default=None, help="Upper slider limit, mm.")(f)
    f = click.option("--stroke-min", type=float, default=None, help="Lower slider limit, mm.")(f)
    f = click.option("--leg-length", type=float, default=None, help="Explicit leg length, mm.")(f)
    f = click.option("--s-hi", type=float, default=None, help="Upper transmission bound.")(f)
    f = click.option("--s-lo", type=float, default=None, help="Lower transmission bound.")(f)
    f = click.option("--lw", type=float, default=None, help="Prescribed cube side, mm.")(f)
    return f


def _run_config(flags: dict) -> RunConfig:
    try:
        return RunConfig(flags)
    except ConfigError as e:
        _fail(EXIT_CONFIG, str(e))


@click.group()
@click.version_option()
def main():
    """Analysis and synthesis toolkit for the orthogonal-slider parallel machine."""


@main.command("synthesize")
@_common_options
def cmd_synthesize(**flags):
    """Dimension the machine for a prescribed cube, then verify it on a grid."""
    cfg = _run_config(flags)
    try:
        result = cfg.synthesis_result()
    except ConfigError as e:
        _fail(EXIT_CONFIG, str(e))
    design = result.design(cfg.vmax_m_s * 1000.0, cfg.amax_m_s2 * 1000.0)
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
        _fail(EXIT_CONFIG, f"cannot evaluate a {grid}^3 grid: {type(e).__name__}: {e}")


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
@_common_options
def cmd_analyze(x, y, z, **flags):
    """Full kinematic/conditioning report at pose X Y Z (mm)."""
    cfg = _run_config(flags)
    pose = (x, y, z)
    try:
        _require_finite("pose", pose)
        design, _ = cfg.design_and_cube()
    except ConfigError as e:
        _fail(EXIT_CONFIG, str(e))
    try:
        rho = kinematics.inverse_kinematics(pose, design)
        states = kinematics.leg_states(pose, rho, design)
        jinv = kinematics.inverse_jacobian(pose, rho, design)
        tf = performance.transmission_factors(jinv)
        iso = performance.isotropy_residual(pose, design)
    except OrthoglideError as e:
        _fail(EXIT_KINEMATIC, f"{type(e).__name__}: {e}")
    doc = {
        "pose_mm": list(pose),
        "rho_mm": rho,
        "eta_mm": [s.eta for s in states],
        "within_stroke": [bool(f) for f in kinematics.within_stroke(rho, design)],
        "jacobian_inverse": [list(row) for row in jinv],
        "sigma_fwd": tf.sigma_fwd,
        "kappa": tf.kappa,
        "det_inv": tf.det_inv,
        "serial_flags": list(tf.serial_flags),
        "parallel_flag": tf.parallel_flag,
        "isotropy": {"ratio_dev": iso.ratio_dev, "ortho_dev": iso.ortho_dev},
    }
    _emit_json(doc, cfg.out)


@main.command("workspace-map")
@_common_options
def cmd_workspace_map(**flags):
    """Evaluate a cube grid and export per-node records as CSV."""
    cfg = _run_config(flags)
    try:
        design, cube = cfg.design_and_cube()
        if cube is None:
            raise ConfigError("workspace-map needs a cube (synthesis request or config cube)")
        bounds = cfg.bounds()
    except ConfigError as e:
        _fail(EXIT_CONFIG, str(e))
    report = _verify_cube(design, cube, bounds, cfg.grid)
    workspace.write_grid_csv(report.nodes, cfg.out)
    if not report.ok:
        sys.exit(EXIT_VIOLATIONS)


@main.command("diag-profile")
@click.option("--u-min", type=float, default=None, help="Diagonal start, mm.")
@click.option("--u-max", type=float, default=None, help="Diagonal end, mm.")
@_common_options
def cmd_diag_profile(u_min, u_max, **flags):
    """Closed-form transmission profile along the cube diagonal, as CSV."""
    cfg = _run_config(flags)
    try:
        design, cube = cfg.design_and_cube()
        if u_min is None or u_max is None:
            if cube is None:
                raise ConfigError("give --u-min/--u-max or a synthesis request")
            u_min = cube.q1[0] if u_min is None else u_min
            u_max = cube.q2[0] if u_max is None else u_max
    except ConfigError as e:
        _fail(EXIT_CONFIG, str(e))
    try:
        samples = workspace.diagonal_profile(design, u_min, u_max, cfg.grid)
    except (RangeOutsideWorkspace, ValueError, MemoryError) as e:
        _fail(EXIT_CONFIG, f"{type(e).__name__}: {e}")
    rows = np.array([(s.u, s.a, *s.sigma_fwd, s.kappa) for s in samples])
    write_table(cfg.out, "u_mm,a,sigma_fwd_1,sigma_fwd_2,sigma_fwd_3,kappa", rows.T)


@main.command("traj-check")
@click.option("--waypoints", "waypoints_path", type=click.Path(), required=False)
@_common_options
def cmd_traj_check(waypoints_path, **flags):
    """Profile a waypoint CSV (t_s,x_mm,y_mm,z_mm) and flag motor-limit hits."""
    cfg = _run_config(flags)
    try:
        design, _ = cfg.design_and_cube()
        if not waypoints_path:
            raise ConfigError("traj-check needs --waypoints")
        try:
            waypoints = trajectory.read_waypoints_csv(waypoints_path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read waypoints: {e}") from e
    except ConfigError as e:
        _fail(EXIT_CONFIG, str(e))
    try:
        profile = trajectory.profile_path(waypoints, design)
    except (NonMonotoneTime, ValueError) as e:
        _fail(EXIT_CONFIG, f"{type(e).__name__}: {e}")
    except OrthoglideError as e:
        _fail(EXIT_KINEMATIC, f"{type(e).__name__}: {e}")
    trajectory.write_profile_csv(profile, cfg.out)
    if profile.any_flags:
        sys.exit(EXIT_VIOLATIONS)


if __name__ == "__main__":
    main()
