"""Seeded workload generators.

Each generator draws its inputs from a `random.Random` seeded with the
workload name and the seed, writes only program inputs (config JSON, a
waypoint CSV) into the run's input directory, and returns a spec: the CLI
argument lists to run in order, the work items each command finishes, and
the parameters the oracles need.  `{out}` in an argument list stands for the
command's output file, which the worker fills in.

The worker cycles through the command list until the run's time is up, so
each command runs several times and is timed at the mean of its
repetitions: a few distinct commands per workload, except pose-queries,
which needs enough of them for a 95th percentile with at least ten commands
beyond it.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from model import PROTOTYPE, VMAX, AMAX, joint_rates, prototype_config


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def design_sweep(rng: random.Random, d: Path, n_requests: int = 4, grid: int = 41) -> dict:
    """`synthesize` on seeded requests, each verified on a grid^3 grid."""
    commands = []
    for k in range(n_requests):
        req = {
            "lw": rng.uniform(100.0, 400.0),
            "s_lo": rng.uniform(0.4, 0.7),
            "s_hi": rng.uniform(1.5, 3.0),
            "grid": grid,
        }
        cfg = _write_json(d / f"request_{k:04d}.json", req)
        commands.append(
            {
                "args": ["synthesize", "--config", cfg, "--out", "{out}"],
                "items": grid**3,
                "key": str(k),
                "input": req,
            }
        )
    warmup = commands[0]["args"] + ["--grid", "5"]
    return {"ext": ".json", "warmup": warmup, "commands": commands, "check": {"grid": grid}}


def map_export(rng: random.Random, d: Path, grid: int = 41) -> dict:
    """`workspace-map` of one off-diagonal cube of the prototype, as CSV.

    The cube corner sits at Q1 + (-20, +10, +30) mm, jittered by up to 2 mm
    per axis, with a 230 mm side: every node is reachable, but some break
    the strokes and the factor bounds, so exit code 2 is expected.
    """
    u1 = PROTOTYPE["u1"]
    offset = [base + rng.uniform(-2.0, 2.0) for base in (-20.0, 10.0, 30.0)]
    q1 = [u1 + o for o in offset]
    side = 230.0
    cfg = dict(prototype_config(), s_lo=0.5, s_hi=2.0, grid=grid)
    cfg["cube"] = {"q1": q1, "q2": [q + side for q in q1]}
    path = _write_json(d / "map.json", cfg)
    args = ["workspace-map", "--config", path, "--out", "{out}"]
    return {
        "ext": ".csv",
        "warmup": args + ["--grid", "5"],
        "commands": [{"args": args, "items": grid**3, "key": "map"}],
        "check": {"grid": grid, "q1": q1, "side": side, "design": cfg},
    }


def pose_queries(rng: random.Random, d: Path, n_poses: int = 200) -> dict:
    """`analyze` at poses drawn uniformly in the prototype cube."""
    design = _write_json(d / "design.json", prototype_config())
    lo, hi = PROTOTYPE["u1"], PROTOTYPE["u2"]
    commands = []
    for k in range(n_poses):
        pose = [rng.uniform(lo, hi) for _ in range(3)]
        commands.append(
            {
                # "--" keeps negative coordinates from reading as options
                "args": ["analyze", "--config", design, "--out", "{out}", "--"]
                + [repr(c) for c in pose],
                "items": 1,
                "key": str(k),
                "input": pose,
            }
        )
    return {
        "ext": ".json",
        "warmup": commands[0]["args"],
        "commands": commands,
        "check": {"design": prototype_config()},
    }


def path_state(check: dict, n: int) -> tuple[np.ndarray, ...]:
    """Times, poses, tool velocities and accelerations of the seeded path.

    p_i(t) = c + A_i sin(m_i w t + phi_i) with w = 2 pi / T: a smooth closed
    curve that stays inside the prototype cube.
    """
    period = check["period"]
    t = period * np.arange(n) / (n - 1)
    amp, mult, phase = (np.array(check[k]) for k in ("amplitude", "multiple", "phase"))
    w = 2.0 * math.pi / period * mult
    theta = t[:, None] * w + phase
    p = check["center"] + amp * np.sin(theta)
    v = amp * w * np.cos(theta)
    a = -amp * w * w * np.sin(theta)
    return t, p, v, a


def _write_waypoints(path: Path, t: np.ndarray, p: np.ndarray) -> str:
    rows = ["t_s,x_mm,y_mm,z_mm"]
    rows += [",".join(repr(float(x)) for x in (tk, *pk)) for tk, pk in zip(t, p)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def path_check(rng: random.Random, d: Path, n_waypoints: int = 10000) -> dict:
    """`traj-check` of one seeded closed path through the prototype cube.

    The period is set from the analytic joint rates so that the path runs at
    0.8 to 1.25 times the speed at which the first motor limit is reached:
    some seeds stay inside the limits (exit 0), others cross them (exit 2).
    """
    check = {
        "center": (PROTOTYPE["u1"] + PROTOTYPE["u2"]) / 2.0,
        "amplitude": [rng.uniform(50.0, 90.0) for _ in range(3)],
        "multiple": rng.sample([1.0, 2.0, 3.0], 3),
        "phase": [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)],
        "period": 1.0,
        "design": prototype_config(),
        "n": n_waypoints,
    }
    _, p, v, a = path_state(check, n_waypoints)
    rate, acc = joint_rates(p, v, a, PROTOTYPE["leg_length"])
    # joint rates scale with 1/T and accelerations with 1/T^2
    critical = max(np.abs(rate).max() / VMAX, math.sqrt(np.abs(acc).max() / AMAX))
    check["period"] = critical / rng.uniform(0.8, 1.25)

    design = _write_json(d / "design.json", prototype_config())
    t, p, _, _ = path_state(check, n_waypoints)
    waypoints = _write_waypoints(d / "waypoints.csv", t, p)
    t, p, _, _ = path_state(check, 200)
    warm = _write_waypoints(d / "warmup.csv", t, p)

    def args(path):
        return ["traj-check", "--config", design, "--waypoints", path, "--out", "{out}"]

    return {
        "ext": ".csv",
        "warmup": args(warm),
        "commands": [{"args": args(waypoints), "items": n_waypoints, "key": "path"}],
        "check": check,
    }


GENERATORS = {
    "design-sweep": design_sweep,
    "map-export": map_export,
    "pose-queries": pose_queries,
    "path-check": path_check,
}


def generate(workload: str, seed: int, d: Path, **sizes) -> dict:
    """Write the inputs of `workload` for `seed` into `d`; return its spec."""
    d.mkdir(parents=True, exist_ok=True)
    spec = GENERATORS[workload](random.Random(f"{workload}:{seed}"), d, **sizes)
    spec.update(workload=workload, seed=seed)
    (d / "spec.json").write_text(json.dumps(spec))
    return spec
