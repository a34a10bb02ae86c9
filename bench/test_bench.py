"""Tests of the benchmark's own parts: each oracle accepts the program's real
output and rejects a deliberately corrupted copy; the tracer finds every
layer, rebinds imported names and reports a layer without hooks as missing;
the host-speed reference helper answers and exits.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import tracer  # noqa: E402
from oracles import ORACLES  # noqa: E402
from worker import run_cli  # noqa: E402
from workloads import generate  # noqa: E402

from orthoglide import cli  # noqa: E402

SMALL = {
    "design-sweep": {"n_requests": 2, "grid": 9},
    "map-export": {"grid": 9},
    "pose-queries": {"n_poses": 2},
    "path-check": {"n_waypoints": 2000},
}


def run_first(workload: str, tmp_path: Path, seed: int = 3):
    spec = generate(workload, seed, tmp_path / "inputs", **SMALL[workload])
    cmd = spec["commands"][0]
    out = tmp_path / f"out{spec['ext']}"
    code, error = run_cli(cli.main, [str(out) if a == "{out}" else a for a in cmd["args"]], None)
    assert error is None
    return spec, cmd, out, code


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_csv_cell(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = change(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def nudge(text: str, rel: float = 1e-6) -> str:
    return repr(float(text) * (1 + rel))


def scale_json(*path, factor=1.000001):
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] *= factor

    return change


CORRUPTIONS = {
    "design-sweep": lambda out: edit_json(out, scale_json("verification", "worst_sigma_max")),
    "map-export": lambda out: edit_csv_cell(out, 100, 7, nudge),
    "pose-queries": lambda out: edit_json(out, scale_json("sigma_fwd", 1)),
    "path-check": lambda out: edit_csv_cell(out, 200, 8, lambda v: repr(float(v) + 1.0)),
}


@pytest.mark.parametrize("workload", sorted(ORACLES))
def test_oracle_accepts_real_output_and_rejects_corrupted(workload, tmp_path):
    spec, cmd, out, code = run_first(workload, tmp_path)
    oracle = ORACLES[workload]
    assert oracle(spec, cmd, out, code) == []
    CORRUPTIONS[workload](out)
    assert oracle(spec, cmd, out, code) != []


@pytest.mark.parametrize("workload", ["map-export", "path-check"])
def test_oracle_rejects_wrong_exit_code(workload, tmp_path):
    spec, cmd, out, code = run_first(workload, tmp_path)
    assert ORACLES[workload](spec, cmd, out, 2 - code) != []


def test_path_oracle_rejects_flipped_flag(tmp_path):
    spec, cmd, out, code = run_first("path-check", tmp_path)
    edit_csv_cell(out, 10, 13, lambda v: str(1 - int(v)))
    assert ORACLES["path-check"](spec, cmd, out, code) != []


def test_tracer_counts_kernel_calls_per_report(tmp_path):
    spec = generate("pose-queries", 1, tmp_path / "inputs", n_poses=1)
    args = [str(tmp_path / "o.json") if a == "{out}" else a for a in spec["commands"][0]["args"]]
    t = tracer.Tracer()
    t.discover()
    assert t.missing() == []
    import orthoglide.trajectory as trajectory

    original = trajectory.inverse_kinematics
    t.install()
    try:
        # a `from .kinematics import inverse_kinematics` name is rebound too
        assert trajectory.inverse_kinematics is not original
        assert run_cli(cli.main, args, t) == (0, None)
    finally:
        t.uninstall()
    assert trajectory.inverse_kinematics is original
    layers = t.summary()
    assert layers["cli.calls"] == 1
    assert layers["linalg3.calls_per_report"] == 2.0
    assert layers["trajectory.calls"] == 0


def test_tracer_reports_layer_without_hooks_as_missing(monkeypatch):
    # the errors module defines exception classes only, no public functions
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("errors",))
    t = tracer.Tracer()
    t.discover()
    assert t.missing() == ["errors"]


def test_reference_helper_times_the_reference_and_exits():
    helper = calibrate.Helper()
    try:
        assert helper.reference() > 0.0
    finally:
        helper.close()
    assert helper._proc.returncode == 0
    # a command timed while the host ran at half the nominal speed
    slow = 2.0 * calibrate.NOMINAL_S
    assert calibrate.scale(3.0, slow, slow) == pytest.approx(1.5)
