"""The package's public surface."""

import ast
import fnmatch
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import orthoglide

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orthoglide").glob("*.py"))


def test_all_lists_exactly_the_public_names():
    names = orthoglide.__all__
    assert names == sorted(set(names))
    public = {
        name
        for name, value in vars(orthoglide).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    # from a tmp cwd, so a block that writes files leaves none behind
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})


def test_linalg3_is_the_one_spectral_kernel():
    # no module calls a general eigen-solver or SVD, or imports one by name
    banned = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.attr] if isinstance(node, ast.Attribute) else []
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in banned]
    assert len(SOURCES) > 5 and not found


# functions no CLI command calls, each with the public use it serves; a
# pattern names a whole family
UNREACHED = {
    "kinematics:forward_kinematics": "public API: the pose from slider coordinates (demo 01)",
    "trajectory:joint_velocity": "public API: slider rates for a tool velocity (demo 05, "
    "acceptance criterion 7)",
    "trajectory:max_feasible_tool_speed": "public API: the motor-limited tool speed along a "
    "direction (demo 05, acceptance criterion 7)",
    "synthesis:prototype_*": "public API: the paper's prototype, for demos and tests",
    "performance:IsotropyResidual.is_isotropic": "public API: the verdict on an "
    "`isotropy_residual`",
    "workspace:CubeSpec.side": "public API: the cube's edge length",
    "_exact:*": "test oracle: exact singular-value counts and brackets, until the certified "
    "cube (ROADMAP, 'A certified cube') calls them",
}

# runs in a fresh interpreter: records every code object entered from the
# import of the CLI on, then runs the commands of argv[1] with click's runner
# and prints their exit codes and the (file, first line, name) of each code
_TRACED_COMMANDS = """
import json, sys
codes = set()
sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))
from click.testing import CliRunner
from orthoglide import cli
exits = [CliRunner().invoke(cli.main, args).exit_code for args in json.loads(sys.argv[1])]
sys.settrace(None)
print(json.dumps([exits, [(c.co_filename, c.co_firstlineno, c.co_name) for c in codes]]))
"""


def _function_defs(path: Path) -> dict:
    """{(file, first line, name): "module:qualified.name"} of every function
    defined in `path`, the first line being a decorator's if it has any, as
    in the function's code object."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = prefix + child.name
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), f"{path.stem}:")
    return found


def test_every_function_is_reached_or_declared(tmp_path):
    # one command per subcommand, workspace-map on a symmetric and an
    # off-diagonal cube, traj-check on quoted cells (the csv row loop), and
    # a command failing with exit 1 and one with exit 3
    syn = str(tmp_path / "syn.json")
    off_diagonal = tmp_path / "off.json"
    off_diagonal.write_text(
        json.dumps(
            {
                "leg_length": 310.6,
                "stroke_min": -128.5,
                "stroke_max": 128.5,
                "cube": {"q1": [-120, -90, -70], "q2": [110, 140, 160]},
            }
        )
    )
    waypoints = tmp_path / "way.csv"
    waypoints.write_text("t_s,x_mm,y_mm,z_mm\n" + "".join(f'"{k / 10}",{k},0,0\n' for k in range(5)))
    commands = [
        (["synthesize", "--lw", "200", "--grid", "5", "--out", syn], 0),
        (["analyze", "--config", syn, "10", "20", "30"], 0),
        (["workspace-map", "--lw", "200", "--grid", "4"], 0),
        (["workspace-map", "--config", str(off_diagonal), "--grid", "4"], 2),
        (["diag-profile", "--lw", "200", "--grid", "5"], 0),
        (["traj-check", "--lw", "200", "--waypoints", str(waypoints)], 0),
        (["synthesize", "--lw", "200", "--s-lo", "2"], 1),
        (["analyze", "--lw", "200", "1000", "0", "0"], 3),
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_COMMANDS, json.dumps([args for args, _ in commands])],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    exits, codes = json.loads(run.stdout)
    assert exits == [code for _, code in commands]
    called = {tuple(c) for c in codes}
    defined = {}
    for source in SOURCES:
        defined.update(_function_defs(source))
    unreached = {name for key, name in defined.items() if key not in called}
    for pattern in UNREACHED:
        declared = fnmatch.filter(defined.values(), pattern)
        assert declared, f"{pattern} names no function"
        assert set(declared) <= unreached, f"{pattern}: a command reaches it now"
        unreached -= set(declared)
    assert not unreached, "functions no command reaches, and not declared in UNREACHED"
