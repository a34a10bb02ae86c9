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

import pytest

import orthoglide

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orthoglide").glob("*.py"))


def test_all_lists_exactly_the_public_names():
    # the names load lazily, so `dir` lists them rather than `vars`
    names = orthoglide.__all__
    assert names == sorted(set(names))
    public = {
        name
        for name in dir(orthoglide)
        if not name.startswith("_") and not isinstance(getattr(orthoglide, name), types.ModuleType)
    }
    assert set(names) == public


# runs in a fresh interpreter: the orthoglide modules loaded after argv[1]
_LOADED_MODULES = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "orthoglide")))
"""

# what the CLI loads before any command: click parsing and the config
_CLI_BASE = ["orthoglide", "orthoglide._table", "orthoglide.cli", "orthoglide.errors",
             "orthoglide.kinematics"]
_KERNEL = ["orthoglide.linalg3", "orthoglide.performance"]
_DESIGN = '"--leg-length", "310.6", "--stroke-min", "-128.5", "--stroke-max", "128.5"'


def _run_command(args: str) -> str:
    return f"""
from orthoglide import cli
try:
    cli.main.main([{args}], standalone_mode=False)
except SystemExit as e:
    assert e.code in (0, 2), e.code
"""


def _loaded(code: str, tmp_path) -> list[str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, code],
        capture_output=True,
        text=True,
        check=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return json.loads(run.stdout)


def test_import_loads_no_layer_module(tmp_path):
    assert _loaded("import orthoglide", tmp_path) == ["orthoglide"]


def test_every_public_name_resolves_lazily(tmp_path):
    # each name is its module's own object, and `import *` binds them all
    code = """
import importlib, orthoglide
for module, names in orthoglide._EXPORTS.items():
    for name in names:
        value = getattr(importlib.import_module(f"orthoglide.{module}"), name)
        assert getattr(orthoglide, name) is value, name
namespace = {}
exec("from orthoglide import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == orthoglide.__all__
"""
    modules = [f"orthoglide.{m}" for m in orthoglide._EXPORTS]
    assert set(_loaded(code, tmp_path)) == {"orthoglide", "orthoglide._table",
                                            "orthoglide.linalg3", *modules}


@pytest.mark.parametrize(
    "code, more",
    [
        (
            "from orthoglide import cli\n"
            "cli.RunConfig(dict(leg_length=310.6, stroke_min=-128.5, stroke_max=128.5))"
            ".design_and_cube()",
            [],
        ),
        (_run_command(f'"analyze", {_DESIGN}, "--out", "out", "10", "20", "30"'), _KERNEL),
        (_run_command(f'"traj-check", {_DESIGN}, "--waypoints", "way.csv", "--out", "out"'),
         ["orthoglide.trajectory"]),
        (_run_command('"workspace-map", "--config", "cube.json", "--grid", "4", "--out", "out"'),
         [*_KERNEL, "orthoglide.workspace"]),
        (_run_command('"synthesize", "--lw", "200", "--grid", "4", "--out", "out"'),
         [*_KERNEL, "orthoglide.synthesis", "orthoglide.workspace"]),
    ],
    ids=["config", "analyze", "traj-check", "workspace-map", "synthesize"],
)
def test_commands_load_only_the_modules_they_run(tmp_path, code, more):
    (tmp_path / "way.csv").write_text("t_s,x_mm,y_mm,z_mm\n0,0,0,0\n0.1,1,0,0\n0.2,2,0,0\n")
    cube = {"q1": [-120, -90, -70], "q2": [110, 140, 160]}
    (tmp_path / "cube.json").write_text(
        json.dumps(dict(leg_length=310.6, stroke_min=-128.5, stroke_max=128.5, cube=cube))
    )
    assert _loaded(code, tmp_path) == sorted(_CLI_BASE + more)


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
    "__init__:__dir__": "module protocol: `dir(orthoglide)` lists the public names, which "
    "load lazily (test_all_lists_exactly_the_public_names)",
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
