"""The package's public surface."""

import ast
import re
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
