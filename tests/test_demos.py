"""Every demo runs to completion as a script and prints the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout
STDOUT_SHA256 = {
    "01_pose_analysis.py": "ec46753c7b2e32e1502bd36b8795a336a201cf09381555ccd2b8a671d6f94782",
    "02_conditioning_profile.py": "464d1bfad70136aeb9080ac3b06c652d8c28e83ca4842b7a89312ee6bcf42047",
    "03_prototype_synthesis.py": "ded215f42a876f80266108bdae238352d5d0736321883f66f965ab3d4b8a9aa6",
    "04_workspace_map.py": "74886af9e8e0e180d7fc350d458c7e670cad1b42ce13521e47461dbe2d614042",
    "05_trajectory_check.py": "4603e29afb9f1692b766edb784a01156bec73dd311e06763df3f209085a31d55",
}


def test_demos_found():
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from tmp_path so files a demo writes land there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode(errors="replace")
    assert hashlib.sha256(res.stdout).hexdigest() == STDOUT_SHA256[demo.name]
