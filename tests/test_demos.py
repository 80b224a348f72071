"""Every demo script runs to completion against the imported package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plakit

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(plakit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
