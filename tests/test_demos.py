"""Every demo script runs to completion against the imported package and
prints the same bytes as before: the sha256 of each demo's stdout is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plakit

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "01_expressions_and_tables.py":
        "12535c1b5bdd07256a5f0d20e09ca74865b4aebd9808d5bc4cef0d9cef72ece4",
    "02_minimization.py": "416b72a4f01b1907165b53071219f7846932d47f929b33e59cc058d37c468cda",
    "03_compile_to_fusemap.py":
        "d6f316c64f9c53ce2d8fa461697f904268fa1c2814b028c4de43d727c78af739",
    "04_simulate_and_verify.py":
        "64ac791a3ad05b91927fda14072ef231ad56adf5bb88c3ebf6b54c9989489048",
    "05_crosspoint_diagram.py":
        "016193a21cb057470e1b7a1098af99552200be79b941879b1cb3539bd2d9703e",
    "06_fault_testing.py": "454c6c4088010e01e5f02a4c6d440cbf1c6fdd87ef7e6417b6cff9e796d07897",
    "07_fsm_controller.py": "47d0c0f6b645a5e2a04624dcd09110279e7c18d71291839f40b43341357162c2",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(plakit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
