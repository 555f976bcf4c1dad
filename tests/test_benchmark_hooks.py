"""The benchmark launcher's hooks still resolve against the package.

`perfbench/launch.py` wraps the functions listed in its WRAPS table by
(module, class, attribute).  A renamed or removed entry would fail every
benchmark process, so it is checked here, and the launcher is run once
untraced and once traced on a shortened workload.
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")
WORKLOAD = os.path.join(ROOT, "perfbench", "workloads", "polar2d_linear.cfg")


@pytest.fixture(scope="module")
def launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(launch):
    missing = [entry for entry in launch.WRAPS
               if not hasattr(launch._owner(entry[0], entry[1]), entry[2])]
    assert not missing


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_launcher_runs_the_workload(tmp_path, traced):
    cmd = [sys.executable, LAUNCH, "--marks", str(tmp_path / "marks.json")]
    if traced:
        cmd += ["--trace", str(tmp_path / "spans.npz")]
    cmd += ["--", "run", WORKLOAD, "--out", str(tmp_path / "out"),
            "--override", "solver.t_end=0.01"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT ordered_contractivity: PASS" in proc.stdout
    assert (tmp_path / "marks.json").exists()
    assert (tmp_path / "spans.npz").exists() == traced
    if traced:
        # the Stepper's inherited tendency methods are traced on the Stepper
        names = set(np.load(tmp_path / "spans.npz")["names"])
        assert {"integrate.stepper_init", "integrate.rhs",
                "integrate.fine_physical"} <= names
