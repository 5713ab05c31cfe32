"""The scripts under scripts/ run end to end against the package as it is,
so that removing or renaming an API they use fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_run_worked_example():
    done = run_script("run_worked_example.py")
    assert done.returncode == 0, done.stderr
    assert "nodes: ['++00', '--00', '0000']" in done.stdout


@pytest.mark.parametrize("extra", [[], ["--reuse-slope"]])
def test_iteration_scaling(extra):
    done = run_script("iteration_scaling.py", "--m", "8", "--n", "16", "--sizes", "2,4,8", *extra)
    assert done.returncode == 0, done.stderr
    assert "fitted log-log slope:" in done.stdout
