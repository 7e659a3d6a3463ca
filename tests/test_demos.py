"""Smoke test: every demo script runs to completion with warnings as errors,
and the cyclic demo's output, which runs on virtual time, is the same from
run to run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", str(path)], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(path):
    assert run_demo(path)


def test_cyclic_demo_output_is_deterministic():
    demo = ROOT / "demos" / "04_cyclic_methods.py"
    assert run_demo(demo) == run_demo(demo)
