"""Output does not depend on the hash seed: the ``cpm`` command and the two
scenarios give the same bytes under two ``PYTHONHASHSEED`` values, so no
set or dict order leaks into a transformed file, a report, a diagnostic or
an event log."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SEEDS = ("0", "4242")

# the event CSVs of run_wdt on the demo's parameter file and of
# run_switchboard on the switchboard demo's trace
SCENARIOS = f"""
import runpy
from cpm.scenarios import load_wdt_params, run_switchboard, run_wdt
print(run_wdt(load_wdt_params({str(DEMOS / "wdt_params.ini")!r})).runtime.events.to_csv())
demo = runpy.run_path({str(DEMOS / "06_switchboard.py")!r})
result = run_switchboard(demo["build_trace"](), observation_period=demo["PERIOD"], horizon=6 * demo["PERIOD"])
print(result.runtime.events.to_csv())
"""


def python(args, seed, cwd):
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, check=True)


@pytest.mark.parametrize("demo", ["watchdog_task.cpm", "switchboard.cpm"])
def test_cpm_command_output_does_not_depend_on_the_hash_seed(demo, tmp_path):
    outputs = []
    for seed in SEEDS:
        out = tmp_path / seed
        out.mkdir()
        done = python(
            ["-m", "cpm.cli", str(DEMOS / demo), *(f"--ext={p}" for p in ("redundancy", "refractive", "array", "cyclic")),
             "--config", str(DEMOS / "extensions.ini"), "--strict-tags",
             "--emit-report", str(out / "report"), "-o", str(out / "out.c")],
            seed, tmp_path,
        )
        outputs.append(((out / "out.c").read_bytes(), (out / "report").read_bytes(), done.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith(b"const char *extensions_pipeline")


def test_scenario_event_logs_do_not_depend_on_the_hash_seed(tmp_path):
    logs = [python(["-c", SCENARIOS], seed, tmp_path).stdout for seed in SEEDS]
    assert logs[0] == logs[1]
    assert logs[0].count(b"\n") > 20
