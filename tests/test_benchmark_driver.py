"""The benchmark driver (``perfbench/run.py``) calls the program through its
public names: the CLI, the scenarios, ``AbiInterpreter.bind_function`` and the
``Runtime`` facade. Running each of its workloads once here, without editing
or timing anything, makes a change that breaks the driver fail this suite,
not only a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["transform", "wdt", "switchboard", "interp"])
def test_each_workload_runs_and_checks_clean_at_seed_1(name, tmp_path):
    run = load_run()
    workload = run.WORKLOADS[name](run._import_cpm(), tmp_path)
    state = workload.prepare(1)
    failures = workload.check(state, 1, workload.execute(state, 1))
    assert failures and all(not f for f in failures), failures
