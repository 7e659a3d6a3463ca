"""Self-tests of the benchmark: generator determinism, checks that reject
corrupted outputs, exact repeat of the traced counts, and the interface of
``run.py``. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

GENERATORS = {
    "transform": gen.transform_input,
    "wdt": gen.wdt_input,
    "switchboard": gen.switchboard_input,
    "interp": gen.interp_input,
}


def _workload(name, tmp_path, seed=5):
    workload = run.WORKLOADS[name](run._import_cpm(), tmp_path / name)
    return workload, workload.prepare(seed)


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    make = GENERATORS[name]
    for scale in (1, 2):
        a, b = make(3, scale), make(3, scale)
        assert repr(dataclasses.asdict(a)).encode() == repr(dataclasses.asdict(b)).encode()
    assert dataclasses.asdict(make(3, 1)) != dataclasses.asdict(make(4, 1))


def test_2x_doubles_the_stated_dimension():
    t1, t2 = gen.transform_input(2, 1), gen.transform_input(2, 2)
    assert [f.text.count("\n") * 2 for f in t1.files] == [f.text.count("\n") for f in t2.files]
    assert round(sum(f.ext_lines for f in t1.files) / t1.lines, 2) == 0.56  # the stated density
    w1, w2 = gen.wdt_input(2, 1), gen.wdt_input(2, 2)
    assert w2.horizon == 2 * w1.horizon and w1.period == w2.period
    s1, s2 = gen.switchboard_input(2, 1), gen.switchboard_input(2, 2)
    assert len({m for _, m, _ in s2.rows}) == 2 * len({m for _, m, _ in s1.rows})
    assert s1.horizon == s2.horizon
    i1, i2 = gen.interp_input(2, 1), gen.interp_input(2, 2)
    assert i1.source == i2.source and i2.statements - len(i2.header) == 2 * len(i1.body)


def test_wdt_input_adapts_replicas_and_is_mostly_active(tmp_path):
    workload, state = _workload("wdt", tmp_path)
    result = workload.execute(state, 1)
    adapts = [e.value for e in result.runtime.events if e.kind == "adapt"]
    assert "3->5" in adapts and "5->3" in adapts
    fired = sum(1 for _, v in result.trace if v == checks.WD_FIRED)
    assert 0 < fired < len(result.trace) // 20
    assert len(result.ignored_writes) > len(state[1][0].restarts) // 2


# -- oracles agree with the reference oracles of the test suite -----------------

def _reference_oracles():
    tests = ROOT / "tests"
    if not (tests / "oracles.py").is_file():
        pytest.skip("tests/oracles.py not present")
    sys.path.insert(0, str(tests))
    import oracles

    return oracles


def test_linear_wdt_oracle_matches_reference():
    oracles = _reference_oracles()
    for seed in range(3):
        inp = gen.wdt_input(seed, 1)
        horizon = 400 * inp.period  # keep the quadratic reference fast
        beats = [t for t in inp.heartbeats if t <= horizon]
        writes = [w for w in inp.restarts if w[0] < horizon]
        trace, _ = checks.wdt_expected(inp.period, horizon, beats, writes)
        assert trace == oracles.wdt_trace_oracle(inp.period, horizon, beats, writes)


def test_linear_switchboard_oracle_matches_reference():
    oracles = _reference_oracles()
    inp = gen.switchboard_input(1, 1)
    rows = [r for r in inp.rows if int(r[1].split(":")[-1], 16) < 60]
    assert checks.switchboard_expected(rows, inp.period, inp.horizon) == oracles.switchboard_oracle(
        rows, inp.period, inp.horizon
    )


# -- checks accept real outputs and reject corrupted ones --------------------------

def test_transform_check_rejects_corruption(tmp_path):
    workload, state = _workload("transform", tmp_path)
    statuses = workload.execute(state, 1)
    assert workload.check(state, 1, statuses) == [[]] * len(statuses)
    inp, argvs = state[1]
    src, out_path, report_path = inp.files[0], Path(argvs[0][2]), Path(argvs[0][4])
    out, report = out_path.read_text(encoding="latin-1"), report_path.read_text()

    def fails(text=out, rep=report, status=0):
        return checks.check_transform(src, text, rep, status)

    assert fails() == []
    dropped = out.replace("cpm_red_read(rv0)", "rv0", 1)  # one lowered call dropped
    assert dropped != out and fails(dropped)
    lines = out.split("\n")
    plain = src.plain_lines[-3] + 1
    assert fails("\n".join(lines[:plain] + [lines[plain] + " "] + lines[plain + 1:]))
    assert fails(out.replace("cpm_arr_register(peers0);", "reflective_array_t peers0;", 1))
    assert fails(out.replace("\n", "\n" + lines[0] + "\n", 1))  # second preamble
    assert fails(rep=report + "diagnostic=warning:3:cpm://cyclic/1.0:left unrewritten\n")
    assert fails(status=1)
    # keywords inside comments and strings do not count as leaks
    assert "sensor_t" in out and "tick0.Cycle" in out


def test_wdt_check_rejects_one_flipped_record(tmp_path):
    workload, state = _workload("wdt", tmp_path)
    result = workload.execute(state, 1)
    assert workload.check(state, 1, result) == [[]]
    t, v = result.trace[len(result.trace) // 2]
    result.trace[len(result.trace) // 2] = (t, checks.WD_FIRED if v != checks.WD_FIRED else 1)
    assert workload.check(state, 1, result) != [[]]


def test_switchboard_check_rejects_one_flipped_record(tmp_path):
    workload, state = _workload("switchboard", tmp_path)
    result = workload.execute(state, 1)
    assert workload.check(state, 1, result) == [[]]
    i = next(i for i, r in enumerate(result.records) if not r.stale)
    result.records[i] = dataclasses.replace(result.records[i], stale=True, metric=None)
    assert workload.check(state, 1, result) != [[]]


def test_interp_check_rejects_wrong_state(tmp_path):
    workload, state = _workload("interp", tmp_path)
    rt, it, fires = workload.execute(state, 1)
    assert workload.check(state, 1, (rt, it, fires)) == [[]]
    assert sum(fires.values()) > 0
    rt.replicas["x0"].inject_fault(0, 10_000)
    assert workload.check(state, 1, (rt, it, fires)) != [[]]
    rt.replicas["x0"].write(state[1][0].expected["replicas"]["x0"])
    fires["g0"] = fires.get("g0", 0) + 1
    assert workload.check(state, 1, (rt, it, fires)) != [[]]


# -- tracing --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    from spans import LAYERS, Tracer

    counts = []
    for attempt in range(2):
        workload, state = _workload(name, tmp_path / str(attempt))
        out, _, selfs, c = Tracer().traced(workload.execute, state, 1)
        assert all(msgs == [] for msgs in workload.check(state, 1, out))
        assert set(selfs) == set(LAYERS)
        counts.append(c)
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracer_restores_the_program(tmp_path):
    from spans import Tracer

    import cpm.srcmodel

    before = cpm.srcmodel.unit_from_raws
    workload, state = _workload("transform", tmp_path)
    Tracer().traced(workload.execute, state, 1)
    assert cpm.srcmodel.unit_from_raws is before


# -- the run.py interface ---------------------------------------------------------

def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wdt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
