"""Golden differential for the runtime: what ``run_wdt`` and
``run_switchboard`` produce on the benchmark's inputs, pinned by digest.

Each case is one scenario on ``perfbench/gen.py``'s input for one seed and
scale. For ``run_wdt`` it pins the result CSV, the event CSV, the timeout
manager's ``fired_log``, every replica set's replicas and its vote stats;
for ``run_switchboard`` the records CSV, the event CSV and ``fired_log``. A
change that alters any of them fails here and names the case; a change meant
to alter them regenerates the digests with

    PYTHONPATH=src python tests/test_runtime_golden.py

and says which cases moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

from cpm.scenarios import BeaconTrace, WdtScenarioParams, run_switchboard, run_wdt

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "runtime_digests.json"

SEEDS = (1, 11)
SCALES = (1, 2)


def _gen():
    sys.path.insert(0, str(ROOT / "perfbench"))  # gen imports its sibling checks
    import gen
    return gen


def wdt_outputs(seed, scale):
    inp = _gen().wdt_input(seed, scale)
    result = run_wdt(WdtScenarioParams(
        wdt_period=inp.period, horizon=inp.horizon, heartbeat_schedule=inp.heartbeats,
        replicas=3, fault_schedule=inp.faults, restart_schedule=inp.restarts,
    ))
    rt = result.runtime
    sets = sorted(rt.replicas.items())
    return {
        "result_csv": result.to_csv(),
        "events_csv": rt.events.to_csv(),
        "fired_log": repr(rt.tom.fired_log),
        "replicas": repr([(name, rs.replicas) for name, rs in sets]),
        "vote_stats": repr([
            (name, rs.stats.reads, sorted(rs.stats.discrepancy_histogram.items()),
             list(rs.stats.window), rs.stats.failure_risk)
            for name, rs in sets
        ]),
    }


def switchboard_outputs(seed, scale):
    inp = _gen().switchboard_input(seed, scale)
    result = run_switchboard(BeaconTrace.from_rows(inp.rows), inp.period, inp.horizon)
    rt = result.runtime
    return {
        "records_csv": result.to_csv(),
        "events_csv": rt.events.to_csv(),
        "fired_log": repr(rt.tom.fired_log),
    }


def digests():
    out = {}
    for seed in SEEDS:
        for scale in SCALES:
            for scenario, outputs in (("wdt", wdt_outputs), ("switchboard", switchboard_outputs)):
                for part, text in outputs(seed, scale).items():
                    case = f"{scenario} | seed {seed} | scale {scale} | {part}"
                    out[case] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return out


def test_scenario_outputs_match_runtime_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = digests()
    assert sorted(actual) == sorted(expected), "case set changed; regenerate the digests"
    moved = [case for case in expected if actual[case] != expected[case]]
    assert not moved, f"{len(moved)} case(s) changed output: " + "; ".join(moved)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n")
