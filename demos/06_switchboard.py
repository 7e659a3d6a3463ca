#!/usr/bin/env python3
"""The cross-layer switchboard scenario on a synthetic beacon trace.

First transforms the augmented switchboard source (reflective arrays and
anext iteration), then runs the equivalent scenario natively: three peers
beacon once per observation period, peer aa:02 drops out for two full
periods and comes back. The switchboard reports a metric per live peer per
cycle and a staleness record while the peer is gone.
"""

from pathlib import Path

from cpm import compose, load_unit, render, run
from cpm.scenarios import BeaconTrace, run_switchboard

HERE = Path(__file__).parent
PERIOD = 1000  # shortened from the 60 s default so the demo reads at a glance


def build_trace():
    rows = []
    for cycle in range(6):
        base = cycle * PERIOD
        rows.append((base + 150, "aa:01", 54.0))
        if cycle not in (2, 3):  # aa:02 silent for two periods
            rows.append((base + 350, "aa:02", 11.0))
        rows.append((base + 500, "aa:03", 36.0))
    return BeaconTrace.from_rows(rows)


def main():
    source = (HERE / "switchboard.cpm").read_text(encoding="latin-1")
    lowered, _ = run(compose(["array"]), load_unit(source))
    print("== lowered switchboard source (array pass) ==")
    print(render(lowered))

    trace = build_trace()
    print(f"{len(trace.times)} synthetic beacons over 6 periods of {PERIOD} ms")

    result = run_switchboard(trace, observation_period=PERIOD, horizon=6 * PERIOD)
    current_cycle = None
    for rec in result.records:
        if rec.cycle != current_cycle:
            current_cycle = rec.cycle
            print(f"\ncycle {rec.cycle}:")
        if rec.stale:
            print(f"  {rec.mac}: stale (no beacons last period)")
        else:
            print(f"  {rec.mac}: metric {rec.metric}")

    print("\nCSV export:")
    print(result.to_csv())


if __name__ == "__main__":
    main()
