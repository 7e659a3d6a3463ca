"""Per-operation cost guards that count work instead of timing it.

A path that rescans a whole collection per operation is quadratic over a
run; these tests count how often such a collection is iterated and require
that count not to grow with the run.
"""

from cpm.runtime import ReflectiveArray
from cpm.scenarios import WdtScenarioParams, run_wdt


class Counting:
    """Mixin counting how often a container is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class CountingTuple(Counting, tuple):
    pass


class CountingDict(Counting, dict):
    pass


def heartbeat_iterations(horizon):
    beats = CountingTuple(range(50, horizon, 50))
    result = run_wdt(WdtScenarioParams(wdt_period=100, horizon=horizon, heartbeat_schedule=beats))
    assert result.trace[-2] == (horizon - 100, horizon // 100 - 1)  # never fired
    return beats.iterations


def test_wdt_iterates_heartbeat_schedule_independently_of_horizon():
    assert heartbeat_iterations(1_000) == heartbeat_iterations(4_000)


def test_anext_walk_never_iterates_entries():
    arr = ReflectiveArray("lb", 1000)
    for k in range(500):
        arr.report_beacon(f"m{k}")
    arr.entries = CountingDict(arr.entries)
    cursor = 0
    while arr.anext(cursor) is not None:
        cursor += 1
    assert cursor == 500
    assert arr.entries.iterations == 0
