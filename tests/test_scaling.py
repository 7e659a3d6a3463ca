"""Per-operation cost guards that count work instead of timing it.

A path that rescans a whole collection per operation is quadratic over a
run; these tests count how often such a collection is iterated, or how many
lines of Python an operation executes, and require that count not to grow
with the run.
"""

import sys

import pytest

from cpm import compose, load_unit, rewrite, run
from cpm.runtime import ContextRegistry, ReflectiveArray
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


def lines_executed(fn):
    """Run ``fn()`` and count the Python lines it executes, callees included."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def sensor_update_lines(k):
    reg = ContextRegistry()
    reg.register("a", "sensor", initial=0)
    reg.register("b", "sensor", initial=0)
    reg.register_guard(None, "a > 0", name="ga")
    for g in range(k):
        reg.register_guard(None, f"b > {g}", name=f"gb{g}")
    return lines_executed(lambda: reg.sensor_update("a", 1))


def test_sensor_update_work_is_independent_of_guards_on_other_sensors():
    assert sensor_update_lines(10) == sensor_update_lines(200)


def access_lines(n):
    """Lines the access engine classifies past its prefilter when all four
    passes lower one declaration each plus ``n`` plain-C lines."""
    count = 0

    class Counted(rewrite._AccessLine):
        def __init__(self, *args):
            nonlocal count
            count += 1
            super().__init__(*args)

    decls = "redundant_t int r;\nsensor_t int s;\nreflective_array_t a { b:int };\ncyclic_t int f(void);\n"
    plain = "int z = 1; z = z + 2; /* r s a f.Cycle */ g(\"r\");\n" * n
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "_AccessLine", Counted)
        run(compose(["redundancy", "refractive", "array", "cyclic"]), load_unit(decls + plain))
    return count


def test_access_engine_skips_lines_naming_no_target():
    assert access_lines(10) == access_lines(1_000)
