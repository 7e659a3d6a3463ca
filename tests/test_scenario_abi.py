"""The scenarios drive the runtime through the calls a lowered program makes:
the periodic work is a cyclic method, and a guard body bound by name reacts
to the watchdog firing."""

import cpm.scenarios.watchdog as watchdog
from cpm.runtime import WD_ACTIVE, WD_END, WD_FIRED, WD_STARTED, Runtime
from cpm.scenarios import BeaconTrace, WdtScenarioParams, run_switchboard, run_wdt


def test_periodic_work_runs_as_cyclic_methods():
    wdt = run_wdt(WdtScenarioParams(wdt_period=100, horizon=250, heartbeat_schedule=(50, 150)))
    assert wdt.runtime.cycle_get("wdt_tick") == 100
    assert [name for _, name, _ in wdt.runtime.tom.fired_log] == ["wdt_tick"] * 2
    board = run_switchboard(BeaconTrace.from_rows([(10, "m1", 4.0)]), observation_period=100, horizon=300)
    assert board.runtime.cycle_get("observation_cycle") == 100
    assert [r.cycle for r in board.records] == [1, 2, 3]


def test_guard_body_that_restarts_the_watchdog_keeps_it_ticking(monkeypatch):
    class RestartingRuntime(Runtime):
        def __init__(self):
            super().__init__()
            self.bind_function("wdt_fired", lambda: self.ctx_write("watchdog", 1))

    monkeypatch.setattr(watchdog, "Runtime", RestartingRuntime)
    beats = (50, 150, 250) + tuple(range(650, 1000, 100))
    result = run_wdt(WdtScenarioParams(wdt_period=100, horizon=1000, heartbeat_schedule=beats))
    assert result.trace == [
        (0, WD_STARTED), (0, WD_ACTIVE), (100, 1), (200, 2), (300, 3),
        (400, WD_FIRED), (400, WD_ACTIVE), (500, WD_FIRED), (500, WD_ACTIVE),
        (600, WD_FIRED), (600, WD_ACTIVE), (700, 1), (800, 2), (900, 3), (1000, WD_END),
    ]
    assert result.ignored_writes == []
