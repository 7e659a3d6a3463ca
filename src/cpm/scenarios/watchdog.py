"""Fault-tolerant watchdog timer (WDT) case study.

A WDT task watches for periodic heartbeats. Its state is published through
the ``watchdog`` context variable: ``WD_STARTED`` while waiting for
activation, ``WD_ACTIVE`` once activated, a non-negative reset count each
time a period ends with at least one heartbeat, ``WD_FIRED`` when a period
passes without one, and ``WD_END`` at the end of the run. The same variable
is an actuator: writing it while fired restarts the WDT (reset count back to
zero); writing it in any other state is a logged no-op.

The state lives in an N-way replica set, so the scenario can inject memory
faults between reads and demonstrate that voting keeps the observable trace
identical as long as fewer than half the replicas are hit.

Everything runs on the virtual clock: heartbeats are schedule data counted
per period boundary (a heartbeat exactly on a boundary counts for the period
it ends). The period is ``int(wdt_period)`` ms, the value TOM arms, taken
once at entry for the heartbeat window too; one that truncates to 0 fails
validation. The boundary check is the cyclic method ``wdt_tick``, run through
``Runtime.cycle_set``; the guard ``wdt_fired`` watches for ``WD_FIRED``, and
a body bound to it by name may restart the watchdog. Fault injections and
restart writes are two series of one-shots, armed with
``TOM.insert_series``. A boundary or a restart write coinciding with the
horizon is not evaluated; the run ends in ``WD_END``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..runtime import (
    WD_ACTIVE,
    WD_END,
    WD_FIRED,
    WD_STARTED,
    Runtime,
    wd_state_name,
)


@dataclass(frozen=True)
class WdtScenarioParams:
    wdt_period: int  # ms
    horizon: int  # ms
    heartbeat_schedule: tuple = ()  # absolute times, ms, in any order
    replicas: int = 3  # odd, >= 3
    fault_schedule: tuple = ()  # (time, replica_index, corrupt_value)
    restart_schedule: tuple = ()  # (time, value) actuator writes

    def validate(self):
        if int(self.wdt_period) <= 0:
            raise ValueError("wdt_period must be at least 1 ms")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.replicas < 3 or self.replicas % 2 == 0:
            raise ValueError("replicas must be odd and >= 3")
        for t in self.heartbeat_schedule:
            if not 0 <= t <= self.horizon:
                raise ValueError(f"heartbeat at {t} outside [0, horizon]")
        for t, idx, _ in self.fault_schedule:
            if not 0 <= t <= self.horizon:
                raise ValueError(f"fault at {t} outside [0, horizon]")
            if not 0 <= idx < self.replicas:
                raise ValueError(f"fault replica index {idx} out of range")
        for t, _ in self.restart_schedule:
            if not 0 <= t <= self.horizon:
                raise ValueError(f"restart write at {t} outside [0, horizon]")


@dataclass
class WdtResult:
    trace: list  # (time_ms, encoded state), in order of state changes
    ignored_writes: list  # (time_ms, value) writes that arrived while not fired
    runtime: Runtime = field(repr=False, default=None)

    def to_csv(self) -> str:
        rows = [(t, "state", str(v)) for t, v in self.trace]
        rows += [(t, "ignored_write", str(v)) for t, v in self.ignored_writes]
        rows.sort(key=lambda r: r[0])
        lines = ["time_ms,event,detail"] + [f"{t},{e},{d}" for t, e, d in rows]
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        return "\n".join(f"{t:>7} ms  {wd_state_name(v)}" for t, v in self.trace)


def run_wdt(params: WdtScenarioParams) -> WdtResult:
    params.validate()
    period = int(params.wdt_period)
    rt = Runtime()
    rt.red_storage("watchdog", params.replicas, initial=WD_STARTED)
    rt.ctx_register("watchdog", "both", initial=WD_STARTED)
    for name, value in (("WD_STARTED", WD_STARTED), ("WD_ACTIVE", WD_ACTIVE),
                        ("WD_FIRED", WD_FIRED), ("WD_END", WD_END)):
        rt.registry.register_constant(name, value)
    rt.guard_register("wdt_fired", "watchdog == WD_FIRED")

    beats = sorted(params.heartbeat_schedule)
    trace: list = []
    ignored: list = []

    def publish(value):
        # traced before the guards run, so what a guard body publishes comes after
        rt.red_write("watchdog", value)
        trace.append((rt.events.now, value))
        rt.sensor_update("watchdog", value)

    def check_period():
        t = rt.events.now
        if t >= params.horizon:
            return  # the horizon ends the run before this boundary counts
        current = rt.red_read("watchdog")
        if current in (WD_FIRED, WD_END, WD_STARTED):
            return
        # a heartbeat in (t - period, t]
        if bisect_right(beats, t) > bisect_right(beats, t - period):
            publish(current + 1 if current >= 0 else 1)
        else:
            rt.cycle_set("wdt_tick", 0)  # first, so a guard body may restart the tick
            publish(WD_FIRED)

    def on_actuator_write(value):
        current = rt.red_read("watchdog")
        if current == WD_FIRED:
            publish(WD_ACTIVE)
            if rt.cycle_get("wdt_tick"):
                rt.cycle_set("wdt_tick", 0)  # a fresh tick: a renewed one keeps its instance count
            rt.cycle_set("wdt_tick", period)
        else:
            ignored.append((rt.events.now, value))
            rt.events.log("warn", "watchdog", 0, f"restart-write-ignored:{value}")

    rt.registry.bind_actuator("watchdog", on_actuator_write)
    rt.cycle_register("wdt_tick")
    rt.bind_function("wdt_tick", check_period)

    # two series of one-shots, inserted before the periodic check so they win
    # boundary ties, each sorted stably by the int ms TOM arms, so entries
    # due in the same ms keep their schedule order
    by_ms = lambda entry: int(entry[0])
    faults = sorted(params.fault_schedule, key=by_ms)
    # the horizon ends the run before a write at it lands
    writes = sorted((w for w in params.restart_schedule if w[0] < params.horizon), key=by_ms)
    next_fault, next_write = iter(faults).__next__, iter(writes).__next__

    def inject_fault():
        _, idx, corrupt = next_fault()
        rt.red_inject_fault("watchdog", idx, corrupt)

    def write_restart():
        rt.ctx_write("watchdog", next_write()[1])

    rt.tom.insert_series("fault", [t for t, _, _ in faults], inject_fault)
    rt.tom.insert_series("restart_write", [t for t, _ in writes], write_restart)

    publish(WD_STARTED)
    publish(WD_ACTIVE)  # activation message arrives at t=0
    rt.cycle_set("wdt_tick", period)
    rt.advance(params.horizon)
    publish(WD_END)
    return WdtResult(trace=trace, ignored_writes=ignored, runtime=rt)
