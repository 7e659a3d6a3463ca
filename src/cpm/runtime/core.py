"""The execution environment behind the emitted runtime calls.

One :class:`Runtime` bundles a clock, an event log, a timeout manager, the
context registry, and the replica sets, and exposes methods mirroring the
calls the passes emit (``cpm_red_write`` -> :meth:`Runtime.red_write`, and so
on). The facade is single-threaded and takes no lock: on the virtual clock
nothing runs outside the caller's control flow, which keeps every run
deterministic. Wall-clock use follows the thread contract stated on
:class:`~cpm.runtime.tom.WallDriver`.

Watchdog-timer states are reified as integers: the named conditions are the
negative values below, non-negative values count timer resets since the last
(re)activation.
"""

from __future__ import annotations

from .clock import VirtualClock
from .context import DEFAULT_OBSERVATION_PERIOD_MS, ContextRegistry
from .events import EventLog
from .redundant import NoMajorityError, ReplicaSet
from .tom import TOM, TimeoutObject

WD_STARTED = -1  # task running, waiting for an activation message
WD_ACTIVE = -2   # activated, expecting periodical heartbeats
WD_FIRED = -3    # a cycle passed with no heartbeat
WD_END = -4      # task ended

_WD_NAMES = {WD_STARTED: "WD_STARTED", WD_ACTIVE: "WD_ACTIVE", WD_FIRED: "WD_FIRED", WD_END: "WD_END"}


def wd_state_name(value: int) -> str:
    """Human-readable form of an encoded watchdog state."""
    if value in _WD_NAMES:
        return _WD_NAMES[value]
    if value >= 0:
        return f"resets={value}"
    raise ValueError(f"not a watchdog state: {value}")


class Runtime:
    def __init__(self, clock=None):
        self.clock = clock if clock is not None else VirtualClock()
        self.events = EventLog()
        self.registry = ContextRegistry(clock=self.clock, events=self.events)
        self.replicas: dict[str, ReplicaSet] = {}
        self.tom = TOM(clock=self.clock, events=self.events)
        self._cycles: dict[str, dict] = {}  # fn -> {"action": ..., "to": TimeoutObject|None}

    # -- redundancy ----------------------------------------------------------

    def red_storage(self, name, replicas=3, *, initial=0) -> ReplicaSet:
        if name in self.replicas:
            self.events.log(self.clock.now, "warn", name, 0, "redundant-storage-redefined")
            return self.replicas[name]
        rs = ReplicaSet(name, replicas, initial=initial, clock=self.clock, events=self.events)
        self.replicas[name] = rs
        return rs

    def red_extern(self, name, replicas=3) -> ReplicaSet:
        """Declaration-only form: binds to existing storage, creating it on
        first reference."""
        if name in self.replicas:
            return self.replicas[name]
        return self.red_storage(name, replicas)

    def _replica_set(self, name) -> ReplicaSet:
        rs = self.replicas.get(name)
        if rs is None:
            raise KeyError(f"no redundant storage registered for {name!r}")
        return rs

    def red_write(self, name, value):
        self._replica_set(name).write(value)

    def red_read(self, name):
        return self._replica_set(name).read()

    def red_inject_fault(self, name, replica_index, corrupt_value):
        self._replica_set(name).inject_fault(replica_index, corrupt_value)

    # -- context -------------------------------------------------------------

    def ctx_register(self, name, direction, binding=None, initial=0):
        return self.registry.register(name, direction, binding=binding, initial=initial)

    def ctx_read(self, name):
        return self.registry.sensor_value(name)

    def ctx_write(self, name, value):
        self.registry.actuator_write(name, value)

    def sensor_update(self, name, value):
        return self.registry.sensor_update(name, value)

    def guard_register(self, body, expr, name=None):
        return self.registry.register_guard(body, expr, name=name)

    def arr_register(self, name, observation_period_ms=DEFAULT_OBSERVATION_PERIOD_MS):
        return self.registry.register_array(name, observation_period_ms)

    def _array(self, name):
        arr = self.registry.arrays.get(name)
        if arr is None:
            raise KeyError(f"unknown reflective array {name!r}")
        return arr

    def arr_get(self, name, key, prop):
        return self._array(name).get(key, prop)

    def arr_report_beacon(self, name, key):
        self._array(name).report_beacon(key)

    def arr_rollover(self, name):
        self._array(name).rollover()

    def anext(self, name, cursor):
        return self._array(name).anext(cursor)

    # -- cyclic methods -------------------------------------------------------

    def cycle_register(self, fn_name, action=None):
        rec = self._cycles.setdefault(fn_name, {"action": None, "to": None})
        if action is not None:
            rec["action"] = action
            if rec["to"] is not None:
                rec["to"].action = action

    def cycle_set(self, fn_name, value):
        """Dispatch a ``fn.Cycle = value`` write: the first nonzero value
        declares and inserts the cyclic timeout, later nonzero values re-time
        and restart it, zero cancels it. A negative value raises ValueError
        and leaves the schedule as it was."""
        value = int(value)
        if value < 0:
            raise ValueError(f"period of cycle '{fn_name}' must not be negative")
        rec = self._cycles.get(fn_name)
        if rec is None:
            self.events.log(self.clock.now, "warn", fn_name, 0, "cycle-set-before-register")
            rec = self._cycles.setdefault(fn_name, {"action": None, "to": None})
        if value == 0:
            self.tom.delete(rec["to"])
            rec["to"] = None
            return
        if rec["to"] is None:
            to = TimeoutObject(
                id=f"cycle:{fn_name}",
                subid=fn_name,
                deadline=value,
                cyclic=True,
                enabled=True,
                action=rec["action"],
            )
            rec["to"] = to
            self.tom.insert(to)
        else:
            self.tom.set_deadline(rec["to"], value)
            self.tom.renew(rec["to"])

    def cycle_get(self, fn_name) -> int:
        rec = self._cycles.get(fn_name)
        if rec is None or rec["to"] is None:
            return 0
        return rec["to"].deadline

    # -- driving --------------------------------------------------------------

    def advance(self, dt):
        return self.tom.advance(dt)

    def set_pipeline_string(self, value: str):
        self.registry.pipeline_string = value
