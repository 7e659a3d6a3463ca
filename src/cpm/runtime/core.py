"""The execution environment behind the emitted runtime calls.

One :class:`Runtime` bundles a clock, an event log, a timeout manager, the
context registry, and the replica sets, and exposes one method per call the
passes emit (:data:`cpm.cexpr.ABI`), taking its non-type arguments:
``cpm_red_write`` -> :meth:`Runtime.red_write`, and so on. Function bodies
bind late, by name, in :attr:`Runtime.functions`: a guard or a cycle looks
its body up when it fires. The scenarios drive the runtime through these
same calls. The facade is single-threaded and takes no lock:
on the virtual clock nothing runs outside the caller's control flow, which
keeps every run deterministic. Wall-clock use follows the thread contract
stated on :class:`~cpm.runtime.tom.WallDriver`.

Watchdog-timer states are reified as integers: the named conditions are the
negative values below, non-negative values count timer resets since the last
(re)activation.
"""

from __future__ import annotations

from functools import partial

from .clock import VirtualClock
from .context import ContextRegistry
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
        self.functions: dict[str, object] = {}  # C function name -> python callable
        self._cycles: dict[str, TimeoutObject | None] = {}  # cyclic method -> its timeout, once started

    # -- redundancy ----------------------------------------------------------

    def red_storage(self, name, replicas=3, *, initial=0) -> ReplicaSet:
        if name in self.replicas:
            self.events.log(self.clock.now, "warn", name, 0, "redundant-storage-redefined")
            return self.replicas[name]
        rs = ReplicaSet(name, replicas, initial=initial, clock=self.clock, events=self.events)
        self.replicas[name] = rs
        return rs

    def red_extern(self, name) -> ReplicaSet:
        """Declaration-only form: binds to existing storage, creating it on
        first reference."""
        return self.replicas[name] if name in self.replicas else self.red_storage(name)

    def _replica_set(self, name) -> ReplicaSet:
        rs = self.replicas.get(name)
        if rs is None:
            raise KeyError(f"no redundant storage registered for {name!r}")
        return rs

    # the interpreter's most frequent calls look the set up inline, one
    # Python frame fewer per access; _replica_set raises for a missing one
    def red_write(self, name, value):
        rs = self.replicas.get(name)
        (rs if rs is not None else self._replica_set(name)).write(value)

    def red_read(self, name):
        rs = self.replicas.get(name)
        return (rs if rs is not None else self._replica_set(name)).read()

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

    def guard_register(self, fn, expr):
        return self.registry.register_guard(partial(self._call, fn), expr, name=fn)

    def arr_register(self, name):
        return self.registry.register_array(name)

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
        """The key at ``cursor`` in insertion order, or C's NULL (0) past
        the end, so a program tests it with ``!= 0`` as in C."""
        key = self._array(name).anext(cursor)
        return 0 if key is None else key

    # -- cyclic methods -------------------------------------------------------

    def bind_function(self, name, fn):
        self.functions[name] = fn

    def _call(self, name):
        if (fn := self.functions.get(name)) is not None:
            fn()

    def cycle_register(self, fn_name):
        self._cycles.setdefault(fn_name, None)

    def cycle_set(self, fn_name, value):
        """Dispatch a ``fn.Cycle = value`` write: the first nonzero value
        declares and inserts the cyclic timeout, later nonzero values re-time
        and restart it, zero cancels it. A negative value raises ValueError
        and leaves the schedule as it was."""
        value = int(value)
        if value < 0:
            raise ValueError(f"period of cycle '{fn_name}' must not be negative")
        if fn_name not in self._cycles:
            self.events.log(self.clock.now, "warn", fn_name, 0, "cycle-set-before-register")
        to = self._cycles.get(fn_name)
        if value == 0:
            if to is None:
                self.events.log(self.clock.now, "warn", fn_name, 0, "delete-before-insert")
            else:
                self.tom.delete(to)
            self._cycles[fn_name] = None
        elif to is None:
            to = TimeoutObject(f"cycle:{fn_name}", fn_name, value, cyclic=True, action=partial(self._call, fn_name))
            self.tom.insert(to)
            self._cycles[fn_name] = to
        else:
            self.tom.set_deadline(to, value)
            self.tom.renew(to)

    def cycle_get(self, fn_name) -> int:
        to = self._cycles.get(fn_name)
        return 0 if to is None else to.deadline

    # -- driving --------------------------------------------------------------

    def advance(self, dt):
        return self.tom.advance(dt)
