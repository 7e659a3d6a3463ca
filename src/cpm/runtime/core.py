"""The execution environment behind the emitted runtime calls.

One :class:`Runtime` bundles an event log, which carries the virtual time,
a timeout manager, the context registry, and the replica sets, and exposes
one method per call the passes emit (:data:`cpm.cexpr.ABI`), taking its
non-type arguments: ``cpm_red_write`` -> :meth:`Runtime.red_write`, and so
on. The replica sets and arrays it indexes raise their own ``KeyError`` for
a name never registered (:class:`cpm.runtime.context.Registry`). Function
bodies bind late, by name, in :attr:`Runtime.functions`: a guard or a cycle
looks its body up when it fires. The scenarios drive the runtime through
these same calls. The facade is single-threaded and takes no lock: nothing
runs outside the caller's control flow, and virtual time moves only in
:meth:`Runtime.advance`, which keeps every run deterministic.

Watchdog-timer states are reified as integers: the named conditions are the
negative values below, non-negative values count timer resets since the last
(re)activation.
"""

from __future__ import annotations

from functools import partial

from .context import ContextRegistry, Registry
from .events import EventLog
from .redundant import ReplicaSet
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
    def __init__(self):
        self.events = EventLog()
        self.registry = ContextRegistry(events=self.events)
        self.replicas: dict[str, ReplicaSet] = Registry(lambda name: f"no redundant storage registered for {name!r}")
        self.tom = TOM(events=self.events)
        self.functions: dict[str, object] = {}  # C function name -> python callable
        self._cycles: dict[str, TimeoutObject | None] = {}  # cyclic method -> its timeout, once started
        self._extern_only: set[str] = set()  # replica sets red_extern made, not yet defined

    # -- redundancy ----------------------------------------------------------

    def red_storage(self, name, replicas=3, *, initial=0) -> ReplicaSet:
        """Define ``name``'s replica set. The definition of a set that only
        :meth:`red_extern` made replaces it; a second definition warns and
        keeps the first."""
        if name in self.replicas and name not in self._extern_only:
            self.events.log("warn", name, 0, "redundant-storage-redefined")
            return self.replicas[name]
        self._extern_only.discard(name)
        rs = ReplicaSet(name, replicas, initial=initial, events=self.events)
        self.replicas[name] = rs
        return rs

    def red_extern(self, name) -> ReplicaSet:
        """Declaration-only form: binds to existing storage, creating a
        default set on first reference, which a later definition replaces."""
        if name not in self.replicas:
            self.red_storage(name)
            self._extern_only.add(name)
        return self.replicas[name]

    def red_write(self, name, value):
        self.replicas[name].write(value)

    def red_read(self, name):
        return self.replicas[name].read()

    def red_inject_fault(self, name, replica_index, corrupt_value):
        self.replicas[name].inject_fault(replica_index, corrupt_value)

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

    def arr_get(self, name, key, prop):
        return self.registry.arrays[name].get(key, prop)

    def arr_report_beacon(self, name, key):
        self.registry.arrays[name].report_beacon(key)

    def arr_rollover(self, name):
        self.registry.arrays[name].rollover()

    def anext(self, name, cursor):
        """The key at ``cursor`` in insertion order, or C's NULL (0) past
        the end, so a program tests it with ``!= 0`` as in C."""
        key = self.registry.arrays[name].anext(cursor)
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
            self.events.log("warn", fn_name, 0, "cycle-set-before-register")
        to = self._cycles.get(fn_name)
        if value == 0:
            if to is None:
                self.events.log("warn", fn_name, 0, "delete-before-insert")
            else:
                self.tom.delete(to)
            self._cycles[fn_name] = None
        elif to is None:
            to = TimeoutObject(fn_name, value, cyclic=True, action=partial(self._call, fn_name))
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
