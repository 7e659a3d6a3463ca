"""Context registry: sensors, actuators, guarded functions, reflective arrays.

Sensors are snapshot-readable values maintained by whoever observes the
context (in tests and scenarios, the caller). Actuators bind a name to a
side-effect callback that runs on every write; writing an actuator never
updates a same-named sensor snapshot (the callback owns that state change).
Guarded functions attach a boolean expression over sensors to a body
that runs once per false->true transition.

Reflective arrays grow one entry per string key (never removed) and count
each key's beacons per observation period, which the caller's ``rollover``
closes. A key silent for a whole period turns stale until it is heard again;
``get`` derives ``stale`` from ``silent_periods`` as C's int 1 or 0. An
:class:`ArrayEntry` is a slotted dataclass, one object per key. The
registry's ``guard``, ``actuate`` and ``warn`` events take their event log's time.
The actuators and the arrays are :class:`Registry` dicts, which raise
their own ``KeyError`` for a name never registered. An array's entries are
a plain dict, indexed on every beacon and ``get``, where the subclass's
slower paths would cost; ``get`` writes the miss's message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cexpr import HELPERS, check_name, compile_expr
from .events import EventLog


class Registry(dict):
    """A name -> object dict whose miss raises ``KeyError(message(name))``,
    so a lookup indexes it and each message is written once. CPython 3.11
    takes slower paths for a dict subclass: ~13 ns more per index or get."""

    def __init__(self, message):
        super().__init__()
        self._message = message

    def __missing__(self, name):
        raise KeyError(self._message(name))


@dataclass
class _Guard:
    name: str
    body: object  # callable or None
    code: object
    last_value: bool = False
    fires: int = 0


@dataclass(slots=True)
class ArrayEntry:
    beacons_cur_period: int = 0
    beacons_last_period: int = 0
    silent_periods: int = 0
    props: dict = field(default_factory=dict)


class ReflectiveArray:
    """String-keyed, insertion-ordered context array with staleness tracking."""

    def __init__(self, name):
        self.name = name
        self.entries: dict[str, ArrayEntry] = {}
        self._keys: list = []  # insertion order; entries are never removed

    def _entry(self, key) -> ArrayEntry:
        """A new entry for a key not seen before."""
        e = self.entries[key] = ArrayEntry()
        self._keys.append(key)
        return e

    def report_beacon(self, key, prop=None, value=None):
        """A beacon arrived for key: the entry exists, counts it for the
        current period, and is no longer stale. Given ``prop``, the beacon
        also carries that property's ``value``, set as ``set_prop`` would."""
        e = self.entries.get(key) or self._entry(key)
        e.beacons_cur_period += 1
        e.silent_periods = 0
        if prop is not None:
            e.props[prop] = value

    def rollover(self):
        """Close the current observation period: current counts become last
        counts, and keys that stayed silent for the whole period go stale."""
        for e in self.entries.values():
            e.beacons_last_period = e.beacons_cur_period
            e.beacons_cur_period = 0
            if e.beacons_last_period == 0:
                e.silent_periods += 1
            else:
                e.silent_periods = 0

    def set_prop(self, key, prop, value):
        (self.entries.get(key) or self._entry(key)).props[prop] = value

    def get(self, key, prop):
        """Read a property of one entry. ``beacons`` is the count over the
        last closed period; ``silent_periods`` and ``stale`` (1 or 0) are the
        staleness state; anything else is a user property."""
        try:
            e = self.entries[key]
        except KeyError:
            raise KeyError(f"no entry {key!r} in reflective array '{self.name}'") from None
        if prop == "beacons":
            return e.beacons_last_period
        if prop == "silent_periods":
            return e.silent_periods
        if prop == "stale":
            return 1 if e.silent_periods else 0
        try:
            return e.props[prop]
        except KeyError:
            raise KeyError(f"no property {prop!r} on entry {key!r} of '{self.name}'") from None

    def anext(self, cursor: int):
        """Iterate keys in insertion order: returns the key at the cursor
        position, or None past the end."""
        if 0 <= cursor < len(self._keys):
            return self._keys[cursor]
        return None

    def keys(self):
        return list(self._keys)


class ContextRegistry:
    def __init__(self, events=None):
        self.events = events if events is not None else EventLog()
        # an exact dict, the locals guards eval with: for a subclass, LOAD_NAME
        # calls __missing__ for every global a guard reads, such as WD_FIRED
        self.sensors: dict[str, object] = {}
        self.actuators: dict[str, object] = Registry(lambda name: f"unknown actuator {name!r}")  # name -> callback or None
        self.guards: list[_Guard] = []
        self._guards_by_sensor: dict[str, list[_Guard]] = {}  # registration order
        self.arrays: dict[str, ReflectiveArray] = Registry(lambda name: f"unknown reflective array {name!r}")
        self._scope = dict(HELPERS)  # guard globals: helpers and constants
        self._actuations = 0

    # -- registration --------------------------------------------------------

    def register(self, name, direction, binding=None, initial=0):
        check_name(name)
        if direction not in ("sensor", "actuator", "both"):
            raise ValueError(f"direction must be sensor/actuator/both, got {direction!r}")
        # a name registered in both directions, at once or in turn, is both
        if direction != "actuator":
            self.sensors.setdefault(name, initial)
        if direction != "sensor":
            self.actuators.setdefault(name, None)
        return name if binding is None else binding

    def bind_actuator(self, name, callback):
        if name not in self.actuators:
            self.actuators.__missing__(name)
        self.actuators[name] = callback

    def register_constant(self, name, value):
        """Make a name (e.g. a state constant) visible to guard expressions."""
        check_name(name)
        self._scope[name] = value

    def register_guard(self, body, expr, name=None):
        """Attach ``body`` to a boolean guard over sensors, a C expression
        (:mod:`cpm.cexpr`). The guard is evaluated now to seed its edge
        detector (registration never fires it) and re-evaluated on every
        update of a sensor it references. Raises ``ValueError`` for text that
        is not a C expression or reads no registered sensor."""
        code, names = compile_expr(expr)
        refs = frozenset(names & self.sensors.keys())
        if not refs:
            raise ValueError(f"guard {expr!r} references no registered sensor")
        gname = name or getattr(body, "__name__", None) or f"guard{len(self.guards)}"
        guard = _Guard(name=gname, body=body, code=code)
        guard.last_value = self._eval(guard)
        self.guards.append(guard)
        for ref in refs:
            self._guards_by_sensor.setdefault(ref, []).append(guard)
        return guard

    def register_array(self, name) -> ReflectiveArray:
        arr = self.arrays.get(name)
        if arr is None:
            arr = ReflectiveArray(name)
            self.arrays[name] = arr
        return arr

    # -- access --------------------------------------------------------------

    def sensor_value(self, name):
        if name not in self.sensors:
            raise KeyError(f"unknown sensor {name!r}")
        return self.sensors[name]

    def sensor_update(self, name, value):
        """Replace a sensor snapshot and re-evaluate every guard that
        references it; bodies run once per false->true edge. Returns the
        names of the guards that fired."""
        if name not in self.sensors:
            raise KeyError(f"unknown sensor {name!r}")
        self.sensors[name] = value
        fired = []
        for g in self._guards_by_sensor.get(name, ()):
            now_true = self._eval(g)
            rising = now_true and not g.last_value
            g.last_value = now_true  # before the body, which may update this sensor again
            if rising:
                g.fires += 1
                self.events.log("guard", g.name, g.fires)
                fired.append(g.name)
                if g.body is not None:
                    g.body()
        return fired

    def actuator_write(self, name, value):
        """Run the side-effect bound to an actuator. With nothing bound the
        write is a tolerated no-op (warn event)."""
        callback = self.actuators[name]
        if callback is None:
            self.events.log("warn", name, 0, "actuator-write-without-callback")
            return
        self._actuations += 1
        self.events.log("actuate", name, self._actuations, value)
        callback(value)

    def _eval(self, guard) -> bool:
        try:
            return bool(eval(guard.code, self._scope, self.sensors))
        except Exception as exc:  # un-evaluable guards read as false
            self.events.log("warn", guard.name, 0, f"guard-eval-error:{exc}")
            return False
