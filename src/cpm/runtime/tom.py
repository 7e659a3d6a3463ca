"""Time-out objects and their manager.

A :class:`TimeoutObject` postpones an action by a deadline; cyclic objects
re-arm themselves at a fixed rate (next fire = previous *scheduled* fire +
deadline, so there is no drift). The manager processes due objects in
(next_fire, insertion order); each firing runs the action as a fresh logical
instance regardless of earlier instances, and is appended to ``fired_log`` as
``(time, subid, instance_no)``.

Driving the manager is explicit: on a virtual clock call :meth:`TOM.advance`;
on a wall clock call :meth:`TOM.poll` (or let :class:`WallDriver` do it).
Determinism holds on the virtual clock only.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from .clock import VirtualClock
from .events import EventLog


@dataclass
class TimeoutObject:
    id: str
    subid: str
    deadline: int  # ms
    cyclic: bool = False
    enabled: bool = True
    action: Optional[Callable[[], None]] = None
    next_fire: Optional[int] = None  # absolute ms once inserted
    instances: int = 0  # completed firings; the next firing is instances + 1
    _seq: Optional[int] = field(default=None, repr=False)
    _version: int = field(default=0, repr=False)
    _queued: bool = field(default=False, repr=False)
    _inserted: bool = field(default=False, repr=False)


def _period(to: TimeoutObject, deadline) -> int:
    """``deadline`` as an int; raises ValueError, before anything changes,
    for a cyclic object whose period would not be positive."""
    deadline = int(deadline)
    if to.cyclic and deadline <= 0:
        raise ValueError(f"cyclic deadline of '{to.subid}' must be positive")
    return deadline


class TOM:
    def __init__(self, clock=None, events=None):
        self.clock = clock if clock is not None else VirtualClock()
        self.events = events if events is not None else EventLog()
        self.fired_log: list[tuple[int, str, int]] = []
        self._heap: list = []  # (next_fire, seq, version, obj)
        self._next_seq = 0

    # -- schedule control ---------------------------------------------------

    def insert(self, to: TimeoutObject):
        """Arm the object at now + deadline. Re-inserting a queued object is
        a tolerated no-op (warn event); use renew to re-arm."""
        if to._queued:
            self.events.log(self.clock.now, "warn", to.subid, 0, "insert-while-queued")
            return
        _period(to, to.deadline)
        if to._seq is None:
            to._seq = self._next_seq
            self._next_seq += 1
        to._inserted = True
        self._arm(to, self.clock.now + to.deadline)

    def delete(self, to: TimeoutObject):
        """Remove from the schedule. Deleting something never inserted is a
        no-op that leaves a warn event."""
        if not to._inserted:
            self.events.log(self.clock.now, "warn", to.subid, 0, "delete-before-insert")
            return
        to._version += 1
        to._queued = False
        to._inserted = False
        to.next_fire = None

    def enable(self, to: TimeoutObject):
        to.enabled = True

    def disable(self, to: TimeoutObject):
        """Suppress firing; the object keeps its place in the schedule."""
        to.enabled = False

    def set_deadline(self, to: TimeoutObject, deadline: int):
        """Change the period without re-arming; takes effect at the next
        (re)arming."""
        to.deadline = _period(to, deadline)

    def renew(self, to: TimeoutObject):
        """Re-arm at now + deadline and enable. Requires a prior insert."""
        if not to._inserted:
            raise ValueError(f"renew of '{to.subid}' before insert")
        self._arm(to, self.clock.now + to.deadline)
        to.enabled = True

    def _arm(self, to: TimeoutObject, when: int):
        _period(to, to.deadline)
        to._version += 1
        to.next_fire = when
        to._queued = True
        heapq.heappush(self._heap, (when, to._seq, to._version, to))

    # -- clock driving ------------------------------------------------------

    def advance(self, dt: int):
        """Advance a virtual clock by dt ms, firing everything that falls
        due, in (next_fire, insertion) order. Returns the fired events."""
        if self.clock.mode != "virtual":
            raise RuntimeError("advance() requires a virtual clock; use poll() on a wall clock")
        if dt < 0:
            raise ValueError("dt must be >= 0")
        target = self.clock.now + int(dt)
        fired = self._process_until(target)
        self.clock.advance_to(target)
        return fired

    def poll(self):
        """Fire everything due at the clock's current time (wall mode)."""
        return self._process_until(self.clock.now)

    def _process_until(self, target: int):
        fired = []
        while self._heap and self._heap[0][0] <= target:
            when, seq, version, to = heapq.heappop(self._heap)
            if not to._queued or version != to._version:
                continue  # superseded by renew/delete
            to._queued = False
            if self.clock.mode == "virtual" and when > self.clock.now:
                self.clock.advance_to(when)  # actions observe their fire time
            if not to.enabled:
                if to.cyclic:
                    self._arm(to, when + to.deadline)  # keep cadence, silently
                continue
            if to.cyclic:
                self._arm(to, when + to.deadline)
            to.instances += 1
            record = (when, to.subid, to.instances)
            self.fired_log.append(record)
            self.events.log(when, "fire", to.subid, to.instances)
            fired.append(record)
            if to.action is not None:
                to.action()
        return fired


class WallDriver(threading.Thread):
    """Single timekeeping agent for wall-clock demos: polls the manager until
    stopped. Actions must not block it.

    Thread contract: this is the package's only second thread and ``lock``
    its only lock. Each poll, actions included, runs holding ``lock``; between
    :meth:`start` and :meth:`stop`, a caller touching the driven :class:`TOM`,
    or a ``Runtime`` around it, holds it too. Before start and after stop no
    lock is needed."""

    def __init__(self, tom: TOM, interval_ms: int = 5):
        super().__init__(daemon=True)
        self.tom = tom
        self.interval = interval_ms / 1000.0
        self.lock = threading.RLock()
        self._stopping = threading.Event()

    def run(self):
        import time

        while not self._stopping.is_set():
            with self.lock:
                self.tom.poll()
            time.sleep(self.interval)

    def stop(self):
        self._stopping.set()
        self.join()
