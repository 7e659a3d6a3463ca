"""Time-out objects and their manager.

A :class:`TimeoutObject` postpones an action by a deadline; cyclic objects
re-arm themselves at a fixed rate (next fire = previous *scheduled* fire +
deadline, so there is no drift). The manager processes due objects in
(next_fire, insertion order); each firing runs the action as a fresh logical
instance regardless of earlier instances, and is logged as a ``fire`` event;
``fired_log`` reads those events back as ``(time, subid, instance_no)``.

The virtual time is the event log's ``now``, and the manager is its only
writer: :meth:`TOM.advance` is the only way it moves, and :meth:`TOM.poll`
fires what is due without moving it. Everything runs in the caller's
thread, so every run is deterministic. A deadline is never negative and a
cyclic one is positive, so nothing is armed before ``now``.

Deadlines and ``dt`` are int ms. A non-int one is truncated once, where it
enters: :meth:`TOM.insert` and :meth:`TOM.set_deadline` store ``int(deadline)``,
which every arming adds to ``now``, :meth:`TOM.insert_series` truncates
each of its deadlines, and :meth:`TOM.advance` adds ``int(dt)``
(``advance(2.5)`` then ``advance(7.6)`` leaves ``now`` at 9). So every fire
time is an int. A cyclic object is re-armed inside the firing loop; a
positive int ``deadline``, all that ``insert`` and ``set_deadline`` store,
is added as it is, and any other value (one assigned to the field directly)
goes through the same check, so ``7.6`` re-arms every 7 ms and ``0`` raises.

A :class:`TimeoutObject` is a slotted dataclass, one object per timeout
the caller controls. A stream of one-shots known up front, such as a
scenario's beacons, is armed with :meth:`TOM.insert_series` instead: one
heap entry for the whole series, pushed again with the next deadline after
each fire, and no object per one-shot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .events import EventLog


@dataclass(slots=True)
class TimeoutObject:
    subid: str  # names the fire events
    deadline: int  # ms
    cyclic: bool = False
    enabled: bool = True
    action: Optional[Callable[[], None]] = None
    next_fire: Optional[int] = None  # absolute ms from insert until delete
    instances: int = 0  # completed firings; the next firing is instances + 1
    _seq: Optional[int] = field(default=None, repr=False)
    _version: int = field(default=0, repr=False)
    _queued: bool = field(default=False, repr=False)


def _period(to: TimeoutObject, deadline) -> int:
    """``deadline`` as an int; raises ValueError, before anything changes,
    for a cyclic object whose period would not be positive or for any
    object whose deadline is negative (it would fire before ``now``)."""
    deadline = int(deadline)
    if to.cyclic and deadline <= 0:
        raise ValueError(f"cyclic deadline of '{to.subid}' must be positive")
    if deadline < 0:
        raise ValueError(f"deadline of '{to.subid}' must not be negative")
    return deadline


@dataclass(slots=True)
class _Series:
    """The one-shots :meth:`TOM.insert_series` armed; ``rest`` yields the
    absolute fire times of those not yet queued."""
    subid: str
    action: Optional[Callable[[], None]]
    rest: Iterator[int]


class TOM:
    def __init__(self, events=None):
        self.events = events if events is not None else EventLog()
        self._heap: list = []  # (next_fire, seq, version, obj); version None for a series
        self._next_seq = 0

    @property
    def fired_log(self) -> list[tuple[int, str, int]]:
        """The ``fire`` events, which only the manager logs, as tuples."""
        return [(e.time_ms, e.name, e.instance) for e in self.events.of("fire")]

    # -- schedule control ---------------------------------------------------

    def insert(self, to: TimeoutObject):
        """Arm the object at now + deadline. Re-inserting a queued object is
        a tolerated no-op (warn event); use renew to re-arm."""
        if to._queued:
            self.events.log("warn", to.subid, 0, "insert-while-queued")
            return
        to.deadline = _period(to, to.deadline)
        if to._seq is None:
            to._seq = self._next_seq
            self._next_seq += 1
        self._arm(to, self.events._now + to.deadline)

    def insert_series(self, subid: str, deadlines, action: Optional[Callable[[], None]]):
        """Arm one one-shot per deadline, as inserting
        ``TimeoutObject(subid, d, action=action)`` for each ``d`` in turn
        would, but as one heap entry and no object per one-shot; nothing can
        renew or delete them. A negative or decreasing ``int(d)`` raises
        ValueError before anything is armed."""
        whens = list(map(int, deadlines))
        if not whens:
            return
        # no Python pass per deadline: sorting a sorted list takes n - 1 comparisons
        if whens[0] < 0 or whens != sorted(whens):
            raise ValueError(f"deadlines of '{subid}' must be non-negative and non-decreasing")
        now = self.events._now
        rest = iter(whens) if now == 0 else map(now.__add__, whens)
        seq = self._next_seq
        self._next_seq += len(whens)  # one per one-shot, so ties break as for single inserts
        heapq.heappush(self._heap, (next(rest), seq, None, _Series(subid, action, rest)))

    def delete(self, to: TimeoutObject):
        """Remove from the schedule. Deleting something never inserted is a
        no-op that leaves a warn event."""
        if to.next_fire is None:
            self.events.log("warn", to.subid, 0, "delete-before-insert")
            return
        to._version += 1
        to._queued = False
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
        if to.next_fire is None:
            raise ValueError(f"renew of '{to.subid}' before insert")
        self._arm(to, self.events._now + _period(to, to.deadline))
        to.enabled = True

    def _arm(self, to: TimeoutObject, when: int):
        """Queue ``to`` at ``when``; the caller has checked its period."""
        to._version += 1
        to.next_fire = when
        to._queued = True
        heapq.heappush(self._heap, (when, to._seq, to._version, to))

    # -- time driving -------------------------------------------------------

    def advance(self, dt: int):
        """Advance ``now`` by ``int(dt)`` ms, firing everything that falls
        due, in (next_fire, insertion) order. Returns the firings, as
        :attr:`fired_log` records them."""
        if dt < 0:
            raise ValueError("dt must be >= 0")
        target = self.events._now + int(dt)
        fired = self._process_until(target)
        self.events._now = target
        return fired

    def poll(self):
        """Fire everything due now, without moving ``now``."""
        return self._process_until(self.events._now)

    def _process_until(self, target: int):
        # bound once per call, not per firing; still looked up at call time,
        # so a patched tom.heapq or EventLog.log sees every pop and event
        heap, events, pop, push = self._heap, self.events, heapq.heappop, heapq.heappush
        log = events.log
        fired = []
        while heap and heap[0][0] <= target:
            when, seq, version, to = pop(heap)
            if version is None:  # a series: queue its next one-shot, then fire this one
                events._now = when
                nxt = next(to.rest, None)
                if nxt is not None:
                    push(heap, (nxt, seq + 1, None, to))
                log("fire", to.subid, 1)
                fired.append((when, to.subid, 1))
                if to.action is not None:
                    to.action()
                continue
            if version != to._version:
                continue  # superseded by renew/delete
            to._queued = False
            events._now = when  # actions observe their fire time; nothing is armed before now
            if to.cyclic:  # a disabled one keeps its cadence, silently; re-armed as _arm would
                period = to.deadline
                if type(period) is not int or period <= 0:  # assigned to the field directly
                    period = _period(to, period)
                to._version = version = version + 1
                to.next_fire = nxt = when + period
                to._queued = True
                push(heap, (nxt, to._seq, version, to))
            if not to.enabled:
                continue
            to.instances += 1
            log("fire", to.subid, to.instances)
            fired.append((when, to.subid, to.instances))
            if to.action is not None:
                to.action()
        return fired
