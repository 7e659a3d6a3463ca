"""Runtime event trace, which also carries the run's virtual time.

All runtime components append to one log so a run exports as a single
ordered trace. Canonical kinds: ``fire`` (timeout fired), ``guard`` (guarded
function triggered), ``actuate`` (actuator written), ``vote_fail`` (no
majority on a voted read), ``adapt`` (replica count changed). Components may
also log ``warn`` records for tolerated misuse.

The log holds the virtual time, an int of ms from 0, and stamps each event
with it. ``now`` is read-only: only :class:`cpm.runtime.tom.TOM` moves it,
by writing ``_now`` as it fires what falls due.

The log keeps one plain ``(time_ms, kind, name, instance, value)`` tuple
per :meth:`EventLog.log` call, the single method every event passes
through. The collector stops tracking a tuple of ints and strs the first
time it examines one, so a long run's log leaves each later collection one
tracked list to walk, not one object per event. :attr:`EventLog.events`,
:meth:`EventLog.of` and iteration build the :class:`Event` objects when
they are read, and :meth:`EventLog.to_csv` writes the rows: no other module
knows their layout (``TOM.fired_log`` reads ``of("fire")``).

An :class:`Event` is a slotted plain dataclass: equal by value and
replaceable with ``dataclasses.replace``, but not frozen and so not
hashable. Nothing hashes or mutates one; a frozen one cost about 1.8 µs to
build against 0.4 µs for this form.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import starmap

CSV_HEADER = "time_ms,kind,name,instance,value"


@dataclass(slots=True)
class Event:
    time_ms: int
    kind: str
    name: str
    instance: int
    value: str


class EventLog:
    def __init__(self):
        self._rows: list[tuple] = []  # (time_ms, kind, name, instance, value)
        self._now = 0  # virtual ms; written only by TOM

    @property
    def now(self) -> int:
        return self._now

    def log(self, kind, name, instance=0, value=""):
        self._rows.append((self._now, kind, name, int(instance), str(value)))

    @property
    def events(self) -> list[Event]:
        return list(starmap(Event, self._rows))

    def of(self, kind) -> list[Event]:
        return [Event(*row) for row in self._rows if row[1] == kind]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        csv.writer(buf, lineterminator="\n").writerows(self._rows)
        return buf.getvalue()

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return starmap(Event, self._rows)
