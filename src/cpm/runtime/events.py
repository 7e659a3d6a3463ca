"""Runtime event trace, which also carries the run's virtual time.

All runtime components append to one log so a run exports as a single
ordered trace. Canonical kinds: ``fire`` (timeout fired), ``guard`` (guarded
function triggered), ``actuate`` (actuator written), ``vote_fail`` (no
majority on a voted read), ``adapt`` (replica count changed). Components may
also log ``warn`` records for tolerated misuse.

The log holds the virtual time, an int of ms from 0, and stamps each event
with it. ``now`` is read-only: only :class:`cpm.runtime.tom.TOM` moves it,
by writing ``_now`` as it fires what falls due.

An :class:`Event` is a slotted plain dataclass: equal by value and
replaceable with ``dataclasses.replace``, but not frozen and so not
hashable. Nothing hashes or mutates one; one is built per logged event, and
a frozen one cost about 1.8 µs to build against 0.4 µs for this form.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

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
        self.events: list[Event] = []
        self._now = 0  # virtual ms; written only by TOM

    @property
    def now(self) -> int:
        return self._now

    def log(self, kind, name, instance=0, value=""):
        self.events.append(Event(self._now, kind, name, int(instance), str(value)))

    def of(self, kind) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        buf.write(CSV_HEADER + "\n")
        for e in self.events:
            writer.writerow([e.time_ms, e.kind, e.name, e.instance, e.value])
        return buf.getvalue()

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
