"""Cross-layer switchboard case study.

Link-layer beacons from peer nodes feed two reflective arrays: ``linkbeacons``
(beacon counts and staleness per peer MAC) and ``linkrates`` (estimated
bandwidth per peer). Every observation cycle the switchboard walks the known
peers with ``anext`` and emits one routing-metric adjustment per live peer,
``rate / (1 + silent_periods)`` (a stand-in for whatever the routing layer
actually does with the numbers), or a staleness record for peers that went a
whole period without a beacon.

The observation cycle is the cyclic method ``observation_cycle``, started
through ``Runtime.cycle_set``; it stands for ``adjust_metrics`` in
``demos/switchboard.cpm`` and reads the arrays through the ABI calls
(``anext``, ``arr_get``) that the lowered program makes. The period is
``int(observation_period)`` ms, the value TOM arms, taken once at entry for
the cycle arithmetic too; a period that truncates to 0 raises ValueError.

A :class:`BeaconTrace` is the beacons as three columns, ``times``,
``macs`` and ``rates``, so a long trace is three tuples of ints, strs and
floats, which the collector stops tracking, not one object per beacon;
:meth:`BeaconTrace.from_rows` builds one from ``(time, mac, rate)`` rows.

Beacons are delivered by one series of one-shots, one per beacon, armed
from ``times`` with ``TOM.insert_series``, that all share one action: it
takes the next ``(mac, rate)`` of the trace and feeds it to the arrays
through the handles ``arr_register`` returns, since delivery is the link
layer's side, not the program's. That is exact because TOM fires one-shots
in (int deadline, insertion) order and ``BeaconTrace.validate`` requires
non-decreasing times, so the n-th beacon fire is the n-th beacon's own. A
beacon falling exactly on a cycle boundary counts for the period it ends
(the series is inserted before the cycle starts, so it wins the tie); a
cycle boundary on the horizon still reports.

:class:`AdjustmentRecord` is a slotted plain dataclass: equal by value
and replaceable with ``dataclasses.replace``, but not frozen and so not
hashable. Nothing hashes or mutates one; a run builds one per peer and
cycle, and building a frozen one cost several times as much.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime import Runtime

DEFAULT_OBSERVATION_PERIOD_MS = 60_000


@dataclass(frozen=True)
class BeaconTrace:
    times: tuple = ()  # int ms, non-decreasing
    macs: tuple = ()  # str, one per beacon
    rates: tuple = ()  # float, one per beacon

    @classmethod
    def from_rows(cls, rows) -> "BeaconTrace":
        return cls(*zip(*((int(t), str(mac), float(rate)) for t, mac, rate in rows)))

    def validate(self, horizon=None):
        last = 0
        for t in self.times:
            if t < last:
                raise ValueError("beacon times must be non-decreasing")
            last = t
            if horizon is not None and t > horizon:
                raise ValueError(f"beacon at {t} beyond horizon {horizon}")


@dataclass(slots=True)
class AdjustmentRecord:
    cycle: int  # 1-based observation cycle index
    mac: str
    metric: float | None  # None when the peer is stale this cycle
    stale: bool


@dataclass
class SwitchboardResult:
    records: list
    runtime: Runtime = field(repr=False, default=None)

    def to_csv(self) -> str:
        lines = ["cycle,mac,metric_or_stale"]
        for r in self.records:
            lines.append(f"{r.cycle},{r.mac},{'stale' if r.stale else r.metric}")
        return "\n".join(lines) + "\n"


def run_switchboard(trace: BeaconTrace, observation_period=DEFAULT_OBSERVATION_PERIOD_MS,
                    horizon=None) -> SwitchboardResult:
    period = int(observation_period)
    if period <= 0:
        raise ValueError("observation_period must be at least 1 ms")
    if horizon is None:
        horizon = max(trace.times, default=0)
    trace.validate(horizon)

    rt = Runtime()
    linkbeacons = rt.arr_register("linkbeacons")
    linkrates = rt.arr_register("linkrates")
    records: list = []
    next_beacon = zip(trace.macs, trace.rates).__next__

    def deliver():
        mac, rate = next_beacon()
        linkbeacons.report_beacon(mac)
        linkrates.report_beacon(mac)
        linkrates.set_prop(mac, "rate", rate)

    def observe_cycle():
        cycle = rt.events.now // period  # the cycle fires on each multiple, without drift
        rt.arr_rollover("linkbeacons")
        rt.arr_rollover("linkrates")
        cursor = 0
        while (mac := rt.anext("linkbeacons", cursor)) != 0:
            cursor += 1
            if rt.arr_get("linkbeacons", mac, "stale"):
                rec = AdjustmentRecord(cycle, mac, None, True)
            else:
                rate = rt.arr_get("linkrates", mac, "rate")
                silent = rt.arr_get("linkbeacons", mac, "silent_periods")
                rec = AdjustmentRecord(cycle, mac, rate / (1 + silent), False)
            records.append(rec)

    rt.tom.insert_series("beacon", trace.times, deliver)  # before the tick: boundary beacons count backward
    rt.cycle_register("observation_cycle")
    rt.bind_function("observation_cycle", observe_cycle)
    rt.cycle_set("observation_cycle", period)
    rt.advance(horizon)
    return SwitchboardResult(records=records, runtime=rt)
