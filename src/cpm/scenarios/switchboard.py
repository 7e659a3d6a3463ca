"""Cross-layer switchboard case study.

Link-layer beacons from peer nodes feed two reflective arrays: ``linkbeacons``
(beacon counts and staleness per peer MAC) and ``linkrates`` (estimated
bandwidth per peer). Every observation cycle the switchboard walks the known
peers with ``anext`` and emits one routing-metric adjustment per live peer,
``rate / (1 + silent_periods)`` (a stand-in for whatever the routing layer
actually does with the numbers), or a staleness record for peers that went a
whole period without a beacon.

The observation cycle is the cyclic method ``observation_cycle``, started
through ``Runtime.cycle_set``. Beacons are synthetic trace data, delivered by
one-shot timeout objects. A beacon falling exactly on a cycle boundary counts
for the period it ends (the one-shots are inserted before the cycle starts,
so they win the tie); a cycle boundary on the horizon still reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime import Runtime, TimeoutObject

DEFAULT_OBSERVATION_PERIOD_MS = 60_000


@dataclass(frozen=True)
class BeaconRecord:
    time: int  # ms
    mac: str
    rate_estimate: float


@dataclass(frozen=True)
class BeaconTrace:
    records: tuple  # BeaconRecord, times non-decreasing

    def validate(self, horizon=None):
        last = 0
        for rec in self.records:
            if rec.time < last:
                raise ValueError("beacon times must be non-decreasing")
            last = rec.time
            if horizon is not None and rec.time > horizon:
                raise ValueError(f"beacon at {rec.time} beyond horizon {horizon}")

    @classmethod
    def from_rows(cls, rows) -> "BeaconTrace":
        return cls(tuple(BeaconRecord(int(t), str(mac), float(rate)) for t, mac, rate in rows))


@dataclass(frozen=True)
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
    if observation_period <= 0:
        raise ValueError("observation_period must be positive")
    if horizon is None:
        horizon = max((r.time for r in trace.records), default=0)
    trace.validate(horizon)

    rt = Runtime()
    rt.arr_register("linkbeacons")
    linkrates = rt.arr_register("linkrates")
    records: list = []

    def deliver(rec: BeaconRecord):
        rt.arr_report_beacon("linkbeacons", rec.mac)
        rt.arr_report_beacon("linkrates", rec.mac)
        linkrates.set_prop(rec.mac, "rate", rec.rate_estimate)

    def observe_cycle():
        cycle = rt.clock.now // observation_period  # the cycle fires on each multiple, without drift
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

    for rec in trace.records:  # before the tick: boundary beacons count backward
        rt.tom.insert(
            TimeoutObject(
                id=f"beacon@{rec.time}:{rec.mac}", subid="beacon", deadline=rec.time,
                enabled=True, action=lambda rec=rec: deliver(rec),
            )
        )
    rt.cycle_register("observation_cycle")
    rt.bind_function("observation_cycle", observe_cycle)
    rt.cycle_set("observation_cycle", observation_period)
    rt.advance(horizon)
    return SwitchboardResult(records=records, runtime=rt)
