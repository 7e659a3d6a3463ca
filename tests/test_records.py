"""The runtime's per-event records are slotted plain dataclasses: one object
each, no per-instance ``__dict__``, equal by value and rebuilt with
``dataclasses.replace`` (the benchmark's checker tests rely on that)."""

import dataclasses

import pytest

from cpm.runtime import TimeoutObject
from cpm.runtime.context import ArrayEntry
from cpm.runtime.events import Event
from cpm.scenarios.switchboard import AdjustmentRecord, BeaconRecord


@pytest.mark.parametrize(
    "record, change",
    [
        (Event(10, "fire", "t", 1, ""), {"instance": 2}),
        (BeaconRecord(100, "aa:01", 50.0), {"rate_estimate": 40.0}),
        (AdjustmentRecord(1, "aa:01", 25.0, False), {"stale": True, "metric": None}),
        (TimeoutObject("t", 10, cyclic=True), {"deadline": 20}),
        (ArrayEntry(), {"silent_periods": 2}),
    ],
)
def test_records_are_slotted_and_replaceable(record, change):
    assert not hasattr(record, "__dict__")
    changed = dataclasses.replace(record, **change)
    assert changed != record and type(changed) is type(record)
    assert {name: getattr(changed, name) for name in change} == change
    assert dataclasses.replace(changed, **{name: getattr(record, name) for name in change}) == record
