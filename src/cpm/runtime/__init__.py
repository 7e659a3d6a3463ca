"""Native runtime for the language extensions: voted replica sets, the
time-out manager, and the context registry, behind one facade."""

from .clock import VirtualClock, WallClock
from .context import (
    DEFAULT_OBSERVATION_PERIOD_MS,
    ArrayEntry,
    ContextRegistry,
    ReflectiveArray,
)
from .core import (
    WD_ACTIVE,
    WD_END,
    WD_FIRED,
    WD_STARTED,
    Runtime,
    wd_state_name,
)
from .events import CSV_HEADER, Event, EventLog
from .redundant import AdaptPolicy, NoMajorityError, ReplicaSet, VoteStats
from .tom import (
    TOM,
    TimeoutObject,
    WallDriver,
    tom_init,
    tom_set_action,
    tom_set_deadline,
)

__all__ = [
    "AdaptPolicy",
    "ArrayEntry",
    "CSV_HEADER",
    "ContextRegistry",
    "DEFAULT_OBSERVATION_PERIOD_MS",
    "Event",
    "EventLog",
    "NoMajorityError",
    "ReflectiveArray",
    "ReplicaSet",
    "Runtime",
    "TOM",
    "TimeoutObject",
    "VirtualClock",
    "VoteStats",
    "WallClock",
    "WallDriver",
    "WD_ACTIVE",
    "WD_END",
    "WD_FIRED",
    "WD_STARTED",
    "tom_init",
    "tom_set_action",
    "tom_set_deadline",
    "wd_state_name",
]
