"""Native runtime for the language extensions: voted replica sets, the
time-out manager, and the context registry, behind one facade."""

from .context import (
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
from .tom import TOM, TimeoutObject

__all__ = [
    "AdaptPolicy",
    "ArrayEntry",
    "CSV_HEADER",
    "ContextRegistry",
    "Event",
    "EventLog",
    "NoMajorityError",
    "ReflectiveArray",
    "ReplicaSet",
    "Runtime",
    "TOM",
    "TimeoutObject",
    "VoteStats",
    "WD_ACTIVE",
    "WD_END",
    "WD_FIRED",
    "WD_STARTED",
    "wd_state_name",
]
