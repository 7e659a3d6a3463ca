"""Executable end-to-end case studies over the runtime, each producing a
deterministic event trace."""

from .params import load_switchboard_params, load_wdt_params
from .switchboard import (
    AdjustmentRecord,
    BeaconTrace,
    SwitchboardResult,
    run_switchboard,
)
from .watchdog import WdtResult, WdtScenarioParams, run_wdt

__all__ = [
    "AdjustmentRecord",
    "BeaconTrace",
    "SwitchboardResult",
    "WdtResult",
    "WdtScenarioParams",
    "load_switchboard_params",
    "load_wdt_params",
    "run_switchboard",
    "run_wdt",
]
