"""Clocks for the runtime: a virtual clock for deterministic execution and a
wall clock for demos. A virtual clock starts at 0 and moves only when
:meth:`cpm.runtime.tom.TOM.advance` moves it, firing what falls due."""

from __future__ import annotations

import time


class VirtualClock:
    """Millisecond clock that only moves when told to. The default for tests
    and scenarios: every run is reproducible."""

    mode = "virtual"

    def __init__(self):
        self.now = 0

    def advance_to(self, t: int) -> int:
        if t < self.now:
            raise ValueError(f"clock cannot move backwards ({self.now} -> {t})")
        self.now = int(t)
        return self.now


class WallClock:
    """Monotonic wall time in milliseconds since construction. Demo use only;
    carries no timing guarantees."""

    mode = "wall"

    def __init__(self):
        self._t0 = time.monotonic()

    @property
    def now(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)
