"""The runtime's virtual clock: an int of milliseconds that starts at 0 and
has no method to move itself. Only :class:`cpm.runtime.tom.TOM` writes
``now``, in :meth:`~cpm.runtime.tom.TOM.advance`, firing what falls due, so
every run is reproducible."""

from __future__ import annotations


class VirtualClock:
    """Millisecond clock that only the timeout manager moves."""

    def __init__(self):
        self.now = 0
