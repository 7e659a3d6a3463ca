"""Replicated variables: multiplexed writes, voted reads, adaptive N.

A write stores its value in every replica. A read returns the value held by
a strict majority (> N/2) of replicas, repairs any disagreeing replicas to
that value, and feeds the observed discrepancy count into the monitoring
stats. If no value reaches a strict majority the read raises
:class:`NoMajorityError` and leaves the replicas untouched.

The discrepancy stream doubles as a failure-risk estimate: the fraction of
reads in the last window whose discrepancies reached ``floor(N/2)`` (one more
and voting would have failed). The adaptation policy grows N by two when that
risk crosses its threshold and shrinks N by two after enough consecutive
clean windows, staying inside [n_min, n_max] and always odd. The set's
``vote_fail`` and ``adapt`` events take their event log's time.

A write is one slice store: the same list takes the same value object in
every slot. While no read in the stats window is risky, a set counts down
the reads left before the one that closes its policy window. A read in that
stretch whose replicas all agree with the first (the common case) can fire
no eviction, risk, escalation or window-end check, so it costs one
``list.count`` and three stores, all in the one frame of
:meth:`ReplicaSet.read`: the histogram's count of 0, the window's new 0 and
the window's read count. The stats stay exact. Every other read takes the
full path: when the replicas disagree it votes and repairs the minority with
one slice store; then it updates the risk, escalates or closes the window,
and arms the countdown again when it and the window are clean. Only a read
that changes N calls out, to resize.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..cexpr import MAX_REPLICAS
from .events import EventLog


class NoMajorityError(RuntimeError):
    """Voting failure: no value is held by a strict majority of replicas."""


@dataclass(frozen=True)
class AdaptPolicy:
    """Adaptation policy of a replica set. A read escalates when its failure
    risk exceeds ``escalate_threshold``; a threshold of 1 or more, which no
    risk exceeds, means never escalate. A policy is immutable, so the checks
    below hold for its lifetime and the stats window a set sizes from
    ``window`` stays that size; one policy may serve any number of sets."""

    window: int = 16
    escalate_threshold: float = 0.25
    deescalate_after: int = 4  # consecutive clean windows before shrinking
    n_min: int = 3
    n_max: int = MAX_REPLICAS

    def __post_init__(self):
        if self.n_min % 2 == 0 or self.n_max % 2 == 0:
            raise ValueError("replica bounds must be odd")
        if not 3 <= self.n_min <= self.n_max:
            raise ValueError("need 3 <= n_min <= n_max")
        if self.window < 1 or self.deescalate_after < 1:
            raise ValueError("window and deescalate_after must be positive")
        if not self.escalate_threshold >= 0:  # NaN too: no risk would ever exceed it
            raise ValueError("escalate_threshold must be a number >= 0")


_DEFAULT_POLICY = AdaptPolicy()


@dataclass
class VoteStats:
    window: deque  # last-W discrepancy counts, bounded by maxlen W
    discrepancy_histogram: dict = field(default_factory=dict)
    risky: int = 0  # reads in window with discrepancies >= N // 2

    @property
    def reads(self) -> int:
        return sum(self.discrepancy_histogram.values())

    @property
    def failure_risk(self) -> float:
        return self.risky / self.window.maxlen


class ReplicaSet:
    """N-way storage for one redundant variable (N odd, >= 3)."""

    def __init__(self, name, replicas=3, *, initial=0, policy=None, events=None):
        policy = policy or _DEFAULT_POLICY
        if replicas % 2 == 0 or replicas < 3:
            raise ValueError("replica count must be odd and >= 3")
        if not policy.n_min <= replicas <= policy.n_max:
            raise ValueError(f"replica count {replicas} outside policy bounds [{policy.n_min}, {policy.n_max}]")
        self.name = name
        self.policy = policy
        self.events = events if events is not None else EventLog()
        self.stats = VoteStats(window=deque(maxlen=policy.window))
        self._replicas = [initial] * replicas
        self._window_reads = 0
        self._clean_windows = 0
        # clean reads left before the one that closes the policy window; 0
        # unless the last full-path read was clean and left the window clean
        self._countdown = 0

    @property
    def n(self) -> int:
        return len(self._replicas)

    @property
    def replicas(self) -> tuple:
        return tuple(self._replicas)

    def write(self, value):
        """Multiplexed write: every replica takes the value. Does not count
        as a read and records no discrepancy."""
        reps = self._replicas
        reps[:] = [value] * len(reps)

    def inject_fault(self, replica_index, corrupt_value):
        """Test instrumentation: corrupt exactly one replica in place."""
        if not 0 <= replica_index < self.n:
            raise IndexError(f"replica index {replica_index} out of range for N={self.n}")
        self._replicas[replica_index] = corrupt_value

    def read(self):
        """Voted read: strict majority wins, minority replicas are repaired,
        stats and the adaptation policy are updated. When every replica
        agrees with the first, the read returns it without voting; there is
        nothing to repair."""
        reps = self._replicas
        n = len(reps)
        value = reps[0]
        if reps.count(value) == n:
            if self._countdown:  # no check below can fire
                self._countdown -= 1
                self._window_reads += 1
                st = self.stats
                st.discrepancy_histogram[0] += 1
                st.window.append(0)
                return value
            discrepancies = 0
        else:
            # Boyer-Moore: a strict majority, if there is one, is the candidate
            cand, lead = None, 0
            for v in reps:
                if lead == 0:
                    cand, lead = v, 1
                elif v is cand or v == cand:  # identity first, as list.count
                    lead += 1
                else:
                    lead -= 1
            agreeing = reps.count(cand)
            if agreeing * 2 <= n:
                self.events.log("vote_fail", self.name, self.stats.reads, "no-majority")
                raise NoMajorityError(f"no strict majority among replicas of '{self.name}'")
            value = reps[reps.index(cand)]  # the first agreeing replica
            discrepancies = n - agreeing
            if discrepancies:
                reps[:] = [value] * n
        st = self.stats
        hist, window = st.discrepancy_histogram, st.window
        hist[discrepancies] = hist.get(discrepancies, 0) + 1
        risky, maxlen = n // 2, window.maxlen
        if len(window) == maxlen and window[0] >= risky:
            st.risky -= 1  # about to be evicted
        window.append(discrepancies)
        st.risky += discrepancies >= risky
        # adaptation: escalate on risk first, else close the window when full
        policy = self.policy
        if st.risky / maxlen > policy.escalate_threshold and n + 2 <= policy.n_max:
            self._resize(n + 2, value)
            return value
        reads = self._window_reads + 1
        if reads >= policy.window:
            if st.risky:
                self._clean_windows = 0
            else:  # the window holds just the reads of this window, all clean
                self._clean_windows += 1
                if self._clean_windows >= policy.deescalate_after:
                    if n - 2 >= policy.n_min:
                        self._resize(n - 2, value)
                    self._clean_windows = 0
            reads = 0
        self._window_reads = reads
        self._countdown = 0 if discrepancies or st.risky else policy.window - 1 - reads
        return value

    def _resize(self, new_n, majority):
        old_n = self.n
        if new_n > old_n:
            self._replicas.extend([majority] * (new_n - old_n))
        else:
            del self._replicas[new_n:]
        # measurements made at the old N no longer apply
        self.stats.window.clear()
        self.stats.risky = 0
        self._window_reads = 0
        self._clean_windows = 0
        self._countdown = 0
        self.events.log("adapt", self.name, new_n, f"{old_n}->{new_n}")
