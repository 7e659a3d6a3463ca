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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .events import EventLog


class NoMajorityError(RuntimeError):
    """Voting failure: no value is held by a strict majority of replicas."""


@dataclass
class AdaptPolicy:
    window: int = 16
    escalate_threshold: float = 0.25
    deescalate_after: int = 4  # consecutive clean windows before shrinking
    n_min: int = 3
    n_max: int = 9

    def __post_init__(self):
        if self.n_min % 2 == 0 or self.n_max % 2 == 0:
            raise ValueError("replica bounds must be odd")
        if not 3 <= self.n_min <= self.n_max:
            raise ValueError("need 3 <= n_min <= n_max")
        if self.window < 1 or self.deescalate_after < 1:
            raise ValueError("window and deescalate_after must be positive")


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
        policy = policy or AdaptPolicy()
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

    @property
    def n(self) -> int:
        return len(self._replicas)

    @property
    def replicas(self) -> tuple:
        return tuple(self._replicas)

    def write(self, value):
        """Multiplexed write: every replica takes the value. Does not count
        as a read and records no discrepancy."""
        for i in range(len(self._replicas)):
            self._replicas[i] = value

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
                for i in range(n):
                    reps[i] = value
        st = self.stats
        st.discrepancy_histogram[discrepancies] = st.discrepancy_histogram.get(discrepancies, 0) + 1
        risky = n // 2
        if len(st.window) == st.window.maxlen and st.window[0] >= risky:
            st.risky -= 1  # about to be evicted
        st.window.append(discrepancies)
        st.risky += discrepancies >= risky
        self._adapt(majority=value)
        return value

    def _adapt(self, majority):
        self._window_reads += 1
        if self.stats.failure_risk > self.policy.escalate_threshold and self.n + 2 <= self.policy.n_max:
            self._resize(self.n + 2, majority)
            return
        if self._window_reads >= self.policy.window:
            if self.stats.risky == 0:  # stats.window holds just the reads of this window
                self._clean_windows += 1
                if self._clean_windows >= self.policy.deescalate_after:
                    if self.n - 2 >= self.policy.n_min:
                        self._resize(self.n - 2, majority)
                    self._clean_windows = 0
            else:
                self._clean_windows = 0
            self._window_reads = 0

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
        self.events.log("adapt", self.name, new_n, f"{old_n}->{new_n}")
