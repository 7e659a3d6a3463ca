import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpm.runtime import TOM, AdaptPolicy, EventLog, NoMajorityError, ReplicaSet

from oracles import ReferenceReplicaSet, majority_oracle


def test_write_multiplexes_to_all_replicas():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    assert rs.replicas == (5, 5, 5)
    assert rs.stats.reads == 0


def test_write_heals_previous_fault():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    rs.inject_fault(1, 99)
    rs.write(7)
    assert rs.replicas == (7, 7, 7)


def test_last_write_wins():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    rs.write(9)
    assert rs.read() == 9


def test_read_unanimous():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    assert rs.read() == 5
    assert rs.stats.discrepancy_histogram == {0: 1}


def test_read_with_one_disagreeing_replica():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    rs.inject_fault(1, 9)
    assert rs.read() == 5
    assert rs.stats.discrepancy_histogram == {1: 1}


def test_read_repairs_minority():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    rs.inject_fault(0, 99)
    rs.read()
    assert rs.replicas == (5, 5, 5)
    # a second read sees no discrepancy (repair happened)
    rs.read()
    assert rs.stats.discrepancy_histogram == {1: 1, 0: 1}


def test_no_majority_raises_and_leaves_replicas():
    ev = EventLog()
    rs = ReplicaSet("x", 3, events=ev)
    rs.write(1)
    rs.inject_fault(0, 2)
    rs.inject_fault(1, 3)
    with pytest.raises(NoMajorityError):
        rs.read()
    assert rs.replicas == (2, 3, 1)
    assert len(ev.of("vote_fail")) == 1
    assert rs.stats.reads == 0


def test_a_set_built_without_a_log_records_in_its_own():
    rs = ReplicaSet("x", 3, policy=AdaptPolicy(window=1, escalate_threshold=0.5))
    rs.write(5)
    rs.inject_fault(0, 9)
    assert rs.read() == 5  # one risky read in a window of one grows N
    for i, corrupt in enumerate((7, 8, 9)):
        rs.inject_fault(i, corrupt)
    with pytest.raises(NoMajorityError):
        rs.read()
    assert [(e.time_ms, e.kind, e.name, e.instance, e.value) for e in rs.events] == [
        (0, "adapt", "x", 5, "3->5"),
        (0, "vote_fail", "x", 1, "no-majority"),
    ]


def test_two_identical_corruptions_deceive_voting():
    rs = ReplicaSet("x", 3)
    rs.write(5)
    rs.inject_fault(0, 9)
    rs.inject_fault(1, 9)
    assert rs.read() == 9  # the documented failure mode


def test_inject_fault_out_of_range():
    rs = ReplicaSet("x", 3)
    with pytest.raises(IndexError):
        rs.inject_fault(3, 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ReplicaSet("x", 4)
    with pytest.raises(ValueError):
        ReplicaSet("x", 1)
    with pytest.raises(ValueError):
        ReplicaSet("x", 11)  # beyond default n_max
    with pytest.raises(ValueError, match="escalate_threshold"):
        AdaptPolicy(escalate_threshold=-0.1)  # would escalate on a clean read
    with pytest.raises(ValueError, match="escalate_threshold"):
        AdaptPolicy(escalate_threshold=float("nan"))  # would never escalate
    assert AdaptPolicy(escalate_threshold=1.0).escalate_threshold == 1.0  # never escalates


@pytest.mark.parametrize("policy", [None, AdaptPolicy(window=2, deescalate_after=1)])
@pytest.mark.parametrize("field, value", [("window", 2), ("escalate_threshold", float("nan")), ("escalate_threshold", -0.1)])
def test_a_sets_policy_cannot_change_under_it(policy, field, value):
    # a later window would leave the stats deque at its old maxlen, and a
    # later threshold would skip the construction-time check
    rs = ReplicaSet("x", 5, policy=policy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rs.policy, field, value)
    assert rs.stats.window.maxlen == rs.policy.window


@pytest.mark.parametrize("n", [3, 5, 7])
def test_voting_masks_minority_corruption_exhaustively(n):
    domain = (0, 1, 2)
    max_corrupt = (n - 1) // 2
    for written in domain:
        for k in range(max_corrupt + 1):
            for positions in itertools.combinations(range(n), k):
                for values in itertools.product(domain, repeat=k):
                    rs = ReplicaSet("x", n)
                    rs.write(written)
                    for pos, val in zip(positions, values):
                        rs.inject_fault(pos, val)
                    assert rs.read() == written
                    assert majority_oracle(rs.replicas) == written


def test_histogram_totals_equal_reads():
    rs = ReplicaSet("x", 3)
    rs.write(0)
    for i in range(10):
        if i % 3 == 0:
            rs.inject_fault(0, 42)
        rs.read()
    assert sum(rs.stats.discrepancy_histogram.values()) == rs.stats.reads == 10


def test_failure_risk_counts_risky_reads_over_window():
    rs = ReplicaSet("x", 3, policy=AdaptPolicy(n_min=3, n_max=3))
    rs.write(0)
    for _ in range(4):
        rs.inject_fault(0, 9)
        rs.read()
    # 4 risky reads over a window of 16
    assert rs.stats.failure_risk == pytest.approx(4 / 16)


def test_failure_risk_monotone_under_nondecreasing_corruption():
    rs = ReplicaSet("x", 3, policy=AdaptPolicy(n_min=3, n_max=3))
    rs.write(0)
    risks = []
    corruption = [0] * 6 + [1] * 12  # non-decreasing per-read corruption count
    for c in corruption:
        if c:
            rs.inject_fault(0, 77)
        rs.read()
        risks.append(rs.stats.failure_risk)
    assert risks == sorted(risks)


def test_escalation_exactly_once_then_deescalation_exactly_once():
    ev = EventLog()
    rs = ReplicaSet("x", 3, events=ev)
    rs.write(5)
    # 5 of the first 16 reads (31.25% >= 30%) see one corrupted replica
    for i in range(16):
        if i < 5:
            rs.inject_fault(0, 99)
        rs.read()
    assert rs.n == 5
    assert [e.value for e in ev.of("adapt")] == ["3->5"]
    # new replicas were initialized from the current majority
    assert rs.replicas == (5,) * 5
    # four clean windows trigger exactly one de-escalation
    for _ in range(4 * 16):
        rs.read()
    assert rs.n == 3
    assert [e.value for e in ev.of("adapt")] == ["3->5", "5->3"]
    # staying clean at n_min never de-escalates again
    for _ in range(4 * 16):
        rs.read()
    assert [e.value for e in ev.of("adapt")] == ["3->5", "5->3"]


def test_escalation_capped_at_n_max():
    ev = EventLog()
    rs = ReplicaSet("x", 3, policy=AdaptPolicy(n_max=5), events=ev)
    rs.write(1)
    for _ in range(40):
        rs.inject_fault(0, 9)
        rs.read()
    assert rs.n == 5
    assert [e.value for e in ev.of("adapt")] == ["3->5"]


def test_dirty_read_resets_clean_window_streak():
    ev = EventLog()
    rs = ReplicaSet("x", 5, events=ev)
    rs.write(0)
    # three clean windows, one dirty read, then three more clean windows:
    # never reaches four consecutive, so no de-escalation
    for _ in range(3 * 16):
        rs.read()
    rs.inject_fault(0, 9)
    rs.inject_fault(1, 9)  # 2 disagreeing = floor(5/2): risky
    rs.read()
    for _ in range(3 * 16 - 1):
        rs.read()
    assert rs.n == 5
    assert not ev.of("adapt")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_hypothesis_single_fault_never_changes_vote(written, corrupt):
    rs = ReplicaSet("x", 3)
    rs.write(written)
    rs.inject_fault(1, corrupt)
    assert rs.read() == written


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2, 1.0, True, "1"]), min_size=3, max_size=9).filter(lambda v: len(v) % 2))
def test_hypothesis_read_agrees_with_majority_oracle(values):
    ev = EventLog()
    rs = ReplicaSet("x", len(values), events=ev, policy=AdaptPolicy(n_min=3, n_max=9))
    for i, v in enumerate(values):
        rs.inject_fault(i, v)
    expected = majority_oracle(values)
    if expected is None:
        with pytest.raises(NoMajorityError):
            rs.read()
        assert rs.replicas == tuple(values) and len(ev.of("vote_fail")) == 1
        return
    value = rs.read()
    # 1, 1.0 and True vote together; the first agreeing replica is returned
    assert repr(value) == repr(expected)
    agreeing = sum(v == expected for v in values)
    assert rs.stats.discrepancy_histogram == {len(values) - agreeing: 1}
    if agreeing < len(values):
        assert repr(rs.replicas) == repr((expected,) * len(values))
    else:
        assert rs.replicas == tuple(values)


_ops = st.one_of(
    st.tuples(st.just("fault"), st.integers(0, 8), st.integers(0, 2)),
    st.tuples(st.just("write"), st.integers(0, 2)),
    st.tuples(st.just("read")),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.2, 0.5]),
    st.integers(min_value=1, max_value=3),
    st.lists(_ops, max_size=80),
)
def test_hypothesis_failure_risk_equals_recomputed_window_sum(window, threshold, deescalate, ops):
    policy = AdaptPolicy(window=window, escalate_threshold=threshold, deescalate_after=deescalate, n_min=3, n_max=9)
    rs = ReplicaSet("x", 3, policy=policy)
    for op in ops:
        if op[0] == "fault":
            rs.inject_fault(op[1] % rs.n, op[2])
        elif op[0] == "write":
            rs.write(op[1])
        else:
            try:
                rs.read()
            except NoMajorityError:
                pass
        risky = sum(1 for d in rs.stats.window if d >= rs.n // 2)
        assert rs.stats.failure_risk == risky / window


_SHARED_NAN = float("nan")
# 1, 1.0 and True vote together; a NaN agrees only with itself, by identity
_values = st.one_of(st.sampled_from([1, 1.0, True, _SHARED_NAN]), st.builds(float, st.just("nan")))
_vote_ops = st.one_of(
    st.tuples(st.just("write"), _values),
    st.tuples(st.just("fault"), st.integers(0, 8), _values),
    st.tuples(st.just("read")),
)


def _voted(rs):
    st_ = rs.stats
    return (rs.replicas, st_.reads, st_.discrepancy_histogram, list(st_.window), st_.failure_risk,
            rs._window_reads, rs._clean_windows)


def _same(a, b):
    """Equal, with every value compared by identity (a NaN equals nothing)."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b or (type(a) is type(b) and a == b)


@st.composite
def _replica_bounds(draw):
    """(replicas, n_min, n_max), with n_min == n_max and a cap below 9 among them."""
    n = draw(st.sampled_from([3, 5, 7]))
    n_min = draw(st.sampled_from(range(3, n + 1, 2)))
    n_max = draw(st.sampled_from(range(n, 10, 2)))
    return n, n_min, n_max


@settings(max_examples=400, deadline=None)
@given(
    _replica_bounds(),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    st.integers(min_value=1, max_value=2),
    st.lists(_vote_ops, max_size=60),
)
# a clean window, then a dirty one at the cap: the dirty one resets the clean count
@example((3, 3, 3), 2, 0.0, 2, [("read",), ("read",), ("fault", 0, 1), ("read",), ("read",)])
def test_hypothesis_read_matches_the_always_voting_reference(bounds, window, threshold, deescalate, ops):
    """The unanimous short-circuit and the inline bookkeeping change nothing
    observable: return values, failures, replicas, stats and the event log
    (``adapt`` and ``vote_fail`` rows among them) match a replica set whose
    every read votes and adapts step by step."""
    n, n_min, n_max = bounds
    sets = []
    for cls in (ReplicaSet, ReferenceReplicaSet):
        policy = AdaptPolicy(window=window, escalate_threshold=threshold, deescalate_after=deescalate,
                             n_min=n_min, n_max=n_max)
        sets.append(cls("x", n, policy=policy, events=EventLog()))
    toms = [TOM(events=rs.events) for rs in sets]
    for op in ops:
        outcomes = []
        for rs, tom in zip(sets, toms):
            tom.advance(1)
            if op[0] == "write":
                outcomes.append(rs.write(op[1]))
            elif op[0] == "fault":
                outcomes.append(rs.inject_fault(op[1] % rs.n, op[2]))
            else:
                try:
                    outcomes.append(rs.read())
                except NoMajorityError:
                    outcomes.append(NoMajorityError)
        assert _same(outcomes[0], outcomes[1])
        assert _same(_voted(sets[0]), _voted(sets[1]))
    assert sets[0].events.to_csv() == sets[1].events.to_csv()


_countdown_ops = st.one_of(
    st.just(("read",)),
    st.just(("read",)),
    st.just(("read",)),
    st.just(("stats",)),
    st.tuples(st.just("write"), st.integers(0, 2)),
    st.tuples(st.just("fault"), st.integers(0, 6), st.integers(0, 2)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.0, 0.25, 1.0]),
    st.sampled_from([3, 5]),
    st.lists(_countdown_ops, max_size=120),
)
def test_hypothesis_reads_under_the_countdown_match_the_reference(window, deescalate, threshold, n, ops):
    """A clean read that the window countdown lets skip the eviction, risk,
    escalation and window-end checks leaves the set as the reference's read
    through every check does. Policies are small, so windows close, N grows
    and shrinks, and the countdown is armed and spent many times a run; after
    every write, fault, read and read of ``stats`` the two sets agree."""
    policy = AdaptPolicy(window=window, escalate_threshold=threshold, deescalate_after=deescalate, n_min=3, n_max=7)
    sets = [cls("x", n, policy=policy) for cls in (ReplicaSet, ReferenceReplicaSet)]
    for op in ops:
        seen = []
        for rs in sets:
            got = None
            if op[0] == "write":
                rs.write(op[1])
            elif op[0] == "fault":
                rs.inject_fault(op[1] % rs.n, op[2])
            elif op[0] == "stats":
                got = (rs.stats.reads, rs.stats.failure_risk)
            else:
                try:
                    got = rs.read()
                except NoMajorityError:
                    got = NoMajorityError
            stats = rs.stats
            seen.append((got, rs.replicas, rs.n, stats.discrepancy_histogram, list(stats.window), stats.risky,
                         stats.failure_risk, rs.events.to_csv()))
        assert seen[0] == seen[1]
