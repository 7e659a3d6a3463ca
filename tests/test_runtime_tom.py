import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpm.runtime import (
    TOM,
    EventLog,
    Runtime,
    TimeoutObject,
)

from oracles import ReferenceEventLog, cyclic_fire_times


def make(subid, deadline, cyclic=False, enabled=True, action=None):
    return TimeoutObject(subid=subid, deadline=deadline, cyclic=cyclic, enabled=enabled, action=action)


def test_insert_sets_next_fire():
    tom = TOM()
    t = make("t", 10)
    tom.insert(t)
    assert t.next_fire == 10


def test_insert_relative_to_current_time():
    tom = TOM()
    tom.advance(25)
    t = make("t", 10)
    tom.insert(t)
    assert t.next_fire == 35


def test_one_shot_fires_once():
    tom = TOM()
    hits = []
    tom.insert(make("t", 10, action=lambda: hits.append(tom.events.now)))
    fired = tom.advance(50)
    assert fired == [(10, "t", 1)]
    assert hits == [10]
    assert tom.advance(50) == []


def test_cyclic_fixed_rate_firing():
    tom = TOM()
    tom.insert(make("pm", 10, cyclic=True))
    fired = tom.advance(35)
    assert fired == [(10, "pm", 1), (20, "pm", 2), (30, "pm", 3)]


def test_disabled_object_never_fires():
    tom = TOM()
    t = make("t", 10, cyclic=True, enabled=False)
    tom.insert(t)
    assert tom.advance(100) == []
    assert tom.fired_log == []


def test_disable_enable_keeps_cadence():
    tom = TOM()
    t = make("t", 10, cyclic=True)
    tom.insert(t)
    tom.advance(15)
    tom.disable(t)
    tom.advance(20)  # 20 and 30 suppressed, cadence kept
    tom.enable(t)
    fired = tom.advance(10)
    assert fired == [(40, "t", 2)]


def test_same_deadline_fires_in_insertion_order():
    tom = TOM()
    tom.insert(make("first", 10))
    tom.insert(make("second", 10))
    fired = tom.advance(10)
    assert [f[1] for f in fired] == ["first", "second"]


def test_insertion_order_tie_break_stable_for_cyclics():
    tom = TOM()
    tom.insert(make("a", 10, cyclic=True))
    tom.insert(make("b", 10, cyclic=True))
    fired = tom.advance(30)
    assert [f[1] for f in fired] == ["a", "b", "a", "b", "a", "b"]


def test_table1_control_sequence():
    tom = TOM()
    t1 = make("t1", 100, cyclic=True)
    t2 = make("t2", 250, cyclic=True)
    tom.insert(t1)
    tom.insert(t2)
    tom.disable(t2)
    tom.set_deadline(t2, 400)
    tom.renew(t2)
    tom.delete(t1)
    assert t2.enabled and t2.next_fire == 400
    assert t1.next_fire is None
    tom.advance(1000)
    assert tom.fired_log == [(400, "t2", 1), (800, "t2", 2)]


def test_set_deadline_does_not_rearm():
    tom = TOM()
    t = make("t", 100)
    tom.insert(t)
    tom.advance(50)
    tom.set_deadline(t, 10)
    assert t.next_fire == 100  # unchanged until renew or re-arm
    fired = tom.advance(100)
    assert fired == [(100, "t", 1)]


def test_renew_rearms_and_enables():
    tom = TOM()
    t = make("t", 100)
    tom.insert(t)
    tom.disable(t)
    tom.advance(30)
    tom.renew(t)
    assert t.enabled and t.next_fire == 130


def test_renew_before_insert_errors():
    tom = TOM()
    with pytest.raises(ValueError):
        tom.renew(make("t", 10))


def test_delete_of_non_inserted_warns_in_event_channel():
    tom = TOM()
    tom.delete(make("t", 10))
    warns = tom.events.of("warn")
    assert len(warns) == 1 and "delete-before-insert" in warns[0].value


# a rejected period leaves the schedule as it was


def test_rejected_cyclic_insert_leaves_the_object_uninserted():
    tom = TOM()
    t = make("pm", 0, cyclic=True)
    with pytest.raises(ValueError, match="must be positive"):
        tom.insert(t)
    tom.delete(t)
    assert [e.value for e in tom.events.of("warn")] == ["delete-before-insert"]
    with pytest.raises(ValueError, match="before insert"):
        tom.renew(t)
    assert t.next_fire is None and not tom.advance(100)


def test_rejected_cyclic_deadline_keeps_the_period():
    tom = TOM()
    t = make("pm", 100, cyclic=True)
    tom.insert(t)
    with pytest.raises(ValueError, match="must be positive"):
        tom.set_deadline(t, -5)
    assert t.deadline == 100
    assert [when for when, _, _ in tom.advance(250)] == [100, 200]


def test_rejected_period_leaves_an_unstarted_cycle_unstarted():
    rt = Runtime()
    rt.cycle_register("f")
    with pytest.raises(ValueError, match="must not be negative"):
        rt.cycle_set("f", -5)
    assert rt.cycle_get("f") == 0
    assert not rt.advance(100)


def test_rejected_period_leaves_a_running_cycle_running():
    rt = Runtime()
    rt.cycle_register("f")
    rt.cycle_set("f", 100)
    with pytest.raises(ValueError, match="must not be negative"):
        rt.cycle_set("f", -5)
    assert rt.cycle_get("f") == 100
    assert [when for when, _, _ in rt.advance(250)] == [100, 200]


def test_negative_one_shot_deadline_is_rejected_before_anything_changes():
    tom = TOM()
    tom.advance(100)
    seen = []
    t = make("a", -30, action=lambda: seen.append(tom.events.now))
    with pytest.raises(ValueError, match="must not be negative"):
        tom.insert(t)
    assert t.next_fire is None and tom.advance(0) == [] and seen == []
    with pytest.raises(ValueError, match="before insert"):
        tom.renew(t)


def test_negative_deadline_on_an_inserted_one_shot_keeps_the_deadline():
    tom = TOM()
    tom.advance(100)
    t = make("a", 30)
    tom.insert(t)
    with pytest.raises(ValueError, match="must not be negative"):
        tom.set_deadline(t, -50)
    assert t.deadline == 30
    tom.renew(t)
    assert tom.advance(30) == [(130, "a", 1)]
    assert [e.time_ms for e in tom.events] == [130]


def test_zero_one_shot_deadline_fires_at_now():
    tom = TOM()
    tom.advance(100)
    tom.insert(make("a", 0))
    assert tom.advance(0) == [(100, "a", 1)]


def test_fractional_one_shot_deadline_fires_at_its_int_in_both_logs():
    tom = TOM()
    t = TimeoutObject("a", 10.5)
    tom.insert(t)
    assert t.deadline == 10 and t.next_fire == 10
    tom.advance(20)
    assert tom.fired_log == [(10, "a", 1)]
    assert [(e.time_ms, e.kind) for e in tom.events] == [(10, "fire")]


def test_fractional_cyclic_deadline_fires_at_its_int_multiples_in_both_logs():
    tom = TOM()
    tom.insert(TimeoutObject("c", 2.5, cyclic=True))
    tom.advance(5)
    assert tom.fired_log == [(2, "c", 1), (4, "c", 2)]
    assert [e.time_ms for e in tom.events.of("fire")] == [2, 4]


def test_a_deadline_field_assigned_directly_is_truncated_at_each_rearm():
    """``insert`` and ``set_deadline`` store an int; a float assigned to the
    field itself takes effect at the next re-arm, truncated there."""
    tom = TOM()
    t = make("c", 10, cyclic=True)
    tom.insert(t)
    assert tom.advance(10) == [(10, "c", 1)]
    t.deadline = 7.6
    assert tom.advance(24) == [(20, "c", 2), (27, "c", 3), (34, "c", 4)]
    assert t.deadline == 7.6 and t.next_fire == 41


@pytest.mark.parametrize("deadline", [0, -3])
def test_a_non_positive_deadline_field_assigned_directly_raises_at_the_rearm(deadline):
    tom = TOM()
    t = make("c", 10, cyclic=True)
    tom.insert(t)
    tom.advance(10)
    t.deadline = deadline
    with pytest.raises(ValueError, match="must be positive"):
        tom.advance(10)
    assert tom.fired_log == [(10, "c", 1)]


TOM_OBJECTS = (("a", False), ("b", False), ("c", True))  # (subid, cyclic)
TOM_DEADLINE = st.integers(-20, 40)
TOM_INDEX = st.integers(0, len(TOM_OBJECTS) - 1)
TOM_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("insert", "renew", "delete")), TOM_INDEX),
        st.tuples(st.just("set_deadline"), TOM_INDEX, TOM_DEADLINE),
        st.tuples(st.just("advance"), st.integers(0, 50)),
    ),
    max_size=25,
)


def play_tom_script(initial, ops, skip=()):
    """Run ``ops`` on a fresh manager, skipping the indices in ``skip``;
    returns the manager, its objects, the indices of rejected calls and the
    concatenated returns of ``advance``, checking that each rejected call
    left every deadline and next_fire."""
    tom = TOM()
    objs = [make(subid, d, cyclic=cyclic) for (subid, cyclic), d in zip(TOM_OBJECTS, initial)]
    rejected, fired = [], []
    for i, (op, *args) in enumerate(ops):
        if i in skip:
            continue
        before = [(t.deadline, t.next_fire) for t in objs]
        try:
            if op == "advance":
                fired += tom.advance(*args)
            else:
                getattr(tom, op)(objs[args[0]], *args[1:])
        except ValueError:
            rejected.append(i)
            assert [(t.deadline, t.next_fire) for t in objs] == before
    fired += tom.advance(100)
    return tom, objs, rejected, fired


@settings(max_examples=300, deadline=None)
@given(st.tuples(TOM_DEADLINE, TOM_DEADLINE, st.integers(1, 40)), TOM_OPS)
def test_hypothesis_rejected_calls_change_nothing_and_time_never_runs_back(initial, ops):
    tom, objs, rejected, _ = play_tom_script(initial, ops)
    times = [e.time_ms for e in tom.events]
    assert times == sorted(times)
    assert all(when >= 0 for when, _, _ in tom.fired_log)
    # replaying without the rejected calls fires the same objects in the same order
    clean, clean_objs, again, _ = play_tom_script(initial, ops, skip=set(rejected))
    assert again == []
    assert clean.fired_log == tom.fired_log and list(clean.events) == list(tom.events)
    assert [(t.deadline, t.next_fire) for t in clean_objs] == [(t.deadline, t.next_fire) for t in objs]


TOM_ANY_DEADLINE = st.one_of(TOM_DEADLINE, st.floats(-20, 40))
TOM_ANY_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("insert", "renew", "delete")), TOM_INDEX),
        st.tuples(st.just("set_deadline"), TOM_INDEX, TOM_ANY_DEADLINE),
        st.tuples(st.just("advance"), st.one_of(st.integers(0, 50), st.floats(0, 50))),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(TOM_ANY_DEADLINE, TOM_ANY_DEADLINE, st.floats(1, 40)), TOM_ANY_OPS)
def test_hypothesis_fired_log_and_event_log_carry_the_same_int_times(initial, ops):
    tom, _, _, fired = play_tom_script(initial, ops)
    fires = [(e.time_ms, e.name, e.instance) for e in tom.events.of("fire")]
    # the returns of advance, concatenated, are the whole firing record
    assert fired == tom.fired_log == fires
    assert all(type(when) is int for when, _, _ in tom.fired_log)
    # advance truncates each dt once, where it enters
    assert tom.events.now == sum(int(args[0]) for op, *args in ops if op == "advance") + 100
    assert type(tom.events.now) is int


def test_cancelling_a_stopped_cycle_warns_under_its_name():
    rt = Runtime()
    rt.cycle_register("f")
    rt.cycle_set("f", 0)  # never started
    rt.cycle_set("f", 100)
    rt.cycle_set("f", 0)
    rt.cycle_set("f", 0)  # already cancelled
    assert [(e.name, e.value) for e in rt.events.of("warn")] == [("f", "delete-before-insert")] * 2
    assert not rt.advance(200)


def test_actions_may_reschedule_during_advance():
    tom = TOM()
    follow = make("follow", 5)

    def chain():
        tom.insert(follow)  # due within the same advance window

    tom.insert(make("lead", 10, action=chain))
    fired = tom.advance(20)
    assert fired == [(10, "lead", 1), (15, "follow", 1)]


def test_action_canceling_itself_stops_refiring():
    tom = TOM()
    t = make("t", 10, cyclic=True)

    def stop_after_two():
        if t.instances >= 2:
            tom.delete(t)

    t.action = stop_after_two
    tom.insert(t)
    tom.advance(100)
    assert [f[0] for f in tom.fired_log] == [10, 20]


def test_instance_numbers_count_up():
    tom = TOM()
    tom.insert(make("t", 7, cyclic=True))
    fired = tom.advance(22)
    assert [f[2] for f in fired] == [1, 2, 3]


def test_determinism_same_script_same_log():
    def script():
        tom = TOM()
        a = make("a", 12, cyclic=True)
        b = make("b", 30)
        tom.insert(a)
        tom.insert(b)
        tom.advance(25)
        tom.disable(a)
        tom.advance(25)
        tom.enable(a)
        tom.advance(50)
        return tom.fired_log

    assert script() == script()


def test_fixed_rate_oracle_random_pairs():
    rng = random.Random(20260809)
    for _ in range(30):
        horizon = rng.randint(1, 10**6)
        period = rng.randint(max(1, horizon // 2000), horizon)
        tom = TOM()
        tom.insert(make("pm", period, cyclic=True))
        fired = tom.advance(horizon)
        expected = cyclic_fire_times(period, horizon)
        assert [f[0] for f in fired] == expected
        assert [f[2] for f in fired] == list(range(1, len(expected) + 1))


def test_poll_fires_objects_due_now_without_moving_the_clock():
    tom = TOM()
    hits = []
    tom.insert(make("now", 0, action=lambda: hits.append(tom.events.now)))
    tom.insert(make("later", 5, action=lambda: hits.append(-1)))
    assert tom.poll() == [(0, "now", 1)]
    assert hits == [0] and tom.events.now == 0


def test_fire_events_logged():
    ev = EventLog()
    tom = TOM(events=ev)
    tom.insert(make("t", 10))
    tom.advance(10)
    fires = ev.of("fire")
    assert len(fires) == 1 and fires[0].name == "t" and fires[0].time_ms == 10


KINDS = ("fire", "guard", "warn", "adapt")
LOG_CALLS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(KINDS),
            st.text(max_size=4),
            st.one_of(st.integers(-5, 10**12), st.booleans(), st.floats(-1e6, 1e6), st.just(2.7)),
            st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=6), st.sampled_from([1.5, "a,b", '"q"'])),
        ),
        st.integers(0, 50),  # advance virtual time by this many ms
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(LOG_CALLS)
def test_hypothesis_event_log_reads_as_the_reference_log(calls):
    # the log keeps rows and builds Events when read; the reference keeps
    # one Event per call, as the log did before
    log, ref = EventLog(), ReferenceEventLog()
    for call in calls:
        for events in (log, ref):
            if isinstance(call, int):
                TOM(events=events).advance(call)
            else:
                events.log(*call)
    assert list(log) == list(ref) == log.events == ref.events
    assert len(log) == len(ref)
    for kind in (*KINDS, "actuate"):
        assert log.of(kind) == ref.of(kind)
    assert log.to_csv() == ref.to_csv()
    assert TOM(events=log).fired_log == ref.fired_log


def test_now_is_read_only():
    rt = Runtime()
    with pytest.raises(AttributeError):
        rt.events.now = 50
    assert rt.events.now == 0


CYCLES = ("f", "g")
RUNTIME_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("cycle_set"), st.sampled_from(CYCLES), st.integers(0, 30)),
        st.tuples(st.just("one_shot"), st.one_of(st.integers(0, 40), st.floats(0, 40)),
                  st.one_of(st.none(), st.integers(0, 5))),
        st.tuples(st.just("sensor_update"), st.just("s"), st.integers(0, 5)),
        st.tuples(st.just("ctx_write"), st.just("a"), st.integers(0, 5)),
        st.tuples(st.just("advance"), st.one_of(st.integers(0, 50), st.floats(0, 50))),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(RUNTIME_OPS)
def test_hypothesis_actions_see_their_fire_time_and_time_never_runs_back(ops):
    """Over scripts of facade calls, only ``advance`` moves ``now``: every
    action, body and actuator callback logs an event, which the log stamps
    with its ``now``, event times never decrease, each ``fire`` is followed
    by its action's record at the same time, and ``now`` ends at the sum of
    ``int(dt)``."""
    rt = Runtime()

    def seen(name):
        rt.events.log("seen", name)

    def one_shot_action(name, update):
        def action():
            seen(name)
            if update is not None:
                rt.sensor_update("s", update)  # an action may drive a guard
        return action

    for fn in CYCLES:
        rt.cycle_register(fn)
        rt.bind_function(fn, partial(seen, fn))
    rt.ctx_register("s", "sensor")
    rt.guard_register("on_s", "s > 2")
    rt.bind_function("on_s", partial(seen, "on_s"))
    rt.ctx_register("a", "actuator")
    rt.registry.bind_actuator("a", lambda value: seen("a"))

    for i, (op, *args) in enumerate(ops):
        if op == "one_shot":
            deadline, update = args
            rt.tom.insert(TimeoutObject(f"o{i}", deadline, action=one_shot_action(f"o{i}", update)))
        else:
            getattr(rt, op)(*args)

    events = list(rt.events)
    times = [e.time_ms for e in events]
    assert times == sorted(times)
    for fire, after in zip(events, events[1:] + [None]):
        if fire.kind == "fire":
            assert (after.kind, after.name, after.time_ms) == ("seen", fire.name, fire.time_ms)
    assert rt.events.now == sum(int(args[0]) for op, *args in ops if op == "advance")


SERIES_DEADLINES = st.lists(st.one_of(st.integers(0, 12), st.floats(0, 12)), max_size=6).map(sorted)
SERIES_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("series"), SERIES_DEADLINES),
        st.tuples(st.just("one_shot"), st.integers(0, 12)),
        st.tuples(st.just("cyclic"), st.integers(1, 6)),
        st.tuples(st.just("advance"), st.integers(0, 15)),
        st.tuples(st.just("poll"), st.none()),
    ),
    max_size=20,
)


def play_series_script(ops, as_objects):
    """Run ``ops`` on a fresh manager, arming each series with one
    ``insert_series`` call or, if ``as_objects``, as one ``TimeoutObject``
    per deadline; each action logs a ``seen`` event. Returns the manager and
    the returns of ``advance`` and ``poll``, call by call."""
    tom, returned = TOM(), []
    for i, (op, arg) in enumerate(ops):
        name = f"{op}{i}"
        action = partial(tom.events.log, "seen", name)
        if op == "series" and as_objects:
            for d in arg:
                tom.insert(TimeoutObject(name, d, action=action))
        elif op == "series":
            tom.insert_series(name, arg, action)
        elif op in ("one_shot", "cyclic"):
            tom.insert(TimeoutObject(name, arg, cyclic=op == "cyclic", action=action))
        else:
            returned.append(tom.advance(arg) if op == "advance" else tom.poll())
    returned.append(tom.advance(20))
    return tom, returned


@settings(max_examples=300, deadline=None)
@given(SERIES_OPS)
def test_hypothesis_a_series_fires_as_one_timeout_object_per_deadline(ops):
    series, series_returned = play_series_script(ops, as_objects=False)
    objects, objects_returned = play_series_script(ops, as_objects=True)
    assert series_returned == objects_returned
    assert series.events.to_csv() == objects.events.to_csv()
    assert series._next_seq == objects._next_seq


@pytest.mark.parametrize("deadlines", [[-1], [0, 5, -1], [0, 5, 3], [2.7, 1.9], (d for d in (4, 2))])
def test_a_negative_or_decreasing_series_is_rejected_before_anything_changes(deadlines):
    tom = TOM()
    tom.insert(make("a", 10))
    tom.insert_series("s", [4, 6], None)
    tom.advance(5)
    before = (list(tom._heap), tom._next_seq, tom.events.to_csv())
    with pytest.raises(ValueError, match="non-negative and non-decreasing"):
        tom.insert_series("bad", deadlines, lambda: None)
    assert (list(tom._heap), tom._next_seq, tom.events.to_csv()) == before
    tom.insert_series("empty", [], lambda: None)
    assert (list(tom._heap), tom._next_seq, tom.events.to_csv()) == before
    assert tom.advance(10) == [(6, "s", 1), (10, "a", 1)]
