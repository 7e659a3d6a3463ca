import random
import time

import pytest

from cpm.runtime import (
    TOM,
    EventLog,
    Runtime,
    TimeoutObject,
    VirtualClock,
    WallClock,
    WallDriver,
)

from oracles import cyclic_fire_times


def make(subid, deadline, cyclic=False, enabled=True, action=None):
    return TimeoutObject(id=subid, subid=subid, deadline=deadline, cyclic=cyclic,
                         enabled=enabled, action=action)


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
    tom.insert(make("t", 10, action=lambda: hits.append(tom.clock.now)))
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


def test_advance_requires_virtual_clock():
    tom = TOM(clock=WallClock())
    with pytest.raises(RuntimeError):
        tom.advance(10)


def test_poll_on_wall_clock_fires_due_objects():
    tom = TOM(clock=WallClock())
    hits = []
    t = make("now", 0, action=lambda: hits.append(1))
    tom.insert(t)
    tom.poll()
    assert hits == [1]


def test_fire_events_logged():
    ev = EventLog()
    tom = TOM(clock=VirtualClock(), events=ev)
    tom.insert(make("t", 10))
    tom.advance(10)
    fires = ev.of("fire")
    assert len(fires) == 1 and fires[0].name == "t" and fires[0].time_ms == 10


def test_wall_driver_fires_nothing_while_its_lock_is_held():
    tom = TOM(clock=WallClock())
    tom.insert(make("soon", 1))
    driver = WallDriver(tom, interval_ms=1)
    with driver.lock:
        driver.start()
        time.sleep(0.05)
        assert tom.fired_log == []
    driver.stop()
    tom.poll()
    assert [f[1:] for f in tom.fired_log] == [("soon", 1)]
