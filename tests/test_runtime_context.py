import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpm.runtime import (
    DEFAULT_OBSERVATION_PERIOD_MS,
    ContextRegistry,
    EventLog,
    ReflectiveArray,
    Runtime,
    VirtualClock,
)


def registry():
    return ContextRegistry(clock=VirtualClock(), events=EventLog())


def test_sensor_snapshot_read():
    reg = registry()
    reg.register("cpu", "sensor", initial=10)
    assert reg.sensor_value("cpu") == 10
    reg.sensor_update("cpu", 55)
    assert reg.sensor_value("cpu") == 55


def test_unknown_sensor_errors():
    reg = registry()
    with pytest.raises(KeyError):
        reg.sensor_update("ghost", 1)
    with pytest.raises(KeyError):
        reg.sensor_value("ghost")


def test_actuator_callback_invoked_with_value():
    reg = registry()
    reg.register("volume", "actuator")
    seen = []
    reg.bind_actuator("volume", seen.append)
    reg.actuator_write("volume", 7)
    assert seen == [7]
    assert len(reg.events.of("actuate")) == 1


def test_actuator_without_callback_warns_and_noops():
    reg = registry()
    reg.register("volume", "actuator")
    reg.actuator_write("volume", 7)  # no exception
    assert len(reg.events.of("warn")) == 1
    assert not reg.events.of("actuate")


def test_unknown_actuator_errors():
    reg = registry()
    reg.register("cpu", "sensor")
    with pytest.raises(KeyError):
        reg.actuator_write("cpu", 1)


def test_actuator_write_does_not_touch_sensor_snapshot():
    reg = registry()
    reg.register("watchdog", "both", initial=-1)
    reg.bind_actuator("watchdog", lambda v: None)
    reg.actuator_write("watchdog", 123)
    assert reg.sensor_value("watchdog") == -1  # callback owns the state change


def test_guard_fires_on_rising_edge_only():
    reg = registry()
    reg.register("watchdog", "sensor", initial=-1)
    reg.register_constant("WD_FIRED", -3)
    hits = []
    reg.register_guard(lambda: hits.append(reg.sensor_value("watchdog")), "watchdog == WD_FIRED")
    assert reg.sensor_update("watchdog", -3) != []
    assert reg.sensor_update("watchdog", -3) == []  # still true: no edge
    assert reg.sensor_update("watchdog", -2) == []  # falling edge: no fire
    assert reg.sensor_update("watchdog", -3) != []  # true again: fires again
    assert hits == [-3, -3]


def test_guard_true_for_k_updates_fires_once():
    reg = registry()
    reg.register("level", "sensor", initial=0)
    fires = []
    reg.register_guard(lambda: fires.append(1), "level > 10")
    for _ in range(5):
        reg.sensor_update("level", 42)
    assert fires == [1]


def test_guard_with_c_operators():
    reg = registry()
    reg.register("a", "sensor", initial=0)
    reg.register("b", "sensor", initial=0)
    fired = []
    reg.register_guard(lambda: fired.append(1), "a > 1 && (b == 3 || !a)")
    reg.sensor_update("a", 2)
    assert not fired
    reg.sensor_update("b", 3)
    assert fired == [1]


def test_guard_only_reacts_to_referenced_sensors():
    reg = registry()
    reg.register("a", "sensor", initial=0)
    reg.register("b", "sensor", initial=0)
    fired = []
    reg.register_guard(lambda: fired.append(1), "a == 1", name="ga")
    assert reg.sensor_update("b", 1) == []
    assert reg.sensor_update("a", 1) == ["ga"]


def test_guard_without_sensor_reference_rejected():
    reg = registry()
    with pytest.raises(ValueError):
        reg.register_guard(lambda: None, "1 == 1")


# guards follow C semantics where Python's differ
def test_guard_divides_like_c():
    reg = registry()
    reg.register("s", "sensor", initial=0)
    fired = []
    reg.register_guard(lambda: fired.append(1), "s/2 == 1")
    reg.sensor_update("s", 3)
    assert fired == [1]


def test_guard_string_literal_is_not_rewritten():
    reg = registry()
    reg.register("t", "sensor", initial="")
    fired = []
    reg.register_guard(lambda: fired.append(1), 't == "&&"')
    reg.sensor_update("t", "&&")
    assert fired == [1]


def test_guard_number_is_not_a_sensor_reference():
    reg = registry()
    reg.register("x1F", "sensor", initial=0)
    with pytest.raises(ValueError, match="references no registered sensor"):
        reg.register_guard(lambda: None, "0x1F == 31")


def test_malformed_guard_raises_value_error():
    reg = registry()
    reg.register("s", "sensor", initial=0)
    with pytest.raises(ValueError, match="not a C expression"):
        reg.register_guard(lambda: None, "s >")
    assert reg.guards == []


def test_guard_division_by_zero_reads_false_and_warns():
    reg = registry()
    reg.register("s", "sensor", initial=1)
    fired = []
    reg.register_guard(lambda: fired.append(1), "10 / s > 1", name="g")
    assert reg.sensor_update("s", 0) == [] and fired == []
    assert reg.events.of("warn")[-1].value.startswith("guard-eval-error")
    assert reg.sensor_update("s", 2) == ["g"]


def test_guards_run_in_registration_order_per_sensor():
    reg = registry()
    for name in ("a", "b"):
        reg.register(name, "sensor", initial=0)
    for name, expr in (("g1", "a > 0"), ("g2", "b > 0"), ("g3", "a + b > 0"), ("g4", "a > 0 && b == 0")):
        reg.register_guard(None, expr, name=name)
    assert reg.sensor_update("a", 1) == ["g1", "g3", "g4"]
    assert reg.sensor_update("b", 1) == ["g2"]


def test_guard_initially_true_does_not_fire_at_registration():
    reg = registry()
    reg.register("a", "sensor", initial=5)
    fired = []
    reg.register_guard(lambda: fired.append(1), "a == 5")
    assert not fired
    reg.sensor_update("a", 5)  # still true, still no edge
    assert not fired
    reg.sensor_update("a", 0)
    reg.sensor_update("a", 5)
    assert fired == [1]


def test_reflective_array_default_observation_period():
    arr = ReflectiveArray("linkbeacons")
    assert arr.observation_period_ms == DEFAULT_OBSERVATION_PERIOD_MS == 60_000


def test_new_key_entry_created_on_first_beacon():
    arr = ReflectiveArray("lb", 1000)
    arr.report_beacon("aa:bb:cc:dd:ee:ff", at_time=5)
    e = arr.entries["aa:bb:cc:dd:ee:ff"]
    assert e.beacons_cur_period == 1 and not e.stale


def test_rollover_moves_counts_and_marks_stale():
    arr = ReflectiveArray("lb", 1000)
    arr.report_beacon("m1")
    arr.report_beacon("m1")
    arr.report_beacon("m2")
    arr.rollover()
    assert arr.get("m1", "beacons") == 2
    assert arr.get("m2", "beacons") == 1
    assert not arr.get("m1", "stale")
    arr.rollover()  # nothing heard this period
    assert arr.get("m1", "stale") and arr.get("m1", "silent_periods") == 1
    assert arr.get("m1", "beacons") == 0


def test_beacon_clears_staleness():
    arr = ReflectiveArray("lb", 1000)
    arr.report_beacon("m1")
    arr.rollover()
    arr.rollover()
    assert arr.get("m1", "stale")
    arr.report_beacon("m1")
    assert not arr.get("m1", "stale") and arr.get("m1", "silent_periods") == 0


def test_staleness_invariant_stale_iff_silent_periods():
    arr = ReflectiveArray("lb", 1000)
    arr.report_beacon("m1")
    for step in range(6):
        if step % 2 == 0:
            arr.report_beacon("m1")
        arr.rollover()
        e = arr.entries["m1"]
        assert e.stale == (e.silent_periods >= 1)


def test_keys_never_removed_and_anext_in_insertion_order():
    arr = ReflectiveArray("lb", 1000)
    for mac in ("m3", "m1", "m2"):
        arr.report_beacon(mac)
    for _ in range(5):
        arr.rollover()
    walked = []
    cursor = 0
    while (key := arr.anext(cursor)) is not None:
        walked.append(key)
        cursor += 1
    assert walked == ["m3", "m1", "m2"]
    assert arr.anext(99) is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("abcdefgh"), max_size=10),
    st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=3), max_size=12),
)
def test_hypothesis_anext_walks_insertion_order_including_keys_added_mid_walk(before, during):
    arr = ReflectiveArray("lb", 1000)
    for key in before:
        arr.report_beacon(key)
    walked = []
    cursor = 0
    steps = iter(during)
    while (key := arr.anext(cursor)) is not None:
        walked.append(key)
        cursor += 1
        for new in next(steps, ()):
            arr.set_prop(new, "rate", cursor)
    inserted = list(dict.fromkeys(before + [k for step in during[:cursor] for k in step]))
    assert walked == inserted == arr.keys() == list(arr.entries)
    snapshot = arr.keys()
    snapshot.append("zz")
    snapshot.reverse()
    assert arr.keys() == inserted and arr.anext(len(inserted)) is None


def test_user_props_via_set_prop():
    arr = ReflectiveArray("linkrates", 1000)
    arr.set_prop("m1", "rate", 54.0)
    assert arr.get("m1", "rate") == 54.0
    with pytest.raises(KeyError):
        arr.get("m1", "bogus")
    with pytest.raises(KeyError):
        arr.get("ghost", "rate")


def test_runtime_facade_wires_shared_clock_and_events():
    rt = Runtime()
    rt.ctx_register("watchdog", "both", initial=-1)
    rt.red_storage("watchdog", 3, initial=-1)
    rt.arr_register("linkbeacons", 1000)
    rt.arr_report_beacon("linkbeacons", "m1")
    rt.arr_rollover("linkbeacons")
    assert rt.arr_get("linkbeacons", "m1", "beacons") == 1
    assert rt.anext("linkbeacons", 0) == "m1"
    rt.red_write("watchdog", -2)
    assert rt.red_read("watchdog") == -2
    assert rt.ctx_read("watchdog") == -1


def test_event_csv_export_shape():
    rt = Runtime()
    rt.ctx_register("volume", "actuator")
    rt.registry.bind_actuator("volume", lambda v: None)
    rt.ctx_write("volume", 3)
    csv_text = rt.events.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "time_ms,kind,name,instance,value"
    assert lines[1] == "0,actuate,volume,1,3"
