import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpm.cexpr import BUILTIN_ARRAY_PROPS
from cpm.runtime import (
    ContextRegistry,
    EventLog,
    ReflectiveArray,
    Runtime,
)

from oracles import ReferenceArray


def registry():
    return ContextRegistry(events=EventLog())


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


def test_a_name_registered_in_turn_as_sensor_and_actuator_is_both():
    reg = registry()
    reg.register("level", "sensor", initial=4)
    reg.register("level", "actuator", initial=9)
    reg.register("level", "sensor", initial=9)
    seen = []
    reg.bind_actuator("level", seen.append)
    reg.actuator_write("level", 7)
    assert (seen, reg.sensor_value("level")) == ([7], 4)  # the first registration seeds the snapshot


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


@pytest.mark.parametrize("helper", ["_c_div", "_c_mod"])
def test_helper_names_cannot_be_registered(helper):
    # a sensor or constant named like a helper would shadow it in every
    # guard: with a sensor ``_c_mod``, ``s % 3 == 1`` called an int
    reg = registry()
    with pytest.raises(ValueError, match="reserved"):
        reg.register(helper, "sensor", initial=0)
    with pytest.raises(ValueError, match="reserved"):
        reg.register_constant(helper, 0)
    assert reg.sensors == {}
    reg.register("s", "sensor", initial=0)
    with pytest.raises(ValueError, match="reserved"):
        reg.register_guard(lambda: None, f"s % 3 == 1 && {helper} == 0")
    fired = []
    reg.register_guard(lambda: fired.append(1), "s % 3 == 1 && s / 2 == 2", name="g")
    assert reg.sensor_update("s", 4) == ["g"] and fired == [1]
    assert reg.events.of("warn") == []


def test_guard_division_by_zero_reads_false_and_warns():
    reg = registry()
    reg.register("s", "sensor", initial=1)
    fired = []
    reg.register_guard(lambda: fired.append(1), "10 / s > 1", name="g")
    assert reg.sensor_update("s", 0) == [] and fired == []
    assert reg.events.of("warn")[-1].value.startswith("guard-eval-error")
    assert reg.sensor_update("s", 2) == ["g"]


def test_a_failing_guard_is_evaluated_once_per_update_and_reads_false():
    reg = registry()
    reg.register("s", "sensor", initial=0)
    calls = []

    def probe(value):
        calls.append(value)
        if value < 0:
            raise ValueError("negative")
        return value

    reg.register_constant("probe", probe)
    fired = []
    reg.register_guard(lambda: fired.append(reg.sensors["s"]), "probe(s) > 0", name="g")
    warns = 0
    for value, fires in ((1, ["g"]), (-1, []), (2, ["g"]), (3, []), (-4, []), (-5, []), (6, ["g"])):
        before = len(calls)
        assert reg.sensor_update("s", value) == fires
        assert calls[before:] == [value]
        warns += value < 0
        assert len(reg.events.of("warn")) == warns
    assert reg.events.of("warn")[-1].value == "guard-eval-error:negative"
    assert fired == [1, 2, 6]
    assert reg.guards[0].fires == 3


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


def test_new_key_entry_created_on_first_beacon():
    arr = ReflectiveArray("lb")
    arr.report_beacon("aa:bb:cc:dd:ee:ff")
    e = arr.entries["aa:bb:cc:dd:ee:ff"]
    assert e.beacons_cur_period == 1 and arr.get("aa:bb:cc:dd:ee:ff", "stale") == 0


def test_rollover_moves_counts_and_marks_stale():
    arr = ReflectiveArray("lb")
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
    arr = ReflectiveArray("lb")
    arr.report_beacon("m1")
    arr.rollover()
    arr.rollover()
    assert arr.get("m1", "stale")
    arr.report_beacon("m1")
    assert not arr.get("m1", "stale") and arr.get("m1", "silent_periods") == 0


def test_staleness_invariant_stale_iff_silent_periods():
    arr = ReflectiveArray("lb")
    arr.report_beacon("m1")
    for step in range(6):
        if step % 2 == 0:
            arr.report_beacon("m1")
        arr.rollover()
        stale = arr.get("m1", "stale")
        assert type(stale) is int and stale == (arr.get("m1", "silent_periods") >= 1)


_ARRAY_OPS = st.one_of(
    st.tuples(st.just("report_beacon"), st.sampled_from("abcd")),
    st.tuples(st.just("report_beacon"), st.sampled_from("abcd"), st.sampled_from(("rate", "stale")), st.integers(-3, 3)),
    st.tuples(st.just("rollover")),
    st.tuples(st.just("set_prop"), st.sampled_from("abcd"), st.sampled_from(("rate", "stale")), st.integers(-3, 3)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ARRAY_OPS, max_size=40))
def test_hypothesis_array_agrees_with_the_stored_staleness_reference(ops):
    arr, ref = ReflectiveArray("lb"), ReferenceArray()
    for op, *args in ops:
        getattr(arr, op)(*args)
        getattr(ref, op)(*args)
        for key in ref.keys():
            for prop in BUILTIN_ARRAY_PROPS:
                got = arr.get(key, prop)
                assert type(got) is int and got == int(ref.get(key, prop)), (key, prop)
            if "rate" in ref.entries[key]["props"]:
                assert arr.get(key, "rate") == ref.get(key, "rate")
            else:
                with pytest.raises(KeyError):
                    arr.get(key, "rate")
        assert arr.keys() == ref.keys()
        cursors = range(-1, len(ref.keys()) + 2)
        assert [arr.anext(c) for c in cursors] == [ref.anext(c) for c in cursors]


def test_keys_never_removed_and_anext_in_insertion_order():
    arr = ReflectiveArray("lb")
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
    arr = ReflectiveArray("lb")
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
    arr = ReflectiveArray("linkrates")
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
    rt.arr_register("linkbeacons")
    rt.arr_report_beacon("linkbeacons", "m1")
    rt.arr_rollover("linkbeacons")
    assert rt.arr_get("linkbeacons", "m1", "beacons") == 1
    assert rt.anext("linkbeacons", 0) == "m1"
    rt.red_write("watchdog", -2)
    assert rt.red_read("watchdog") == -2
    assert rt.ctx_read("watchdog") == -1


def test_guard_body_that_clears_its_own_sensor_fires_on_every_edge():
    rt = Runtime()
    rt.ctx_register("s", "sensor")
    rt.bind_function("g", lambda: rt.sensor_update("s", 0))
    rt.guard_register("g", "s > 0")
    assert [rt.sensor_update("s", 1) for _ in range(3)] == [["g"]] * 3
    assert rt.ctx_read("s") == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda rt: rt.red_read("nope"), "no redundant storage registered for 'nope'"),
        (lambda rt: rt.red_write("nope", 1), "no redundant storage registered for 'nope'"),
        (lambda rt: rt.red_inject_fault("nope", 0, 1), "no redundant storage registered for 'nope'"),
        (lambda rt: rt.arr_get("nope", "m1", "beacons"), "unknown reflective array 'nope'"),
        (lambda rt: rt.arr_report_beacon("nope", "m1"), "unknown reflective array 'nope'"),
        (lambda rt: rt.arr_rollover("nope"), "unknown reflective array 'nope'"),
        (lambda rt: rt.anext("nope", 0), "unknown reflective array 'nope'"),
        (lambda rt: rt.arr_get("linkbeacons", "ghost", "beacons"), "no entry 'ghost' in reflective array 'linkbeacons'"),
        (lambda rt: rt.ctx_read("s"), "unknown sensor 's'"),
        (lambda rt: rt.sensor_update("s", 1), "unknown sensor 's'"),
        (lambda rt: rt.ctx_write("a", 1), "unknown actuator 'a'"),
        (lambda rt: rt.registry.bind_actuator("a", print), "unknown actuator 'a'"),
        (lambda rt: (rt.arr_report_beacon("linkbeacons", "k"), rt.arr_get("linkbeacons", "k", "p")),
         "no property 'p' on entry 'k' of 'linkbeacons'"),
    ],
)
def test_runtime_facade_lookup_errors(call, message):
    rt = Runtime()
    rt.red_storage("watchdog", 3)
    rt.arr_register("linkbeacons")
    with pytest.raises(KeyError) as info:
        call(rt)
    assert info.value.args == (message,)


def test_event_csv_export_shape():
    rt = Runtime()
    rt.ctx_register("volume", "actuator")
    rt.registry.bind_actuator("volume", lambda v: None)
    rt.ctx_write("volume", 3)
    csv_text = rt.events.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "time_ms,kind,name,instance,value"
    assert lines[1] == "0,actuate,volume,1,3"
