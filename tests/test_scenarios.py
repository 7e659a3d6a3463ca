import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpm.runtime import WD_ACTIVE, WD_END, WD_FIRED, WD_STARTED
from cpm.scenarios import (
    BeaconTrace,
    WdtScenarioParams,
    load_switchboard_params,
    load_wdt_params,
    run_switchboard,
    run_wdt,
)

from oracles import switchboard_oracle, wdt_trace_oracle


def heartbeat_every(step, upto):
    return tuple(range(step, upto, step))


def test_wdt_steady_heartbeats_never_fires():
    params = WdtScenarioParams(
        wdt_period=100, horizon=500, heartbeat_schedule=heartbeat_every(50, 500)
    )
    result = run_wdt(params)
    assert result.trace == [
        (0, WD_STARTED), (0, WD_ACTIVE),
        (100, 1), (200, 2), (300, 3), (400, 4),
        (500, WD_END),
    ]
    assert all(v != WD_FIRED for _, v in result.trace)


def test_wdt_no_heartbeats_fires_after_one_period():
    result = run_wdt(WdtScenarioParams(wdt_period=100, horizon=1000))
    assert (100, WD_FIRED) in result.trace
    fired_times = [t for t, v in result.trace if v == WD_FIRED]
    assert fired_times == [100]


def test_wdt_restart_write_reactivates():
    params = WdtScenarioParams(wdt_period=100, horizon=400, restart_schedule=((150, 1),))
    result = run_wdt(params)
    assert result.trace == [
        (0, WD_STARTED), (0, WD_ACTIVE),
        (100, WD_FIRED), (150, WD_ACTIVE), (250, WD_FIRED),
        (400, WD_END),
    ]


def test_wdt_write_while_active_is_logged_noop():
    params = WdtScenarioParams(
        wdt_period=100, horizon=300,
        heartbeat_schedule=heartbeat_every(50, 300),
        restart_schedule=((120, 1),),
    )
    result = run_wdt(params)
    assert result.ignored_writes == [(120, 1)]
    assert (150, WD_ACTIVE) not in result.trace


def test_wdt_matches_discrete_event_oracle():
    cases = [
        dict(period=100, horizon=1000, heartbeats=heartbeat_every(50, 1000), restarts=()),
        dict(period=100, horizon=1000, heartbeats=(), restarts=()),
        dict(period=100, horizon=1000, heartbeats=(), restarts=((150, 1),)),
        dict(period=70, horizon=600, heartbeats=(60, 130, 350, 420, 490), restarts=((300, 1),)),
    ]
    for case in cases:
        params = WdtScenarioParams(
            wdt_period=case["period"], horizon=case["horizon"],
            heartbeat_schedule=case["heartbeats"], restart_schedule=case["restarts"],
        )
        expected = wdt_trace_oracle(case["period"], case["horizon"], case["heartbeats"], case["restarts"])
        assert run_wdt(params).trace == expected, case


def test_wdt_fault_transparency():
    base = dict(wdt_period=100, horizon=1000, heartbeat_schedule=heartbeat_every(50, 1000))
    clean = run_wdt(WdtScenarioParams(**base)).trace
    for schedule in (
        ((10, 0, 99),),
        ((150, 1, WD_FIRED),),
        ((250, 2, 0), (350, 0, 7), (450, 1, -3)),
    ):
        faulty = run_wdt(WdtScenarioParams(**base, fault_schedule=schedule)).trace
        assert faulty == clean, schedule


def test_wdt_one_shots_keep_their_schedule_order_within_a_ms():
    # both writes land at 150: the first restarts the fired watchdog, the second is ignored
    result = run_wdt(WdtScenarioParams(
        wdt_period=100, horizon=400,
        restart_schedule=((300, 8), (150.7, 5), (150.2, 6)), fault_schedule=((90.9, 0, 7), (20, 0, 3)),
    ))
    assert result.ignored_writes == [(150, 6)]
    assert [(t, name) for t, name, _ in result.runtime.tom.fired_log] == [
        (20, "fault"), (90, "fault"), (100, "wdt_tick"), (150, "restart_write"), (150, "restart_write"),
        (250, "wdt_tick"), (300, "restart_write"), (400, "wdt_tick"),
    ]


def test_wdt_guard_fires_on_watchdog_firing():
    result = run_wdt(WdtScenarioParams(wdt_period=100, horizon=300))
    guard_events = result.runtime.events.of("guard")
    assert [e.time_ms for e in guard_events] == [100]


def test_wdt_heartbeat_on_boundary_counts_for_ending_period():
    params = WdtScenarioParams(wdt_period=100, horizon=200, heartbeat_schedule=(100, 200))
    result = run_wdt(params)
    assert result.trace == [(0, WD_STARTED), (0, WD_ACTIVE), (100, 1), (200, WD_END)]


def test_wdt_restart_write_at_horizon_is_not_evaluated():
    fired = run_wdt(WdtScenarioParams(wdt_period=100, horizon=200, restart_schedule=((200, 1),)))
    assert fired.trace == [(0, WD_STARTED), (0, WD_ACTIVE), (100, WD_FIRED), (200, WD_END)]
    active = run_wdt(WdtScenarioParams(
        wdt_period=100, horizon=200, heartbeat_schedule=(50, 150), restart_schedule=((200, 1),)
    ))
    assert active.ignored_writes == []
    assert not active.runtime.events.of("warn")


def test_wdt_determinism_byte_identical_csv():
    params = WdtScenarioParams(
        wdt_period=100, horizon=1000,
        heartbeat_schedule=heartbeat_every(50, 700),
        fault_schedule=((75, 0, 9),),
        restart_schedule=((800, 1),),
    )
    assert run_wdt(params).to_csv() == run_wdt(params).to_csv()


def test_wdt_validation_failures():
    with pytest.raises(ValueError):
        WdtScenarioParams(wdt_period=0, horizon=100).validate()
    with pytest.raises(ValueError):
        WdtScenarioParams(wdt_period=10, horizon=100, replicas=4).validate()
    with pytest.raises(ValueError):
        WdtScenarioParams(wdt_period=10, horizon=100, heartbeat_schedule=(150,)).validate()
    with pytest.raises(ValueError):
        WdtScenarioParams(wdt_period=10, horizon=100, fault_schedule=((5, 9, 1),)).validate()


def three_peer_rows(periods=5, period_ms=1000, silent=("aa:02", 3)):
    rows = []
    for p in range(periods):
        base = p * period_ms
        for offset, mac, rate in ((100, "aa:01", 50.0), (200, "aa:02", 20.0), (300, "aa:03", 30.0)):
            if silent and mac == silent[0] and p == silent[1] - 1:
                continue
            rows.append((base + offset, mac, rate))
    return rows


def test_switchboard_steady_peer_reports_every_cycle():
    rows = [(i * 1000 + 500, "aa:01", 50.0) for i in range(3)]
    res = run_switchboard(BeaconTrace.from_rows(rows), observation_period=1000, horizon=3000)
    assert [(r.cycle, r.mac, r.metric, r.stale) for r in res.records] == [
        (1, "aa:01", 50.0, False),
        (2, "aa:01", 50.0, False),
        (3, "aa:01", 50.0, False),
    ]


def test_switchboard_silent_peer_goes_stale_then_recovers():
    rows = three_peer_rows()
    res = run_switchboard(BeaconTrace.from_rows(rows), observation_period=1000, horizon=5000)
    peer2 = [(r.cycle, r.stale) for r in res.records if r.mac == "aa:02"]
    assert peer2 == [(1, False), (2, False), (3, True), (4, False), (5, False)]


def test_switchboard_matches_hand_trace_oracle():
    rows = three_peer_rows()
    res = run_switchboard(BeaconTrace.from_rows(rows), observation_period=1000, horizon=5000)
    got = [(r.cycle, r.mac, "stale" if r.stale else r.metric) for r in res.records]
    assert got == switchboard_oracle(rows, 1000, 5000)


def test_switchboard_empty_trace_emits_nothing():
    res = run_switchboard(BeaconTrace(), observation_period=1000, horizon=3000)
    assert res.records == []


def test_switchboard_csv_export():
    rows = [(500, "aa:01", 50.0)]
    res = run_switchboard(BeaconTrace.from_rows(rows), observation_period=1000, horizon=1000)
    assert res.to_csv() == "cycle,mac,metric_or_stale\n1,aa:01,50.0\n"


def test_switchboard_rejects_decreasing_times():
    with pytest.raises(ValueError):
        BeaconTrace.from_rows([(100, "a", 1.0), (50, "b", 1.0)]).validate()


@pytest.mark.parametrize("times, message", [
    ((-5, 0), "beacon at -5 before 0"),
    ((0, 7, 3), "beacon at 3 before 7"),
    ((0, 21), "beacon at 21 beyond horizon 20"),
    ((), None),
], ids=["negative", "decrease", "past-horizon", "empty"])
def test_a_beacon_trace_names_its_first_bad_time(times, message):
    trace = BeaconTrace.from_rows((t, "a", 1.0) for t in times)
    if message is None:
        assert run_switchboard(trace, 10, 20).records == []
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_switchboard(trace, 10, 20)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 12), max_size=8), st.none() | st.integers(0, 12))
def test_hypothesis_a_trace_is_refused_at_its_first_offender(times, horizon):
    last, first = 0, None
    for t in times:
        if t < last:
            first = f"beacon at {t} before {last}"
        elif horizon is not None and t > horizon:
            first = f"beacon at {t} beyond horizon {horizon}"
        if first:
            break
        last = t
    trace = BeaconTrace(tuple(times), ("a",) * len(times), (1.0,) * len(times))
    if first is None:
        trace.validate(horizon)
    else:
        with pytest.raises(ValueError, match=f"^{first}$"):
            trace.validate(horizon)



def switchboard_csv(period):
    rows = [(500, "aa:01", 50.0), (1500, "aa:01", 50.0)]
    return run_switchboard(BeaconTrace.from_rows(rows), observation_period=period, horizon=2000).to_csv()


def wdt_trace(period):
    return run_wdt(WdtScenarioParams(wdt_period=period, horizon=400, heartbeat_schedule=(100,))).trace


# TOM arms a period as int ms, so a scenario does its cycle and window
# arithmetic with that int and refuses a period that truncates to 0
@pytest.mark.parametrize("run, period, expected", [
    (switchboard_csv, 1000.5, "cycle,mac,metric_or_stale\n1,aa:01,50.0\n2,aa:01,50.0\n"),
    (switchboard_csv, 0.5, ValueError),
    (wdt_trace, 100.5, [(0, WD_STARTED), (0, WD_ACTIVE), (100, 1), (200, WD_FIRED), (400, WD_END)]),
    (wdt_trace, 0.5, ValueError),
], ids=["switchboard-1000.5", "switchboard-0.5", "wdt-100.5", "wdt-0.5"])
def test_a_fractional_period_is_truncated_once_at_entry(run, period, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            run(period)
    else:
        assert run(period) == run(int(period)) == expected

def test_param_files_round_trip(tmp_path):
    wdt_ini = tmp_path / "wdt.ini"
    wdt_ini.write_text(
        "[wdt]\nperiod_ms = 100\nhorizon_ms = 1000\nreplicas = 5\n"
        "heartbeats = 50, 150\nfaults = 120:0:99\nrestarts = 300:1\n"
    )
    params = load_wdt_params(wdt_ini)
    assert params.wdt_period == 100 and params.replicas == 5
    assert params.heartbeat_schedule == (50, 150)
    assert params.fault_schedule == ((120, 0, 99),)
    assert params.restart_schedule == ((300, 1),)
    run_wdt(params)  # loadable params must be runnable

    sb_ini = tmp_path / "sb.ini"
    sb_ini.write_text(
        "[switchboard]\nobservation_period_ms = 1000\nhorizon_ms = 2000\n"
        "beacons = 100 aa:bb:cc:dd:ee:01 54.0; 1100 aa:bb:cc:dd:ee:01 48.0\n"
    )
    trace, period, horizon = load_switchboard_params(sb_ini)
    assert period == 1000 and horizon == 2000
    assert trace.macs == ("aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:01")
    run_switchboard(trace, period, horizon)


@pytest.mark.parametrize("load, text, message", [
    (load_wdt_params, "[wdt]\nhorizon_ms = 1000\n", "[wdt] is missing period_ms"),
    (load_wdt_params, "[wdt]\nperiod_ms = 100\n", "[wdt] is missing horizon_ms"),
    (load_switchboard_params, "[switchboard]\nhorizon_ms = 2000\nbeacons = 100 aa:01 5.0\n",
     "[switchboard] is missing observation_period_ms"),
    (load_switchboard_params, "[switchboard]\nobservation_period_ms = 1000\nbeacons = 100 aa:01 5.0; 200 aa:01\n",
     "beacons: expected 'time mac rate', got '200 aa:01'"),
    (load_switchboard_params, "[switchboard]\nobservation_period_ms = 1000\nbeacons = 100 aa:01 5.0 7\n",
     "beacons: expected 'time mac rate', got '100 aa:01 5.0 7'"),
    (load_wdt_params, "[wdt]\nperiod_ms = 100\nhorizon_ms = 1000\nfaults = 120:0:99; 300:1\n",
     "faults: expected 'time:replica_index:corrupt_value', got '300:1'"),
    (load_switchboard_params, "[switchboard]\nobservation_period_ms = 1000\nbeacons = 1x0 aa:01 5.0\n",
     "beacons: expected int, got '1x0'"),
    (load_switchboard_params, "[switchboard]\nobservation_period_ms = 1000\nbeacons = 100 aa:01 fast\n",
     "beacons: expected float, got 'fast'"),
    (load_wdt_params, "[wdt]\nperiod_ms =\nhorizon_ms = 1000\n", "period_ms: expected int, got ''"),
    (load_wdt_params, "[wdt]\nperiod_ms = 100\nhorizon_ms = 1000\nheartbeats = 50, x\n",
     "heartbeats: expected int, got 'x'"),
    (load_wdt_params, "[wdt]\nperiod_ms = 100\nhorizon_ms = 1000\nrestarts = 150:on\n",
     "restarts: expected int, got 'on'"),
    (load_switchboard_params, "[switchboard]\nobservation_period_ms = 1000\nhorizon_ms = 2s\n",
     "horizon_ms: expected int, got '2s'"),
], ids=["wdt-period", "wdt-horizon", "switchboard-period", "beacon-two-fields", "beacon-four-fields", "fault-two-fields",
        "beacon-time", "beacon-rate", "wdt-period-empty", "heartbeat", "restart-value", "switchboard-horizon"])
def test_a_param_file_missing_a_field_fails_to_load_naming_it(tmp_path, load, text, message):
    ini = tmp_path / "params.ini"
    ini.write_text(text)
    with pytest.raises(ValueError) as info:
        load(ini)
    assert str(info.value) == f"{ini}: {message}"


def test_a_switchboard_file_without_a_horizon_runs_to_its_last_beacon(tmp_path):
    ini = tmp_path / "sb.ini"
    ini.write_text("[switchboard]\nobservation_period_ms = 1000\nbeacons = 100 aa:01 5.0; 1500 aa:01 5.0\n")
    trace, period, horizon = load_switchboard_params(ini)
    assert horizon is None
    assert run_switchboard(trace, period, horizon).to_csv() == run_switchboard(trace, period, 1500).to_csv()


@st.composite
def wdt_cases(draw):
    """Small watchdog runs: heartbeats unsorted, duplicated and on period
    boundaries, with and without restart writes."""
    period = draw(st.integers(min_value=1, max_value=40))
    horizon = period * draw(st.integers(min_value=0, max_value=25)) + draw(st.integers(0, period - 1))
    any_time = st.integers(min_value=0, max_value=horizon)
    on_boundary = st.integers(min_value=0, max_value=horizon // period).map(lambda k: k * period)
    beats = draw(st.lists(st.one_of(any_time, on_boundary), max_size=40))
    beats += draw(st.lists(st.sampled_from(beats), max_size=5)) if beats else []
    beats = draw(st.permutations(beats))
    restarts = draw(st.lists(st.tuples(st.one_of(any_time, on_boundary), st.integers(0, 3)), max_size=4))
    return period, horizon, tuple(beats), tuple(restarts)


@settings(max_examples=200, deadline=None)
@given(wdt_cases())
def test_hypothesis_wdt_matches_oracle_on_generated_schedules(case):
    period, horizon, beats, restarts = case
    params = WdtScenarioParams(
        wdt_period=period, horizon=horizon, heartbeat_schedule=beats, restart_schedule=restarts,
    )
    assert run_wdt(params).trace == wdt_trace_oracle(period, horizon, beats, restarts)


@st.composite
def switchboard_cases(draw):
    """Small switchboard runs: one to four peers whose rates change between
    beacons, beacons at 0, on cycle boundaries, at the horizon and at
    repeated times, and the empty trace."""
    period = draw(st.integers(min_value=1, max_value=40))
    horizon = period * draw(st.integers(min_value=0, max_value=12)) + draw(st.integers(0, period - 1))
    on_boundary = st.integers(min_value=0, max_value=horizon // period).map(lambda k: k * period)
    time = st.one_of(st.integers(min_value=0, max_value=horizon), on_boundary, st.sampled_from((0, horizon)))
    macs = [f"aa:{i:02x}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    rate = st.integers(min_value=1, max_value=100).map(float)
    rows = draw(st.lists(st.tuples(time, st.sampled_from(macs), rate), max_size=40))
    if rows:  # more beacons at times already taken, from any peer
        again = st.sampled_from([t for t, _, _ in rows])
        rows += draw(st.lists(st.tuples(again, st.sampled_from(macs), rate), max_size=6))
    rows.sort(key=lambda r: r[0])  # stable: ties keep their drawn order
    return period, horizon, rows


@settings(max_examples=200, deadline=None)
@given(switchboard_cases())
def test_hypothesis_switchboard_matches_oracle_on_generated_traces(case):
    period, horizon, rows = case
    res = run_switchboard(BeaconTrace.from_rows(rows), observation_period=period, horizon=horizon)
    got = [(r.cycle, r.mac, "stale" if r.stale else r.metric) for r in res.records]
    assert got == switchboard_oracle(rows, period, horizon)
