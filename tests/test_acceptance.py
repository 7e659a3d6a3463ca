"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and holding its time budget. Run with ``pytest -v -s`` to see
the per-criterion lines."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from cpm.ext_cyclic import CyclicPass
from cpm.interp import AbiInterpreter
from cpm.pipeline import PassConfig, compose, preamble_line, run
from cpm.runtime import (
    TOM,
    EventLog,
    NoMajorityError,
    ReplicaSet,
    Runtime,
    TimeoutObject,
    WD_ACTIVE,
    WD_END,
    WD_FIRED,
    WD_STARTED,
)
from cpm.scenarios import BeaconTrace, WdtScenarioParams, run_switchboard, run_wdt
from cpm.srcmodel import load_unit, render

from c_corpus import CORPUS


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.3f}s, budget {budget_s}s"
    print(f"[acceptance] criterion {num} ({name}): PASS in {elapsed:.3f}s (budget {budget_s}s)")


def test_c1_identifier_reconstruction():
    with criterion(1, "identifier reconstruction", 1.0):
        pipeline = compose(["redundancy@1.1", "refractive@0.5", "array@0.5"])
        expected = "cpm://redundancy/1.1;cpm://refractive/0.5;cpm://array/0.5"
        _, report = run(pipeline, load_unit("int x;\n"))
        assert report.extensions_pipeline == expected


TABLE2_SOURCE = """cyclic_t int PeriodicMethod1(TOM*);
cyclic_t int PeriodicMethod2(TOM*);
PeriodicMethod1.Cycle = DEADLINE1;
PeriodicMethod2.Cycle = DEADLINE2;
PeriodicMethod2.Cycle = NEW_DEADLINE2;
PeriodicMethod1.Cycle = 0;
"""


def test_c2_cyclic_syntax_equals_hand_coded_timeout_calls():
    with criterion(2, "cyclic syntax vs. hand-coded timeout calls", 1.0):
        deadline1, deadline2, new_deadline2 = 100, 250, 400
        horizon = 10 * deadline1

        lowered, _ = CyclicPass().transform(load_unit(TABLE2_SOURCE), PassConfig())
        rt = Runtime()
        AbiInterpreter(
            rt,
            env={
                "DEADLINE1": deadline1,
                "DEADLINE2": deadline2,
                "NEW_DEADLINE2": new_deadline2,
            },
        ).run_unit(lowered)
        rt.advance(horizon)
        lowered_log = rt.tom.fired_log

        tom = TOM()
        t1 = TimeoutObject(subid="PeriodicMethod1", deadline=deadline1, cyclic=True, action=lambda: None)
        t2 = TimeoutObject(subid="PeriodicMethod2", deadline=deadline2, cyclic=True, action=lambda: None)
        tom.insert(t1)
        tom.insert(t2)
        tom.disable(t2)
        tom.set_deadline(t2, new_deadline2)
        tom.renew(t2)
        tom.delete(t1)
        tom.advance(horizon)

        assert lowered_log == tom.fired_log
        assert lowered_log == [(400, "PeriodicMethod2", 1), (800, "PeriodicMethod2", 2)]


def test_c3_voting_exhaustive_oracle():
    with criterion(3, "exhaustive voting oracle", 5.0):
        domain = (0, 1, 2)
        for n in (3, 5):
            max_corrupt = (n - 1) // 2
            cases = 0
            for written in domain:
                for k in range(max_corrupt + 1):
                    for positions in itertools.combinations(range(n), k):
                        for values in itertools.product(domain, repeat=k):
                            rs = ReplicaSet("x", n)
                            rs.write(written)
                            for pos, val in zip(positions, values):
                                rs.inject_fault(pos, val)
                            assert rs.read() == written
                            cases += 1
            assert cases == len(domain) * sum(
                len(list(itertools.combinations(range(n), k))) * len(domain) ** k
                for k in range(max_corrupt + 1)
            )
        # N=3: two identical corruptions deceive the vote
        for written in domain:
            for corrupt in domain:
                if corrupt == written:
                    continue
                for positions in itertools.combinations(range(3), 2):
                    rs = ReplicaSet("x", 3)
                    rs.write(written)
                    for pos in positions:
                        rs.inject_fault(pos, corrupt)
                    assert rs.read() == corrupt
        # N=3: three distinct values leave no majority
        for assignment in itertools.permutations(domain, 3):
            rs = ReplicaSet("x", 3)
            rs.write(assignment[0])
            for pos, val in enumerate(assignment):
                rs.inject_fault(pos, val)
            with pytest.raises(NoMajorityError):
                rs.read()


def test_c4_round_trip_and_pass_through():
    with criterion(4, "round-trip and pass-through", 5.0):
        assert len(CORPUS) >= 20
        single_passes = [["redundancy"], ["refractive"], ["array"], ["cyclic"]]
        full = [["redundancy", "refractive", "array", "cyclic"]]
        for names in single_passes + full:
            for text in CORPUS:
                out, report = run(compose(names), load_unit(text))
                assert render(out) == preamble_line(report.extensions_pipeline) + "\n" + text


def test_c5_cyclic_firing_count():
    with criterion(5, "fixed-rate cyclic firing count", 5.0):
        rng = random.Random(0xC9C11C)
        pairs = [(1, 5000), (3, 10**4), (10**6, 10**6)]
        while len(pairs) < 50:
            horizon = rng.randint(1, 10**6)
            period = rng.randint(max(1, horizon // 4000), horizon)
            pairs.append((period, horizon))
        for period, horizon in pairs:
            tom = TOM()
            tom.insert(TimeoutObject(subid="pm", deadline=period, cyclic=True))
            fired = tom.advance(horizon)
            assert len(fired) == horizon // period, (period, horizon)
            assert [f[0] for f in fired] == list(range(period, horizon + 1, period))
            assert [f[2] for f in fired] == list(range(1, horizon // period + 1))


def _wdt_case_a(fault_schedule=()):
    return WdtScenarioParams(
        wdt_period=100, horizon=1000,
        heartbeat_schedule=tuple(range(50, 1000, 50)),
        fault_schedule=fault_schedule,
    )


def _wdt_case_b(fault_schedule=()):
    return WdtScenarioParams(wdt_period=100, horizon=1000, fault_schedule=fault_schedule)


def _wdt_case_c(fault_schedule=()):
    return WdtScenarioParams(
        wdt_period=100, horizon=1000,
        restart_schedule=((150, 1),),
        fault_schedule=fault_schedule,
    )


def test_c6_watchdog_scenario():
    with criterion(6, "watchdog scenario", 2.0):
        # (a) steady heartbeats: never fires, counter reaches 9
        trace_a = run_wdt(_wdt_case_a()).trace
        assert all(v != WD_FIRED for _, v in trace_a)
        assert trace_a == (
            [(0, WD_STARTED), (0, WD_ACTIVE)]
            + [(100 * k, k) for k in range(1, 10)]
            + [(1000, WD_END)]
        )
        assert max(v for _, v in trace_a if v >= 0) == 9
        # (b) no heartbeats: fires at exactly one period
        trace_b = run_wdt(_wdt_case_b()).trace
        assert [t for t, v in trace_b if v == WD_FIRED][0] == 100
        assert trace_b[:3] == [(0, WD_STARTED), (0, WD_ACTIVE), (100, WD_FIRED)]
        # (c) restart write at 150 reactivates at 150
        trace_c = run_wdt(_wdt_case_c()).trace
        assert (150, WD_ACTIVE) in trace_c
        assert trace_c[:4] == [(0, WD_STARTED), (0, WD_ACTIVE), (100, WD_FIRED), (150, WD_ACTIVE)]
        # (d) single-replica fault schedules change nothing
        fault_schedules = (
            ((10, 0, 99),),
            ((120, 1, WD_FIRED), (340, 2, 7)),
            ((75, 2, -3), (275, 0, 0), (675, 1, 5)),
        )
        for schedule in fault_schedules:
            assert run_wdt(_wdt_case_a(schedule)).trace == trace_a, schedule
            assert run_wdt(_wdt_case_b(schedule)).trace == trace_b, schedule
            assert run_wdt(_wdt_case_c(schedule)).trace == trace_c, schedule


def test_c7_staleness():
    with criterion(7, "reflective-array staleness", 1.0):
        period = 1000
        rows = []
        for cycle in range(5):
            base = cycle * period
            rows.append((base + 100, "aa:01", 50.0))
            if cycle != 2:  # peer 2 silent during the third period
                rows.append((base + 200, "aa:02", 20.0))
            rows.append((base + 300, "aa:03", 30.0))
        res = run_switchboard(BeaconTrace.from_rows(rows), observation_period=period, horizon=5 * period)
        by_peer2 = {r.cycle: r.stale for r in res.records if r.mac == "aa:02"}
        assert by_peer2 == {1: False, 2: False, 3: True, 4: False, 5: False}
        for mac in ("aa:01", "aa:03"):
            assert all(not r.stale for r in res.records if r.mac == mac)


def test_c8_adaptive_escalation():
    with criterion(8, "adaptive escalation policy", 1.0):
        events = EventLog()
        rs = ReplicaSet("x", 3, events=events)
        rs.write(5)
        # one window of 16 reads, 5 of them (31.25% >= 30%) with one corrupted replica
        for i in range(16):
            if i < 5:
                rs.inject_fault(0, 99)
            assert rs.read() == 5
        assert rs.n == 5
        assert [e.value for e in events.of("adapt")] == ["3->5"]
        # four subsequent clean windows de-escalate exactly once
        for _ in range(4 * 16):
            rs.read()
        assert rs.n == 3
        assert [e.value for e in events.of("adapt")] == ["3->5", "5->3"]


ORTHOGONAL_FIXTURE = """redundant_t int counter;
cyclic_t int Tick(TOM*);
counter = 0;
Tick.Cycle = 100;
counter += 1;
Tick.Cycle = 0;
counter++;
"""


def test_c9_order_confluence():
    with criterion(9, "order confluence", 1.0):
        out_ab, _ = run(compose(["redundancy", "cyclic"]), load_unit(ORTHOGONAL_FIXTURE))
        out_ba, _ = run(compose(["cyclic", "redundancy"]), load_unit(ORTHOGONAL_FIXTURE))
        body_ab = render(out_ab).split("\n", 1)[1]
        body_ba = render(out_ba).split("\n", 1)[1]
        assert body_ab == body_ba
