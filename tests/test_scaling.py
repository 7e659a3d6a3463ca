"""Per-operation cost guards that count work instead of timing it.

A path that rescans a whole collection per operation is quadratic over a
run; these tests count how often such a collection is iterated, or how many
lines of Python an operation executes, and require that count not to grow
with the run. Hot runtime primitives are held to the Python functions they
enter. Data that grows with a run is kept as plain rows, so these
tests also count the record objects a run builds.
"""

import collections
import dataclasses
import heapq
import math
import sys
import types
from pathlib import Path

import pytest

from cpm import PassConfig, compose, interp, load_unit, pipeline, rewrite, run, srcmodel
from cpm.ext_cyclic import scan_cyclic
from cpm.ext_redundancy import scan_redundant
from cpm.ext_reflective import scan_arrays, scan_context
from cpm.pipeline import _strict_sweep, preamble_line
from cpm.runtime import ContextRegistry, ReflectiveArray, ReplicaSet, Runtime, TimeoutObject, events, tom
from cpm.scenarios import BeaconTrace, WdtScenarioParams, run_switchboard, run_wdt

ROOT = Path(__file__).resolve().parent.parent


class Counting:
    """Mixin counting how often a container is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class CountingTuple(Counting, tuple):
    pass


class CountingDict(Counting, dict):
    pass


def heartbeat_iterations(horizon):
    beats = CountingTuple(range(50, horizon, 50))
    result = run_wdt(WdtScenarioParams(wdt_period=100, horizon=horizon, heartbeat_schedule=beats))
    assert result.trace[-2] == (horizon - 100, horizon // 100 - 1)  # never fired
    return beats.iterations


def test_wdt_iterates_heartbeat_schedule_independently_of_horizon():
    assert heartbeat_iterations(1_000) == heartbeat_iterations(4_000)


def counted(cls, built):
    """A stand-in for ``cls`` that records each object it builds."""

    def build(*args, **kwargs):
        built.append(cls(*args, **kwargs))
        return built[-1]

    return build


def switchboard_timeouts(peers):
    """The ``TimeoutObject``s a switchboard run builds and the longest its
    TOM heap grows, for ``peers`` peers beaconing once per period for ten
    periods."""
    rows = [(cycle * 100 + 1 + peer, f"m{peer}", 1.0) for cycle in range(10) for peer in range(peers)]
    built, longest = [], 0

    def pushing(heap, entry):
        nonlocal longest
        heapq.heappush(heap, entry)
        longest = max(longest, len(heap))

    with pytest.MonkeyPatch.context() as patch:
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("cpm") and getattr(mod, "TimeoutObject", None) is TimeoutObject:
                patch.setattr(mod, "TimeoutObject", counted(TimeoutObject, built))
        patch.setattr(tom, "heapq", types.SimpleNamespace(heappush=pushing, heappop=heapq.heappop))
        result = run_switchboard(BeaconTrace.from_rows(rows), observation_period=100, horizon=1_000)
    assert len(result.runtime.tom.fired_log) == len(rows) + 10
    return built, longest


def beacon_series(peers):
    """The ``(deadlines, action)`` of every ``beacon`` series
    ``run_switchboard`` arms for ``peers`` peers beaconing once per period
    for ten periods."""
    rows = [(cycle * 100 + 1 + peer, f"m{peer}", 1.0) for cycle in range(10) for peer in range(peers)]
    real, series = tom.TOM.insert_series, []

    def collecting(self, subid, deadlines, action):
        if subid == "beacon":
            series.append((list(deadlines), action))
        return real(self, subid, deadlines, action)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tom.TOM, "insert_series", collecting)
        run_switchboard(BeaconTrace.from_rows(rows), observation_period=100, horizon=1_000)
    return rows, series


@pytest.mark.parametrize("peers", [5, 10])
def test_switchboard_beacons_share_one_action(peers):
    rows, series = beacon_series(peers)
    # one series carries every beacon, so all of them share its one action
    assert len(series) == 1
    deadlines, action = series[0]
    assert deadlines == [t for t, _, _ in rows] and callable(action)


def test_a_switchboard_run_builds_no_timeout_object_per_beacon():
    (few, few_longest), (many, many_longest) = switchboard_timeouts(5), switchboard_timeouts(10)
    assert len(few) == len(many) and [to.subid for to in few] == ["observation_cycle"]
    # the beacons' series and the cycle
    assert few_longest <= 2 and many_longest <= 2


def test_a_switchboard_run_builds_no_beacon_record_and_no_event():
    rows = [(cycle * 100 + 1 + peer, f"m{peer}", 1.5) for cycle in range(10) for peer in range(5)]
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events, "Event", counted(events.Event, built))
        result = run_switchboard(BeaconTrace.from_rows(rows), observation_period=100, horizon=1_000)
        assert built == []
        # reading them builds the events
        fires = result.runtime.events.of("fire")
    assert built == fires
    fired = result.runtime.tom.fired_log
    assert len(fired) == len(rows) + 10
    assert fires == [events.Event(t, "fire", name, n, "") for t, name, n in fired]


def test_a_trace_is_immutable_and_equal_to_one_built_from_the_same_rows():
    rows = [(0, "aa:01", 2), (5, "aa:02", 3.5), (5, "aa:01", 1)]
    trace = BeaconTrace.from_rows(rows)
    assert trace == BeaconTrace.from_rows(iter(rows))
    assert BeaconTrace.from_rows([]) == BeaconTrace() == BeaconTrace((), (), ())
    assert trace != BeaconTrace.from_rows(rows[:2])
    assert (trace.times, trace.macs, trace.rates) == ((0, 5, 5), ("aa:01", "aa:02", "aa:01"), (2.0, 3.5, 1.0))
    for name in ("times", "macs", "rates"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, name, ())
    assert trace == BeaconTrace.from_rows(rows)


def test_anext_walk_never_iterates_entries():
    arr = ReflectiveArray("lb")
    for k in range(500):
        arr.report_beacon(f"m{k}")
    arr.entries = CountingDict(arr.entries)
    cursor = 0
    while arr.anext(cursor) is not None:
        cursor += 1
    assert cursor == 500
    assert arr.entries.iterations == 0


def python_calls(fn, kind="call"):
    """Run ``fn()`` and count, by name, the Python functions it enters:
    ``fn`` itself and every Python callee; with ``kind="c_call"``, the
    builtin functions and methods it calls instead."""
    calls = collections.Counter()

    def profiler(frame, event, arg):
        if event == kind:
            calls[frame.f_code.co_name if kind == "call" else arg.__name__] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("n", [3, 9])
def test_an_agreeing_read_and_a_write_enter_no_other_python_function(n):
    rs = ReplicaSet("x", n)
    assert python_calls(lambda: rs.write(5)) == {"<lambda>": 1, "write": 1}
    for _ in range(2 * rs.policy.window):  # two full windows, both clean: N stays
        assert python_calls(rs.read) == {"read": 1}
    assert rs.n == n and rs.stats.discrepancy_histogram == {0: 2 * rs.policy.window}


@pytest.mark.parametrize("windows", [1, 4])
def test_only_the_first_clean_read_and_each_window_closing_one_take_the_full_path(windows):
    # the full path counts the histogram with dict.get; a read under the
    # window countdown stores hist[0] directly
    rs = ReplicaSet("x", 3)
    reads = windows * rs.policy.window
    calls = python_calls(lambda: [rs.read() for _ in range(reads)], "c_call")
    assert calls["get"] == windows + 1 and calls["count"] == reads
    assert rs.stats.discrepancy_histogram == {0: reads} and rs.stats.risky == 0


def cycle_calls(peers, live, period=100):
    """The Python functions entered by the second observation cycle of a
    switchboard whose ``peers`` peers all beacon in the first period and
    whose first ``live`` of them beacon again in the second: what a run to
    the second boundary enters less what a run to the first one does."""
    first = [(1, f"m{p}", 1.0) for p in range(peers)]
    second = first + [(period + 1, f"m{p}", 2.0) for p in range(live)]
    one = python_calls(lambda: run_switchboard(BeaconTrace.from_rows(first), period, period))
    two = python_calls(lambda: run_switchboard(BeaconTrace.from_rows(second), period, 2 * period))
    return two - one


@pytest.mark.parametrize("peers, live", [(6, 2), (12, 4)])
def test_an_observation_cycle_makes_the_abi_calls_of_adjust_metrics(peers, live):
    calls = cycle_calls(peers, live)
    # Runtime.anext per peer and the one that ends the walk; each enters
    # ReflectiveArray.anext, of the same name
    assert calls["anext"] == 2 * (peers + 1)
    # silent_periods per peer, then rate per live peer
    assert calls["arr_get"] == calls["get"] == peers + live


@pytest.mark.parametrize("now", [0, 7])
def test_a_series_and_a_trace_are_checked_and_armed_by_no_python_pass_per_deadline(now):
    def armed(n):
        manager = tom.TOM()
        manager.advance(now)
        return python_calls(lambda: manager.insert_series("s", range(n), None))

    # the one series entry it builds is the only other function it enters
    assert armed(50) == armed(100) == {"<lambda>": 1, "insert_series": 1, "__init__": 1}
    traces = [BeaconTrace(tuple(range(n)), ("m",) * n, (1.0,) * n) for n in (50, 100)]
    assert [python_calls(lambda: trace.validate(100)) for trace in traces] == [{"<lambda>": 1, "validate": 1}] * 2


def test_a_cyclic_fire_with_a_positive_int_deadline_skips_the_period_check():
    manager = tom.TOM()
    cycle = TimeoutObject("c", 10, cyclic=True)
    manager.insert(cycle)
    calls = python_calls(lambda: manager.advance(1_000))
    assert cycle.instances == 100
    assert calls["_period"] == 0 and calls["_arm"] == 0


def lines_executed(fn):
    """Run ``fn()`` and count the Python lines it executes, callees included."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def sensor_update_lines(k):
    reg = ContextRegistry()
    reg.register("a", "sensor", initial=0)
    reg.register("b", "sensor", initial=0)
    reg.register_guard(None, "a > 0", name="ga")
    for g in range(k):
        reg.register_guard(None, f"b > {g}", name=f"gb{g}")
    return lines_executed(lambda: reg.sensor_update("a", 1))


def test_sensor_update_work_is_independent_of_guards_on_other_sensors():
    assert sensor_update_lines(10) == sensor_update_lines(200)


@pytest.mark.parametrize("k", [1, 24])
def test_a_sensor_update_evaluates_each_guard_by_one_call_and_no_eval(k):
    reg = ContextRegistry()
    reg.register("s", "sensor", initial=0)
    for g in range(k):
        reg.register_guard(None, f"s > {g}", name=f"g{g}")

    def update():
        reg.sensor_update("s", k)

    assert python_calls(update)["_eval"] == k
    assert python_calls(update, "c_call")["eval"] == 0
    assert [g.evals for g in reg.guards] == [3] * k  # registration and two updates


def access_lines(n):
    """Lines the access engine classifies past its prefilter when all four
    passes lower one declaration each plus ``n`` plain-C lines."""
    count = 0

    class Counted(rewrite._AccessLine):
        def __init__(self, *args):
            nonlocal count
            count += 1
            super().__init__(*args)

    decls = "redundant_t int r;\nsensor_t int s;\nreflective_array_t a { b:int };\ncyclic_t int f(void);\n"
    plain = "int z = 1; z = z + 2; /* r s a f.Cycle */ g(\"r\");\n" * n
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "_AccessLine", Counted)
        run(compose(["redundancy", "refractive", "array", "cyclic"]), load_unit(decls + plain))
    return count


def test_access_engine_skips_lines_naming_no_target():
    assert access_lines(10) == access_lines(1_000)


# A four-pass run over lines of every extension, one tagged and one inside a
# block comment, plus ``n`` plain-C lines that name no keyword and no target.
KINDS_OF_LINE = (
    "redundant_t int r;\nsensor_t int s;\nreflective_array_t a { b:int };\ncyclic_t int f(void);\n"
    "@ext:cyclic f.Cycle = r;\nr = s + a[k].b;\n/* r = s;\n*/ z = r;\nsensor_t q;\n"
)
PLAIN = "int z = 1; z = z + 2; /* r s a f.Cycle */ g(\"r\");\n"
FOUR_PASSES = ["redundancy", "refractive", "array", "cyclic"]


def tokenized_after_load(text):
    """The texts ``_tokenize`` sees in a strict four-pass run over ``text``,
    after it was loaded."""
    unit = load_unit(text)
    real, calls = srcmodel._tokenize, []

    def counting(raw, in_block):
        calls.append(raw)
        return real(raw, in_block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(srcmodel, "_tokenize", counting)
        _, report = run(compose(FOUR_PASSES), unit, strict=True)
    return calls, report


def test_run_tokenizes_each_changed_line_once_more_and_the_preamble():
    # each change of a line's text re-tokenizes that line once, and nothing
    # else is tokenized again
    lowered = [
        "f.Cycle = r;",  # tag stripped
        # every pass's declarations
        "cpm_red_storage(r, int, 3);",
        'cpm_ctx_register(s, sensor, "s");',
        "cpm_arr_register(a);",
        "int f(void); cpm_cycle_register(f);",
        # then one walk lowers every pass's accesses, line by line
        "cpm_cycle_set(f, (r));",
        "cpm_red_write(r, (s + a[k].b));",
        "cpm_red_write(r, (cpm_ctx_read(s) + a[k].b));",
        "cpm_red_write(r, (cpm_ctx_read(s) + cpm_arr_get(a, (k), b)));",
        "*/ z = cpm_red_read(r);",
    ]
    for n in (10, 1_000):
        calls, report = tokenized_after_load(KINDS_OF_LINE + PLAIN * n)
        assert calls == lowered + [preamble_line(report.extensions_pipeline)]


def test_a_lowered_text_repeated_on_n_lines_is_lexed_once():
    # every "r = s + 1;" lowers to the same text, which is tokenized once
    lexed = lambda n: len(tokenized_after_load("redundant_t int r;\nsensor_t int s;\n" + "r = s + 1;\n" * n)[0])
    assert lexed(10) == lexed(1_000)


def rewrite_line_calls(n):
    """How often a run lowers a line, over a unit of two declarations and
    ``n`` copies of one line."""
    real, calls = rewrite.rewrite_line, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "rewrite_line", counting)
        run(compose(FOUR_PASSES), load_unit("redundant_t int r; sensor_t int s;\n" + "r = s + 1;\n" * n), strict=True)
    return calls


def test_a_line_text_repeated_on_n_lines_is_lowered_once():
    assert rewrite_line_calls(10) == rewrite_line_calls(1_000)


def walk_visits(n):
    """How often the walks of one run call back into their caller, over a
    unit of one declaration and ``n`` plain lines."""
    real, visits = srcmodel.map_lines, 0

    def counting(unit, fn, *rest):
        def visit(*args):
            nonlocal visits
            visits += 1
            return fn(*args)

        return real(unit, visit, *rest)

    with pytest.MonkeyPatch.context() as patch:
        for module in (rewrite, pipeline):
            patch.setattr(module, "map_lines", counting)
        run(compose(FOUR_PASSES), load_unit("redundant_t int r;\n" + PLAIN * n), strict=True)
    return visits


def test_walks_visit_only_the_lines_they_change():
    assert walk_visits(10) == walk_visits(1_000) > 0


def sig_iterations(n, fn):
    """How often ``fn`` iterates the significant tokens of the lines of a
    unit of :data:`KINDS_OF_LINE` and ``n`` plain lines."""
    unit = load_unit(KINDS_OF_LINE + PLAIN * n)
    sigs = []
    for line in unit.lines:
        sigs.append(CountingTuple(line.sig))
        object.__setattr__(line, "sig", sigs[-1])
    fn(unit)
    return sum(sig.iterations for sig in sigs)


def declaration_scans(unit):
    config = PassConfig()
    scan_redundant(unit, config)
    scan_context(unit, config)
    scan_arrays(unit, config)
    scan_cyclic(unit, config)


def test_declaration_scans_skip_lines_naming_no_keyword():
    assert sig_iterations(10, declaration_scans) == sig_iterations(1_000, declaration_scans) > 0


def strict_sweep(unit):
    pipeline = compose(FOUR_PASSES)
    _strict_sweep(unit, pipeline, set(FOUR_PASSES), {})


def test_strict_sweep_skips_lines_naming_no_keyword_and_no_cycle():
    assert sig_iterations(10, strict_sweep) == sig_iterations(1_000, strict_sweep) > 0


def test_a_line_run_again_is_not_split_or_checked_for_a_tag_again():
    unit = load_unit("@ext:cyclic f.Cycle = 1;\nint a = 1; a += 2; {\n/* x;\n*/ a++;\nb = a * 2;\n")
    interp.AbiInterpreter(Runtime()).run_unit(unit)

    def refuse(*args):
        raise AssertionError("a compiled line was split again")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "split_segments", refuse)
        patch.setattr(interp, "ext_tag", refuse)
        it = interp.AbiInterpreter(Runtime())
        it.run_unit(unit)
    assert it.env == {"a": 4, "b": 8}


@pytest.mark.parametrize("repeats", [1, 100, 200, 1000])
def test_a_unit_run_again_takes_one_exec_per_chunk_and_compiles_nothing(repeats):
    unit = load_unit("int a = 1, b; a += 2;\nb = a * 2; {\n" * repeats)
    interp.AbiInterpreter(Runtime()).run_unit(unit)
    execs = 0

    def counting_exec(*args):
        nonlocal execs
        execs += 1
        return exec(*args)

    def refuse(*args):
        raise AssertionError("a compiled statement was translated or compiled again")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "exec", counting_exec, raising=False)
        patch.setattr(interp, "translate_stmt", refuse)
        patch.setattr(interp, "compile_stmt", refuse)
        it = interp.AbiInterpreter(Runtime())
        it.run_unit(unit)
    assert it.env == {"a": 3, "b": 6}
    assert execs <= math.ceil(3 * repeats / interp.CHUNK)


def test_a_cold_run_cuts_each_distinct_line_and_translates_each_statement_once():
    n, k = 50, 7  # 350 lines: windows that start mid-body, none a multiple of it
    assert n * k > interp.CHUNK and n % interp.CHUNK
    unit = load_unit("".join(f"int v{j} = {j}; v{j} += {j};\n" for j in range(n)) * k)
    cuts, translated = [], collections.Counter()
    real_cut, real_translate = interp.split_segments, interp.translate_stmt

    def cut(sig):
        cuts.append(sig)
        return real_cut(sig)

    def translate(toks):
        translated[" ".join(tok.lexeme for tok in toks)] += 1
        return real_translate(toks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "_CHUNKS", {})  # cold: no window seen before
        patch.setattr(interp, "split_segments", cut)
        patch.setattr(interp, "translate_stmt", translate)
        it = interp.AbiInterpreter(Runtime())
        it.run_unit(unit)
    assert len(cuts) == n
    assert len(translated) == 2 * n and set(translated.values()) == {1}
    assert it.env == {f"v{j}": 2 * j for j in range(n)}


def test_a_cold_run_tokenizes_no_statement():
    # the seed-11 interpreter program without its guards, whose expressions
    # compile from their text, lowered as the benchmark lowers it
    sys.path.insert(0, str(ROOT / "perfbench"))  # gen imports its sibling checks
    import gen
    source = "".join(line for line in gen.interp_input(11, 1).source.splitlines(True) if not line.startswith("guard_t"))
    unit, _ = run(compose(["redundancy", "refractive"]), load_unit(source))
    real, calls = srcmodel._tokenize, []

    def counting(raw, in_block):
        calls.append(raw)
        return real(raw, in_block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "_CHUNKS", {})  # cold: no window seen before
        patch.setattr(srcmodel, "_tokenize", counting)
        it = interp.AbiInterpreter(Runtime())
        it.run_unit(unit)
    assert calls == []
    assert len(it.env) > 1  # the program ran: the preamble and its scalars are set
