"""The benchmark's span tracer (``perfbench/spans.py``) patches cpm functions
and ``Runtime``'s facade methods by name. Building and running it here makes
a rename of any traced function, or a facade method hidden from the tracer,
fail this suite, not only a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import cpm.pipeline
from cpm import compose, load_unit, run
from cpm.interp import AbiInterpreter
from cpm.runtime import Runtime
from cpm.scenarios import BeaconTrace, WdtScenarioParams, run_switchboard, run_wdt

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", SPANS.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_tracer_builds_and_times_every_pass_layer():
    tracer = load_spans().Tracer()  # a traced name that is gone raises here
    src = "redundant_t int x;\nsensor_t int s;\nreflective_array_t a { b:int };\ncyclic_t int f(void);\nx = s;\n"
    pipeline = compose(["redundancy", "refractive", "array", "cyclic"])
    # look ``run`` up when called, as cli.main does, so the tracer's patch is
    # seen; the ``run`` this module imported at load time stays unpatched
    _, _, selfs, _ = tracer.traced(lambda: cpm.pipeline.run(pipeline, load_unit(src)))
    for layer in ("ext_redundancy", "ext_reflective", "ext_cyclic", "rewrite", "pipeline"):
        assert selfs[layer] > 0, layer


def test_tracer_times_every_runtime_layer():
    tracer = load_spans().Tracer()
    params = WdtScenarioParams(
        wdt_period=10,
        horizon=100,
        heartbeat_schedule=(5, 15, 25, 60),
        fault_schedule=((30, 1, 7),),
        restart_schedule=((50, 1),),
    )
    _, _, wdt_selfs, counts = tracer.traced(run_wdt, params)
    for layer in ("core", "redundant", "tom", "context", "scenarios"):
        assert wdt_selfs[layer] > 0, layer
    assert (counts["redundant.read.calls"], counts["tom.fires"]) == (7, 8)

    def interpret():
        it = AbiInterpreter(Runtime())
        it.run_text("cpm_red_storage(x, int, 3);\ncpm_red_write(x, (5));\ny = cpm_red_read(x) + 1;\n")
        return it.env["y"]

    y, _, interp_selfs, counts = tracer.traced(interpret)
    assert y == 6 and counts["redundant.read.calls"] == 1
    for layer in ("interp", "core", "redundant"):
        assert interp_selfs[layer] > 0, layer

    trace = BeaconTrace.from_rows([(100, "aa:01", 50.0), (200, "aa:02", 40.0), (1500, "aa:01", 50.0)])
    res, _, array_selfs, counts = tracer.traced(run_switchboard, trace, 1000, 3000)
    assert [(r.cycle, r.mac, r.stale) for r in res.records] == [
        (1, "aa:01", False), (1, "aa:02", False), (2, "aa:01", False), (2, "aa:02", True),
        (3, "aa:01", True), (3, "aa:02", True),
    ]
    assert array_selfs["context.array"] > 0 and counts["context.anext.calls"] > 0


def test_tracer_counts_each_lowered_line_once():
    # the tracer counts a changed line when rewrite_line's result differs
    # from its first argument, so that argument must stay the raw line
    tracer = load_spans().Tracer()
    decls = "redundant_t int r;\nsensor_t int s;\nreflective_array_t a { b:int };\ncyclic_t int f(void);\n"
    lowered = "r = 1;\nz = s;\nz = a[k].b;\nf.Cycle = 5;\n"
    plain = "int z = 1; /* r s a f.Cycle */ g(\"r\");\n" * 20
    pipeline = compose(["redundancy", "refractive", "array", "cyclic"])
    (out, _), _, _, counts = tracer.traced(run, pipeline, load_unit(decls + plain + lowered + plain))
    assert counts["rewrite.changed_lines"] == 4
    assert "cpm_cycle_set(f, (5));" in [line.raw for line in out.lines]


def _benchmark_input(name, seed):
    sys.path.insert(0, str(SPANS.parent))  # gen imports its sibling checks
    import gen
    return getattr(gen, name)(seed, 1)


def test_traced_runtime_counters_read_the_same_as_before():
    # the counters see the runtime only through the names the tracer patches:
    # tom's module-level heapq, EventLog.log and ReflectiveArray.anext, so an
    # inlined call that bypasses one of them would read as less work
    tracer = load_spans().Tracer()
    inp = _benchmark_input("switchboard_input", 11)
    _, _, _, counts = tracer.traced(run_switchboard, BeaconTrace.from_rows(inp.rows), inp.period, inp.horizon)
    assert (counts["tom.fires"], counts["tom.heap_pops"], counts["events.logged"],
            counts["context.anext.calls"]) == (13635, 13635, 13635, 18409)

    inp = _benchmark_input("wdt_input", 11)
    params = WdtScenarioParams(
        wdt_period=inp.period, horizon=inp.horizon, heartbeat_schedule=inp.heartbeats,
        replicas=3, fault_schedule=inp.faults, restart_schedule=inp.restarts,
    )
    _, _, _, counts = tracer.traced(run_wdt, params)
    assert (counts["tom.fires"], counts["tom.heap_pops"], counts["events.logged"],
            counts["context.guard_evals"]) == (3513, 3522, 4261, 2367)


def test_the_guards_evaluation_counts_add_up_to_the_traced_count():
    # the guards' own counts are program state the tracer's
    # context.guard_evals, which wraps ContextRegistry._eval, can be read from
    bench = load_perfbench("run")
    tracer = load_spans().Tracer()
    wdt = bench.Wdt(cpm, None)
    result, _, _, counts = tracer.traced(wdt.execute, wdt.prepare(11), 1)
    assert sum(g.evals for g in result.runtime.registry.guards) == counts["context.guard_evals"] == 2367
    interp = bench.Interp(cpm, None)
    (rt, _, _), _, _, counts = tracer.traced(interp.execute, interp.prepare(11), 1)
    assert sum(g.evals for g in rt.registry.guards) == counts["context.guard_evals"] > 0
