"""The benchmark's span tracer (``perfbench/spans.py``) patches cpm functions
and ``Runtime``'s facade methods by name. Building and running it here makes
a rename of any traced function, or a facade method hidden from the tracer,
fail this suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from cpm import compose, load_unit, run
from cpm.interp import AbiInterpreter
from cpm.runtime import Runtime
from cpm.scenarios import BeaconTrace, WdtScenarioParams, run_switchboard, run_wdt

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_builds_and_times_every_pass_layer():
    tracer = load_spans().Tracer()  # a traced name that is gone raises here
    src = "redundant_t int x;\nsensor_t int s;\nreflective_array_t a { b:int };\ncyclic_t int f(void);\nx = s;\n"
    pipeline = compose(["redundancy", "refractive", "array", "cyclic"])
    _, _, selfs, _ = tracer.traced(run, pipeline, load_unit(src))
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
