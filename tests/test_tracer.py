"""The benchmark's span tracer (``perfbench/spans.py``) patches cpm functions
by name. Building it here makes a rename of any traced function fail this
suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

from cpm import compose, load_unit, run

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
