#!/usr/bin/env python3
"""Assemble a pipeline and transform the watchdog demo source.

Equivalent command line:

    cpm --ext refractive --ext array --ext redundancy --ext cyclic \\
        --config demos/extensions.ini demos/watchdog_task.cpm -o /tmp/watchdog_task.c

Ordering note: ``watchdog`` is claimed by two extensions (it is both a
context variable and redundant), so the pass order decides which one owns
each access form. Running refractive first keeps sensor reads and actuator
writes with the context machinery and leaves redundancy the extern
declaration; the reverse order would route the accesses through the voting
layer instead. Ordering is deliberately the user's call. The guard on
``watchdog`` registers in either order: every pass lowers its declarations
before any pass lowers an access.
"""

from pathlib import Path

from cpm import PassConfig, compose, load_unit, publish_ids, render, run

HERE = Path(__file__).parent


def main():
    source = (HERE / "watchdog_task.cpm").read_text(encoding="latin-1")
    config = PassConfig.from_ini(HERE / "extensions.ini")

    pipeline = compose(["refractive", "array", "redundancy", "cyclic"], config=config)
    print("pipeline:", publish_ids(pipeline))

    out_unit, report = run(pipeline, load_unit(source))

    print("\n== transformed output ==")
    print(render(out_unit))

    print("== report ==")
    print("extensions_pipeline =", report.extensions_pipeline)
    for diag in report.diagnostics:
        print("diagnostic:", diag)
    if not report.diagnostics:
        print("(no diagnostics)")


if __name__ == "__main__":
    main()
