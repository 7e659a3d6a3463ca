#!/usr/bin/env python3
"""Cyclic methods: from `.Cycle = period` syntax to timeout objects.

Shows the same program twice: the augmented-language form executed through
the transform + interpreter path, and the raw timeout-object calls it lowers
to. Both run on the virtual clock, so the output is the same every run."""

from cpm import compose, load_unit, render, run
from cpm.interp import AbiInterpreter
from cpm.runtime import TOM, Runtime, TimeoutObject

PROGRAM = """cyclic_t int blink(TOM*);
cyclic_t int poll_sensors(TOM*);
blink.Cycle = 250;
poll_sensors.Cycle = 100;
poll_sensors.Cycle = 400;
blink.Cycle = 0;
"""


def main():
    print("== augmented source ==")
    print(PROGRAM)
    out, _ = run(compose(["cyclic"]), load_unit(PROGRAM))
    print("== lowered ==")
    print(render(out))

    rt = Runtime()
    interp = AbiInterpreter(rt)
    interp.bind_function("poll_sensors", lambda: print(f"  poll_sensors at t={rt.events.now} ms"))
    interp.bind_function("blink", lambda: print(f"  blink at t={rt.events.now} ms"))
    interp.run_unit(out)
    print("advancing the virtual clock 1000 ms:")
    rt.advance(1000)
    print("fired log:", rt.tom.fired_log)

    print("\n== the same schedule, hand-coded ==")
    tom = TOM()
    poll = TimeoutObject(subid="poll_sensors", deadline=100, cyclic=True)
    tom.insert(poll)
    tom.set_deadline(poll, 400)
    tom.renew(poll)
    tom.advance(1000)
    print("fired log:", tom.fired_log)


if __name__ == "__main__":
    main()
