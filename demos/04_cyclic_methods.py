#!/usr/bin/env python3
"""Cyclic methods: from `.Cycle = period` syntax to timeout objects.

Shows the same program twice: the augmented-language form executed through
the transform + interpreter path, and the raw timeout-object calls it lowers
to. Finishes with a short wall-clock run (demo only; tests always use the
virtual clock)."""

import time

from cpm import PassConfig, compose, load_unit, render, run
from cpm.interp import AbiInterpreter
from cpm.runtime import TOM, Runtime, TimeoutObject, WallClock, WallDriver

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
    interp.bind_function("poll_sensors", lambda: print(f"  poll_sensors at t={rt.clock.now} ms"))
    interp.bind_function("blink", lambda: print(f"  blink at t={rt.clock.now} ms"))
    interp.run_unit(out)
    print("advancing the virtual clock 1000 ms:")
    rt.advance(1000)
    print("fired log:", rt.tom.fired_log)

    print("\n== the same schedule, hand-coded ==")
    tom = TOM()
    poll = TimeoutObject(id="p", subid="poll_sensors", deadline=100, cyclic=True)
    tom.insert(poll)
    tom.set_deadline(poll, 400)
    tom.renew(poll)
    tom.advance(1000)
    print("fired log:", tom.fired_log)

    print("\n== wall-clock mode (approximate by nature) ==")
    wall = TOM(clock=WallClock())
    wall.insert(TimeoutObject(id="w", subid="wall_tick", deadline=30, cyclic=True))
    driver = WallDriver(wall, interval_ms=5)
    driver.start()
    time.sleep(0.12)
    driver.stop()
    wall.poll()  # fire what fell due after the last background poll
    # at least 120 ms have elapsed, so at least 3 ticks fired; the exact count
    # depends on timing, and printing it would make the output vary run to run
    ticks = len(wall.fired_log)
    print(f"~120 ms elapsed, {'3 or more' if ticks >= 3 else ticks} ticks of a 30 ms cycle")


if __name__ == "__main__":
    main()
