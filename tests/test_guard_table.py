"""Guards read one name table: the compiled code's helpers, the registry's
constants and its sensors, a sensor shadowing a constant of its name.

Each row of ``TABLE`` is a script of registry calls and what it must give:
the guards fired by each sensor update, in order, and the text of every
``warn`` event. The module needs only ``cpm``, so on a Python without pytest
it runs as a script: ``PYTHONPATH=src python tests/test_guard_table.py``."""

from cpm.runtime import ContextRegistry

try:
    1 // 0
except ZeroDivisionError as exc:
    DIVISION_BY_ZERO = f"guard-eval-error:{exc}"

# name -> (script, fired by each update, warn texts); a script step is
# ("sensor", name, initial), ("constant", name, value), ("guard", expr) for a
# guard named g, or ("update", name, value)
TABLE = {
    # t's update re-evaluates the guard, which reads s from the table
    "a sensor registered before a constant of its name shadows it": (
        [("sensor", "s", 0), ("sensor", "t", 0), ("constant", "s", 100), ("guard", "t > 0 && s == 0"),
         ("update", "t", 1)],
        [["g"]], [],
    ),
    "a sensor registered after a constant of its name shadows it": (
        [("constant", "s", 100), ("sensor", "s", 0), ("sensor", "t", 0), ("guard", "t > 0 && s == 0"),
         ("update", "t", 1)],
        [["g"]], [],
    ),
    "a constant registered again under a sensor's name stays shadowed": (
        [("constant", "s", 100), ("sensor", "s", 0), ("constant", "s", 200), ("sensor", "t", 0),
         ("guard", "t > 0 && s < 100"), ("update", "t", 1), ("update", "s", 150), ("update", "s", 7)],
        [["g"], [], ["g"]], [],
    ),
    "a constant registered after its guard is read from then on": (
        [("sensor", "s", 0), ("guard", "s > LIMIT"), ("constant", "LIMIT", 3), ("update", "s", 5)],
        [["g"]], ["guard-eval-error:name 'LIMIT' is not defined"],
    ),
    "a name that is neither a sensor nor a constant reads false and says so": (
        [("sensor", "s", 0), ("guard", "r < s"), ("update", "s", 5)],
        [[]], ["guard-eval-error:name 'r' is not defined"] * 2,
    ),
    "a division by zero reads false": (
        [("sensor", "s", 0), ("guard", "s / 0 == 0"), ("update", "s", 1)],
        [[]], [DIVISION_BY_ZERO] * 2,
    ),
}


def run_script(script):
    reg = ContextRegistry()
    fired = []
    for step, *args in script:
        if step == "sensor":
            reg.register(args[0], "sensor", initial=args[1])
        elif step == "constant":
            reg.register_constant(*args)
        elif step == "guard":
            reg.register_guard(None, args[0], name="g")
        else:
            fired.append(reg.sensor_update(*args))
    return fired, [e.value for e in reg.events.of("warn")]


def test_guard_name_table():
    for name, (script, fired, warns) in TABLE.items():
        assert run_script(script) == (fired, warns), name


if __name__ == "__main__":
    test_guard_name_table()
    print(f"ok test_guard_name_table: {len(TABLE)} rows")
