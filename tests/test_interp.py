import pytest

from cpm.interp import AbiInterpreter, InterpError
from cpm.pipeline import compose, run
from cpm.runtime import Runtime
from cpm.srcmodel import load_unit


def fresh():
    rt = Runtime()
    return rt, AbiInterpreter(rt)


def test_preamble_sets_pipeline_string():
    rt, it = fresh()
    it.run_text('const char *extensions_pipeline = "cpm://cyclic/1.0"; /* cpm preamble */\n')
    assert rt.registry.pipeline_string == "cpm://cyclic/1.0"


def test_storage_write_read_cycle():
    rt, it = fresh()
    it.run_text("cpm_red_storage(x, int, 3);\ncpm_red_write(x, (5));\ny = cpm_red_read(x) + 1;\n")
    assert rt.replicas["x"].replicas == (5, 5, 5)
    assert it.env["y"] == 6


def test_declarations_and_assignments():
    rt, it = fresh()
    it.run_text("int a = 2;\nint b;\nb = a * 3;\nb += 1;\nb++;\n")
    assert it.env == {"a": 2, "b": 8}


def test_prototypes_and_braces_are_ignored():
    rt, it = fresh()
    it.run_text("int f(int);\nint main(void) {\n}\nreturn 0;\n")
    assert "f" not in it.env


def test_context_registration_and_access():
    rt, it = fresh()
    it.run_text('cpm_ctx_register(watchdog, both, "watchdog");\n')
    rt.registry.bind_actuator("watchdog", lambda v: rt.sensor_update("watchdog", v))
    it.run_text("cpm_ctx_write(watchdog, (7));\nstate = cpm_ctx_read(watchdog);\n")
    assert it.env["state"] == 7


def test_guard_registration_binds_python_body():
    rt, it = fresh()
    hits = []
    it.bind_function("notify", lambda: hits.append(rt.clock.now))
    it.run_text(
        'cpm_ctx_register(watchdog, sensor, "watchdog");\n'
        'cpm_guard_register(notify, "watchdog == 3");\n'
    )
    rt.sensor_update("watchdog", 3)
    assert hits == [0]


def test_array_calls_translate_names():
    rt, it = fresh()
    it.run_text("cpm_arr_register(linkrates);\n")
    rt.registry.arrays["linkrates"].set_prop("m1", "rate", 10.0)
    it.env["mac"] = "m1"
    it.run_text("r = cpm_arr_get(linkrates, (mac), rate);\nfirst = anext(linkrates, 0);\n")
    assert it.env["r"] == 10.0
    assert it.env["first"] == "m1"


def test_cycle_calls_schedule_actions():
    rt, it = fresh()
    ticks = []
    it.bind_function("Tick", lambda: ticks.append(rt.clock.now))
    it.run_text("cpm_cycle_register(Tick);\ncpm_cycle_set(Tick, (10));\n")
    rt.advance(30)
    assert ticks == [10, 20, 30]
    it.run_text("cpm_cycle_set(Tick, (0));\n")
    rt.advance(30)
    assert ticks == [10, 20, 30]


def test_c_logic_operators_in_expressions():
    rt, it = fresh()
    it.run_text("int a = 1;\nint b = 0;\nc = a && !b;\nd = b || a;\n")
    assert it.env["c"] == 1 and it.env["d"] == 1
    assert type(it.env["c"]) is int and type(it.env["d"]) is int


# C semantics the interpreter must follow where Python's differ
C_TABLE = [
    ("7/2", 3),
    ("-7/2", -3),
    ("-7%3", -1),
    ("1.5/2", 0.75),
    ("2 == 2 == 1", 1),
    ("1 && 2", 1),
    ("!0", 1),
    ("(a>3)+(a>4)", 2),
    ("1 ? 2 : 3", 2),
    ("010", 8),
    ("10u", 10),
    ("'a'", 97),
]


@pytest.mark.parametrize("text,value", C_TABLE)
def test_c_semantics_table(text, value):
    rt, it = fresh()
    it.env["a"] = 5
    result = it.eval_expr(text)
    assert result == value
    assert type(result) is type(value)  # truth values are ints, never bool


@pytest.mark.parametrize("text", ["a and b", "x if y else z", "2**3", "s >", "a = 1", "(int) a", "a[0]"])
def test_text_outside_the_c_subset_raises_interp_error(text):
    rt, it = fresh()
    it.env.update(a=1, b=2, x=3, y=4, z=5, s=6)
    with pytest.raises(InterpError):
        it.eval_expr(text)


@pytest.mark.parametrize("text", ["1/0", "a % 0", "1.5 % 2"])
def test_division_by_zero_and_float_remainder_raise_interp_error(text):
    rt, it = fresh()
    it.env["a"] = 7
    with pytest.raises(InterpError):
        it.eval_expr(text)


def test_malformed_guard_in_program_raises_value_error():
    rt, it = fresh()
    it.run_text('cpm_ctx_register(s, sensor, "s");\n')
    with pytest.raises(ValueError, match="not a C expression"):
        it.run_text('cpm_guard_register(g, "s >");\n')


def test_unsupported_statement_raises():
    rt, it = fresh()
    with pytest.raises(InterpError):
        it.run_text("while (1) x = 1\n")  # no semicolon, not a block header


def test_unknown_name_raises_interp_error():
    rt, it = fresh()
    with pytest.raises(InterpError):
        it.run_text("y = nothere + 1;\n")


def test_full_lowered_program_end_to_end():
    src = (
        "redundant_t int counter;\n"
        "counter = 0;\n"
        "counter += 40;\n"
        "counter++;\n"
        "result = counter + 1;\n"
    )
    out, _ = run(compose(["redundancy"]), load_unit(src))
    rt, it = fresh()
    it.run_unit(out)
    assert rt.registry.pipeline_string == "cpm://redundancy/1.1"
    assert rt.replicas["counter"].replicas == (41, 41, 41)
    assert it.env["result"] == 42


def test_code_after_block_comment_close_is_executed():
    rt, it = fresh()
    it.run_text("int a = 1;\n/* c\n */ a = 2;\n")
    assert it.env["a"] == 2


def test_nested_array_access_evaluates():
    rt, it = fresh()
    it.run_text("cpm_arr_register(a);\n")
    arr = rt.registry.arrays["a"]
    arr.set_prop(1, "b", "m2")
    arr.set_prop("m2", "b", 7)
    it.run_text("x = cpm_arr_get(a, (cpm_arr_get(a, (1), b)), b);\n")
    assert it.env["x"] == 7
