import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpm import cexpr, interp
from cpm.interp import AbiInterpreter, InterpError
from cpm.pipeline import compose, run
from cpm.runtime import Runtime
from cpm.srcmodel import SourceUnit, load_unit

from oracles import reference_run_unit


def fresh():
    rt = Runtime()
    return rt, AbiInterpreter(rt)


def test_preamble_sets_pipeline_string():
    rt, it = fresh()
    it.run_text('const char *extensions_pipeline = "cpm://cyclic/1.0"; /* cpm preamble */\n')
    assert it.env["extensions_pipeline"] == "cpm://cyclic/1.0"


def test_lowered_program_reads_the_pipeline_string():
    out, _ = run(compose(["redundancy", "cyclic"]), load_unit("const char *p = extensions_pipeline;\n"))
    rt, it = fresh()
    it.run_unit(out)
    assert it.env["p"] == "cpm://redundancy/1.1;cpm://cyclic/1.0"


def test_storage_write_read_cycle():
    rt, it = fresh()
    it.run_text("cpm_red_storage(x, int, 3);\ncpm_red_write(x, (5));\ny = cpm_red_read(x) + 1;\n")
    assert rt.replicas["x"].replicas == (5, 5, 5)
    assert it.env["y"] == 6


def test_declarations_and_assignments():
    rt, it = fresh()
    it.run_text("int a = 2;\nint b;\nb = a * 3;\nb += 1;\nb++;\n")
    assert it.env == {"a": 2, "b": 8}


def test_every_declarator_is_set_in_turn():
    rt, it = fresh()
    it.run_text("int a, b;\nint c = 1, *d = c + 1, e;\nunsigned long f = -7 / 2;\n")
    assert it.env == {"a": 0, "b": 0, "c": 1, "d": 2, "e": 0, "f": -3}


def test_updates_and_returns_follow_c_semantics():
    rt, it = fresh()
    it.run_text("int a = -7;\na /= 2;\nint b = 7;\nb %= -3;\n++b;\nb--;\n--b;\nint c = 1;\nc <<= 3;\nreturn c;\nreturn;\n")
    assert it.env == {"a": -3, "b": 0, "c": 8}


def test_prototypes_and_braces_are_ignored():
    rt, it = fresh()
    it.env["x"] = 5
    it.run_text("int f(int);\nint main(void) {\n}\nreturn 0;\nextern int x;\nint g(int), h(void (*)(int));\n")
    assert it.env == {"x": 5}  # an extern declarator without an initializer sets nothing


def test_storage_type_may_take_several_words():
    rt, it = fresh()
    it.run_text("cpm_red_storage(x, unsigned int, 5);\ncpm_red_extern(x, unsigned int);\ncpm_red_storage(p, int *, 3);\n")
    assert (rt.replicas["x"].n, rt.replicas["p"].n) == (5, 3)


def test_context_registration_and_access():
    rt, it = fresh()
    it.run_text('cpm_ctx_register(watchdog, both, "watchdog");\n')
    rt.registry.bind_actuator("watchdog", lambda v: rt.sensor_update("watchdog", v))
    it.run_text("cpm_ctx_write(watchdog, (7));\nstate = cpm_ctx_read(watchdog);\n")
    assert it.env["state"] == 7


def test_guard_registration_binds_python_body():
    rt, it = fresh()
    hits = []
    it.bind_function("notify", lambda: hits.append(rt.events.now))
    it.run_text(
        'cpm_ctx_register(watchdog, sensor, "watchdog");\n'
        'cpm_guard_register(notify, "watchdog == 3");\n'
    )
    rt.sensor_update("watchdog", 3)
    assert hits == [0]


def test_guard_body_bound_after_registration_runs_on_the_next_edge():
    rt, it = fresh()
    hits = []
    it.run_text('cpm_ctx_register(s, sensor, "s");\ncpm_guard_register(f, "s > 1");\n')
    it.bind_function("f", lambda: hits.append(rt.registry.sensor_value("s")))
    rt.sensor_update("s", 5)
    assert hits == [5]


def test_cycle_body_bound_after_registration_runs_on_the_next_fire():
    rt, it = fresh()
    ticks = []
    it.run_text("cpm_cycle_register(Tick);\ncpm_cycle_set(Tick, (10));\n")
    rt.advance(10)
    it.bind_function("Tick", lambda: ticks.append(rt.events.now))
    rt.advance(20)
    assert ticks == [20, 30]


def test_array_calls_translate_names():
    rt, it = fresh()
    it.run_text("cpm_arr_register(linkrates);\n")
    rt.registry.arrays["linkrates"].set_prop("m1", "rate", 10.0)
    it.env["mac"] = "m1"
    it.run_text("r = cpm_arr_get(linkrates, (mac), rate);\nfirst = anext(linkrates, 0);\n")
    assert it.env["r"] == 10.0
    assert it.env["first"] == "m1"


def test_anext_reads_as_a_c_pointer_in_range_and_past_the_end():
    rt, it = fresh()
    it.run_text("cpm_arr_register(a);\n")
    rt.arr_report_beacon("a", "m1")
    it.run_text(
        "in_ne = anext(a, 0) != 0; in_eq = anext(a, 0) == 0; in_not = !anext(a, 0);\n"
        "past_ne = anext(a, 1) != 0; past_eq = anext(a, 1) == 0; past_not = !anext(a, 1);\n"
    )
    assert it.env == {"in_ne": 1, "in_eq": 0, "in_not": 0, "past_ne": 0, "past_eq": 1, "past_not": 1}
    assert rt.anext("a", 1) == 0 and type(rt.anext("a", 1)) is int  # C's NULL at the ABI
    assert rt.registry.arrays["a"].anext(1) is None  # the Python API keeps None


def test_array_staleness_reads_as_a_c_int():
    rt, it = fresh()
    written = []
    rt.ctx_register("vol", "actuator")
    rt.registry.bind_actuator("vol", written.append)
    it.run_text("cpm_arr_register(a);\n")
    rt.arr_report_beacon("a", "m1")
    rt.arr_rollover("a")
    rt.arr_rollover("a")  # a whole period without a beacon: stale
    it.env["mac"] = "m1"
    read = "int {0} = cpm_arr_get(a, (mac), stale); int {0}_not = !cpm_arr_get(a, (mac), stale); cpm_ctx_write(vol, ({0}));\n"
    it.run_text(read.format("s"))
    rt.arr_report_beacon("a", "m1")  # heard again: live
    it.run_text(read.format("live"))
    got = {k: it.env[k] for k in ("s", "s_not", "live", "live_not")}
    assert got == {"s": 1, "s_not": 0, "live": 0, "live_not": 1}
    assert all(type(v) is int for v in got.values())
    assert written == [1, 0] and all(type(v) is int for v in written)
    assert rt.events.to_csv().splitlines()[1:] == ["0,actuate,vol,1,1", "0,actuate,vol,2,0"]


def test_cycle_calls_schedule_actions():
    rt, it = fresh()
    ticks = []
    it.bind_function("Tick", lambda: ticks.append(rt.events.now))
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
    ("10l", 10),
    ("'a'", 97),
    ("'\\?'", 63),
    ('"a\\?b"', "a?b"),
    ('"\\xff\\200"', "\xff\x80"),
    ("'\\101'", 65),
    ("'\\x41'", 65),
]


@pytest.mark.parametrize("text,value", C_TABLE)
def test_c_semantics_table(text, value):
    rt, it = fresh()
    it.env["a"] = 5
    result = it.eval_expr(text)
    assert result == value
    assert type(result) is type(value)  # truth values are ints, never bool


# a character constant reads as C's signed char does: past 0x7F it is
# negative, as in a latin-1 source
SIGNED_CHARS = [("'\\xff'", -1), ("'\\200'", -128), ("'\\x80'", -128), ("'\\177'", 127), ("'\xe9'", -23)]


@pytest.mark.parametrize("text,value", SIGNED_CHARS)
def test_character_constants_read_as_a_signed_char_on_every_path(text, value):
    rt, it = fresh()
    it.run_text(f"int x = {text};\n")
    assert it.env["x"] == value == it.eval_expr(text)
    rt.ctx_register("s", "sensor")
    rt.guard_register("g", f"s == {text}")
    assert rt.sensor_update("s", value) == ["g"]


def refused_on_every_path(text):
    """The interpreter, the guard registry and the refractive pass all
    refuse ``text`` as not a C expression."""
    rt, it = fresh()
    with pytest.raises(InterpError, match="not a C expression"):
        it.eval_expr(text)
    rt.ctx_register("s", "sensor")
    with pytest.raises(ValueError, match="not a C expression"):
        rt.guard_register("g", f"s == ({text})")
    _, report = run(compose(["refractive"]), load_unit(f"sensor_t int s;\nguard_t (s == ({text})) f;\n"))
    assert [d.message for d in report.diagnostics] == ["guard for 'f' is not a C expression; guard dropped"]


# an unsigned literal would need C's unsigned arithmetic, which is not
# modelled: ~0u is 4294967295 in C, (1u - 2) > 0 is 1 and (-020U) is 4294967280
@pytest.mark.parametrize("text", ["10u", "~0u", "(1u - 2) > 0", "(-020U)"])
def test_unsigned_literals_are_refused_on_every_path(text):
    refused_on_every_path(text)


# a literal decodes C's escapes only: Python's \N{...}, an unknown escape
# and an octal or hex escape past an unsigned char are not C
@pytest.mark.parametrize("text", ["'\\N{LATIN SMALL LETTER A}'", '"\\q"', "'\\x100'", "'\\400'", '"\\x"'])
def test_escapes_that_are_not_c_are_refused_on_every_path(text):
    refused_on_every_path(text)


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


@pytest.mark.parametrize("text", ["cpm_red_storage(x);", "cpm_guard_register(g);", "int a[3];", "int a, ;", "x++ + 1;"])
def test_malformed_statement_raises_interp_error(text):
    rt, it = fresh()
    it.env["x"] = 1
    with pytest.raises(InterpError):
        it.run_text(text + "\n")


@pytest.mark.parametrize("helper", ["_c_div", "_c_mod"])
def test_helper_names_are_reserved(helper):
    # compiled code looks names up in its locals first, so a C variable named
    # like a helper would shadow it: ``7 / 2`` then called an int
    rt, it = fresh()
    with pytest.raises(InterpError, match="reserved identifier"):
        it.run_text(f"int {helper} = 5;\n")
    for text in (f"x = {helper};", f"{helper}++;", f"y = {helper}(7, 2);"):
        with pytest.raises(InterpError, match="reserved identifier"):
            it.run_text(text + "\n")
    with pytest.raises(InterpError):
        it.run_text(f'cpm_ctx_register({helper}, sensor, "s");\n')
    it.run_text("int a = 7 / 2;\nint b = -7 % 3;\n")
    assert it.env == {"a": 3, "b": -1}
    with pytest.raises(ValueError, match="reserved"):
        AbiInterpreter(rt, env={helper: 1})


@pytest.mark.parametrize(
    "text,line,header",
    [
        ("int x = 1;\nif (x > 5) {\nx = 100;\n}\n", 2, "if (x > 5) {"),
        ("int x = 1;\nwhile (x < 0) {\nx = 100;\n}\n", 2, "while (x < 0) {"),
        ("int x = 1;\nfor (;;) {\n", 2, "for (;;) {"),
        ("int x = 1;\nif (x) { x = 2; } else {\n", 2, "if (x) {"),
        ("int x = 1; x = 1; } else {\n", 1, "else {"),
        ("int x = 1;\ndo {\n", 2, "do {"),
        ("int x = 1;\nswitch (x) {\n", 2, "switch (x) {"),
    ],
)
def test_a_control_header_is_refused_not_skipped(text, line, header):
    # control flow is not interpreted, so running a guarded body
    # unconditionally would be wrong; function headers stay skipped
    rt, it = fresh()
    with pytest.raises(InterpError) as info:
        it.run_text(text)
    assert str(info.value) == f"line {line}: unsupported statement {header!r}"
    assert it.env == {"x": 1}


@pytest.mark.parametrize(
    "text,env",
    [
        ("x = f(x;", {"x": 1}),
        ("x = (x", {"x": 1}),
        ("x = g(x; y = 2;", {"x": 1}),
        ("x = 2; y = a[x;", {"x": 2}),
    ],
)
def test_an_unfinished_statement_is_unsupported(text, env):
    # a ';' inside an open bracket ends no statement, so the rest of the line
    # is refused as a whole, after the statements before it ran
    rt, it = fresh()
    with pytest.raises(InterpError) as info:
        it.run_text(f"int x = 1;\n{text}\n")
    assert str(info.value) == f"line 2: unsupported statement {text!r}"
    assert it.env == env


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
    assert it.env["extensions_pipeline"] == "cpm://redundancy/1.1"
    assert rt.replicas["counter"].replicas == (41, 41, 41)
    assert it.env["result"] == 42


def test_code_after_block_comment_close_is_executed():
    rt, it = fresh()
    it.run_text("int a = 1;\n/* c\n */ a = 2;\n")
    assert it.env["a"] == 2


def test_the_same_text_compiles_by_whether_it_opens_in_a_comment():
    for first_in_comment in (True, False):
        rt, it = fresh()
        runs = ["/* c\n*/ a = 2;\n", "*/ a = 2;\n"]
        for text in runs if first_in_comment else runs[::-1]:
            if text.startswith("/*"):
                it.run_text(text)
                assert it.env == {"a": 2}
            else:
                with pytest.raises(InterpError, match="line 1: cannot run '\\*/ a = 2'"):
                    it.run_text(text)


def test_nested_array_access_evaluates():
    rt, it = fresh()
    it.run_text("cpm_arr_register(a);\n")
    arr = rt.registry.arrays["a"]
    arr.set_prop(1, "b", "m2")
    arr.set_prop("m2", "b", 7)
    it.run_text("x = cpm_arr_get(a, (cpm_arr_get(a, (1), b)), b);\n")
    assert it.env["x"] == 7


# pieces of lines: statements and emitted calls that run; braces, empty
# statements and comments; and statements that are unsupported, do not
# compile or fail while they run
_RUNS = [
    "int a = 4;", "a = a + 2;", "b += a;", "a++;", "--a;", "int c = a / 2, d;", "return a;", "x = ';';",
    "cpm_red_storage(r, int, 3);", "cpm_red_write(r, (a));", "x = cpm_red_read(r) + 1;", "int f(int);",
    "cpm_ctx_write(act, (a));", "cpm_ctx_write(act, (0));", 'cpm_guard_register(g, "act > 2");',
    'cpm_ctx_register(s, sensor, "s");', "cpm_arr_register(arr);", "cpm_cycle_register(T);", "cpm_cycle_set(T, (10));",
]
_SKIPPED = [
    "{", "}", "int main(void) {", ";;", ";", "/* a = 9; */", "/* open\n*/ a = 7;", "/* open\n*/",
    "/* open\n@ext:cyclic */ a = 8;",  # inside a comment, a tag is not a tag
]
_FAILS = [
    "y = nothere + 1;", "z = 1 / 0;", "z = a % 0;", "int q[3];", "x++ + 1;", "a and b;", "*/ a = 7;",
    "v = cpm_arr_get(arr, (1), p);", 'cpm_guard_register(h, "act ==");', "while (1) x = 1", "a = 1",
    "if (a) {", "x = f(x;", "x = (x", "x = g(x; y = 2;",
]


@st.composite
def _line(draw, pieces):
    tag = draw(st.sampled_from(["", "", "", "@ext:cyclic "]))
    return tag + " ".join(draw(st.lists(pieces, min_size=1, max_size=3)))


@st.composite
def _program(draw):
    """Lines that run or are skipped, and at most one that fails."""
    lines = draw(st.lists(_line(st.sampled_from(_RUNS + _SKIPPED)), min_size=1, max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_line(st.sampled_from(_RUNS + _FAILS))))
    return "\n".join(lines) + "\n"


def run_observed(runner, text):
    """Run ``text`` with ``runner(interpreter, unit)`` on a fresh runtime
    with a guard body and an actuator feeding its sensor; returns what the
    run left behind and what it raised."""
    rt = Runtime()
    it = AbiInterpreter(rt, {"a": 3, "b": 0})
    fires = []
    it.bind_function("g", lambda: fires.append(rt.events.now))
    rt.registry.register("act", "both")
    rt.registry.bind_actuator("act", lambda value: rt.sensor_update("act", value))
    rt.red_storage("r")
    try:
        runner(it, load_unit(text))
        raised = None
    except Exception as exc:
        raised = (type(exc), str(exc), type(exc.__cause__))
    replicas = {name: rs.replicas for name, rs in rt.replicas.items()}
    return it.env, rt.events.to_csv(), replicas, fires, rt.registry.sensors, raised


@settings(max_examples=300, deadline=None)
@given(_program())
@example("x = f(x; if (a) {\nint a = 4;\n")  # a '{' inside an open bracket opens no block
def test_compiled_programs_run_like_the_reference_loop(text):
    expected = run_observed(reference_run_unit, text)
    interp._CHUNKS.clear()
    assert run_observed(AbiInterpreter.run_unit, text) == expected  # cold
    assert run_observed(AbiInterpreter.run_unit, text) == expected  # warm, a second interpreter


# past Python's nesting limits: translates, but compiles neither alone nor
# in a chunk
_TOO_DEEP = "z = " + "+".join(["1"] * 300) + ";"


@st.composite
def _long_program(draw):
    """More lines than one window, of one to three statements each, then at
    most one line that fails, so the failure falls in a later window, maybe
    in the middle of its line, and lines after it."""
    counts = draw(st.lists(st.integers(1, 3), min_size=interp.CHUNK, max_size=3 * interp.CHUNK))
    lines = [" ".join(f"b += {(k + j) % 7};" for j in range(n)) for k, n in enumerate(counts)]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_line(st.sampled_from(_RUNS + _SKIPPED))))
    if draw(st.booleans()):
        fails = _FAILS + [_TOO_DEEP, "int m = 1, n = m / 0;"]
        lines.append(draw(_line(st.sampled_from(_RUNS + fails))))
    lines += draw(st.lists(_line(st.sampled_from(_RUNS + _SKIPPED)), max_size=3))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_long_program())
def test_programs_longer_than_a_chunk_run_like_the_reference_loop(text):
    expected = run_observed(reference_run_unit, text)
    interp._CHUNKS.clear()
    assert run_observed(AbiInterpreter.run_unit, text) == expected  # cold
    assert run_observed(AbiInterpreter.run_unit, text) == expected  # warm, a second interpreter


def test_a_failure_names_its_own_line_wherever_its_chunk_starts():
    bad = interp.CHUNK + 37  # the second declarator of one statement in the second chunk
    body = "".join(f"int v{k} = {k}, w{k} = v{k} / {k - bad};\n" for k in range(interp.CHUNK * 2))
    for head in ("", "a = 1; b = 2;\n/* x; */\n"):  # moves the chunk boundary and the line numbers
        rt, it = fresh()
        with pytest.raises(InterpError) as info:
            it.run_text(head + body)
        line, text = bad + 1 + head.count("\n"), f"int v{bad} = {bad}, w{bad} = v{bad} / 0"
        assert str(info.value) == f"line {line}: cannot run {text!r}: integer division or modulo by zero"
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert (it.env[f"v{bad}"], it.env[f"w{bad - 1}"], f"w{bad}" in it.env) == (bad, 1 - bad, False)


def test_an_error_names_the_position_of_its_line_in_the_unit_run():
    lines = load_unit("x = x + 1;\ny = 1 / (x - 2);\n").lines
    it = AbiInterpreter(Runtime(), env={"x": 0})
    with pytest.raises(InterpError) as info:
        it.run_unit(SourceUnit(lines * 2))  # the same two line objects at lines 1-2 and 3-4
    assert str(info.value) == "line 4: cannot run 'y = 1 / (x - 2)': integer division or modulo by zero"
    assert it.env == {"x": 2, "y": -1}


def test_the_process_wide_caches_hold_at_most_their_bounds(monkeypatch):
    bound = 8
    monkeypatch.setattr(interp, "CHUNK_CACHE_SIZE", bound)
    monkeypatch.setattr(cexpr, "EXPR_CACHE_SIZE", bound)
    rt, it = fresh()
    for k in range(2 * bound + 1):  # each a distinct line, chunk and expression
        it.run_text(f"int c{k} = {k};\n")
        assert it.eval_expr(f"c{k} + {k}") == 2 * k
        assert max(len(interp._CHUNKS), cexpr.compile_expr.cache_info().currsize) <= bound
    # a unit with more distinct lines than the bound still names its failing line
    text = "".join(f"d{k} = {k};\n" for k in range(2 * bound)) + "e = 1 / 0;\n"
    with pytest.raises(InterpError, match=f"^line {2 * bound + 1}: cannot run 'e = 1 / 0'"):
        it.run_text(text)
    assert len(interp._CHUNKS) <= bound


def test_a_statement_past_pythons_nesting_limits_ends_its_chunk():
    rt, it = fresh()
    it.env["b"] = 0
    text = "b += 1;\n" * (interp.CHUNK + 5) + _TOO_DEEP + "\nb = 0;\n"
    with pytest.raises(InterpError, match=f"^line {interp.CHUNK + 6}: cannot run 'z = 1\\+1.*too many nested") as info:
        it.run_text(text)
    assert isinstance(info.value.__cause__, ValueError)
    assert it.env == {"b": interp.CHUNK + 5}


@pytest.mark.parametrize(
    "refused", ["if (a) {", "x = f(x;", "int q[3];", _TOO_DEEP], ids=["control", "unfinished", "untranslatable", "too-deep"]
)
def test_a_refused_statement_raises_from_the_cache_without_compiling_again(refused):
    def refuse(*args):
        raise AssertionError("a refused statement was translated or compiled again")

    def run():
        rt, it = fresh()
        with pytest.raises(InterpError) as info:
            it.run_text("a = 1;\n" + refused + "\na = 2;\n")
        return str(info.value), type(info.value.__cause__), it.env

    first = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp, "translate_stmt", refuse)
        patch.setattr(interp, "compile_stmt", refuse)
        assert run() == first
    assert first[0].startswith("line 2: ") and first[2] == {"a": 1}
