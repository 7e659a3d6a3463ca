from cpm.ext_reflective import (
    ArrayPass,
    RefractivePass,
    lower_array_accesses,
    lower_context_accesses,
    scan_arrays,
    scan_context,
)
import itertools
from pathlib import Path

import pytest

from cpm.interp import AbiInterpreter
from cpm.pipeline import PassConfig, compose, run
from cpm.runtime import Runtime
from cpm.srcmodel import load_unit, render

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def refract(src, config=None):
    return RefractivePass().transform(load_unit(src), config or PassConfig())


def arrayp(src, config=None):
    return ArrayPass().transform(load_unit(src), config or PassConfig())


def test_context_decl_becomes_registration():
    unit, _ = refract("context_t int watchdog;\n")
    assert render(unit) == 'cpm_ctx_register(watchdog, both, "watchdog");\n'


def test_sensor_and_actuator_decls():
    unit, _ = refract("sensor_t int cpu_load;\nactuator_t int volume;\n")
    out = render(unit).splitlines()
    assert out[0] == 'cpm_ctx_register(cpu_load, sensor, "cpu_load");'
    assert out[1] == 'cpm_ctx_register(volume, actuator, "volume");'


def test_actuator_write_lowering():
    unit, _ = refract("context_t int watchdog;\nwatchdog = 1;\n")
    assert render(unit).splitlines()[1] == "cpm_ctx_write(watchdog, (1));"


def test_sensor_read_lowering():
    unit, _ = refract("context_t int watchdog;\nif (watchdog == WD_FIRED) restart();\n")
    assert render(unit).splitlines()[1] == "if (cpm_ctx_read(watchdog) == WD_FIRED) restart();"


def test_config_declared_sensor_is_lowerable():
    cfg = PassConfig({"refractive.sensors": "watchdog:int"})
    unit, _ = refract("state = watchdog;\n", cfg)
    assert render(unit) == "state = cpm_ctx_read(watchdog);\n"


def test_config_name_with_two_directions_is_both_and_warned_once():
    cfg = PassConfig({"refractive.sensors": "a", "refractive.actuators": "a, b"})
    unit, diags = refract("a = a + 1;\nv = b;\n", cfg)
    assert render(unit) == "cpm_ctx_write(a, (cpm_ctx_read(a) + 1));\nv = b;\n"
    assert [(d.line_no, d.message) for d in diags] == [
        (0, "context variable 'a' configured with two directions; treating as both"),
        (2, "read of write-only context variable 'b' left unrewritten"),
    ]


def test_config_name_repeated_in_one_direction_is_not_warned():
    cfg = PassConfig({"refractive.sensors": "a, a"})
    unit, diags = refract("a = 1;\nv = a;\n", cfg)
    assert render(unit) == "a = 1;\nv = cpm_ctx_read(a);\n"
    assert [d.line_no for d in diags] == [1]  # the write to the sensor, no config warning


def test_sensor_only_assignment_warned():
    cfg = PassConfig({"refractive.sensors": "cpu_load"})
    unit, diags = refract("cpu_load = 5;\n", cfg)
    assert render(unit) == "cpu_load = 5;\n"
    assert any("read-only" in d.message for d in diags)


def test_actuator_only_read_warned():
    cfg = PassConfig({"refractive.actuators": "volume"})
    unit, diags = refract("v = volume;\n", cfg)
    assert render(unit) == "v = volume;\n"
    assert any("write-only" in d.message for d in diags)


def test_both_direction_compound_assignment():
    unit, _ = refract("context_t int watchdog;\nwatchdog += 1;\n")
    assert render(unit).splitlines()[1] == "cpm_ctx_write(watchdog, cpm_ctx_read(watchdog) + (1));"


def test_plain_code_untouched_by_refractive():
    src = "plain = 3;\nint f(void);\n"
    unit, diags = refract(src)
    assert render(unit) == src
    assert not diags


def test_extern_declaration_of_context_name_not_warned():
    # the shared-variable pattern: another extension owns the definition
    cfg = PassConfig({"refractive.context": "watchdog"})
    src = "extern redundant_t int watchdog;\n"
    unit, diags = refract(src, cfg)
    assert render(unit) == src
    assert not diags


def test_plain_redefinition_of_context_name_warned():
    cfg = PassConfig({"refractive.context": "watchdog"})
    unit, diags = refract("int watchdog;\n", cfg)
    assert any("redeclared" in d.message for d in diags)


def test_guard_decl_registration():
    src = "sensor_t int watchdog;\nguard_t (watchdog == WD_FIRED) notify;\n"
    unit, _ = refract(src)
    assert render(unit).splitlines()[1] == 'cpm_guard_register(notify, "watchdog == WD_FIRED");'


def test_guard_may_precede_sensor_declaration():
    src = "guard_t (watchdog == WD_FIRED) notify;\nsensor_t int watchdog;\n"
    unit, diags = refract(src)
    assert render(unit).splitlines()[0] == 'cpm_guard_register(notify, "watchdog == WD_FIRED");'
    assert not any("guard" in d.message for d in diags)


def test_guard_without_sensor_dropped_with_warning():
    unit, diags = refract("guard_t (nosensor > 3) notify;\n")
    assert render(unit) == "guard_t (nosensor > 3) notify;\n"
    assert any("no declared sensor" in d.message for d in diags)


def test_guard_that_is_not_a_c_expression_dropped_with_warning():
    unit, diags = refract("sensor_t int s;\nguard_t (s >) f;\n")
    assert render(unit).splitlines()[1].startswith("guard_t (")
    assert [d.message for d in diags] == ["guard for 'f' is not a C expression; guard dropped"]


def test_watchdog_demo_in_demo_order_registers_its_guard_and_runs():
    # every pass scans before any pass lowers, so the guard is checked as
    # written in every order, also when redundancy lowers 'watchdog' first
    src = (DEMOS / "watchdog_task.cpm").read_text(encoding="latin-1")
    config = PassConfig.from_ini(DEMOS / "extensions.ini")
    for order in itertools.permutations(["refractive", "array", "redundancy", "cyclic"]):
        out, report = run(compose(order, config=config), load_unit(src))
        assert not report.diagnostics, order
        rt = Runtime()
        rt.ctx_register("watchdog", "both")  # configured out of band, as in extensions.ini
        AbiInterpreter(rt, env={"WD_FIRED": 2}).run_unit(out)
        assert [g.name for g in rt.registry.guards] == ["on_watchdog_fired"], order


def test_array_decl_becomes_registration():
    unit, _ = arrayp("reflective_array_t linkbeacons { beacons:int, silent_periods:int };\n")
    assert render(unit) == "cpm_arr_register(linkbeacons);\n"


def test_array_access_lowering():
    src = (
        "reflective_array_t linkbeacons { beacons:int, silent_periods:int };\n"
        "n = linkbeacons[mac].beacons;\n"
    )
    unit, _ = arrayp(src)
    assert render(unit).splitlines()[1] == "n = cpm_arr_get(linkbeacons, (mac), beacons);"


def test_array_access_via_config():
    cfg = PassConfig({"array.arrays": "linkrates", "array.linkrates": "rate:int"})
    unit, _ = arrayp("r = linkrates[mac].rate;\n", cfg)
    assert render(unit) == "r = cpm_arr_get(linkrates, (mac), rate);\n"


def test_array_unknown_property_warned():
    cfg = PassConfig({"array.arrays": "linkrates", "array.linkrates": "rate:int"})
    unit, diags = arrayp("r = linkrates[mac].bogus;\n", cfg)
    assert render(unit) == "r = linkrates[mac].bogus;\n"
    assert any("unknown property" in d.message for d in diags)


def test_array_key_expression_preserved():
    cfg = PassConfig({"array.arrays": "linkrates", "array.linkrates": "rate:int"})
    unit, _ = arrayp("r = linkrates[peers[i]].rate;\n", cfg)
    assert render(unit) == "r = cpm_arr_get(linkrates, (peers[i]), rate);\n"


def test_array_property_write_warned():
    cfg = PassConfig({"array.arrays": "linkrates", "array.linkrates": "rate:int"})
    unit, diags = arrayp("linkrates[mac].rate = 5;\n", cfg)
    assert render(unit) == "linkrates[mac].rate = 5;\n"
    assert any("unsupported" in d.message for d in diags)


def test_anext_left_as_function_call():
    cfg = PassConfig({"array.arrays": "linkbeacons"})
    src = "mac = anext(linkbeacons);\n"
    unit, _ = arrayp(src, cfg)
    assert render(unit) == src


def test_line_without_array_names_untouched():
    cfg = PassConfig({"array.arrays": "linkbeacons"})
    src = "other[k].beacons = 1;\n"
    unit, diags = arrayp(src, cfg)
    assert render(unit) == src
    assert not diags


def test_idempotence_of_both_passes():
    cfg = PassConfig(
        {
            "refractive.context": "watchdog",
            "array.arrays": "linkbeacons",
            "array.linkbeacons": "beacons:int",
        }
    )
    src = "watchdog = 1;\nk = watchdog + linkbeacons[m].beacons;\n"
    once, _ = refract(src, cfg)
    once, _ = ArrayPass().transform(once, cfg)
    twice, _ = RefractivePass().transform(once, cfg)
    twice, _ = ArrayPass().transform(twice, cfg)
    assert render(once) == render(twice)


def test_lower_ops_direct():
    unit, diags = lower_context_accesses(load_unit("watchdog = 1;\n"), {"watchdog": "both"})
    assert render(unit) == "cpm_ctx_write(watchdog, (1));\n"
    assert not diags

    unit, diags = lower_array_accesses(load_unit("r = linkrates[mac].rate;\n"), {"linkrates": ("rate",)})
    assert render(unit) == "r = cpm_arr_get(linkrates, (mac), rate);\n"
    assert not diags


def test_scan_context_returns_all_spec_kinds():
    src = (
        "sensor_t int cpu;\n"
        "actuator_t int vol;\n"
        "reflective_array_t linkbeacons { beacons:int };\n"
        "guard_t (cpu > 90) shed_load;\n"
    )
    unit, scalars, diags = scan_context(load_unit(src), PassConfig())
    unit, arrays, diags = scan_arrays(unit, PassConfig())
    assert scalars == {"cpu": "sensor", "vol": "actuator"}
    assert arrays == {"linkbeacons": ("beacons",)}
    assert render(unit).splitlines()[3] == 'cpm_guard_register(shed_load, "cpu > 90");'


def test_nested_array_access_in_key_is_lowered():
    src = "reflective_array_t a { b:int };\nx = a[a[1].b].b;\n"
    unit, diags = arrayp(src)
    assert render(unit).splitlines()[1] == "x = cpm_arr_get(a, (cpm_arr_get(a, (1), b)), b);"
    assert not diags


def test_nested_array_access_in_key_is_warned_when_not_lowerable():
    cfg = PassConfig({"array.arrays": "a", "array.a": "b:int"})
    unit, diags = arrayp("x = a[a[1].bogus].b;\n", cfg)
    assert render(unit) == "x = cpm_arr_get(a, (a[1].bogus), b);\n"
    assert any("unknown property 'bogus'" in d.message for d in diags)


@pytest.mark.parametrize("stmt, lowered, warning", [
    ("x = a[a[1].b].bogus;", "x = a[cpm_arr_get(a, (1), b)].bogus;", "unknown property 'bogus'"),
    ("a[a[1].b].b = 2;", "a[cpm_arr_get(a, (1), b)].b = 2;", "assignment to reflective array property"),
    ("y = a[a[1].b];", "y = a[cpm_arr_get(a, (1), b)];", "without a property selector"),
])
def test_key_of_unlowered_access_is_still_lowered(stmt, lowered, warning):
    cfg = PassConfig({"array.arrays": "a", "array.a": "b:int"})
    unit, diags = arrayp(stmt + "\n", cfg)
    assert render(unit) == lowered + "\n"
    assert [warning in d.message for d in diags] == [True]


def test_context_declaration_after_block_comment_close_is_lowered():
    unit, _ = refract("/* c\n */ sensor_t int s;\nx = s;\n")
    assert render(unit).splitlines()[1:] == [
        ' */ cpm_ctx_register(s, sensor, "s");',
        "x = cpm_ctx_read(s);",
    ]


def test_context_access_after_block_comment_close_is_lowered():
    unit, _ = refract("sensor_t int s;\n/* c\n */ x = s;\n")
    assert render(unit).splitlines()[2] == " */ x = cpm_ctx_read(s);"


def test_array_access_after_block_comment_close_is_lowered():
    cfg = PassConfig({"array.arrays": "a", "array.a": "b:int"})
    unit, _ = arrayp("/* c\n */ x = a[k].b;\n", cfg)
    assert render(unit).splitlines()[1] == " */ x = cpm_arr_get(a, (k), b);"
