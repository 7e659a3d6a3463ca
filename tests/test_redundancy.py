import pytest

from cpm.ext_redundancy import RedundancyPass, lower_accesses, scan_redundant
from cpm.interp import AbiInterpreter
from cpm.pipeline import PassConfig, compose
from cpm.runtime import Runtime
from cpm.runtime.redundant import AdaptPolicy
from cpm.srcmodel import load_unit, render


def transform(src, config=None):
    return RedundancyPass().transform(load_unit(src), config or PassConfig())


def transformed_text(src, config=None):
    unit, _ = transform(src, config)
    return render(unit)


def test_scan_plain_declaration():
    assert transformed_text("redundant_t int x;\n") == "cpm_red_storage(x, int, 3);\n"


def test_scan_extern_declaration():
    assert (
        transformed_text("extern redundant_t int watchdog;\n")
        == "cpm_red_extern(watchdog, int);\n"
    )


def test_scan_respects_replica_config():
    cfg = PassConfig({"redundancy.replicas": "5"})
    assert transformed_text("redundant_t int x;\n", cfg) == "cpm_red_storage(x, int, 5);\n"


def test_scan_coerces_bad_replica_config():
    cfg = PassConfig({"redundancy.replicas": "4"})
    unit, diags = transform("redundant_t int x;\n", cfg)
    assert render(unit) == "cpm_red_storage(x, int, 5);\n"
    assert any("odd" in d.message for d in diags)


def test_replica_count_above_the_runtime_maximum_is_lowered_to_it():
    cfg = PassConfig({"redundancy.replicas": "11"})
    unit, diags = transform("redundant_t int x;\n", cfg)
    assert render(unit) == f"cpm_red_storage(x, int, {AdaptPolicy.n_max});\n"
    assert [d.message for d in diags] == ["redundancy.replicas=11 lowered to 9 (the runtime's maximum)"]
    rt = Runtime()
    AbiInterpreter(rt).run_unit(unit)  # the runtime accepts the count the pass emits
    assert rt.replicas["x"].n == AdaptPolicy.n_max


def test_scan_multiword_type():
    assert (
        transformed_text("redundant_t unsigned long n;\n")
        == "cpm_red_storage(n, unsigned long, 3);\n"
    )


def test_scan_initializer_becomes_write_with_info():
    unit, diags = transform("redundant_t int x = 5;\n")
    assert render(unit) == "cpm_red_storage(x, int, 3); cpm_red_write(x, (5));\n"
    assert any(d.severity == "info" for d in diags)


def test_scan_preserves_indent_and_trailing_comment():
    out = transformed_text("    redundant_t int x; // protect me\n")
    assert out == "    cpm_red_storage(x, int, 3); // protect me\n"


def test_scan_duplicate_declaration_warned():
    unit, diags = transform("redundant_t int x;\nredundant_t int x;\n")
    assert any("duplicate" in d.message for d in diags)
    assert render(unit).count("cpm_red_storage") == 1


EXTERN, DEFINITION = "extern redundant_t int x;", "redundant_t int x = 4;"
EXTERN_OUT, DEFINITION_OUT = "cpm_red_extern(x, int);", "cpm_red_storage(x, int, 5); cpm_red_write(x, (4));"
DUPLICATE = "duplicate redundant declaration of 'x'; line passed through"


@pytest.mark.parametrize(
    "lines, expected, warned",
    [
        ([EXTERN, DEFINITION], [EXTERN_OUT, DEFINITION_OUT], []),
        ([DEFINITION, EXTERN], [DEFINITION_OUT, EXTERN_OUT], []),
        ([EXTERN, EXTERN], [EXTERN_OUT, EXTERN_OUT], []),
        ([DEFINITION, DEFINITION], [DEFINITION_OUT, DEFINITION], [(2, DUPLICATE)]),
        # an extern declaration with an initializer is a definition, as in C
        (["extern " + DEFINITION, DEFINITION], ["cpm_red_extern(x, int); cpm_red_write(x, (4));", DEFINITION], [(2, DUPLICATE)]),
    ],
    ids=["extern-definition", "definition-extern", "extern-extern", "definition-definition", "initialized-extern-definition"],
)
def test_only_a_second_definition_is_a_duplicate(lines, expected, warned):
    unit, diags = transform("".join(f"{line}\n" for line in lines), PassConfig({"redundancy.replicas": "5"}))
    assert render(unit) == "".join(f"{line}\n" for line in expected)
    assert [(d.line_no, d.message) for d in diags if d.severity == "warning"] == warned


def test_an_extern_then_its_definition_runs_at_the_definitions_count():
    unit, _ = transform(f"{EXTERN}\n{DEFINITION}\nint y = x;\n", PassConfig({"redundancy.replicas": "5"}))
    rt = Runtime()
    it = AbiInterpreter(rt)
    it.run_unit(unit)
    assert (rt.replicas["x"].n, it.env["y"], rt.events.of("warn")) == (5, 4, [])


@pytest.mark.parametrize(
    "calls, n, warned",
    [
        ([("storage", 5), ("extern",)], 5, []),
        ([("extern",), ("storage", 5)], 5, []),
        ([("storage", 5), ("storage", 7)], 5, [("warn", "x", 0, "redundant-storage-redefined")]),
    ],
    ids=["storage-extern", "extern-storage", "storage-storage"],
)
def test_the_runtime_takes_a_definitions_count_after_an_extern(calls, n, warned):
    rt = Runtime()
    for call in calls:
        if call[0] == "storage":
            rs = rt.red_storage("x", call[1], initial=4)
        else:
            rs = rt.red_extern("x")
        assert rs is rt.replicas["x"]
    assert (rt.replicas["x"].n, rt.replicas["x"].read()) == (n, 4)
    assert [(e.kind, e.name, e.instance, e.value) for e in rt.events.of("warn")] == warned


def test_unrecognized_form_flushes_through():
    src = "typedef redundant_t int rx;\n"
    unit, diags = transform(src)
    assert render(unit) == src
    assert any("unrecognized" in d.message for d in diags)


def test_plain_code_untouched():
    src = "int y;\ny = 2 * y;\n"
    assert transformed_text(src) == src


def test_write_lowering():
    out = transformed_text("redundant_t int x;\nx = 5;\n")
    assert out.splitlines()[1] == "cpm_red_write(x, (5));"


def test_read_lowering():
    out = transformed_text("redundant_t int x;\ny = x + 1;\n")
    assert out.splitlines()[1] == "y = cpm_red_read(x) + 1;"


def test_compound_assignment_desugars():
    out = transformed_text("redundant_t int x;\nx += 2;\n")
    assert out.splitlines()[1] == "cpm_red_write(x, cpm_red_read(x) + (2));"


def test_self_referencing_assignment():
    out = transformed_text("redundant_t int x;\nx = x + 1;\n")
    assert out.splitlines()[1] == "cpm_red_write(x, (cpm_red_read(x) + 1));"


def test_increment_statements_desugar():
    out = transformed_text("redundant_t int x;\nx++;\n++x;\nx--;\n")
    lines = out.splitlines()[1:]
    assert lines[0] == "cpm_red_write(x, cpm_red_read(x) + (1));"
    assert lines[1] == "cpm_red_write(x, cpm_red_read(x) + (1));"
    assert lines[2] == "cpm_red_write(x, cpm_red_read(x) - (1));"


def test_reads_inside_conditions_and_calls():
    out = transformed_text("redundant_t int x;\nif (x > 3) f(x, x+1);\n")
    assert out.splitlines()[1] == (
        "if (cpm_red_read(x) > 3) f(cpm_red_read(x), cpm_red_read(x)+1);"
    )


def test_address_of_warned_and_unrewritten():
    unit, diags = transform("redundant_t int x;\np = &x;\n")
    assert render(unit).splitlines()[1] == "p = &x;"
    assert any("address" in d.message for d in diags)


def test_bitwise_and_is_still_a_read():
    out = transformed_text("redundant_t int x;\ny = m & x;\n")
    assert out.splitlines()[1] == "y = m & cpm_red_read(x);"


def test_embedded_assignment_warned():
    unit, diags = transform("redundant_t int x;\nif (x = f()) g();\n")
    assert render(unit).splitlines()[1] == "if (x = f()) g();"
    assert any("embedded" in d.message for d in diags)


def test_shadow_declaration_warned():
    unit, diags = transform("redundant_t int x;\nvoid f(void) { int x; }\n")
    assert "int x;" in render(unit).splitlines()[1]
    assert any("redeclared" in d.message for d in diags)


def test_subscript_warned():
    unit, diags = transform("redundant_t int x;\ny = x[0];\n")
    assert any("subscripted" in d.message for d in diags)


def test_occurrences_in_comments_and_strings_untouched():
    src = 'redundant_t int x;\n// x = 1;\ns = "x = 2;";\n'
    out = transformed_text(src)
    assert out.splitlines()[1] == "// x = 1;"
    assert out.splitlines()[2] == 's = "x = 2;";'


def test_idempotence():
    src = "redundant_t int x;\nx = 5;\ny = x + 1;\nx += 2;\n"
    once, _ = transform(src)
    twice, diags = RedundancyPass().transform(once, PassConfig())
    assert render(once) == render(twice)
    assert "redundant_t" not in render(once)


def test_occurrence_conservation():
    src = "redundant_t int x;\nx = 1;\ny = x;\np = &x;\nx += x;\n"
    unit, diags = transform(src)
    out = render(unit)
    # every x occurrence is wrapped or sits next to the warned address-of
    import re

    wrappers = ("cpm_red_read(", "cpm_red_write(", "cpm_red_storage(")
    bare = [
        m for m in re.finditer(r"\bx\b", out) if not out[: m.start()].endswith(wrappers)
    ]
    assert [out[max(0, m.start() - 1) : m.start()] for m in bare] == ["&"]
    assert sum(1 for d in diags if "address" in d.message) == 1


def test_desugaring_equivalence_in_runtime():
    # lowered `x += 2` leaves the same replica state as a hand-rolled
    # read/modify/write against a separate runtime
    src = "redundant_t int x;\nx = 5;\nx += 2;\n"
    unit, _ = transform(src)
    rt = Runtime()
    AbiInterpreter(rt).run_unit(unit)

    rt2 = Runtime()
    rt2.red_storage("x", 3)
    rt2.red_write("x", 5)
    rt2.red_write("x", rt2.red_read("x") + 2)
    assert rt.replicas["x"].replicas == rt2.replicas["x"].replicas == (7, 7, 7)


def test_multiple_statements_on_one_line():
    out = transformed_text("redundant_t int x;\nx = 1; y = x;\n")
    assert out.splitlines()[1] == "cpm_red_write(x, (1)); y = cpm_red_read(x);"


def test_scan_and_lower_ops_compose():
    unit = load_unit("redundant_t int x;\nx = 1;\n")
    unit, names, _ = scan_redundant(unit, PassConfig())
    assert names == {"x"}
    unit, _ = lower_accesses(unit, names)
    assert render(unit).splitlines()[1] == "cpm_red_write(x, (1));"


def test_code_after_block_comment_close_is_lowered():
    out = transformed_text("redundant_t int y;\n/* c\n */ y = 1;\n")
    assert out.splitlines()[2] == " */ cpm_red_write(y, (1));"


def test_declaration_after_block_comment_close_is_lowered():
    out = transformed_text("/* c\n */ redundant_t int y; y = 2;\n")
    assert out.splitlines()[1] == " */ cpm_red_storage(y, int, 3); cpm_red_write(y, (2));"


def test_comment_text_is_never_rewritten():
    src = "redundant_t int y;\n/* y = 1;\n y = 2; */ y = 3; /* y = 4; */\n"
    out = transformed_text(src)
    assert out.splitlines()[1:] == [
        "/* y = 1;",
        " y = 2; */ cpm_red_write(y, (3)); /* y = 4; */",
    ]


def test_bank_stride_is_not_a_redundancy_key():
    pipeline = compose(["redundancy"], config=PassConfig({"redundancy.bank_stride": "4096"}))
    assert [d.message for d in pipeline.compose_diagnostics] == [
        "config key 'redundancy.bank_stride' is not recognized by pass 'redundancy'"
    ]
