from cpm.ext_cyclic import CyclicPass, lower_cycle_member, scan_cyclic
from cpm.interp import AbiInterpreter
from cpm.pipeline import PassConfig
from cpm.runtime import TOM, Runtime, TimeoutObject
from cpm.srcmodel import load_unit, render

TABLE2_SOURCE = """cyclic_t int PeriodicMethod1(TOM*);
cyclic_t int PeriodicMethod2(TOM*);
PeriodicMethod1.Cycle = DEADLINE1;
PeriodicMethod2.Cycle = DEADLINE2;
PeriodicMethod2.Cycle = NEW_DEADLINE2;
PeriodicMethod1.Cycle = 0;
"""


def transform(src, config=None):
    return CyclicPass().transform(load_unit(src), config or PassConfig())


def test_prototype_lowering():
    unit, _ = transform("cyclic_t int PeriodicMethod1(TOM*);\n")
    assert render(unit) == "int PeriodicMethod1(TOM*); cpm_cycle_register(PeriodicMethod1);\n"


def test_cycle_assignment_lowering():
    unit, _ = transform(
        "cyclic_t int PeriodicMethod1(TOM*);\nPeriodicMethod1.Cycle = DEADLINE1;\n"
    )
    assert render(unit).splitlines()[1] == "cpm_cycle_set(PeriodicMethod1, (DEADLINE1));"


def test_cycle_zero_cancels_via_same_call():
    unit, _ = transform("cyclic_t int f(void);\nf.Cycle = 0;\n")
    assert render(unit).splitlines()[1] == "cpm_cycle_set(f, (0));"


def test_cycle_read_lowering():
    unit, _ = transform("cyclic_t int f(void);\nremaining = f.Cycle;\n")
    assert render(unit).splitlines()[1] == "remaining = cpm_cycle_get(f);"


def test_duplicate_declaration_warned_and_not_reregistered():
    unit, diags = transform("cyclic_t int f(void);\ncyclic_t int f(void);\n")
    out = render(unit).splitlines()
    assert out[0] == "int f(void); cpm_cycle_register(f);"
    assert out[1] == "int f(void);"
    assert any("duplicate" in d.message for d in diags)


def test_cyclic_on_non_function_warned():
    src = "cyclic_t int x;\n"
    unit, diags = transform(src)
    assert render(unit) == src
    assert any("prototype" in d.message for d in diags)


def test_cycle_on_undeclared_identifier_warned():
    unit, diags = transform("Other.Cycle = 5;\n")
    assert render(unit) == "Other.Cycle = 5;\n"
    assert any("not a declared cyclic method" in d.message for d in diags)


def test_plain_code_untouched():
    src = "int g(void);\nperiod = obj.field;\n"
    unit, diags = transform(src)
    assert render(unit) == src


def test_idempotence():
    src = TABLE2_SOURCE
    once, _ = transform(src)
    twice, _ = CyclicPass().transform(once, PassConfig())
    assert render(once) == render(twice)


def _run_lowered(deadline1=100, deadline2=250, new_deadline2=400, horizon=1000):
    unit, _ = transform(TABLE2_SOURCE)
    rt = Runtime()
    interp = AbiInterpreter(
        rt,
        env={"DEADLINE1": deadline1, "DEADLINE2": deadline2, "NEW_DEADLINE2": new_deadline2},
    )
    interp.run_unit(unit)
    rt.advance(horizon)
    return rt.tom.fired_log


def _run_hand_coded(deadline1=100, deadline2=250, new_deadline2=400, horizon=1000):
    tom = TOM()
    t1 = TimeoutObject(id="t1", subid="PeriodicMethod1", deadline=deadline1, cyclic=True,
                       action=lambda: None)
    t2 = TimeoutObject(id="t2", subid="PeriodicMethod2", deadline=deadline2, cyclic=True,
                       action=lambda: None)
    tom.insert(t1)
    tom.insert(t2)
    tom.disable(t2)
    tom.set_deadline(t2, new_deadline2)
    tom.renew(t2)
    tom.delete(t1)
    tom.advance(horizon)
    return tom.fired_log


def test_lowered_program_equals_hand_coded_sequence():
    assert _run_lowered() == _run_hand_coded()
    assert _run_lowered() == [(400, "PeriodicMethod2", 1), (800, "PeriodicMethod2", 2)]


def test_equivalence_across_other_timings():
    assert _run_lowered(30, 70, 90, 500) == _run_hand_coded(30, 70, 90, 500)


def test_scan_and_lower_ops_direct():
    unit = load_unit("cyclic_t int f(void);\nf.Cycle = 10;\n")
    unit, names, _ = scan_cyclic(unit, PassConfig())
    assert names == {"f"}
    unit, _ = lower_cycle_member(unit, names)
    assert render(unit).splitlines()[1] == "cpm_cycle_set(f, (10));"


def test_cycle_read_on_right_hand_side_of_set_is_lowered():
    unit, diags = transform("cyclic_t int f(void);\ncyclic_t int g(void);\ng.Cycle = f.Cycle * 2;\n")
    assert render(unit).splitlines()[2] == "cpm_cycle_set(g, (cpm_cycle_get(f) * 2));"
    assert not diags


def test_chained_cycle_assignment_warned():
    unit, diags = transform("cyclic_t int f(void);\nf.Cycle = f.Cycle = 2;\n")
    assert render(unit).splitlines()[1] == "cpm_cycle_set(f, (f.Cycle = 2));"
    assert any("outside statement position" in d.message for d in diags)


def test_statement_compound_cycle_assignment_warned_as_unsupported():
    unit, diags = transform("cyclic_t int f(void);\nf.Cycle += f.Cycle;\n")
    assert render(unit).splitlines()[1] == "f.Cycle += cpm_cycle_get(f);"
    assert [d.message for d in diags] == [
        "compound assignment '+=' to 'f.Cycle' is unsupported; left unrewritten"
    ]


def test_cycle_after_block_comment_close_is_lowered():
    unit, _ = transform("cyclic_t int f(void);\n/* c\n */ f.Cycle = 5;\n")
    assert render(unit).splitlines()[2] == " */ cpm_cycle_set(f, (5));"


def test_prototype_parentheses_must_pair():
    unit, diags = transform("cyclic_t int f(a) + g(b);\n")
    assert render(unit) == "cyclic_t int f(a) + g(b);\n"
    assert [d.message for d in diags] == [
        "cyclic_t on something other than a function prototype; line passed through"
    ]


def test_prototype_with_function_pointer_parameter_is_lowered():
    unit, diags = transform("cyclic_t int f(int (*cb)(void));\n")
    assert render(unit) == "int f(int (*cb)(void)); cpm_cycle_register(f);\n"
    assert not diags
