"""The one declaration rule all four passes share (``rewrite.decl_statements``)
and ROADMAP item 4(a) for keywords: after a pass runs alone, every keyword
of that pass left on a line has a warning of that pass on the line."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpm.pipeline import PassConfig, builtin_registry, compose, run
from cpm.rewrite import PASS_KEYWORDS, decl_head, decl_statements, lower_decls
from cpm.srcmodel import TokenKind, ext_tag, load_unit, render, tokenize_line, unit_from_raws

PASSES = builtin_registry()

FRAGMENTS = [
    # well-formed declarations
    "redundant_t int r1;", "extern redundant_t int r2;", "redundant_t int r3 = 4;",
    "sensor_t int s1;", "actuator_t int a1;", "context_t int c1;", "guard_t (s1 > 2) g1;",
    "guard_t (r1 < s1) g2;", "reflective_array_t lb { beacons:int };", "cyclic_t int tick(void);",
    # plain code around them
    "int z = 1;", "{", "}", "if (s1) {", "z = r1 + s1;", "tick.Cycle = 10;", "z = lb[m].beacons;",
    "for (i = 0; i < 3; i++)", "/* c */", "(", ")", ";", "[",
    # malformed declarations
    "redundant_t redundant_t int x;", "redundant_t int y = {1, 2};", "redundant_t int",
    "redundant_t int a[3];", "static redundant_t int q;", "x = redundant_t;",
    "redundant_t int { redundant_t int v; }",
    "cyclic_t cyclic_t int f(void);", "cyclic_t int f(void) {", "cyclic_t int h;", "cyclic_t int k(void) { g(); }",
    "reflective_array_t a { b:int }", "reflective_array_t a { b };", "reflective_array_t e;",
    "reflective_array_t a { b:int } reflective_array_t c { b:int };",
    "sensor_t int", "sensor_t sensor_t int s;", "sensor_t int s[2];", "x = context_t;",
    "guard_t (s1 >) f;", "guard_t (zz > 1) f;", "guard_t s1 f;", "guard_t (s1 > 1) (x) f;",
    "guard_t (sensor_t > 1) f;", "guard_t (s1 > 1) f",
    # a pass keyword where a type word goes
    "sensor_t redundant_t int x;",
]

lines = st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3).map(" ".join)
tagged = st.tuples(st.sampled_from(["", "", "", "@ext:redundancy ", "@ext:cyclic "]), lines).map("".join)
programs = st.lists(tagged, min_size=1, max_size=6).map(lambda ls: "\n".join(ls) + "\n")


def keyword_count(raw, keywords):
    return sum(t.kind is TokenKind.IDENTIFIER and t.lexeme in keywords for t in tokenize_line(raw))


@settings(max_examples=300, deadline=None)
@given(programs)
@example("redundant_t redundant_t int x;\n")
@example("cyclic_t cyclic_t int f(void);\n")
@example("reflective_array_t a { b:int } reflective_array_t c { b:int };\n")
@example("redundant_t int { redundant_t int v; }\n")
def test_every_surviving_keyword_has_a_warning_on_its_line(src):
    raws = src.split("\n")[:-1]
    for name, p in PASSES.items():
        out, report = run(compose([name]), load_unit(src))
        for line_no, line in enumerate(out.lines[1:], 1):  # after the preamble; diagnostics number input lines
            if ext_tag(raws[line_no - 1])[0] is not None:
                continue
            warned = sum(
                d.severity == "warning" and d.line_no == line_no and d.emitted_by == str(p.id)
                for d in report.diagnostics
            )
            assert keyword_count(line.raw, p.KEYWORDS) <= warned, (name, line.raw, report.diagnostics)


def statements(raw, keywords, match=lambda toks: " ".join(t.lexeme for t in toks)):
    return [(kw.lexeme, m) for kw, m in decl_statements(unit_from_raws([raw]).lines[0], keywords, match)]


def test_statement_runs_from_last_boundary_to_next_semicolon_outside_parens():
    assert statements("x = 1; if (a) { extern k_t int f(a; b) = 2; }", {"k_t"}) == [
        ("k_t", "extern k_t int f ( a ; b ) = 2 ;")
    ]
    assert statements("{ k_t a[i;j]; }", {"k_t"}) == [("k_t", "k_t a [ i ; j ] ;")]


def test_statement_that_does_not_end_on_the_line_is_not_matched():
    assert statements("k_t int x = f(1;", {"k_t"}) == [("k_t", None)]


def test_statement_with_two_keywords_is_not_matched_and_each_occurrence_yields():
    assert statements("k_t j_t int x;", {"k_t", "j_t"}) == [("k_t", None), ("j_t", None)]
    assert statements("k_t a { b } k_t c { d };", {"k_t"}) == [("k_t", None), ("k_t", "k_t c { d } ;")]


def test_keyword_in_comment_or_string_is_not_an_occurrence():
    assert statements('x = "k_t"; /* k_t */ // k_t', {"k_t"}) == []


def test_matcher_rejection_yields_none_and_scanning_goes_on():
    reject = lambda toks: None if toks[1].lexeme == "bad" else len(toks)
    assert statements("k_t bad; k_t good;", {"k_t"}, reject) == [("k_t", None), ("k_t", 3)]


def test_lower_decls_declares_in_unit_order_and_splices_after_the_last_line():
    unit = unit_from_raws(["k_t a; k_t b;", "k_t c; k_t 1;", "k_t d;", "k_t e;"])
    declared, diags = [], []
    match = lambda raw, toks: toks[1].lexeme if len(toks) == 3 and toks[1].kind is TokenKind.IDENTIFIER else None

    def declare(name, line_no):
        declared.append((name, line_no))
        if name == "a":  # resolved once the unit is seen: names the last declaration
            return lambda: f"A({declared[-1][0]});"
        return None if name == "b" else f"{name.upper()}();"

    out = lower_decls(unit, {"k_t"}, match, declare, "k", diags, skip={3}, unrecognized="odd {kw}")
    assert declared == [("a", 1), ("b", 1), ("c", 2), ("e", 4)]
    assert [line.raw for line in out.lines] == ["A(e); k_t b;", "C(); k_t 1;", "k_t d;", "E();"]
    assert [(d.severity, d.line_no, d.message, d.emitted_by) for d in diags] == [("warning", 2, "odd k_t", "k")]


def transform(name, src):
    out, diags = PASSES[name].transform(load_unit(src), PassConfig())
    return render(out), [(d.line_no, d.message) for d in diags if d.severity == "warning"]


def test_doubled_redundant_keyword_warns_per_occurrence():
    text, warnings = transform("redundancy", "redundant_t redundant_t int x;\n")
    assert text == "redundant_t redundant_t int x;\n"
    assert warnings == [(1, "unrecognized redundant_t declaration form; line passed through")] * 2


def test_doubled_cyclic_keyword_is_not_lowered():
    text, warnings = transform("cyclic", "cyclic_t cyclic_t int f(void);\n")
    assert text == "cyclic_t cyclic_t int f(void);\n"
    assert len(warnings) == 2


def test_cyclic_function_definition_is_not_a_prototype():
    text, warnings = transform("cyclic", "cyclic_t int k(void) { g(); }\n")
    assert text == "cyclic_t int k(void) { g(); }\n"
    assert warnings == [(1, "cyclic_t on something other than a function prototype; line passed through")]


def test_well_formed_array_after_malformed_one_on_the_line_is_lowered():
    text, warnings = transform("array", "reflective_array_t a { b:int } reflective_array_t c { b:int };\n")
    assert text == "reflective_array_t a { b:int } cpm_arr_register(c);\n"
    assert warnings == [(1, "unrecognized reflective_array_t declaration form; line passed through")]


def test_aggregate_initializer_on_redundant_is_rejected():
    text, warnings = transform("redundancy", "redundant_t int y = {1, 2}; redundant_t int z;\n")
    assert text == "redundant_t int y = {1, 2}; cpm_red_storage(z, int, 3);\n"
    assert warnings == [(1, "unrecognized redundant_t declaration form; line passed through")]


def test_pass_keywords_are_the_keywords_of_every_builtin_pass():
    assert PASS_KEYWORDS == frozenset().union(*(p.KEYWORDS for p in PASSES.values()))


def test_no_pass_keyword_is_a_type_word():
    assert decl_head(unit_from_raws(["unsigned int x"]).lines[0].sig) == ("unsigned int", "x")
    for kw in PASS_KEYWORDS:
        assert decl_head(unit_from_raws([f"{kw} int x"]).lines[0].sig) is None
        assert decl_head(unit_from_raws([f"int {kw} x"]).lines[0].sig) is None


def test_pass_keyword_read_as_type_word_is_warned_in_both_orders():
    src = "sensor_t redundant_t int x;\n"
    for order in (["refractive", "redundancy"], ["redundancy", "refractive"]):
        out, report = run(compose(order), load_unit(src))
        assert render(out).split("\n", 1)[1] == src, order
        assert sorted((d.line_no, d.message) for d in report.diagnostics) == [
            (1, "unrecognized redundant_t declaration form; line passed through"),
            (1, "unrecognized sensor_t declaration form; line passed through"),
        ], order
