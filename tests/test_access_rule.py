"""The one position rule every access form follows (``rewrite.rewrite_line``)
and ROADMAP item 4(a) for access forms: after a pass runs alone, every
occurrence of one of its access forms is lowered or has a warning of that
pass on its line, and no read call it emits is the operand of ``&``, ``++``
or ``--``."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpm.cexpr import ABI
from cpm.pipeline import PassConfig, builtin_registry, compose, run
from cpm.rewrite import CYCLE, INDEX, NAME, Target, rewrite_line
from cpm.srcmodel import TokenKind, ext_tag, load_unit, render, tokenize_line, unit_from_raws

PASSES = builtin_registry()

LOWERED, WARNED = "lowered", "warned"

ROWS = [
    ("o = 1;", LOWERED),
    ("o += 1;", LOWERED),
    ("++o;", LOWERED),
    ("o--;", LOWERED),
    ("y = ++o;", WARNED),
    ("y = o--;", WARNED),
    ("p = &o;", WARNED),
    ("y = (o = 1);", WARNED),
    ("int q, o;", WARNED),
    ("int q = 1, *o;", WARNED),
    ("int y = h(q, o);", LOWERED),
    ("int q, (o);", WARNED),
    ("int q[2] = {1, 2}, o;", WARNED),
]

# one target per form, each able to read and write, so that only the
# position decides the outcome
FORMS = {
    "x": {"x": Target(NAME, read="rd({name})", write="wr({name}, {value});")},
    "a[k].b": {"a": Target(INDEX, read="rd({name}, {key}, {prop})", write="wr({name}, {key}, {prop}, {value});", known=frozenset({"b"}))},
    "f.Cycle": {"Cycle": Target(CYCLE, read="rd({name})", write="wr({name}, {value});", known=frozenset({"f"}))},
}


def outcome(raw, targets, keywords=frozenset()):
    diags = []
    out = rewrite_line(raw, unit_from_raws([raw]).lines[0].sig, targets, keywords, 1, "test", diags)
    if out != raw and not diags:
        return LOWERED
    if out == raw and len(diags) == 1:
        return WARNED
    return (out, [d.message for d in diags])


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("row, expected", ROWS)
def test_every_form_follows_the_same_position_rule(row, expected, form):
    assert outcome(row.replace("o", form), FORMS[form]) == expected


# the same rows through the passes, whose targets lack some directions:
# an array property is read-only and a period is set by assignment only
PASS_FORMS = {
    "redundancy": ("redundant_t int x;\n", "x", [LOWERED] * 4),
    "array": ("reflective_array_t a { b:int };\n", "a[k].b", [WARNED] * 4),
    "cyclic": ("cyclic_t int f(void);\n", "f.Cycle", [LOWERED] + [WARNED] * 3),
}


@pytest.mark.parametrize("name", PASS_FORMS)
@pytest.mark.parametrize("row", range(len(ROWS)))
def test_passes_apply_the_rule_to_their_form(name, row):
    decl, form, statement_outcomes = PASS_FORMS[name]
    text, expected = ROWS[row]
    if row < len(statement_outcomes):
        expected = statement_outcomes[row]
    src = decl + text.replace("o", form) + "\n"
    out, diags = PASSES[name].transform(load_unit(src), PassConfig())
    line = render(out).split("\n")[1]
    warnings = [d for d in diags if d.line_no == 2]
    got = LOWERED if line != src.split("\n")[1] and not warnings else WARNED if len(warnings) == 1 else (line, warnings)
    assert got == expected


def transform(name, src):
    out, diags = PASSES[name].transform(load_unit(src), PassConfig())
    return render(out), [(d.line_no, d.message) for d in diags if d.severity == "warning"]


def test_accesses_inside_a_dropped_guard_are_left_alone():
    assert transform("refractive", "sensor_t int s;\nguard_t (s >) f;\n") == (
        'cpm_ctx_register(s, sensor, "s");\nguard_t (s >) f;\n',
        [(2, "guard for 'f' is not a C expression; guard dropped")],
    )


def test_accesses_inside_a_dropped_redundant_declaration_are_left_alone():
    assert transform("redundancy", "redundant_t int x;\nredundant_t int x = x; x = 2;\n") == (
        "cpm_red_storage(x, int, 3);\nredundant_t int x = x; cpm_red_write(x, (2));\n",
        [(2, "duplicate redundant declaration of 'x'; line passed through")],
    )


def test_grouping_parentheses_do_not_hide_the_position():
    text, warnings = transform("redundancy", "redundant_t int x;\n(x)++; p = &(x); y = (x);\n")
    assert text.split("\n")[1] == "(x)++; p = &(x); y = (cpm_red_read(x));"
    assert [m.split(" ")[0] for _, m in warnings] == ["increment/decrement", "address"]


def test_comma_declarators_follow_the_statement_they_are_in():
    text, warnings = transform("redundancy", "redundant_t int x;\nextern int a, x; int v[2] = {a, x};\n")
    assert text.split("\n")[1] == "extern int a, x; int v[2] = {a, cpm_red_read(x)};"
    assert warnings == []


def test_a_comma_in_a_call_or_an_initializer_still_reads():
    text, warnings = transform("redundancy", "redundant_t int x;\ng(a, (x)); int v[2] = {a, x};\n")
    assert text.split("\n")[1] == "g(a, (cpm_red_read(x))); int v[2] = {a, cpm_red_read(x)};"
    assert warnings == []


# -- ROADMAP 4(a) for access forms, as properties ------------------------------

PRELUDE = (
    "redundant_t int x; sensor_t int s; actuator_t int act; context_t int c; "
    "reflective_array_t a { b:int }; cyclic_t int f(void);"
)
ACCESSES = ["x", "s", "act", "c", "a[k].b", "a[a[1].b].b", "a[x].b", "f.Cycle", "g.Cycle", "a[1]", "a[1].zz", "a[1", "a"]
POSITIONS = [
    "@ = 1;", "@ += 2;", "++@;", "@--;", "y = ++@;", "y = @--;", "p = &@;", "y = (@ = 1);", "y = @ + 1;",
    "h(@);", "@(1);", "@[2] = 1;", "y = @[2];", "int @;", "extern int @;", "if (@) y = @;",
    "for (@ = 0; @ < 3; @++) {", "y = q.@;", "y = q->@;", "y = k ? @ : 1;", "y = @ = 2;", "@ = @;",
    "@ *= @;", "(@)++;", "p = &(@);", "(@) = 1;", "y = (@);", "@:", "y = sizeof(@);", "return -@;",
    "y = -(@)--;", "y = @ & 1;", "h(&(@), @);", "goto @;", "cpm_log(@);",
]
OTHERS = [
    "{", "}", "/* c */", "redundant_t int x = x;", "guard_t (s >) g;", "sensor_t int s = 1;",
    "cyclic_t int f(a) + f.Cycle;", "reflective_array_t a { b } a[1].b;", "x = context_t;",
]

fragments = st.one_of(
    st.tuples(st.sampled_from(POSITIONS), st.sampled_from(ACCESSES)).map(lambda pa: pa[0].replace("@", pa[1])),
    st.sampled_from(OTHERS),
)
lines = st.lists(fragments, min_size=1, max_size=3).map(" ".join)
tagged = st.tuples(st.sampled_from(["", "", "", "@ext:redundancy ", "@ext:array "]), lines).map("".join)
programs = st.lists(tagged, min_size=1, max_size=5).map(lambda ls: "\n".join([PRELUDE] + ls) + "\n")

READ_HEADS = {"redundancy": "cpm_red_read", "refractive": "cpm_ctx_read", "array": "cpm_arr_get", "cyclic": "cpm_cycle_get"}


def significant(raw):
    return [t for t in tokenize_line(raw) if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)]


def is_punct(tok, *lexemes):
    return tok is not None and tok.kind is TokenKind.PUNCTUATOR and tok.lexeme in lexemes


def closing(sig, p):
    depth = 0
    for q in range(p, len(sig)):
        depth += is_punct(sig[q], "(") - is_punct(sig[q], ")")
        if not depth:
            return q
    return len(sig) - 1


def operand_of_step_or_address(sig, lo, hi):
    """Whether ``sig[lo : hi + 1]``, looked at through grouping parentheses,
    is the operand of ``++``, ``--`` or unary ``&``."""
    at = lambda p: sig[p] if 0 <= p < len(sig) else None
    while is_punct(at(lo - 1), "(") and is_punct(at(hi + 1), ")") and (
        at(lo - 2) is None or (at(lo - 2).kind is TokenKind.PUNCTUATOR and at(lo - 2).lexeme not in (")", "]"))
    ):
        lo, hi = lo - 1, hi + 1
    before, after = at(lo - 1), at(hi + 1)
    binary = at(lo - 2) is not None and (
        at(lo - 2).kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.STRING) or is_punct(at(lo - 2), ")", "]")
    )
    return is_punct(before, "++", "--") or is_punct(after, "++", "--") or (is_punct(before, "&") and not binary)


def unlowered_occurrences(name, sig):
    """Positions of the occurrences of ``name``'s access forms in ``sig``
    outside the name and type arguments of the runtime calls (``cexpr.ABI``),
    less the exempt ones."""
    found, stack = [], []  # per open parenthesis: its call's argument kinds and the current argument
    for p, tok in enumerate(sig):
        prev = sig[p - 1] if p else None
        if is_punct(tok, "("):
            stack.append([ABI.get(prev.lexeme, ()) if prev is not None else (), 0])
        elif is_punct(tok, ")") and stack:
            stack.pop()
        elif is_punct(tok, ",") and stack:
            stack[-1][1] += 1
        in_name_arg = any(at < len(kinds) and kinds[at] != "value" for kinds, at in stack)
        if in_name_arg or tok.kind is not TokenKind.IDENTIFIER or is_punct(prev, ".", "->"):
            continue
        nxt = [t.lexeme for t in sig[p + 1 : p + 3]]
        statement = []
        for t in reversed(sig[:p]):
            if is_punct(t, ";", "{", "}"):
                break
            statement.append(t.lexeme)
        if "extern" in statement:
            continue
        if name == "redundancy" or name == "refractive":
            names = {"x"} if name == "redundancy" else {"s", "act", "c"}
            label = (nxt[:1] == [":"] and (prev is None or is_punct(prev, ";", "{", "}"))) or (prev is not None and prev.lexeme == "goto")
            hit = tok.lexeme in names and not label
        elif name == "array":
            hit = tok.lexeme == "a" and nxt[:1] == ["["]  # a bare array name is no access
        else:
            hit = nxt == [".", "Cycle"]
        if hit:
            found.append(p)
    return found


@settings(max_examples=300, deadline=None)
@given(programs)
@example(PRELUDE + "\na[1].b++; p = &f.Cycle; --f.Cycle;\n")
@example(PRELUDE + "\nguard_t (s >) g; redundant_t int x = x;\n")
@example(PRELUDE + "\ncpm_log(x);\n")
def test_every_access_is_lowered_or_warned_and_no_read_is_an_lvalue(src):
    raws = src.split("\n")[:-1]
    for name, p in PASSES.items():
        out, report = run(compose([name]), load_unit(src))
        for line_no, line in enumerate(out.lines[1:], 1):  # after the preamble; diagnostics number input lines
            if ext_tag(raws[line_no - 1])[0] is not None:
                continue
            sig = significant(line.raw)
            for q, tok in enumerate(sig):
                if tok.lexeme == READ_HEADS[name] and q + 1 < len(sig) and is_punct(sig[q + 1], "("):
                    assert not operand_of_step_or_address(sig, q, closing(sig, q + 1)), (name, line.raw)
            if unlowered_occurrences(name, sig):
                warned = any(
                    d.severity == "warning" and d.line_no == line_no and d.emitted_by == str(p.id)
                    for d in report.diagnostics
                )
                assert warned, (name, line.raw, report.diagnostics)
