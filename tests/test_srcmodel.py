import ast
import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cpm
from cpm.pipeline import builtin_registry, compose, run
from cpm.srcmodel import (
    SourceLine,
    TokenKind,
    _tokenize,
    ext_tag,
    load_unit,
    map_lines,
    render,
    split_segments,
    tokenize_line,
    unit_from_raws,
)

from c_corpus import CORPUS
from oracles import reference_split_segments, reference_tokenize


def kinds_and_lexemes(raw):
    return [(t.kind, t.lexeme) for t in tokenize_line(raw)]


def test_tokenize_declaration():
    assert kinds_and_lexemes("int x = 5;") == [
        (TokenKind.KEYWORD, "int"),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.IDENTIFIER, "x"),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.PUNCTUATOR, "="),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.NUMBER, "5"),
        (TokenKind.PUNCTUATOR, ";"),
    ]


def test_tokenize_empty_line():
    assert tokenize_line("") == ()


def test_tokenize_with_trailing_comment():
    kinds = kinds_and_lexemes("watchdog = WD_ACTIVE; // restart")
    assert kinds == [
        (TokenKind.IDENTIFIER, "watchdog"),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.PUNCTUATOR, "="),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.IDENTIFIER, "WD_ACTIVE"),
        (TokenKind.PUNCTUATOR, ";"),
        (TokenKind.WHITESPACE, " "),
        (TokenKind.COMMENT, "// restart"),
    ]


def test_block_comment_within_line():
    toks = tokenize_line("a /* mid */ b")
    assert [t.kind for t in toks] == [
        TokenKind.IDENTIFIER,
        TokenKind.WHITESPACE,
        TokenKind.COMMENT,
        TokenKind.WHITESPACE,
        TokenKind.IDENTIFIER,
    ]


def test_unterminated_block_comment_spans_rest_of_line():
    toks = tokenize_line("x = 1; /* never closes")
    assert toks[-1].kind is TokenKind.COMMENT
    assert toks[-1].lexeme == "/* never closes"


def test_unterminated_string_runs_to_eol():
    toks = tokenize_line('s = "oops')
    assert toks[-1].kind is TokenKind.STRING
    assert toks[-1].lexeme == '"oops'


def test_string_escapes_do_not_end_literal():
    toks = tokenize_line(r'p = "a\"b";')
    strings = [t for t in toks if t.kind is TokenKind.STRING]
    assert strings[0].lexeme == r'"a\"b"'


def test_unknown_bytes_become_single_punctuators():
    toks = tokenize_line("a @ \xe9 $")
    punct = [t.lexeme for t in toks if t.kind is TokenKind.PUNCTUATOR]
    assert punct == ["@", "\xe9", "$"]


def test_maximal_munch_punctuators():
    toks = [t.lexeme for t in tokenize_line("a<<=b>>=c...d->e")]
    assert "<<=" in toks and ">>=" in toks and "..." in toks and "->" in toks


def test_pp_number_shapes():
    for text in ("0xFF", "0755", "1.5e-3", ".5f", "1e+10", "42L"):
        toks = tokenize_line(text)
        assert len(toks) == 1 and toks[0].kind is TokenKind.NUMBER, text


ID, KW, P, N, S, C, W = (
    TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.PUNCTUATOR, TokenKind.NUMBER,
    TokenKind.STRING, TokenKind.COMMENT, TokenKind.WHITESPACE,
)

# (line, starts inside a block comment, exact tokens, ends inside one)
GRAMMAR = [
    ("/*/ x", False, [(C, "/*/ x")], True),
    ("a/**/b", False, [(ID, "a"), (C, "/**/"), (ID, "b")], False),
    ('s = "a\\', False, [(ID, "s"), (W, " "), (P, "="), (W, " "), (S, '"a\\')], False),
    ("'\\''", False, [(S, "'\\''")], False),
    ("1e+", False, [(N, "1e+")], False),
    ("a.5..5", False, [(ID, "a"), (N, ".5..5")], False),
    ("x##y", False, [(ID, "x"), (P, "##"), (ID, "y")], False),
    ("a-->b", False, [(ID, "a"), (P, "--"), (P, ">"), (ID, "b")], False),
    ("\xaa\xe9\xa0\x85", False, [(P, "\xaa"), (P, "\xe9"), (P, "\xa0"), (P, "\x85")], False),
    (
        "*/ int x; /*",
        True,
        [(C, "*/"), (W, " "), (KW, "int"), (W, " "), (ID, "x"), (P, ";"), (W, " "), (C, "/*")],
        True,
    ),
    ("a ...b", False, [(ID, "a"), (W, " "), (P, "..."), (ID, "b")], False),
    ("/", False, [(P, "/")], False),
    ("/=", False, [(P, "/=")], False),
    (".", False, [(P, ".")], False),
    ("...", False, [(P, "...")], False),
    (".5", False, [(N, ".5")], False),
    ("/**/", False, [(C, "/**/")], False),
    ("//", False, [(C, "//")], False),
    ('"', False, [(S, '"')], False),
    ("'", False, [(S, "'")], False),
    ("#", False, [(P, "#")], False),
    ("\x00", False, [(P, "\x00")], False),
    ("\u20ac", False, [(P, "\u20ac")], False),
    ("int int_x", False, [(KW, "int"), (W, " "), (ID, "int_x")], False),
    ("_", False, [(ID, "_")], False),
]


@pytest.mark.parametrize("raw, in_block, expected, after", GRAMMAR)
def test_token_grammar_exactly(raw, in_block, expected, after):
    tokens, _, _, state = _tokenize(raw, in_block)
    assert [(t.kind, t.lexeme) for t in tokens] == expected
    assert state is after


SHORT_STRINGS = [chr(c) for c in range(0x100)] + ["\u20ac"] + [
    chr(a) + chr(b) for a in range(0x20, 0x7F) for b in range(0x20, 0x7F)
]


def test_every_short_string_lexes_as_the_reference_does():
    """Every 1-character string over latin-1 and one code point above it,
    and every 2-character printable-ASCII string, in both block states: the
    pattern that cuts lexemes and the tables that kind them cannot drift
    apart on a single character or a pair."""
    for in_block in (False, True):
        for raw in SHORT_STRINGS:
            assert _tokenize(raw, in_block) == reference_tokenize(raw, in_block), (raw, in_block)


LEX_PIECES = st.one_of(
    st.sampled_from([
        "/*", "*/", "//", "/", "*", ".", "..", "...", "e+", "P-", "0x", "1", '"', "'", "\\", "#", "##",
        "<<=", "->", "int", "_", " ", "\t", "\x00", "\u20ac",
    ]),
    st.text(st.characters(max_codepoint=0xFF), max_size=3),
    st.text(st.characters(min_codepoint=0x100), max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(LEX_PIECES, max_size=16).map("".join), st.booleans())
def test_tokenize_agrees_with_the_reference_lexer(raw, in_block):
    """Kinds, lexemes, columns, significant tokens, identifier names and the
    block-comment state at the end all equal the named-group lexer's."""
    assert _tokenize(raw, in_block) == reference_tokenize(raw, in_block)


def test_tokenize_rejects_newlines():
    with pytest.raises(ValueError):
        tokenize_line("a\nb")


def test_load_unit_counts_lines_and_final_newline():
    u = load_unit("a\nb\n")
    assert len(u.lines) == 2 and u.final_newline
    u = load_unit("a")
    assert len(u.lines) == 1 and not u.final_newline
    u = load_unit("")
    assert len(u.lines) == 0


def test_render_round_trip_simple():
    for text in ("int x;\n", "", "a", "\n", "a\n\nb"):
        assert render(load_unit(text)) == text


def test_round_trip_corpus():
    for text in CORPUS:
        assert render(load_unit(text)) == text


def test_multiline_block_comment_marks_interior_lines():
    u = load_unit("/* open\ninterior redundant_t int x;\nclose */ int y;\n")
    assert not u.lines[0].in_block_comment
    assert u.lines[1].in_block_comment
    assert all(t.kind is TokenKind.COMMENT for t in u.lines[1].tokens)
    assert u.lines[2].in_block_comment
    # after the close, real tokens resume
    assert any(t.kind is TokenKind.KEYWORD for t in u.lines[2].tokens)


def test_edit_locality():
    u = load_unit("one;\ntwo;\nthree;\n")
    raws = [line.raw for line in u.lines]
    raws[1] = "TWO;"
    u2 = unit_from_raws(raws, final_newline=True)
    assert render(u2) == "one;\nTWO;\nthree;\n"


def test_ext_tag_parsing():
    assert ext_tag("@ext:redundancy redundant_t int x;") == ("redundancy", "redundant_t int x;")
    assert ext_tag("@ext:cyclic") == ("cyclic", "")
    assert ext_tag("plain line") == (None, "plain line")
    assert ext_tag("@ext:Not-A-Name x") == (None, "@ext:Not-A-Name x")


LINE_CHARS = st.characters(min_codepoint=1, max_codepoint=0xFF, blacklist_characters="\n")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=LINE_CHARS, max_size=80))
def test_token_partition_is_lossless(raw):
    toks = tokenize_line(raw)
    assert "".join(t.lexeme for t in toks) == raw
    assert all(t.lexeme for t in toks)
    # columns agree with the partition
    pos = 0
    for t in toks:
        assert t.column == pos
        pos += len(t.lexeme)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=0xFF), max_size=200))
def test_round_trip_random_text(text):
    assert render(load_unit(text)) == text


# -- map_lines: incremental re-tokenization -------------------------------------

FRAGMENTS = st.sampled_from(["/*", "*/", "x", " ", "y = 1;", "//", '"', "*", "/"])
LINE_TEXT = st.lists(FRAGMENTS, max_size=6).map("".join)
EDITS = st.sampled_from([
    lambda raw: raw,
    lambda raw: "/*" + raw,
    lambda raw: raw + "/*",
    lambda raw: "*/" + raw,
    lambda raw: raw + " */",
    lambda raw: raw.replace("/*", ""),
    lambda raw: raw.replace("*/", ""),
    lambda raw: raw.replace("x", "xx"),
])


LINE_NOS = st.integers(1, 8)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(LINE_TEXT, max_size=8),
    st.booleans(),
    st.dictionaries(LINE_NOS, EDITS),
    st.frozensets(LINE_NOS, max_size=3),
)
def test_map_lines_equals_full_rebuild(raws, final_newline, edits, skip):
    unit = unit_from_raws(raws, final_newline=final_newline)

    def fn(line_no, line):
        return line.raw if line_no in skip else edits.get(line_no, lambda raw: raw)(line.raw)

    out = map_lines(unit, fn, [n for n in range(1, len(raws) + 1) if n not in skip])
    new_raws = [fn(n, line) for n, line in enumerate(unit.lines, 1)]
    assert out == unit_from_raws(new_raws, final_newline=final_newline)
    for old, new in zip(unit.lines, out.lines):
        if old == new:
            assert old is new


def test_map_lines_keeps_untouched_line_objects():
    unit = load_unit("a;\n/* b\nc */ d;\ne;\n")
    out = map_lines(unit, lambda line_no, line: "b" if line_no == 2 else line.raw, [2])
    # line 3 no longer starts inside a comment, so it is re-tokenized too;
    # line 4 starts outside a comment either way and is kept
    assert out.lines[0] is unit.lines[0]
    assert out.lines[2] is not unit.lines[2] and not out.lines[2].in_block_comment
    assert out.lines[3] is unit.lines[3]
    assert out == unit_from_raws(["a;", "b", "c */ d;", "e;"])


# -- the fields a line derives from its text ---------------------------------


def assert_derived_fields(unit):
    """Every line carries the significant tokens and identifier lexemes of its
    own tokens, and ends in the block-comment state the next line begins in."""
    for line in unit.lines:
        assert line.tokens == _tokenize(line.raw, line.in_block_comment)[0]
        assert line.sig == tuple(t for t in line.tokens if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT))
        assert line.names == {t.lexeme for t in line.tokens if t.kind is TokenKind.IDENTIFIER}
    for line, nxt in zip(unit.lines, unit.lines[1:]):
        assert line.ends_in_block_comment == nxt.in_block_comment


@settings(max_examples=200, deadline=None)
@given(st.lists(LINE_TEXT, max_size=8), st.dictionaries(LINE_NOS, EDITS), st.frozensets(LINE_NOS, max_size=3))
def test_built_and_mapped_lines_carry_their_derived_fields(raws, edits, skip):
    unit = unit_from_raws(raws)
    assert_derived_fields(unit)

    def fn(line_no, line):
        return line.raw if line_no in skip else edits.get(line_no, lambda raw: raw)(line.raw)

    assert_derived_fields(map_lines(unit, fn, [n for n in range(1, len(raws) + 1) if n not in skip]))


EXT_TEXT = st.lists(
    st.sampled_from([
        "redundant_t int x;", "sensor_t int y;", "cyclic_t int f(void);", "x = y;", "f.Cycle = x;",
        "@ext:cyclic ", "/*", "*/", " ", "int z;",
    ]),
    max_size=4,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(EXT_TEXT, max_size=6))
def test_pipeline_output_lines_carry_their_derived_fields(raws):
    out, _ = run(compose(list(builtin_registry())), unit_from_raws(raws))
    assert len(out.lines) == len(raws) + 1  # the preamble, then one line per input line
    assert_derived_fields(out)


DERIVED = ("tokens", "sig", "names", "ends_in_block_comment")


def test_source_line_cannot_be_built_with_missing_or_stale_derived_fields():
    line = SourceLine("int x = y; /* z")
    assert [t.lexeme for t in line.sig] == ["int", "x", "=", "y", ";"]
    assert line.names == {"x", "y"} and line.ends_in_block_comment
    for name in DERIVED:
        with pytest.raises(TypeError):
            SourceLine("int x;", False, **{name: getattr(line, name)})
        with pytest.raises(ValueError):
            dataclasses.replace(line, **{name: getattr(line, name)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(line, name, ())
    changed = dataclasses.replace(line, raw="w = v;")
    assert changed.names == {"w", "v"} and len(changed.sig) == 4 and not changed.ends_in_block_comment
    inside = dataclasses.replace(line, in_block_comment=True)
    assert inside.sig == () and inside.names == frozenset()


# C fragments that exercise every cut and depth rule of the statement split
_SPLIT_FRAGMENTS = [
    "for (;;) {", "for (i = 0; i < n; i++)", "a[b[(c)]] = f(g(x), [y]);", "(", "[", ")", "]", ")))", "]]",
    '"a;b{}"', "'{'", "';'", "/* ; { } */", "// ; } (", "/* ; (", "*/ x;", "*/", "{", "}", "{ }",
    "x = 1; y = 2;", "int a, *b; return (a);", ";", "while (x) { y--; }", "x", "1.5e+3", " ",
]
_split_pieces = st.one_of(
    st.sampled_from(_SPLIT_FRAGMENTS),
    st.text(st.characters(max_codepoint=255, blacklist_characters="\n"), max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_split_pieces, max_size=10), st.booleans())
@example(["x = f(x;"], False)  # a final ';' inside an open bracket ends no statement
@example(["x = (x"], False)
@example(["a; b"], False)
@example(["{"], False)
@example(["a;"], False)
def test_split_segments_agrees_with_the_reference(pieces, in_block):
    sig = SourceLine(" ".join(pieces), in_block).sig
    finished, rest = split_segments(sig)
    assert (finished, rest) == reference_split_segments(sig)
    assert [tok for seg in finished for tok in seg] + rest == list(sig)


def token_kind_reads(source):
    """Line numbers of the ``TokenKind.<member>`` reads inside function bodies."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and (
                    (isinstance(node.value, ast.Name) and node.value.id == "TokenKind")
                    or (isinstance(node.value, ast.Attribute) and node.value.attr == "TokenKind")
                ):
                    found.append(node.lineno)
    return found


def test_token_kind_reads_finds_reads_in_bodies_only():
    assert token_kind_reads("K = TokenKind.COMMENT\nALL = [k for k in TokenKind]") == []
    assert token_kind_reads("def f(t):\n    return t.kind is TokenKind.IDENTIFIER") == [2]
    assert token_kind_reads("g = lambda t: t.kind is srcmodel.TokenKind.NUMBER") == [1]


def test_no_function_body_looks_up_a_token_kind():
    """Kinds are compared against the constants ``srcmodel`` binds at import;
    an Enum member lookup in a function body is several times slower."""
    package = Path(cpm.__file__).parent
    reads = {
        str(path.relative_to(package)): token_kind_reads(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    assert {name: lines for name, lines in reads.items() if lines} == {}


def imported_modules(source):
    """The modules a module's import statements name, a relative import as
    ``"."``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." if node.level else node.module)
    return found


CONCURRENCY_MODULES = ("threading", "_thread", "multiprocessing", "concurrent", "asyncio")


def test_the_package_imports_only_itself_and_the_standard_library():
    """The north star keeps ``cpm`` pure stdlib: every import names ``cpm``
    (or is relative) or names a module of ``sys.stdlib_module_names``. The
    runtime is single-threaded, so no module imports a concurrency module."""
    package = Path(cpm.__file__).parent
    imports = {
        str(path.relative_to(package)): imported_modules(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    assert "re" in imports["srcmodel.py"] and "." in imports["pipeline.py"]
    allowed = {"cpm", *sys.stdlib_module_names} - set(CONCURRENCY_MODULES)
    outside = {
        name: sorted(m for m in found if m != "." and m.split(".")[0] not in allowed)
        for name, found in imports.items()
    }
    assert {name: found for name, found in outside.items() if found} == {}


def unused_imports(source):
    """The names a module's import statements bind that nothing in it reads,
    ``from __future__`` aside."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_sees_every_binding_form():
    source = "from __future__ import annotations\nimport os.path\nimport re as r\nfrom .a import b, c as d\nd(os)\n"
    assert unused_imports(source) == ["b", "r"]


def test_no_module_imports_a_name_it_never_uses():
    """A package ``__init__`` imports to re-export; any other module of
    ``cpm`` reads every name it imports."""
    package = Path(cpm.__file__).parent
    unused = {
        str(path.relative_to(package)): unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}
