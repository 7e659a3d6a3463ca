"""Line-oriented model of augmented C source.

A translation unit is a sequence of physical lines, each carried both as its
raw text and as a token partition of that text, with the two views every
pass reads: its significant tokens and its set of identifiers. All three
come from one tokenization when the line is built. Concatenating a line's
token lexemes always reproduces the raw line byte-for-byte, and rendering a
loaded unit reproduces the input exactly, so passes can splice replacement
text into lines without ever corrupting the parts they do not understand.

A line does not know its number: its number is its 1-based position in the
unit that holds it. So one line object can sit in any unit at any position
(the pipeline puts the preamble in front of the passes' own lines without
copying one), and code that reports a line number takes it from
``enumerate(unit.lines, 1)``.

Input is treated as bytes: files should be decoded latin-1 so every byte maps
to one character. The lexical grammar is stated in two parts. The pattern
``_TOKEN_RE`` says where tokens end: one alternative per token kind, with no
capture group, so one ``findall`` cuts a line into its lexemes. Two tables
give each lexeme its kind: ``_LEXEME_KIND`` by the whole lexeme (every
punctuator and every keyword), else ``_FIRST_KIND`` by its first character,
else it is a punctuator. Every character class is spelled in ASCII, so only
ASCII bytes take part in token classification and any other byte becomes a
one-byte punctuator. Tokenizing never fails. A token costs one item of the
``findall`` list and at most two dict lookups, with no match object.

Code compares a token's kind against the module constants ``IDENTIFIER``,
``KEYWORD`` and so on, bound once at import, and never reads
``TokenKind.<member>`` in a function body: on CPython 3.11 an Enum member
lookup costs several times a global read, and the interpreter and the
passes compare kinds once or twice per token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCTUATOR = "punctuator"
    NUMBER = "number"
    STRING = "string"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


IDENTIFIER = TokenKind.IDENTIFIER
KEYWORD = TokenKind.KEYWORD
PUNCTUATOR = TokenKind.PUNCTUATOR
NUMBER = TokenKind.NUMBER
STRING = TokenKind.STRING
COMMENT = TokenKind.COMMENT
WHITESPACE = TokenKind.WHITESPACE

C_KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    """.split()
)

# Where tokens end: one alternative per token kind, tried in order; the first
# that matches at a position wins, and findall returns the lexemes, since no
# group captures. Every class is spelled in ASCII: Python's \w, \d and \s
# also match latin-1 letters and spaces (\xaa, \xe9, \xa0, \x85), which must
# stay one-byte punctuators.
_TOKEN_RE = re.compile(
    r"""
      [ \t\r\v\f]+                                  # whitespace
    | //[\s\S]* | /\*[\s\S]*?\*/ | /\*[\s\S]*          # comment; the last is one the line does not close
    | [A-Za-z_][A-Za-z0-9_]*                        # identifier or keyword
    | \.?[0-9] (?: [eEpP][+-] | [.A-Za-z0-9_] )*    # preprocessing number
    | "(?: [^"\\] | \\[\s\S] )*["\\]? | '(?: [^'\\] | \\[\s\S] )*['\\]?  # string; unterminated: to end of line
    | <<= | >>= | \.\.\. | -> | \+\+ | -- | << | >> | [-+*/%&^|<>=!]= | && | \|\| | \#\# | [\s\S]  # punctuator
    """,
    re.VERBOSE,
)

# What kind each lexeme is: the whole lexeme is looked up first, then its
# first character, and anything found in neither is a punctuator. The first
# table alone would kind a lone "/" as a comment and a lone "." as a number,
# so every punctuator is a whole lexeme.
_LEXEME_KIND = {
    **dict.fromkeys(
        "<<= >>= ... -> ++ -- << >> -= += *= /= %= &= ^= |= <= >= == != && || ## "
        "( ) [ ] { } ; , . : ? ~ ! + - * / % & | ^ < > = #".split(),
        PUNCTUATOR,
    ),
    **dict.fromkeys(C_KEYWORDS, KEYWORD),
}
_FIRST_KIND = {
    **dict.fromkeys(" \t\r\v\f", WHITESPACE),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", IDENTIFIER),
    **dict.fromkeys("0123456789.", NUMBER),
    **dict.fromkeys("\"'", STRING),
    "/": COMMENT,
}
_NO_NAMES = frozenset()  # shared by the lines that name no identifier


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    column: int  # 0-based byte offset within the line

    @property
    def end(self) -> int:
        return self.column + len(self.lexeme)


@dataclass(frozen=True, slots=True)
class SourceLine:
    """One physical line, at whatever position of a unit it sits. Everything
    past ``in_block_comment`` is derived from ``raw`` and
    ``in_block_comment`` by one tokenization when the line is built, so it
    is never missing or stale: ``tokens`` partition the line, ``sig`` are
    the significant ones (neither whitespace nor comments), ``names`` the
    lexemes of its identifiers, and ``ends_in_block_comment`` tells whether
    the next line begins inside a comment."""

    raw: str  # no trailing newline
    in_block_comment: bool = False  # line begins inside a /* ... */ comment
    tokens: tuple[Token, ...] = field(init=False)
    sig: tuple[Token, ...] = field(init=False)
    names: frozenset[str] = field(init=False)
    ends_in_block_comment: bool = field(init=False)

    def __post_init__(self):
        tokens, sig, names, ends = _tokenize(self.raw, self.in_block_comment)
        set_field = object.__setattr__
        set_field(self, "tokens", tokens)
        set_field(self, "sig", sig)
        set_field(self, "names", names)
        set_field(self, "ends_in_block_comment", ends)


@dataclass(frozen=True)
class SourceUnit:
    lines: tuple[SourceLine, ...]  # line N is lines[N - 1]
    final_newline: bool = True


@dataclass(frozen=True)
class Diagnostic:
    """A transform-time notice. Transforms never fail: unrecognized input
    flushes through and the worst that can be reported is a warning."""

    severity: str  # "info" | "warning"
    line_no: int
    message: str
    emitted_by: str

    def __post_init__(self):
        if self.severity not in ("info", "warning"):
            raise ValueError(f"diagnostic severity must be info or warning, got {self.severity!r}")

    def __str__(self):
        return f"{self.severity}: line {self.line_no}: {self.message} [{self.emitted_by}]"


def _tokenize(raw: str, in_block: bool):
    """Tokenize ``raw``, which begins inside a block comment if ``in_block``.
    Returns (tokens, significant tokens, identifier lexemes, whether it ends
    inside a block comment)."""
    tokens: list[Token] = []
    sig: list[Token] = []
    names = set()
    col = 0
    if in_block:
        end = raw.find("*/")
        if end < 0:
            return ((Token(COMMENT, raw, 0),) if raw else ()), (), _NO_NAMES, True
        col = end + 2
        tokens.append(Token(COMMENT, raw[:col], 0))
    lexemes = _TOKEN_RE.findall(raw, col)
    whole, first = _LEXEME_KIND.get, _FIRST_KIND.get
    new = tuple.__new__  # Token(...) without the Python-level constructor
    for lex in lexemes:
        kind = whole(lex) or first(lex[0], PUNCTUATOR)
        tok = new(Token, (kind, lex, col))
        col += len(lex)
        tokens.append(tok)
        if kind is WHITESPACE or kind is COMMENT:
            continue
        if kind is IDENTIFIER:
            names.add(lex)
        sig.append(tok)
    # the line ends inside a comment when its last lexeme opens one that it
    # does not close; "/*/" opens one and ends in "*/"
    last = lexemes[-1] if lexemes else ""
    ends = last.startswith("/*") and (len(last) < 4 or not last.endswith("*/"))
    return tuple(tokens), tuple(sig), frozenset(names) if names else _NO_NAMES, ends


def tokenize_line(raw: str) -> tuple[Token, ...]:
    """Tokenize one physical line. Total: any byte sequence tokenizes."""
    if "\n" in raw:
        raise ValueError("tokenize_line takes a single line (no newline bytes)")
    return _tokenize(raw, False)[0]


def unit_from_raws(raws, final_newline: bool = True) -> SourceUnit:
    """Build a unit from raw line strings, tracking block-comment state across lines."""
    lines = []
    in_block = False
    for raw in raws:
        line = SourceLine(raw, in_block)
        lines.append(line)
        in_block = line.ends_in_block_comment
    return SourceUnit(lines=tuple(lines), final_newline=final_newline)


class LineMemo(dict):
    """``(raw, in_block_comment) -> SourceLine``, each line built on first
    lookup. A line is immutable and knows no position, so one object may
    stand for a text at every line it sits on."""

    def __missing__(self, key):
        line = self[key] = SourceLine(*key)
        return line


def map_lines(unit: SourceUnit, fn, memo=None) -> SourceUnit:
    """Return ``unit`` with each line's raw text replaced by
    ``fn(line_no, line)``, ``line_no`` its 1-based position; ``fn`` returns
    ``line.raw`` for a line it leaves alone.

    The result equals ``unit_from_raws`` of the new raw lines, but only the
    lines that changed are re-tokenized, plus the lines after them whose
    block-comment state the change flipped. Every other line keeps its
    ``SourceLine`` object. New lines come from ``memo``, a fresh
    :class:`LineMemo` unless the caller shares its own with ``fn``, so a
    text that repeats is tokenized once.
    """
    if memo is None:
        memo = LineMemo()
    lines = list(unit.lines)
    in_block = False  # block-comment state entering the line, in the new unit
    for line_no, line in enumerate(unit.lines, 1):
        raw = fn(line_no, line)
        if raw != line.raw or in_block != line.in_block_comment:
            line = lines[line_no - 1] = memo[raw, in_block]
        in_block = line.ends_in_block_comment
    return SourceUnit(lines=tuple(lines), final_newline=unit.final_newline)


def load_unit(text: str) -> SourceUnit:
    if text == "":
        return SourceUnit(lines=(), final_newline=False)
    final_newline = text.endswith("\n")
    raws = text.split("\n")
    if final_newline:
        raws.pop()
    return unit_from_raws(raws, final_newline=final_newline)


def render(unit: SourceUnit) -> str:
    if not unit.lines:
        return ""
    body = "\n".join(line.raw for line in unit.lines)
    return body + ("\n" if unit.final_newline else "")


_EXT_TAG_RE = re.compile(r"^@ext:([a-z0-9_]+)(?: |$)")


def ext_tag(raw: str) -> tuple[str | None, str]:
    """Split an ``@ext:<pass>`` line prefix off, if present.

    Returns (pass_name, remaining_text); (None, raw) for untagged lines.
    """
    m = _EXT_TAG_RE.match(raw)
    if not m:
        return None, raw
    return m.group(1), raw[m.end() :]


def split_segments(sig) -> tuple[list[list[Token]], list[Token]]:
    """Split significant tokens into statement segments, cutting at ';'
    outside parens/brackets and at braces. A 'for(;;)' header stays whole.
    Returns ``(finished, rest)``: the segments ending on a cut, and the
    tokens after the last cut, possibly none, which end no statement (as in
    ``x = f(x;``). The interpreter splits a line only the first time it
    compiles it."""
    segs, cur, depth = [], [], 0
    for tok in sig:  # tok[0], tok[1]: the kind and lexeme, by the cheaper tuple index
        cur.append(tok)
        if tok[0] is not PUNCTUATOR:
            continue
        lex = tok[1]
        if lex == "(" or lex == "[":
            depth += 1
        elif lex == ")" or lex == "]":
            if depth:
                depth -= 1
        elif not depth and (lex == ";" or lex == "{" or lex == "}"):
            segs.append(cur)
            cur = []
    return segs, cur


def apply_spans(raw: str, spans) -> str:
    """Apply non-overlapping (start, end, text) replacements to a line."""
    if not spans:
        return raw
    spans = sorted(spans)
    out = []
    pos = 0
    for start, end, text in spans:
        if start < pos:
            raise ValueError("overlapping replacement spans")
        out.append(raw[pos:start])
        out.append(text)
        pos = end
    out.append(raw[pos:])
    return "".join(out)
