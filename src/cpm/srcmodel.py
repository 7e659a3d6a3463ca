"""Line-oriented model of augmented C source.

A translation unit is a sequence of physical lines, each carried both as its
raw text and as a token partition of that text, with the two views every
pass reads: its significant tokens and its set of identifiers. All three
come from one tokenization when the line is built. Concatenating a line's
token lexemes always reproduces the raw line byte-for-byte, and rendering a
loaded unit reproduces the input exactly, so passes can splice replacement
text into lines without ever corrupting the parts they do not understand.

Input is treated as bytes: files should be decoded latin-1 so every byte maps
to one character. ``_TOKEN_RE`` is the one statement of the lexical grammar:
a single pattern with one named group per token kind, whose character
classes are all spelled in ASCII, so only ASCII bytes take part in token
classification and any other byte becomes a one-byte punctuator. Tokenizing
never fails.

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

# The whole lexical grammar, one named group per token kind, tried in order;
# the first alternative that matches at a position wins. Every class is
# spelled in ASCII: Python's \w, \d and \s also match latin-1 letters and
# spaces (\xaa, \xe9, \xa0, \x85), which must stay one-byte punctuators.
# OPEN is a block comment the line does not close.
_TOKEN_RE = re.compile(
    r"""
      (?P<WHITESPACE> [ \t\r\v\f]+ )
    | (?P<COMMENT> //[\s\S]* | /\*[\s\S]*?\*/ )
    | (?P<OPEN> /\*[\s\S]* )
    | (?P<IDENTIFIER> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<NUMBER> \.?[0-9] (?: [eEpP][+-] | [.A-Za-z0-9_] )* )  # preprocessing number
    | (?P<STRING> "(?: [^"\\] | \\[\s\S] )*["\\]? | '(?: [^'\\] | \\[\s\S] )*['\\]? )  # unterminated: to end of line
    | (?P<PUNCTUATOR> <<= | >>= | \.\.\. | -> | \+\+ | -- | << | >> | [-+*/%&^|<>=!]= | && | \|\| | \#\# | [\s\S] )
    """,
    re.VERBOSE,
)
_KINDS = {**{k.name: k for k in TokenKind}, "OPEN": COMMENT}
_TRIVIA = frozenset({"WHITESPACE", "COMMENT", "OPEN"})  # groups of insignificant tokens
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
    """One physical line. Everything past ``in_block_comment`` is derived
    from ``raw`` and ``in_block_comment`` by one tokenization when the line
    is built, so it is never missing or stale: ``tokens`` partition the
    line, ``sig`` are the significant ones (:func:`significant`), ``names``
    the lexemes of its identifiers, and ``ends_in_block_comment`` tells
    whether the next line begins inside a comment."""

    raw: str  # no trailing newline
    line_no: int  # 1-based
    in_block_comment: bool = False  # line begins inside a /* ... */ comment
    tokens: tuple[Token, ...] = field(init=False)
    sig: tuple[Token, ...] = field(init=False)
    names: frozenset[str] = field(init=False)
    ends_in_block_comment: bool = field(init=False)

    def __post_init__(self):
        for name, value in zip(_DERIVED, _tokenize(self.raw, self.in_block_comment)):
            object.__setattr__(self, name, value)

    def renumbered(self, line_no: int) -> "SourceLine":
        """This line as line ``line_no``, built without tokenizing it again."""
        line = object.__new__(SourceLine)
        for name in _FIELDS:
            object.__setattr__(line, name, getattr(self, name))
        object.__setattr__(line, "line_no", line_no)
        return line


_DERIVED = ("tokens", "sig", "names", "ends_in_block_comment")
_FIELDS = SourceLine.__slots__


@dataclass(frozen=True)
class SourceUnit:
    lines: tuple[SourceLine, ...]
    origin: str = "<memory>"
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
    i = 0
    if in_block:
        end = raw.find("*/")
        if end < 0:
            return ((Token(COMMENT, raw, 0),) if raw else ()), (), _NO_NAMES, True
        i = end + 2
        tokens.append(Token(COMMENT, raw[:i], 0))
    group = None
    new = tuple.__new__  # Token(...) without the Python-level constructor
    for m in _TOKEN_RE.finditer(raw, i):
        group, lex = m.lastgroup, m.group()
        if group in _TRIVIA:
            tokens.append(new(Token, (_KINDS[group], lex, m.start())))
            continue
        if group != "IDENTIFIER":
            tok = new(Token, (_KINDS[group], lex, m.start()))
        elif lex in C_KEYWORDS:
            tok = new(Token, (KEYWORD, lex, m.start()))
        else:
            tok = new(Token, (IDENTIFIER, lex, m.start()))
            names.add(lex)
        tokens.append(tok)
        sig.append(tok)
    return tuple(tokens), tuple(sig), frozenset(names) if names else _NO_NAMES, group == "OPEN"


def tokenize_line(raw: str) -> tuple[Token, ...]:
    """Tokenize one physical line. Total: any byte sequence tokenizes."""
    if "\n" in raw:
        raise ValueError("tokenize_line takes a single line (no newline bytes)")
    return _tokenize(raw, False)[0]


def unit_from_raws(raws, origin: str = "<memory>", final_newline: bool = True) -> SourceUnit:
    """Build a unit from raw line strings, tracking block-comment state across lines."""
    lines = []
    in_block = False
    for idx, raw in enumerate(raws):
        line = SourceLine(raw, idx + 1, in_block)
        lines.append(line)
        in_block = line.ends_in_block_comment
    return SourceUnit(lines=tuple(lines), origin=origin, final_newline=final_newline)


def map_lines(unit: SourceUnit, fn, skip=frozenset()) -> SourceUnit:
    """Return ``unit`` with each line's raw text replaced by ``fn(line)``;
    lines numbered in ``skip`` keep their text.

    The result equals ``unit_from_raws`` of the new raw lines, but only the
    lines that changed are re-tokenized, plus the lines after them whose
    block-comment state the change flipped. Every other line keeps its
    ``SourceLine`` object.
    """
    lines = list(unit.lines)
    in_block = False  # block-comment state entering the line, in the new unit
    for idx, line in enumerate(unit.lines):
        raw = line.raw if line.line_no in skip else fn(line)
        if raw != line.raw or in_block != line.in_block_comment:
            line = lines[idx] = SourceLine(raw, line.line_no, in_block)
        in_block = line.ends_in_block_comment
    return SourceUnit(lines=tuple(lines), origin=unit.origin, final_newline=unit.final_newline)


def load_unit(text: str, origin: str = "<memory>") -> SourceUnit:
    if text == "":
        return SourceUnit(lines=(), origin=origin, final_newline=False)
    final_newline = text.endswith("\n")
    raws = text.split("\n")
    if final_newline:
        raws.pop()
    return unit_from_raws(raws, origin=origin, final_newline=final_newline)


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


def significant(tokens) -> list[Token]:
    """The tokens that are neither whitespace nor comments."""
    return [t for t in tokens if t.kind not in (WHITESPACE, COMMENT)]


def split_segments(sig) -> list[list[Token]]:
    """Split significant tokens into statement segments, cutting at ';'
    outside parens/brackets and at braces. A 'for(;;)' header stays whole.
    The interpreter splits a line only the first time it compiles it."""
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
    if cur:
        segs.append(cur)
    return segs


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
