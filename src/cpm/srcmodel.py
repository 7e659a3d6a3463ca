"""Line-oriented model of augmented C source.

A translation unit is a sequence of physical lines, each carried both as its
raw text and as a token partition of that text. Concatenating a line's token
lexemes always reproduces the raw line byte-for-byte, and rendering a loaded
unit reproduces the input exactly, so passes can splice replacement text into
lines without ever corrupting the parts they do not understand.

Input is treated as bytes: files should be decoded latin-1 so every byte maps
to one character. ``_TOKEN_RE`` is the one statement of the lexical grammar:
a single pattern with one named group per token kind, whose character
classes are all spelled in ASCII, so only ASCII bytes take part in token
classification and any other byte becomes a one-byte punctuator. Tokenizing
never fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCTUATOR = "punctuator"
    NUMBER = "number"
    STRING = "string"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


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
_KINDS = {**{k.name: k for k in TokenKind}, "OPEN": TokenKind.COMMENT}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    column: int  # 0-based byte offset within the line

    @property
    def end(self) -> int:
        return self.column + len(self.lexeme)


@dataclass(frozen=True)
class SourceLine:
    raw: str  # no trailing newline
    tokens: tuple[Token, ...]
    line_no: int  # 1-based
    in_block_comment: bool = False  # line begins inside a /* ... */ comment


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


def _tokenize(raw: str, in_block: bool) -> tuple[tuple[Token, ...], bool]:
    tokens: list[Token] = []
    i = 0
    if in_block:
        end = raw.find("*/")
        if end < 0:
            if raw:
                tokens.append(Token(TokenKind.COMMENT, raw, 0))
            return tuple(tokens), True
        i = end + 2
        tokens.append(Token(TokenKind.COMMENT, raw[:i], 0))
    group = None
    for m in _TOKEN_RE.finditer(raw, i):
        group, lex = m.lastgroup, m.group()
        kind = _KINDS[group]
        if kind is TokenKind.IDENTIFIER and lex in C_KEYWORDS:
            kind = TokenKind.KEYWORD
        tokens.append(Token(kind, lex, m.start()))
    return tuple(tokens), group == "OPEN"


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
        started_inside = in_block
        tokens, in_block = _tokenize(raw, in_block)
        lines.append(
            SourceLine(raw=raw, tokens=tokens, line_no=idx + 1, in_block_comment=started_inside)
        )
    return SourceUnit(lines=tuple(lines), origin=origin, final_newline=final_newline)


def map_lines(unit: SourceUnit, fn, skip=frozenset()) -> SourceUnit:
    """Return ``unit`` with each line's raw text replaced by ``fn(line)``;
    lines numbered in ``skip`` keep their text.

    The result equals ``unit_from_raws`` of the new raw lines, but only the
    lines that changed are re-tokenized, plus the lines after them whose
    block-comment state the change flipped. Every other line keeps its
    ``SourceLine`` object.
    """
    old = unit.lines
    lines = list(old)
    in_block = False  # block-comment state entering the line, in the new unit
    for idx, line in enumerate(old):
        raw = line.raw if line.line_no in skip else fn(line)
        if raw == line.raw and in_block == line.in_block_comment:
            in_block = old[idx + 1].in_block_comment if idx + 1 < len(old) else False
            continue
        tokens, after = _tokenize(raw, in_block)
        lines[idx] = SourceLine(raw=raw, tokens=tokens, line_no=line.line_no, in_block_comment=in_block)
        in_block = after
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
    return [t for t in tokens if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)]


def split_segments(sig) -> list[list[Token]]:
    """Split significant tokens into statement segments, cutting at ';'
    outside parens/brackets and at braces. A 'for(;;)' header stays whole."""
    segs, cur, depth = [], [], 0
    for tok in sig:
        if tok.kind is TokenKind.PUNCTUATOR:
            if tok.lexeme in ("(", "["):
                depth += 1
            elif tok.lexeme in (")", "]"):
                depth = max(0, depth - 1)
        cur.append(tok)
        if tok.kind is TokenKind.PUNCTUATOR and depth == 0 and tok.lexeme in (";", "{", "}"):
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
