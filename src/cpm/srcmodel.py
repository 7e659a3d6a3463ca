"""Line-oriented model of augmented C source.

A translation unit is a sequence of physical lines, each carried both as its
raw text and as a token partition of that text. Concatenating a line's token
lexemes always reproduces the raw line byte-for-byte, and rendering a loaded
unit reproduces the input exactly, so passes can splice replacement text into
lines without ever corrupting the parts they do not understand.

Input is treated as bytes: files should be decoded latin-1 so every byte maps
to one character. Only ASCII bytes take part in token classification; any
other byte becomes a one-byte punctuator. Tokenizing never fails.
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

# Longest match first; anything not matched here falls out as 1 byte.
_PUNCT3 = ("<<=", ">>=", "...")
_PUNCT2 = (
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "##",
)

_WS = " \t\r\v\f"


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


def _is_ident_start(c: str) -> bool:
    return c == "_" or (c.isascii() and c.isalpha())


def _is_ident_char(c: str) -> bool:
    return c == "_" or (c.isascii() and c.isalnum())


def _scan_number(raw: str, i: int) -> int:
    # C preprocessing-number shape: digits, letters, dots, and exponent signs.
    n = len(raw)
    i += 1
    while i < n:
        c = raw[i]
        if c in "eEpP" and i + 1 < n and raw[i + 1] in "+-":
            i += 2
            continue
        if c == "." or _is_ident_char(c):
            i += 1
            continue
        break
    return i


def _scan_string(raw: str, i: int) -> int:
    quote = raw[i]
    n = len(raw)
    i += 1
    while i < n:
        c = raw[i]
        if c == "\\" and i + 1 < n:
            i += 2
            continue
        i += 1
        if c == quote:
            return i
    return n  # unterminated: the literal runs to end of line


def _tokenize(raw: str, in_block: bool) -> tuple[tuple[Token, ...], bool]:
    tokens: list[Token] = []
    i = 0
    n = len(raw)
    if in_block:
        end = raw.find("*/")
        if end < 0:
            if raw:
                tokens.append(Token(TokenKind.COMMENT, raw, 0))
            return tuple(tokens), True
        i = end + 2
        tokens.append(Token(TokenKind.COMMENT, raw[:i], 0))
    while i < n:
        c = raw[i]
        start = i
        if c in _WS:
            while i < n and raw[i] in _WS:
                i += 1
            tokens.append(Token(TokenKind.WHITESPACE, raw[start:i], start))
            continue
        if raw.startswith("//", i):
            tokens.append(Token(TokenKind.COMMENT, raw[i:], i))
            break
        if raw.startswith("/*", i):
            end = raw.find("*/", i + 2)
            if end < 0:
                tokens.append(Token(TokenKind.COMMENT, raw[i:], i))
                return tuple(tokens), True
            i = end + 2
            tokens.append(Token(TokenKind.COMMENT, raw[start:i], start))
            continue
        if _is_ident_start(c):
            i += 1
            while i < n and _is_ident_char(raw[i]):
                i += 1
            lex = raw[start:i]
            kind = TokenKind.KEYWORD if lex in C_KEYWORDS else TokenKind.IDENTIFIER
            tokens.append(Token(kind, lex, start))
            continue
        if (c.isascii() and c.isdigit()) or (
            c == "." and i + 1 < n and raw[i + 1].isascii() and raw[i + 1].isdigit()
        ):
            i = _scan_number(raw, i)
            tokens.append(Token(TokenKind.NUMBER, raw[start:i], start))
            continue
        if c in "\"'":
            i = _scan_string(raw, i)
            tokens.append(Token(TokenKind.STRING, raw[start:i], start))
            continue
        if raw[i : i + 3] in _PUNCT3:
            i += 3
        elif raw[i : i + 2] in _PUNCT2:
            i += 2
        else:
            i += 1
        tokens.append(Token(TokenKind.PUNCTUATOR, raw[start:i], start))
    return tuple(tokens), False


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


def significant(tokens) -> list[int]:
    """Indices of tokens that are neither whitespace nor comments."""
    return [
        i
        for i, t in enumerate(tokens)
        if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)
    ]


def split_segments(tokens, sig) -> list[list[int]]:
    """Split significant token indices into statement segments, cutting at
    ';' outside parens/brackets and at braces. A 'for(;;)' header stays whole."""
    segs, cur, depth = [], [], 0
    for i in sig:
        tok = tokens[i]
        if tok.kind is TokenKind.PUNCTUATOR:
            if tok.lexeme in ("(", "["):
                depth += 1
            elif tok.lexeme in (")", "]"):
                depth = max(0, depth - 1)
        cur.append(i)
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
