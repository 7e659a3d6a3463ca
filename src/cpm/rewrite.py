"""Shared lowering machinery for tracked scalar variables.

The redundancy pass and the context-variable pass rewrite accesses the same
way: a statement-level assignment to a tracked name becomes a write call, any
other expression-position occurrence becomes a read call, and compound
assignments / increments desugar through a read. Only the emitted call text
and the permitted access directions differ, so the classification logic lives
here once.

Occurrences that cannot be rewritten safely from a single line (address-of,
assignments buried inside larger expressions, subscripts, apparent shadowing
declarations) are left untouched and reported as warnings; nothing here ever
rejects input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .srcmodel import Diagnostic, Token, TokenKind, apply_spans, significant, split_segments

COMPOUND_OPS = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "^=": "^", "|=": "|", "<<=": "<<", ">>=": ">>",
}

TYPE_KEYWORDS = frozenset(
    {"int", "char", "short", "long", "float", "double", "signed", "unsigned", "void"}
)


def decl_head(toks):
    """Split the tokens of ``<type...> <name>`` into (type_text, name), the
    type words joined by single spaces. None unless there is at least one
    type token, each a keyword, identifier or ``*``, and the name is an
    identifier."""
    if len(toks) < 2 or toks[-1].kind is not TokenKind.IDENTIFIER:
        return None
    for t in toks[:-1]:
        if t.kind not in (TokenKind.KEYWORD, TokenKind.IDENTIFIER) and t.lexeme != "*":
            return None
    return " ".join(t.lexeme for t in toks[:-1]), toks[-1].lexeme


def decl_statements(tokens, keywords, match):
    """Find the declaration statement of each occurrence of one of a pass's
    ``keywords`` among one line's ``tokens``; yields ``(keyword_token, m)``.

    The one rule all four passes' declarations obey:

    - A keyword's statement starts at the token after the last ``;``, ``{``
      or ``}`` before it and ends at the next ``;`` outside parentheses and
      brackets.
    - ``match`` sees the statement's significant tokens, its ``;`` last, only
      if the statement ends on the line and holds no other keyword; ``m`` is
      what it returns, or None when it does not run. The pass lowers a match
      and warns once for a None.
    - After a match, scanning resumes after the statement; otherwise right
      after the keyword.
    """
    if not any(t.lexeme in keywords for t in tokens):
        return
    sig = [t for t in tokens if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)]
    start = 0
    # a matched statement holds no other keyword and ends at a ';', so taking
    # every occurrence in turn is the same as resuming after the statement
    for p, tok in enumerate(sig):
        if tok.kind is TokenKind.PUNCTUATOR and tok.lexeme in (";", "{", "}"):
            start = p + 1
        if tok.kind is not TokenKind.IDENTIFIER or tok.lexeme not in keywords:
            continue
        depth, end = 0, p + 1
        while end < len(sig) and (depth or sig[end].lexeme != ";"):
            lex = sig[end].lexeme
            depth = max(0, depth + (lex in ("(", "[")) - (lex in (")", "]")))
            end += 1
        stmt = sig[start : end + 1]
        alone = sum(t.kind is TokenKind.IDENTIFIER and t.lexeme in keywords for t in stmt) == 1
        yield tok, match(stmt) if end < len(sig) and alone else None


@dataclass(frozen=True)
class VarTarget:
    """How to lower one tracked name. ``read`` / ``write`` may be None when
    the variable only supports the other direction."""

    name: str
    read: Optional[Callable[[str], str]] = None          # name -> expression text
    write: Optional[Callable[[str, str], str]] = None    # (name, value text) -> statement text


class _LineRewriter:
    def __init__(self, raw, tokens, targets, line_no, emitted_by, diags):
        self.raw = raw
        self.tokens: tuple[Token, ...] = tokens
        self.targets = targets
        self.line_no = line_no
        self.emitted_by = emitted_by
        self.diags = diags
        self.sig = significant(tokens)
        self.spans = []       # (start_col, end_col, replacement)
        self.handled = set()  # token indices consumed by a statement rewrite

    def warn(self, msg):
        self.diags.append(Diagnostic("warning", self.line_no, msg, self.emitted_by))

    def run(self) -> str:
        if not self.sig:
            return self.raw
        for seg in split_segments(self.tokens, self.sig):
            self._statement(seg)
        for pos, i in enumerate(self.sig):
            if i in self.handled:
                continue
            tok = self.tokens[i]
            if tok.kind is not TokenKind.IDENTIFIER or tok.lexeme not in self.targets:
                continue
            action, text = self._classify(pos)
            if action == "wrap":
                self.spans.append((tok.column, tok.end, text))
        return apply_spans(self.raw, self.spans)

    def _neighbors(self, pos):
        prev = self.tokens[self.sig[pos - 1]] if pos > 0 else None
        prev2 = self.tokens[self.sig[pos - 2]] if pos > 1 else None
        nxt = self.tokens[self.sig[pos + 1]] if pos + 1 < len(self.sig) else None
        return prev, prev2, nxt

    def _classify(self, pos):
        """Decide what to do with one occurrence outside a recognized
        statement pattern. Returns ("wrap", text) or ("skip"/"warn", None)."""
        tok = self.tokens[self.sig[pos]]
        name = tok.lexeme
        target = self.targets[name]
        prev, prev2, nxt = self._neighbors(pos)

        if (
            prev is not None
            and prev.lexeme == "("
            and prev2 is not None
            and prev2.kind is TokenKind.IDENTIFIER
            and prev2.lexeme.startswith("cpm_")
        ):
            return "skip", None  # already lowered
        if prev is not None and prev.lexeme in (".", "->"):
            return "skip", None  # member of some aggregate, not this variable
        if nxt is not None and nxt.kind is TokenKind.PUNCTUATOR and (
            nxt.lexeme == "=" or nxt.lexeme in COMPOUND_OPS
        ):
            self.warn(
                f"assignment to '{name}' embedded in a larger expression left unrewritten"
            )
            return "warn", None
        if (nxt is not None and nxt.lexeme in ("++", "--")) or (
            prev is not None and prev.lexeme in ("++", "--")
        ):
            self.warn(f"increment/decrement of '{name}' outside statement position left unrewritten")
            return "warn", None
        if prev is not None and prev.lexeme == "&" and self._amp_is_unary(prev2):
            self.warn(f"address of '{name}' taken; occurrence left unrewritten")
            return "warn", None
        if prev is not None and self._looks_like_decl(prev, prev2):
            if self._segment_has_extern(pos):
                return "skip", None  # extern declaration: a reference, not a definition
            self.warn(f"'{name}' appears to be redeclared (shadowing is unsupported); left unrewritten")
            return "warn", None
        if nxt is not None and nxt.lexeme == "(":
            self.warn(f"'{name}' used as a function name; left unrewritten")
            return "warn", None
        if nxt is not None and nxt.lexeme == "[":
            self.warn(f"'{name}' subscripted; aggregate accesses are unsupported")
            return "warn", None
        if nxt is not None and nxt.lexeme == ":" and self._is_segment_start(pos):
            return "skip", None  # label
        if target.read is None:
            self.warn(f"read of write-only context variable '{name}' left unrewritten")
            return "warn", None
        return "wrap", target.read(name)

    @staticmethod
    def _amp_is_unary(prev2):
        if prev2 is None:
            return True
        if prev2.kind in (TokenKind.IDENTIFIER, TokenKind.NUMBER, TokenKind.STRING):
            return False
        if prev2.lexeme in (")", "]"):
            return False
        return True

    @staticmethod
    def _looks_like_decl(prev, prev2):
        if prev.lexeme in TYPE_KEYWORDS:
            return True
        if prev.lexeme == "*" and prev2 is not None and prev2.lexeme in TYPE_KEYWORDS:
            return True
        if (
            prev.kind is TokenKind.IDENTIFIER
            and prev2 is not None
            and prev2.lexeme in ("struct", "union", "enum")
        ):
            return True
        return False

    def _is_segment_start(self, pos):
        if pos == 0:
            return True
        before = self.tokens[self.sig[pos - 1]]
        return before.lexeme in (";", "{", "}")

    def _segment_has_extern(self, pos):
        for q in range(pos - 1, -1, -1):
            tok = self.tokens[self.sig[q]]
            if tok.lexeme in (";", "{", "}"):
                return False
            if tok.lexeme == "extern":
                return True
        return False

    def _statement(self, seg):
        toks = self.tokens
        first = toks[seg[0]]
        # prefix ++x; / --x;
        if (
            len(seg) == 3
            and first.kind is TokenKind.PUNCTUATOR
            and first.lexeme in ("++", "--")
            and toks[seg[1]].kind is TokenKind.IDENTIFIER
            and toks[seg[1]].lexeme in self.targets
            and toks[seg[2]].lexeme == ";"
        ):
            self._emit_incdec(seg, name_idx=seg[1], op=first.lexeme, start=first.column)
            return
        if first.kind is not TokenKind.IDENTIFIER or first.lexeme not in self.targets:
            return
        if len(seg) < 3 or toks[seg[-1]].lexeme != ";":
            return
        name = first.lexeme
        second = toks[seg[1]]
        # postfix x++; / x--;
        if len(seg) == 3 and second.lexeme in ("++", "--"):
            self._emit_incdec(seg, name_idx=seg[0], op=second.lexeme, start=first.column)
            return
        if second.kind is not TokenKind.PUNCTUATOR:
            return
        target = self.targets[name]
        semi = toks[seg[-1]]
        if second.lexeme == "=":
            if target.write is None:
                self.warn(f"assignment to read-only context variable '{name}' left unrewritten")
                self.handled.add(seg[0])
                return
            rhs = self._lower_range(second.end, semi.column, seg[2:-1])
            text = target.write(name, f"({rhs})")
            self._consume(seg, (first.column, semi.end, text))
        elif second.lexeme in COMPOUND_OPS:
            if target.write is None or target.read is None:
                self.warn(
                    f"compound assignment to '{name}' needs both read and write access; left unrewritten"
                )
                self.handled.add(seg[0])
                return
            rhs = self._lower_range(second.end, semi.column, seg[2:-1])
            value = f"{target.read(name)} {COMPOUND_OPS[second.lexeme]} ({rhs})"
            self._consume(seg, (first.column, semi.end, target.write(name, value)))

    def _emit_incdec(self, seg, name_idx, op, start):
        name = self.tokens[name_idx].lexeme
        target = self.targets[name]
        if target.write is None or target.read is None:
            self.warn(
                f"increment/decrement of '{name}' needs both read and write access; left unrewritten"
            )
            self.handled.add(name_idx)
            return
        value = f"{target.read(name)} {'+' if op == '++' else '-'} (1)"
        semi = self.tokens[seg[-1]]
        self._consume(seg, (start, semi.end, target.write(name, value)))

    def _consume(self, seg, span):
        self.spans.append(span)
        self.handled.update(seg)

    def _lower_range(self, lo: int, hi: int, sig_indices) -> str:
        """Lower target occurrences inside a right-hand side and return the
        rewritten, trimmed text of raw[lo:hi]."""
        sub_spans = []
        for i in sig_indices:
            self.handled.add(i)
            tok = self.tokens[i]
            if tok.kind is not TokenKind.IDENTIFIER or tok.lexeme not in self.targets:
                continue
            pos = self.sig.index(i)
            action, text = self._classify(pos)
            if action == "wrap":
                sub_spans.append((tok.column - lo, tok.end - lo, text))
        return apply_spans(self.raw[lo:hi], sub_spans).strip()


def rewrite_line(raw, tokens, targets, line_no, emitted_by, diags) -> str:
    """Lower all tracked-variable accesses on one line; returns the new raw text."""
    return _LineRewriter(raw, tokens, targets, line_no, emitted_by, diags).run()
