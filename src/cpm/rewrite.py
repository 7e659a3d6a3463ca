"""Shared lowering machinery for all four passes: one declaration engine and
one access engine.

:func:`lower_decls` lowers a pass's declarations: it states and applies the
one rule by which a keyword's statement is found, and the pass supplies a
matcher and a ``declare`` that turns a match into text.

:func:`rewrite_line` lowers the accesses on one line, given the pass's table
of targets, and :func:`lower_lines` offers every line of a unit to each
pass's :class:`Lowering` in one walk. A :class:`Target` is a row of data:
the form it lowers (a name ``x``, an indexed property ``a[key].prop`` or a
pseudo-member ``f.Cycle``), read and write templates, either of which may
be None, and the message texts in which its form differs. Every form
follows one position rule:

- At statement level, ``o = e;`` becomes a write and ``o op= e;``, ``++o;``
  and ``o++;`` a write of a value read and modified; a target that lacks
  what this needs is warned about.
- Anywhere else, an occurrence that is assigned, incremented or
  decremented, has its address taken, is called, is subscripted or appears
  to be redeclared is warned about and left as it is, looking through
  grouping parentheses: ``(o)++`` increments ``o``. A name appears
  redeclared right after a type word, ``*`` or ``struct s``, and after a
  declarator ``,`` (``int a, o;``) in a statement that starts with one.
- Every other occurrence becomes a read. A name after ``.`` or ``->``, a
  name or type argument of a runtime call (:data:`~cpm.cexpr.ABI`, looking
  through grouping parentheses), a type name (``T x``), a name right after a
  pass keyword, ``const`` and ``volatile`` aside (the type in
  ``redundant_t T *x;``), a label (``x:``, ``goto x``) and a name in an
  ``extern`` declaration are not accesses; a
  value argument of a runtime call, and any argument of another call, is.

Right-hand sides and array keys are lowered by the same rule. A statement
that still holds one of the pass's own keywords after its declaration scan
is a declaration the scan dropped with a warning; it is left alone. Nothing
here ever rejects input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .cexpr import ABI, COMPOUND_OPS, DECL_WORDS, TYPE_WORDS
from .srcmodel import IDENTIFIER, KEYWORD, NUMBER, PUNCTUATOR, STRING, Diagnostic, LineMemo, apply_spans, map_lines, split_segments


# the keywords of the built-in passes; none of them is ever a type word
PASS_KEYWORDS = frozenset(
    {"redundant_t", "sensor_t", "actuator_t", "context_t", "guard_t", "reflective_array_t", "cyclic_t"}
)
_HEADS = frozenset(ABI)  # the only identifiers a lowering writes that its line did not name


def decl_head(toks):
    """Split the tokens of ``<type...> <name>`` into (type_text, name), the
    type words joined by single spaces. None unless there is at least one
    type token, each a keyword, identifier or ``*`` but no pass keyword, and
    the name is an identifier."""
    if len(toks) < 2 or toks[-1].kind is not IDENTIFIER:
        return None
    for t in toks[:-1]:
        if t.lexeme in PASS_KEYWORDS or (t.kind not in (KEYWORD, IDENTIFIER) and t.lexeme != "*"):
            return None
    return " ".join(t.lexeme for t in toks[:-1]), toks[-1].lexeme


def closing(toks, at, hi=None):
    """Index of the token closing the ``(`` or ``[`` at ``toks[at]``, searched
    before ``hi``; None if it does not close there."""
    opener = toks[at].lexeme
    closer = ")" if opener == "(" else "]"
    depth = 0
    for j in range(at, len(toks) if hi is None else hi):
        depth += (toks[j].lexeme == opener) - (toks[j].lexeme == closer)
        if not depth:
            return j
    return None


def _keyword_statements(sig, keywords):
    """Yield ``(p, start, end)`` for each keyword ``sig[p]``: its statement is
    ``sig[start : end + 1]``, and ``end == len(sig)`` when it does not end on
    the line."""
    start = 0
    for p, tok in enumerate(sig):
        if tok.kind is PUNCTUATOR and tok.lexeme in (";", "{", "}"):
            start = p + 1
        if tok.kind is not IDENTIFIER or tok.lexeme not in keywords:
            continue
        depth, end = 0, p + 1
        while end < len(sig) and (depth or sig[end].lexeme != ";"):
            lex = sig[end].lexeme
            depth = max(0, depth + (lex in ("(", "[")) - (lex in (")", "]")))
            end += 1
        yield p, start, end


NAME, INDEX, CYCLE = "name", "index", "cycle"

_LABELS = {NAME: "{name}", INDEX: "{name}[...].{prop}", CYCLE: "{name}.Cycle"}

# what the position rule warns about, in the name form's words
MESSAGES = {
    "assign": "assignment to read-only context variable '{o}' left unrewritten",
    "update": "compound assignment to '{o}' needs both read and write access; left unrewritten",
    "step": "increment/decrement of '{o}' needs both read and write access; left unrewritten",
    "embedded": "assignment to '{o}' embedded in a larger expression left unrewritten",
    "step_expr": "increment/decrement of '{o}' outside statement position left unrewritten",
    "address": "address of '{o}' taken; occurrence left unrewritten",
    "redeclared": "'{o}' appears to be redeclared (shadowing is unsupported); left unrewritten",
    "call": "'{o}' used as a function name; left unrewritten",
    "subscript": "'{o}' subscripted; aggregate accesses are unsupported",
    "read": "read of write-only context variable '{o}' left unrewritten",
}


@dataclass(frozen=True)
class Target:
    """One row of a pass's access table. The table is keyed by the lexeme
    that triggers the row: the accessed name, or ``Cycle`` for the CYCLE form.

    ``read`` and ``write`` are templates over ``{name}``, ``{key}``,
    ``{prop}`` and, for a write, ``{value}``. ``update`` says whether
    ``o op= e;`` and ``++o;`` may lower through read and write. ``known``
    holds the properties an INDEX access may select, or the methods a CYCLE
    access may name. ``messages`` replaces entries of :data:`MESSAGES` and
    adds those only its form uses; each is formatted with ``o`` (the label:
    ``x``, ``a[...].b`` or ``f.Cycle``), ``name``, ``prop`` and ``op``.
    """

    form: str = NAME
    read: Optional[str] = None
    write: Optional[str] = None
    update: bool = True
    known: frozenset = frozenset()
    messages: dict = field(default_factory=dict)


class _Access(NamedTuple):
    start: int  # significant-token positions of the first and last token
    end: int
    target: Target
    name: str
    key: tuple = ()  # INDEX: positions of the key's first token and of its ']'
    prop: str = ""


class _AccessLine:
    """The accesses on one line that names a trigger."""

    def __init__(self, raw, sig, targets, keywords, line_no, emitted_by, diags):
        self.raw, self.sig, self.targets = raw, sig, targets
        self.line_no, self.emitted_by, self.diags = line_no, emitted_by, diags
        # statement start -> position of the ';' ending it on the line
        self.stmts, start = {}, 0
        for seg in split_segments(sig)[0]:
            if seg[-1].lexeme == ";":
                self.stmts[start] = start + len(seg) - 1
            start += len(seg)
        self.dropped = set()
        for _, lo, hi in _keyword_statements(sig, keywords) if keywords else ():
            self.dropped.update(range(lo, hi + 1))

    def spans(self, lo, hi):
        """Replacement spans for the accesses within ``sig[lo:hi]``."""
        spans, p = [], lo
        while p < hi:
            access = None if p in self.dropped else self._find(p, hi)
            span = None if access is None else self._lower(access)
            if span is None:
                p += 1
            else:
                spans.append(span[:3])
                p = span[3]
        return spans

    def _text(self, lo, hi):
        """The text between ``sig[lo - 1]`` and ``sig[hi]``, accesses lowered, trimmed."""
        a, b = self.sig[lo - 1].end, self.sig[hi].column
        return apply_spans(self.raw[a:b], [(s - a, e - a, t) for s, e, t in self.spans(lo, hi)]).strip()

    def _warn(self, target, what, name, prop="", op=""):
        o = _LABELS[target.form].format(name=name, prop=prop)
        text = target.messages.get(what) or MESSAGES[what]
        self.diags.append(
            Diagnostic("warning", self.line_no, text.format(o=o, name=name, prop=prop, op=op), self.emitted_by)
        )

    def _find(self, p, hi):
        """The access that starts at ``sig[p]`` and ends before ``sig[hi]``, or
        None; a malformed INDEX or CYCLE access is warned about."""
        sig = self.sig
        tok = sig[p]
        if tok.kind is not IDENTIFIER:
            return None
        name, target = tok.lexeme, self.targets.get(tok.lexeme)
        if target is not None and target.form == NAME:
            return _Access(p, p, target, name)
        if target is not None and target.form == INDEX and p + 1 < hi and sig[p + 1].lexeme == "[":
            close = closing(sig, p + 1, hi)
            if close is None:
                return self._warn(target, "unclosed", name)
            prop = sig[close + 2] if close + 2 < hi and sig[close + 1].lexeme == "." else None
            if prop is None:
                return self._warn(target, "selector", name)
            if prop.kind is not IDENTIFIER:
                return self._warn(target, "prop_name", name)
            if prop.lexeme not in target.known:
                return self._warn(target, "unknown", name, prop.lexeme)
            return _Access(p, close + 2, target, name, (p + 2, close), prop.lexeme)
        cycle = self.targets.get("Cycle")
        if (
            cycle is not None
            and cycle.form == CYCLE
            and p + 2 < hi
            and sig[p + 1].lexeme == "."
            and sig[p + 2].lexeme == "Cycle"
        ):
            if name not in cycle.known:
                return self._warn(cycle, "undeclared", name)
            return _Access(p, p + 2, cycle, name)
        return None

    def _lower(self, a):
        """Apply the position rule to access ``a``; returns ``(start_col,
        end_col, text, next position)`` replacing it, or None to leave it."""
        sig, target, s, e = self.sig, a.target, a.start, a.end
        prev = sig[s - 1] if s > 0 else None
        nxt = sig[e + 1] if e + 1 < len(sig) else None
        semi = self.stmts.get(s)  # a statement's ';' lies past its first access
        if semi is not None and (nxt.lexeme in ("=", *COMPOUND_OPS) or nxt.lexeme in ("++", "--") and semi == e + 2):
            first, op = s, nxt.lexeme
        elif prev is not None and prev.lexeme in ("++", "--") and self.stmts.get(s - 1) == e + 1:
            first, semi, op = s - 1, e + 1, prev.lexeme
        else:
            first = op = None
        if op is not None:  # statement level
            what = "assign" if op == "=" else "update" if op in COMPOUND_OPS else "step"
            if target.write is None or (what != "assign" and (target.read is None or not target.update)):
                return self._warn(target, what, a.name, a.prop, op)
            fields = self._fields(a)
            if what == "step":
                value = f"{target.read.format(**fields)} {op[0]} (1)"
            elif what == "update":
                value = f"{target.read.format(**fields)} {COMPOUND_OPS[op]} ({self._text(e + 2, semi)})"
            else:
                value = f"({self._text(e + 2, semi)})"
            return sig[first].column, sig[semi].end, target.write.format(value=value, **fields), semi + 1

        label = prev is None or prev.lexeme in (";", "{", "}")
        gs, prev, prev2, nxt = self._around(s, e)
        if self._abi_arg(gs):
            return None  # names what a runtime call acts on
        q = gs - 1
        while q >= 0 and sig[q].lexeme in ("const", "volatile"):
            q -= 1
        if q >= 0 and sig[q].lexeme in PASS_KEYWORDS:
            return None  # the type of a pass's declaration: ``redundant_t T *x;``
        if prev is not None and prev.lexeme in (".", "->"):
            return None  # a member of some aggregate, not this variable
        if nxt is not None and nxt.kind is IDENTIFIER:
            return None  # a type name: ``T x`` declares x
        if nxt is not None and nxt.lexeme in ("=", *COMPOUND_OPS):
            what = "embedded"
        elif (nxt is not None and nxt.lexeme in ("++", "--")) or (prev is not None and prev.lexeme in ("++", "--")):
            what = "step_expr"
        elif prev is not None and prev.lexeme == "&" and _amp_is_unary(prev2):
            what = "address"
        elif prev is not None and (_looks_like_decl(prev, prev2) or self._after_decl_comma(gs)):
            if self._in_extern(s):
                return None  # extern declaration: a reference, not a definition
            what = "redeclared"
        elif nxt is not None and nxt.lexeme == "(":
            what = "call"
        elif nxt is not None and nxt.lexeme == "[":
            what = "subscript"
        elif target.form == NAME and (
            (nxt is not None and nxt.lexeme == ":" and label) or (prev is not None and prev.lexeme == "goto")
        ):
            return None  # a label
        elif target.read is None:
            what = "read"
        else:
            return sig[s].column, sig[e].end, target.read.format(**self._fields(a)), e + 1
        return self._warn(target, what, a.name, a.prop)

    def _fields(self, a):
        return {"name": a.name, "key": self._text(*a.key) if a.key else "", "prop": a.prop}

    def _around(self, s, e):
        """The start of ``sig[s : e + 1]`` and the tokens before, two before
        and after it, looking through grouping parentheses: ``(o)++``
        increments ``o``."""
        sig = self.sig
        while (
            s > 0
            and e + 1 < len(sig)
            and sig[s - 1].lexeme == "("
            and sig[e + 1].lexeme == ")"
            and (s < 2 or (sig[s - 2].kind is PUNCTUATOR and sig[s - 2].lexeme not in (")", "]")))
        ):
            s, e = s - 1, e + 1
        return s, sig[s - 1] if s > 0 else None, sig[s - 2] if s > 1 else None, sig[e + 1] if e + 1 < len(sig) else None

    def _abi_arg(self, p):
        """Whether ``sig[p]`` lies in a name or type argument of a runtime call."""
        sig, depth, arg = self.sig, 0, 0
        for q in range(p - 1, -1, -1):
            lex = sig[q].lexeme
            if lex in (";", "{", "}"):
                return False
            depth += (lex in (")", "]")) - (lex in ("(", "["))
            if depth < 0:  # the '(' of the call, or of a group or subscript holding sig[p]
                kinds = ABI.get(sig[q - 1].lexeme, ()) if q and lex == "(" else ()
                return arg < len(kinds) and kinds[arg] != "value"
            arg += not depth and lex == ","
        return False

    def _after_decl_comma(self, p):
        """Whether ``sig[p]`` follows, ``*`` aside, a ``,`` outside parentheses
        and brackets in a statement that starts with a declaration word (an
        ``extern`` one is then exempt like its first declarator). A ``}``
        before a ``,`` closes an initializer, which is skipped to its ``{``."""
        sig, q = self.sig, p - 1
        while q >= 0 and sig[q].lexeme == "*":
            q -= 1
        if q < 0 or sig[q].lexeme != ",":
            return False
        depth = braces = 0
        for j in range(q - 1, -1, -1):
            lex = sig[j].lexeme
            if braces or (lex == "}" and sig[j + 1].lexeme == ","):
                braces += (lex == "}") - (lex == "{")
                continue
            if lex in ("(", "[") and not depth:
                return False  # the ',' separates arguments or subscripts
            depth += (lex in (")", "]")) - (lex in ("(", "["))
            if not depth and lex in (";", "{", "}"):
                return sig[j + 1].lexeme in DECL_WORDS
        return sig[0].lexeme in DECL_WORDS

    def _in_extern(self, p):
        for tok in reversed(self.sig[:p]):
            if tok.lexeme in (";", "{", "}"):
                return False
            if tok.lexeme == "extern":
                return True
        return False


def _amp_is_unary(prev2):
    if prev2 is None:
        return True
    if prev2.kind in (IDENTIFIER, NUMBER, STRING):
        return False
    return prev2.lexeme not in (")", "]")


def _looks_like_decl(prev, prev2):
    if prev.lexeme in TYPE_WORDS:
        return True
    if prev.lexeme == "*" and prev2 is not None and prev2.lexeme in TYPE_WORDS:
        return True
    return prev.kind is IDENTIFIER and prev2 is not None and prev2.lexeme in ("struct", "union", "enum")


def rewrite_line(raw, sig, targets, keywords, line_no, emitted_by, diags) -> str:
    """Lower the accesses to ``targets`` on one line, given its text and its
    significant tokens; returns the new raw text. ``keywords`` are the pass's
    own, of which only those the line names matter: a statement holding one
    is left alone."""
    line = _AccessLine(raw, sig, targets, keywords, line_no, emitted_by, diags)
    return apply_spans(raw, line.spans(0, len(sig)))


class Lowering(NamedTuple):
    """One pass's access lowering, as :func:`lower_lines` applies it."""

    targets: dict  # trigger lexeme -> Target
    keywords: frozenset  # the pass's own
    emitted_by: str
    skip: frozenset  # line numbers the pass leaves alone


def lower_lines(unit, lowerings):
    """Apply each of ``lowerings`` in one walk over ``unit``: every line is
    offered to each lowering in turn, which sees the text the ones before it
    left, and runs :func:`rewrite_line` on it when it names one of its
    targets and is not numbered in its ``skip``. Returns (unit, one list of
    diagnostics per lowering).

    The walk visits only the lines whose names meet some lowering's
    targets, and lowers each distinct ``(text, block-comment state)`` once:
    a line that repeats one already lowered in the walk, and is numbered in
    no lowering's ``skip``, takes the lowered text and replays the warnings
    each lowering gave it, with its own line number. Lowering a line adds no
    identifier but the runtime call heads of :data:`~cpm.cexpr.ABI`, so a
    text a lowering changed is tokenized again only when the names of its
    last tokenized form, or those heads, meet a later lowering's triggers.
    The final text of a line is tokenized once, and each distinct text once
    per walk, when the walk reaches it.
    """
    diags = [[] for _ in lowerings]
    live = [
        (low.targets, frozenset(low.targets), low.keywords, low.emitted_by, low.skip, out, not _HEADS.isdisjoint(low.targets))
        for low, out in zip(lowerings, diags)
        if low.targets
    ]
    triggered = frozenset().union(*(low.targets for low in lowerings))
    skipped = frozenset().union(*(low.skip for low in lowerings))
    memo = LineMemo()
    lowered = {}  # (raw, in_block_comment) -> (text, ((out, ((severity, message, emitted_by), ...)), ...))

    def lower(line_no, line):
        key = line.raw, line.in_block_comment
        done = lowered.get(key)
        if done is not None and line_no not in skipped:
            raw, warned = done
            for out, found in warned:
                out += [Diagnostic(severity, line_no, message, by) for severity, message, by in found]
            return raw
        raw, warned = line.raw, ()
        for targets, triggers, keywords, emitted_by, skip, out, heads in live:
            if line_no in skip:
                continue
            if raw != line.raw:  # an earlier lowering changed the text
                if not heads and triggers.isdisjoint(line.names):
                    continue
                line = memo[raw, line.in_block_comment]
            if not triggers.isdisjoint(line.names):
                before = len(out)
                raw = rewrite_line(raw, line.sig, targets, keywords & line.names, line_no, emitted_by, out)
                if len(out) > before:
                    warned += ((out, tuple((d.severity, d.message, d.emitted_by) for d in out[before:])),)
        if line_no not in skipped:
            lowered[key] = raw, warned
        return raw

    line_nos = [n for n, line in enumerate(unit.lines, 1) if not triggered.isdisjoint(line.names)]
    return map_lines(unit, lower, line_nos, memo), diags


def lower_decls(
    unit, keywords, match, declare, emitted_by, diags, skip=frozenset(),
    unrecognized="unrecognized {kw} declaration form; line passed through",
):
    """Lower the declarations of a pass's ``keywords`` on every line of
    ``unit`` not numbered in ``skip``; returns the new unit. The one rule
    all four passes' declarations obey:

    - A keyword's statement starts at the token after the last ``;``, ``{``
      or ``}`` before it and ends at the next ``;`` outside parentheses and
      brackets. A keyword in a comment or a string is no occurrence.
    - ``match(raw, toks)`` sees the statement's significant tokens, its
      ``;`` last, only if the statement ends on the line and holds no other
      keyword, and returns its pieces or None. An occurrence left unmatched
      is warned about once with ``unrecognized``, formatted with ``kw``.
    - Each occurrence is taken in turn: a matched statement holds no other.

    For each match ``m``, ``declare(m, line_no)`` runs in unit order and
    returns the statement's new text, None to keep it, or a callable that
    returns either and is called once the whole unit is seen. Warnings go
    to ``diags``. The splice visits only the lines it has new text for.
    """
    spans = {}  # line_no -> [(start_col, end_col, text or callable)]
    for line_no, line in enumerate(unit.lines, 1):
        if line.names.isdisjoint(keywords) or line_no in skip:
            continue
        raw, sig = line.raw, line.sig
        for p, start, end in _keyword_statements(sig, keywords):
            stmt = sig[start : end + 1]
            alone = sum(t.kind is IDENTIFIER and t.lexeme in keywords for t in stmt) == 1
            m = match(raw, stmt) if end < len(sig) and alone else None
            if m is None:
                diags.append(Diagnostic("warning", line_no, unrecognized.format(kw=sig[p].lexeme), emitted_by))
                continue
            text = declare(m, line_no)
            if text is not None:
                spans.setdefault(line_no, []).append((stmt[0].column, stmt[-1].end, text))

    def splice(line_no, line):
        texts = [(s, e, t() if callable(t) else t) for s, e, t in spans[line_no]]
        return apply_spans(line.raw, [span for span in texts if span[2] is not None])

    return map_lines(unit, splice, list(spans))
