"""C expressions and statements compiled once into Python code objects with C
semantics.

Guards and :class:`cpm.interp.AbiInterpreter` share :func:`compile_expr`, a
precedence-climbing parser over the significant tokens of
:class:`cpm.srcmodel.SourceLine`, the lexer the passes read.
``/`` and ``%`` truncate toward zero on ints (exact integer arithmetic);
relational and logical operators yield the int 0 or 1 and comparisons never
chain; ``?:``, unary, bitwise and shift operators follow C precedence; int
literals may be octal or hex with an ``l`` suffix (a ``u`` suffix is refused:
unsigned arithmetic is not modelled), character constants are signed, and
a literal decodes C's escapes only. A runtime call (:data:`ABI`) compiles
its arguments by kind and must have each one. :func:`translate_stmt` turns
the tokens of a statement the interpreter cut from a line into Python
source with the same parser, and :func:`compile_stmt` compiles a statement's
text; the interpreter keeps statement sources per line, so
:func:`compile_expr` is the only function here that caches, at most
:data:`EXPR_CACHE_SIZE` expressions. Anything else raises ``ValueError``,
and so does a name of :data:`HELPERS`, which the compiled code calls (C
reserves file-scope names with a leading underscore).
"""

from __future__ import annotations

import re
from functools import cache
from keyword import iskeyword

from .srcmodel import IDENTIFIER, KEYWORD, NUMBER, STRING, SourceLine

# the runtime calls the passes emit: head -> the kind of each argument. A
# ``name`` compiles to its text, a ``type`` (words and ``*``, for the C
# compiler) is checked and not passed, a ``value`` is an expression. The head
# less ``cpm_`` is the ``Runtime`` method it calls, on the non-type arguments.
ABI = {
    "cpm_red_storage": ("name", "type", "value"), "cpm_red_extern": ("name", "type"), "cpm_red_read": ("name",),
    "cpm_red_write": ("name", "value"), "cpm_ctx_register": ("name", "name", "value"), "cpm_ctx_read": ("name",),
    "cpm_ctx_write": ("name", "value"), "cpm_guard_register": ("name", "value"), "cpm_arr_register": ("name",),
    "cpm_arr_get": ("name", "value", "name"), "anext": ("name", "value"), "cpm_cycle_register": ("name",),
    "cpm_cycle_get": ("name",), "cpm_cycle_set": ("name", "value"),
}
MAX_REPLICAS = 9  # the largest count cpm_red_storage accepts
BUILTIN_ARRAY_PROPS = ("beacons", "silent_periods", "stale")  # what cpm_arr_get reads of every array

# the words a declaration starts with; a name right after a type word is
# being declared
TYPE_WORDS = frozenset({"int", "char", "short", "long", "float", "double", "signed", "unsigned", "void"})
DECL_WORDS = TYPE_WORDS | {"const", "static", "volatile", "register", "struct", "union", "enum", "extern"}

# compound assignment -> its binary operator
COMPOUND_OPS = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "^=": "^", "|=": "|", "<<=": "<<", ">>=": ">>",
}

# binary operator -> C precedence (higher binds tighter)
_BINARY = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_TRUTH = {"&&": "and", "||": "or", "==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}
_HELPER = {"/": "_c_div", "%": "_c_mod"}
_WORDS = (IDENTIFIER, KEYWORD)


def _c_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    return a / b


def _c_mod(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a - b * _c_div(a, b)
    raise TypeError("'%' needs integer operands")


HELPERS = {"__builtins__": {}, "_c_div": _c_div, "_c_mod": _c_mod}


def check_name(name):
    """Refuse a name of :data:`HELPERS` for a variable, sensor or constant:
    compiled code looks names up in its locals first, so it would shadow the
    helper."""
    if name in HELPERS:
        raise ValueError(f"{name!r} is reserved for the compiled code's helpers")


def _number(lex):
    body = lex.lower()
    if "_" in body or "u" in body:
        raise ValueError(f"bad number {lex}")
    if not body.startswith("0x") and ("." in body or "e" in body):
        return float(body.rstrip("fl"))
    body = body.rstrip("l")
    if body.startswith("0x"):
        return int(body[2:], 16)
    return int(body, 8 if body.startswith("0") else 10)


def _binop(op, left, right):
    if op in _TRUTH:
        return f"(1 if {left} {_TRUTH[op]} {right} else 0)"
    if op in _HELPER:
        return f"{_HELPER[op]}({left}, {right})"
    return f"({left} {op} {right})"


# C's escape sequences: the simple ones, octal and hex; a backslash that
# starts none of them is the last alternative and is refused
_SIMPLE_ESCAPES = dict(zip("abfnrtv\\'\"?", "\a\b\f\n\r\t\v\\'\"?"))
_ESCAPE = re.compile(r"\\(?:([0-7]{1,3})|x([0-9A-Fa-f]+)|([abfnrtv\\'\"?]))|\\")


def _escape(m):
    octal, hexa, simple = m.groups()
    if simple:
        return _SIMPLE_ESCAPES[simple]
    code = int(octal, 8) if octal else int(hexa, 16) if hexa else None
    if code is None or code > 0xFF:  # C wants an unsigned char's value
        raise ValueError(f"bad escape sequence in literal {m.string!r}")
    return chr(code)


def _literal(lex):
    if len(lex) < 2 or lex[-1] != lex[0]:
        raise ValueError(f"unterminated literal {lex}")
    value = _ESCAPE.sub(_escape, lex[1:-1])
    if lex[0] == '"':
        return value
    if len(value) != 1:
        raise ValueError(f"bad character constant {lex}")
    return (ord(value) ^ 0x80) - 0x80  # as C's signed char: '\xff' is -1


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.names = set()

    def peek(self, ahead=0):
        at = self.pos + ahead
        return self.toks[at].lexeme if at < len(self.toks) else None

    def take(self, lexeme=None):
        if self.pos == len(self.toks):
            raise ValueError("unexpected end of expression")
        tok = self.toks[self.pos]
        if lexeme is not None and tok.lexeme != lexeme:
            raise ValueError(f"expected {lexeme!r}, found {tok.lexeme!r}")
        self.pos += 1
        return tok

    def expr(self):
        cond = self.binary(1)
        if self.peek() != "?":
            return cond
        self.take()
        then = self.expr()
        self.take(":")
        return f"({then} if {cond} else {self.expr()})"

    def binary(self, min_prec):
        left = self.unary()
        while (prec := _BINARY.get(self.peek(), 0)) >= min_prec:
            op = self.take().lexeme
            left = _binop(op, left, self.binary(prec + 1))
        return left

    def unary(self):
        if self.peek() not in ("-", "+", "~", "!"):
            return self.primary()
        op, operand = self.take().lexeme, self.unary()
        return f"(0 if {operand} else 1)" if op == "!" else f"({op}{operand})"

    def primary(self):
        tok = self.take()
        if tok.lexeme == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if tok.kind is NUMBER:
            return repr(_number(tok.lexeme))
        if tok.kind is STRING:
            return repr(_literal(tok.lexeme))
        name = _identifier(tok)
        self.names.add(name)
        return self.call(name) if self.peek() == "(" else name

    def call(self, head):
        self.take("(")
        kinds, args = ABI.get(head), []
        while self.peek() != ")":
            if args:
                self.take(",")
            kind = kinds[len(args)] if len(args) < len(kinds or ()) else "value"
            if kind == "value":
                args.append(self.expr())
            elif words := self.words():
                args.append(repr(" ".join(words)) if kind == "name" else None)
            else:
                raise ValueError(f"argument {len(args)} of {head} must be a {kind}")
        self.take(")")
        if kinds is not None and len(args) != len(kinds):
            raise ValueError(f"{head} takes {len(kinds)} arguments, not {len(args)}")
        return f"{head}({', '.join(a for a in args if a is not None)})"

    def words(self):
        """Take a run of identifiers, keywords and ``*``; returns their lexemes."""
        start = self.pos
        while self.pos < len(self.toks) and (self.toks[self.pos].kind in _WORDS or self.peek() == "*"):
            self.pos += 1
        return [t.lexeme for t in self.toks[start : self.pos]]

    def statement(self):
        """One statement of the interpreter's subset, as Python source."""
        first = self.peek()
        if first == "return":
            self.take()
            return "" if self.peek() is None else self.expr()
        if first in DECL_WORDS:
            return "\n".join(self.declarators())
        if first in ("++", "--"):
            op = self.take().lexeme
            name = _identifier(self.take())
        elif self.peek(1) in ("=", "++", "--", *COMPOUND_OPS):
            name = _identifier(self.take())
            op = self.take().lexeme
        else:
            return self.expr()
        if op == "=":
            value = self.expr()
        elif op in COMPOUND_OPS:
            value = _binop(COMPOUND_OPS[op], name, self.expr())
        else:  # ++ or --
            value = _binop(op[0], name, "1")
        return f"{name} = {value}"

    def declarators(self):
        """``T a [= e], *b ...``: yields one assignment per declarator, of 0
        when it has no initializer; a function declarator and an ``extern``
        one without an initializer declare nothing."""
        extern = "extern" in self.words()
        while True:
            name = _identifier(self.toks[self.pos - 1])  # the last word taken
            if self.peek() == "(":  # a function declarator
                depth = 1
                self.take()
                while depth:
                    lex = self.take().lexeme
                    depth += (lex == "(") - (lex == ")")
            elif self.peek() == "=":
                self.take()
                yield f"{name} = {self.expr()}"
            elif not extern:
                yield f"{name} = 0"
            if self.peek() != ",":
                return
            self.take()
            self.words()


def _identifier(tok):
    if tok.kind is not IDENTIFIER or iskeyword(tok.lexeme):
        raise ValueError(f"unexpected {tok.lexeme!r}")
    if tok.lexeme in HELPERS:  # C reserves file-scope names with a leading underscore
        raise ValueError(f"reserved identifier {tok.lexeme!r}")
    return tok.lexeme


def _not_c(text, what, exc):
    return ValueError(f"not a C {what} {text.strip()!r}: {exc}")


def _translate(text, rule, what, toks=None):
    """``text``, or its significant tokens ``toks`` if given, parsed whole by
    ``rule``: ``(Python source, names read)``. An error quotes the lexemes
    when ``text`` is empty."""
    if toks is None:
        if "\n" in text:
            raise ValueError("a C expression or statement takes a single line (no newline bytes)")
        toks = SourceLine(text).sig
    parser = _Parser(toks)
    try:
        source = rule(parser)
        if parser.pos < len(toks):
            raise ValueError(f"unexpected {parser.peek()!r}")
    except (ValueError, RecursionError) as exc:  # nesting past the parser's limits
        raise _not_c(text or " ".join(t.lexeme for t in toks), what, exc) from None
    return source, frozenset(parser.names)


def _compile(text, source, mode, what):
    try:
        return compile(source, "<cexpr>", mode)
    except (SyntaxError, RecursionError) as exc:  # nesting past Python's limits
        raise _not_c(text, what, exc) from None


# the most expressions compile_expr keeps; about 4x what the benchmark's
# interp input compiles at 1x and 2x
EXPR_CACHE_SIZE = 256


@cache
def compile_expr(text):
    """Compile C expression ``text``; returns ``(code, names)``, the code
    object and the frozenset of free identifiers it reads. Raises
    ``ValueError`` for text that is not a supported C expression; failures
    are not cached, and a success on a cache of :data:`EXPR_CACHE_SIZE`
    entries empties it first."""
    source, names = _translate(text, _Parser.expr, "expression")
    code = _compile(text, source, "eval", "expression")
    if compile_expr.cache_info().currsize >= EXPR_CACHE_SIZE:
        compile_expr.cache_clear()  # the cache stores this result on return
    return code, names


def translate_stmt(toks):
    """Translate one statement of the interpreter's subset, its significant
    tokens ``toks`` without its ``;``, into Python source that stores what
    it assigns or declares in its locals:

    - an expression;
    - ``x = e`` and ``x op= e``, with the operator semantics of
      :func:`compile_expr`;
    - ``++x``, ``x++``, ``--x`` and ``x--``;
    - ``return [e]``, which evaluates ``e``;
    - a declaration ``T a [= e], *b ...`` starting with one of
      :data:`DECL_WORDS`: each declarator is set in turn, to 0 when it has no
      initializer; a prototype, and an ``extern`` declarator without an
      initializer, declare nothing.

    The source is whole unindented lines, one per declarator in a
    declaration, so the sources of several statements joined by newlines
    run as their sequence. Raises ``ValueError`` for anything else, such as
    an array declarator. The source may still be past Python's nesting
    limits, which only :func:`compile_stmt` finds."""
    return _translate("", _Parser.statement, "statement", toks)[0]


def compile_stmt(text):
    """Compile the source :func:`translate_stmt` gives the tokens of ``text``
    into an ``exec`` code object. Raises ``ValueError`` where it does and
    for source past Python's nesting limits."""
    return _compile(text, _translate(text, _Parser.statement, "statement")[0], "exec", "statement")
