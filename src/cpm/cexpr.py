"""C expressions compiled once into Python code objects with C semantics.

Guards and :class:`cpm.interp.AbiInterpreter` share :func:`compile_expr`, a
precedence-climbing parser over :func:`cpm.srcmodel.tokenize_line` tokens.
``/`` and ``%`` truncate toward zero on ints (exact integer arithmetic);
relational and logical operators yield the int 0 or 1 and comparisons never
chain; ``?:``, unary, bitwise and shift operators follow C precedence; int
literals may be octal or hex with ``u``/``l`` suffixes, and a character
constant is its code. Arguments that name runtime objects (:data:`NAME_ARGS`)
compile to strings. Anything else raises ``ValueError``.
"""

from __future__ import annotations

from functools import cache
from keyword import iskeyword

from .srcmodel import TokenKind, tokenize_line

# runtime-call head -> positions of the arguments that name a runtime object;
# the head without its ``cpm_`` prefix is the ``Runtime`` method it calls
NAME_ARGS = {
    "cpm_red_read": (0,), "cpm_red_write": (0,), "cpm_ctx_read": (0,), "cpm_ctx_write": (0,),
    "cpm_cycle_get": (0,), "cpm_cycle_set": (0,), "anext": (0,), "cpm_arr_get": (0, 2),
}

# binary operator -> C precedence (higher binds tighter)
_BINARY = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_TRUTH = {"&&": "and", "||": "or", "==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">="}
_HELPER = {"/": "_c_div", "%": "_c_mod"}


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


def _number(lex):
    body = lex.lower()
    if "_" in body:
        raise ValueError(f"bad number {lex}")
    if not body.startswith("0x") and ("." in body or "e" in body):
        return float(body.rstrip("fl"))
    body = body.rstrip("ul")
    if body.startswith("0x"):
        return int(body[2:], 16)
    return int(body, 8 if body.startswith("0") else 10)


def _literal(lex):
    if len(lex) < 2 or lex[-1] != lex[0]:
        raise ValueError(f"unterminated literal {lex}")
    value = lex[1:-1].encode("latin-1").decode("unicode_escape")
    if lex[0] == '"':
        return value
    if len(value) != 1:
        raise ValueError(f"bad character constant {lex}")
    return ord(value)


class _Parser:
    def __init__(self, text):
        self.toks = [t for t in tokenize_line(text) if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)]
        self.pos = 0
        self.names = set()

    def peek(self):
        return self.toks[self.pos].lexeme if self.pos < len(self.toks) else None

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
            right = self.binary(prec + 1)
            if op in _TRUTH:
                left = f"(1 if {left} {_TRUTH[op]} {right} else 0)"
            elif op in _HELPER:
                left = f"{_HELPER[op]}({left}, {right})"
            else:
                left = f"({left} {op} {right})"
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
        if tok.kind is TokenKind.NUMBER:
            return repr(_number(tok.lexeme))
        if tok.kind is TokenKind.STRING:
            return repr(_literal(tok.lexeme))
        if tok.kind is not TokenKind.IDENTIFIER or iskeyword(tok.lexeme):
            raise ValueError(f"unexpected {tok.lexeme!r}")
        self.names.add(tok.lexeme)
        return self.call(tok.lexeme) if self.peek() == "(" else tok.lexeme

    def call(self, head):
        self.take("(")
        named = NAME_ARGS.get(head, ())
        args = []
        while self.peek() != ")":
            if args:
                self.take(",")
            if len(args) in named:
                tok = self.take()
                if tok.kind is not TokenKind.IDENTIFIER:
                    raise ValueError(f"argument {len(args)} of {head} must name an object")
                args.append(repr(tok.lexeme))
            else:
                args.append(self.expr())
        self.take(")")
        return f"{head}({', '.join(args)})"


@cache
def compile_expr(text):
    """Compile C expression ``text``; returns ``(code, names)``, the code
    object and the frozenset of free identifiers it reads. Raises
    ``ValueError`` for text that is not a supported C expression; failures
    are not cached."""
    parser = _Parser(text)
    try:
        source = parser.expr()
        if parser.pos < len(parser.toks):
            raise ValueError(f"unexpected {parser.peek()!r}")
        code = compile(source, "<cexpr>", "eval")
    except (ValueError, SyntaxError, RecursionError) as exc:  # nesting past the parser's limits
        raise ValueError(f"not a C expression {text.strip()!r}: {exc}") from None
    return code, frozenset(parser.names)
