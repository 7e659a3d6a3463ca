"""Desk-scale interpreter for transformed output.

Executes the runtime-call statements the passes emit, plus the small
straight-line C subset the case studies need (scalar declarations,
assignments, expression statements), against a :class:`~cpm.runtime.Runtime`.
This is what lets a lowered program and a hand-coded runtime-call sequence be
compared observation-for-observation without a C toolchain.

Supported statements: the emitted ``cpm_*`` calls, the
``extensions_pipeline`` preamble, declarations/assignments of scalar
variables, ``return``, and bare expression statements. Braces are ignored;
control flow is not interpreted. Expressions follow C rules through
:func:`cpm.cexpr.compile_expr`: ``/`` and ``%`` truncate toward zero on ints,
relational and logical operators yield 0 or 1, comparisons never chain, and
``?:`` works. Each distinct expression text is compiled once.
"""

from __future__ import annotations

from .cexpr import HELPERS, NAME_ARGS, compile_expr
from .srcmodel import SourceUnit, TokenKind, ext_tag, load_unit, significant, split_segments

_TYPE_STARTERS = frozenset(
    {"int", "char", "short", "long", "float", "double", "signed", "unsigned",
     "void", "const", "static", "volatile", "struct", "union", "enum"}
)
_STEPS = {"++": 1, "--": -1}


class InterpError(Exception):
    pass


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return text


class AbiInterpreter:
    def __init__(self, runtime, env=None):
        self.rt = runtime
        self.env = dict(env or {})  # program variables and caller-supplied constants
        self.functions = {}  # C function name -> python callable
        self._scope = dict(HELPERS, **{head: getattr(runtime, head.removeprefix("cpm_")) for head in NAME_ARGS})

    def bind_function(self, name, fn):
        """Provide the body for a named C function (cyclic actions, guard
        bodies). May be called before or after the program registers it."""
        self.functions[name] = fn
        self.rt.cycle_register(name, fn)

    # -- program execution ----------------------------------------------------

    def run_text(self, text: str):
        self.run_unit(load_unit(text))

    def run_unit(self, unit: SourceUnit):
        for line in unit.lines:
            if not line.in_block_comment and ext_tag(line.raw)[0] is not None:
                continue  # untransformed tagged line; nothing to execute
            sig = significant(line.tokens)
            if not sig:
                continue
            for seg in split_segments(line.tokens, sig):
                self._exec_segment(line, seg)

    def _exec_segment(self, line, seg):
        toks = [line.tokens[i] for i in seg]
        last = toks[-1]
        if last.lexeme in ("{", "}"):
            return  # block structure and function headers are not interpreted
        if last.lexeme != ";":
            raise InterpError(f"line {line.line_no}: unsupported statement {line.raw.strip()!r}")
        if len(toks) == 1:
            return  # empty statement
        text = line.raw[toks[0].column : last.column]
        first = toks[0]

        if self._try_preamble(toks):
            return
        if first.kind is TokenKind.IDENTIFIER and first.lexeme.startswith("cpm_") and len(toks) > 2 and toks[1].lexeme == "(":
            if first.lexeme in NAME_ARGS or not self._try_abi_statement(line, toks, first.lexeme):
                self.eval_expr(text)  # runtime calls whose arguments are C expressions
            return
        if first.lexeme == "return":
            rest = text[first.end - toks[0].column :].strip()
            if rest:
                self.eval_expr(rest)
            return
        if first.lexeme in _TYPE_STARTERS:
            self._declaration(line, toks)
            return
        name, op = (toks[1], first.lexeme) if first.lexeme in _STEPS else (first, toks[1].lexeme)
        if len(toks) == 3 and op in _STEPS and name.kind is TokenKind.IDENTIFIER:
            self.env[name.lexeme] = self.eval_expr(name.lexeme) + _STEPS[op]
            return
        if first.kind is TokenKind.IDENTIFIER and len(toks) >= 3 and toks[1].kind is TokenKind.PUNCTUATOR:
            rhs = line.raw[toks[1].end : last.column]
            if op == "=":
                self.env[first.lexeme] = self.eval_expr(rhs)
                return
            if op.endswith("=") and op not in ("==", "!=", "<=", ">="):
                self.env[first.lexeme] = self.eval_expr(f"{first.lexeme} {op[:-1]} ({rhs.strip()})")
                return
        self.eval_expr(text)

    def _try_preamble(self, toks) -> bool:
        if len(toks) < 7:
            return False
        shape = [t.lexeme for t in toks[:5]]
        if shape == ["const", "char", "*", "extensions_pipeline", "="] and toks[5].kind is TokenKind.STRING:
            self.rt.set_pipeline_string(_unquote(toks[5].lexeme))
            return True
        return False

    def _try_abi_statement(self, line, toks, head) -> bool:
        args = self._call_args(line, toks)
        rt = self.rt
        if head == "cpm_red_storage":
            rt.red_storage(args[0], int(args[2]))
        elif head == "cpm_red_extern":
            rt.red_extern(args[0])
        elif head == "cpm_ctx_register":
            rt.ctx_register(args[0], args[1], _unquote(args[2]) if len(args) > 2 else None)
        elif head == "cpm_arr_register":
            rt.arr_register(args[0])
        elif head == "cpm_guard_register":
            rt.guard_register(self.functions.get(args[0]), _unquote(args[1]), name=args[0])
        elif head == "cpm_cycle_register":
            rt.cycle_register(args[0], self.functions.get(args[0]))
        else:
            return False
        return True

    def _call_args(self, line, toks):
        """Split the argument list of ``head ( ... ) ;`` at top-level commas;
        returns the non-empty trimmed argument texts."""
        args, pos, depth = [], toks[1].end, 0
        for t in toks[1:]:
            depth += (t.lexeme == "(") - (t.lexeme == ")")
            if depth == 0 or (depth == 1 and t.lexeme == ","):
                args.append(line.raw[pos : t.column].strip())
                pos = t.end
            if depth == 0:
                return [a for a in args if a]
        raise InterpError(f"line {line.line_no}: unbalanced call {line.raw.strip()!r}")

    def _declaration(self, line, toks):
        eq_at = None
        depth = 0
        for j, t in enumerate(toks):
            if t.lexeme == "(":
                depth += 1
            elif t.lexeme == ")":
                depth -= 1
            elif t.lexeme == "=" and t.kind is TokenKind.PUNCTUATOR and depth == 0:
                eq_at = j
                break
        if eq_at is not None:
            name_tok = toks[eq_at - 1]
            if name_tok.kind is not TokenKind.IDENTIFIER:
                raise InterpError(f"line {line.line_no}: unsupported declaration {line.raw.strip()!r}")
            rhs = line.raw[toks[eq_at].end : toks[-1].column]
            self.env[name_tok.lexeme] = self.eval_expr(rhs)
            return
        if any(t.lexeme == "(" for t in toks):
            return  # prototype; nothing to execute
        name_tok = toks[-2]
        if name_tok.kind is TokenKind.IDENTIFIER:
            self.env[name_tok.lexeme] = 0

    # -- expressions ------------------------------------------------------------

    def eval_expr(self, text: str):
        try:
            code, _ = compile_expr(text)
            return eval(code, self._scope, self.env)
        except Exception as exc:
            raise InterpError(f"cannot evaluate {text.strip()!r}: {exc}") from exc
