"""Desk-scale interpreter for transformed output.

Executes the runtime-call statements the passes emit, plus the small
straight-line C subset the case studies need (scalar declarations,
assignments, expression statements), against a :class:`~cpm.runtime.Runtime`.
This is what lets a lowered program and a hand-coded runtime-call sequence be
compared observation-for-observation without a C toolchain.

Supported statements: the emitted ``cpm_*`` calls, the
``extensions_pipeline`` preamble, declarations/assignments of scalar
variables, ``return``, and bare expression statements. Braces are ignored;
control flow is not interpreted. Expressions may use ``&&``, ``||`` and ``!``
alongside Python-compatible arithmetic and comparisons.
"""

from __future__ import annotations

from .srcmodel import (
    SourceUnit,
    TokenKind,
    ext_tag,
    load_unit,
    significant,
    split_segments,
    tokenize_line,
)

_TYPE_STARTERS = frozenset(
    {"int", "char", "short", "long", "float", "double", "signed", "unsigned",
     "void", "const", "static", "volatile", "struct", "union", "enum"}
)

_SINGLE_NAME_HEADS = ("cpm_red_read", "cpm_ctx_read", "cpm_cycle_get")


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
            if self._try_abi_statement(line, toks, first.lexeme):
                return
            self.eval_expr(text)
            return
        if first.lexeme == "return":
            rest = text[first.end - toks[0].column :].strip()
            if rest:
                self.eval_expr(rest)
            return
        if first.lexeme in _TYPE_STARTERS:
            self._declaration(line, toks)
            return
        if first.kind is TokenKind.IDENTIFIER and len(toks) >= 3:
            op = toks[1].lexeme
            if op == "=" and toks[1].kind is TokenKind.PUNCTUATOR:
                rhs = line.raw[toks[1].end : last.column]
                self.env[first.lexeme] = self.eval_expr(rhs)
                return
            if op.endswith("=") and op not in ("==", "!=", "<=", ">=") and toks[1].kind is TokenKind.PUNCTUATOR:
                rhs = line.raw[toks[1].end : last.column]
                self.env[first.lexeme] = self.eval_expr(f"{first.lexeme} {op[:-1]} ({rhs.strip()})")
                return
            if op in ("++", "--") and len(toks) == 3:
                self.env[first.lexeme] = self.eval_expr(first.lexeme) + (1 if op == "++" else -1)
                return
        if first.lexeme in ("++", "--") and len(toks) == 3 and toks[1].kind is TokenKind.IDENTIFIER:
            name = toks[1].lexeme
            self.env[name] = self.eval_expr(name) + (1 if first.lexeme == "++" else -1)
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
        elif head == "cpm_red_write":
            rt.red_write(args[0], self.eval_expr(args[1]))
        elif head == "cpm_ctx_register":
            rt.ctx_register(args[0], args[1], _unquote(args[2]) if len(args) > 2 else None)
        elif head == "cpm_ctx_write":
            rt.ctx_write(args[0], self.eval_expr(args[1]))
        elif head == "cpm_arr_register":
            rt.arr_register(args[0])
        elif head == "cpm_guard_register":
            rt.guard_register(self.functions.get(args[0]), _unquote(args[1]), name=args[0])
        elif head == "cpm_cycle_register":
            rt.cycle_register(args[0], self.functions.get(args[0]))
        elif head == "cpm_cycle_set":
            rt.cycle_set(args[0], self.eval_expr(args[1]))
        else:
            return False
        return True

    def _call_args(self, line, toks):
        """Split the argument list of ``head ( ... ) ;`` at top-level commas;
        returns the trimmed argument texts."""
        open_tok = toks[1]
        depth = 0
        close_tok = None
        commas = []
        for t in toks[1:]:
            if t.lexeme == "(":
                depth += 1
            elif t.lexeme == ")":
                depth -= 1
                if depth == 0:
                    close_tok = t
                    break
            elif t.lexeme == "," and depth == 1:
                commas.append(t)
        if close_tok is None:
            raise InterpError(f"line {line.line_no}: unbalanced call {line.raw.strip()!r}")
        args = []
        pos = open_tok.end
        for c in commas:
            args.append(line.raw[pos : c.column].strip())
            pos = c.end
        args.append(line.raw[pos : close_tok.column].strip())
        return [a for a in args if a != ""] or []

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
        code = self._to_python(text)
        scope = dict(self._abi_functions())
        scope.update(self.env)
        try:
            return eval(code, {"__builtins__": {}}, scope)
        except InterpError:
            raise
        except Exception as exc:
            raise InterpError(f"cannot evaluate {text.strip()!r}: {exc}") from exc

    def _abi_functions(self):
        rt = self.rt
        return {
            "cpm_red_read": rt.red_read,
            "cpm_ctx_read": rt.ctx_read,
            "cpm_cycle_get": rt.cycle_get,
            "cpm_arr_get": rt.arr_get,
            "anext": rt.anext,
        }

    def _to_python(self, text: str) -> str:
        toks = [
            t for t in tokenize_line(text)
            if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)
        ]
        return " ".join(self._translate(text, toks, 0, len(toks)))

    def _translate(self, text, toks, lo, hi):
        out = []
        i = lo
        while i < hi:
            t = toks[i]
            if (
                t.kind is TokenKind.IDENTIFIER
                and t.lexeme in _SINGLE_NAME_HEADS
                and i + 3 < hi
                and toks[i + 1].lexeme == "("
                and toks[i + 2].kind is TokenKind.IDENTIFIER
                and toks[i + 3].lexeme == ")"
            ):
                out.append(f'{t.lexeme}("{toks[i + 2].lexeme}")')
                i += 4
                continue
            if t.kind is TokenKind.IDENTIFIER and t.lexeme in ("cpm_arr_get", "anext") and i + 1 < hi and toks[i + 1].lexeme == "(":
                i = self._translate_call(text, toks, i, hi, out)
                continue
            if t.lexeme == "&&":
                out.append(" and ")
            elif t.lexeme == "||":
                out.append(" or ")
            elif t.lexeme == "!" and t.kind is TokenKind.PUNCTUATOR:
                out.append(" not ")
            else:
                out.append(t.lexeme)
            i += 1
        return out

    def _translate_call(self, text, toks, i, hi, out):
        """Handle ``cpm_arr_get(name, key, prop)`` / ``anext(name, ...)``:
        the array name (and for cpm_arr_get the property) are identifiers in
        the source but string keys to the runtime."""
        head = toks[i].lexeme
        depth = 0
        close = None
        commas = []
        for j in range(i + 1, hi):
            lex = toks[j].lexeme
            if lex == "(":
                depth += 1
            elif lex == ")":
                depth -= 1
                if depth == 0:
                    close = j
                    break
            elif lex == "," and depth == 1:
                commas.append(j)
        if close is None or toks[i + 2].kind is not TokenKind.IDENTIFIER:
            raise InterpError(f"cannot translate call {head!r} in {text.strip()!r}")
        pieces = [f'{head}("{toks[i + 2].lexeme}"']
        if head == "cpm_arr_get":
            if len(commas) != 2 or toks[close - 1].kind is not TokenKind.IDENTIFIER:
                raise InterpError(f"cannot translate cpm_arr_get in {text.strip()!r}")
            pieces.append(", ")
            pieces.extend(self._translate(text, toks, commas[0] + 1, commas[1]))
            pieces.append(f', "{toks[close - 1].lexeme}")')
        else:
            if commas:
                pieces.append(", ")
                pieces.extend(self._translate(text, toks, commas[0] + 1, close))
            pieces.append(")")
        out.append("".join(str(p) for p in pieces))
        return close + 1
