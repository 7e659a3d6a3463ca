"""Desk-scale interpreter for transformed output.

Executes the runtime-call statements the passes emit, plus the small
straight-line C subset the case studies need, against a
:class:`~cpm.runtime.Runtime`. This is what lets a lowered program and a
hand-coded runtime-call sequence be compared observation-for-observation
without a C toolchain.

Each statement is compiled once per distinct text by
:func:`cpm.cexpr.compile_stmt`: the emitted calls of :data:`cpm.cexpr.ABI`
(each the ``Runtime`` method of its head, less the type arguments), bare
expressions, ``x = e``, ``x op= e``, ``++``/``--``, ``return [e]`` and
scalar declarations ``T a [= e], *b ...``, the ``extensions_pipeline``
preamble among them (it binds the string in :attr:`env`). Braces are
ignored; control flow is not interpreted. Expressions follow C rules: ``/``
and ``%`` truncate toward zero on ints, relational and logical operators
yield 0 or 1, comparisons never chain, and ``?:`` works.
"""

from __future__ import annotations

from .cexpr import ABI, HELPERS, compile_expr, compile_stmt
from .srcmodel import SourceUnit, ext_tag, load_unit, split_segments


class InterpError(ValueError):
    pass


class AbiInterpreter:
    def __init__(self, runtime, env=None):
        self.rt = runtime
        self.env = dict(env or {})  # program variables and caller-supplied constants
        self._scope = {**HELPERS, **{head: getattr(runtime, head.removeprefix("cpm_")) for head in ABI}}

    def bind_function(self, name, fn):
        """Provide the body for a named C function (cyclic actions, guard
        bodies). May be called before or after the program registers it."""
        self.rt.bind_function(name, fn)

    # -- program execution ----------------------------------------------------

    def run_text(self, text: str):
        self.run_unit(load_unit(text))

    def run_unit(self, unit: SourceUnit):
        for line in unit.lines:
            if not line.in_block_comment and ext_tag(line.raw)[0] is not None:
                continue  # untransformed tagged line; nothing to execute
            for toks in split_segments(line.sig):
                self._exec_segment(line, toks)

    def _exec_segment(self, line, toks):
        last = toks[-1]
        if last.lexeme in ("{", "}"):
            return  # block structure and function headers are not interpreted
        if last.lexeme != ";":
            raise InterpError(f"line {line.line_no}: unsupported statement {line.raw.strip()!r}")
        if len(toks) == 1:
            return  # an empty statement
        text = line.raw[toks[0].column : last.column]
        try:
            exec(compile_stmt(text), self._scope, self.env)
        except Exception as exc:
            raise InterpError(f"line {line.line_no}: cannot run {text.strip()!r}: {exc}") from exc

    # -- expressions ------------------------------------------------------------

    def eval_expr(self, text: str):
        try:
            code, _ = compile_expr(text)
            return eval(code, self._scope, self.env)
        except Exception as exc:
            raise InterpError(f"cannot evaluate {text.strip()!r}: {exc}") from exc
