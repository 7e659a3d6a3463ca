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

Each distinct line is compiled once per process into its statements' code
objects, keyed by its text and whether it opens inside a block comment, and
every interpreter reuses them. Only a line not seen before is checked for an
``@ext:`` tag and cut by :func:`cpm.srcmodel.split_segments`, so running a
line again costs its ``exec`` calls and the runtime work they do. The
caller's ``env`` may not name a helper of :data:`cpm.cexpr.HELPERS`.
"""

from __future__ import annotations

from .cexpr import ABI, HELPERS, check_name, compile_expr, compile_stmt
from .srcmodel import SourceUnit, ext_tag, load_unit, split_segments


class InterpError(ValueError):
    pass


# the code of a statement that is not one: its text is the whole stripped line
_UNSUPPORTED = object()

# (raw, in_block_comment) -> the line's statements; shared by every
# interpreter, since a code object holds no interpreter state
_LINES: dict[tuple[str, bool], tuple] = {}


def _statements(line):
    """The statements of ``line`` as ``(text, code)`` pairs in order: ``text``
    without its ``;``, ``code`` its :func:`compile_stmt` object or None if it
    does not compile. Braces and empty statements are left out; a final
    segment that is not a statement is ``(stripped line, _UNSUPPORTED)``."""
    raw = line.raw
    if not line.in_block_comment and ext_tag(raw)[0] is not None:
        return ()  # untransformed tagged line; nothing to execute
    statements = []
    for toks in split_segments(line.sig):
        last = toks[-1]
        if last.lexeme in ("{", "}"):
            continue  # block structure and function headers are not interpreted
        if last.lexeme != ";":
            statements.append((raw.strip(), _UNSUPPORTED))
        elif len(toks) > 1:  # not an empty statement
            text = raw[toks[0].column : last.column]
            try:
                code = compile_stmt(text)
            except Exception:
                code = None  # failures are not cached: run compiles it again and raises
            statements.append((text, code))
    return tuple(statements)


class AbiInterpreter:
    def __init__(self, runtime, env=None):
        self.rt = runtime
        self.env = dict(env or {})  # program variables and caller-supplied constants
        for name in self.env:
            check_name(name)
        self._scope = {**HELPERS, **{head: getattr(runtime, head.removeprefix("cpm_")) for head in ABI}}

    def bind_function(self, name, fn):
        """Provide the body for a named C function (cyclic actions, guard
        bodies). May be called before or after the program registers it."""
        self.rt.bind_function(name, fn)

    # -- program execution ----------------------------------------------------

    def run_text(self, text: str):
        self.run_unit(load_unit(text))

    def run_unit(self, unit: SourceUnit):
        self._run(self._compile(unit))

    def _compile(self, unit: SourceUnit) -> tuple:
        """The program of ``unit``: ``(line, statements)`` for each line that
        has statements, in order. Never raises; what cannot run raises when
        :meth:`_run` reaches it."""
        program = []
        for line in unit.lines:
            key = (line.raw, line.in_block_comment)
            statements = _LINES.get(key)
            if statements is None:
                statements = _LINES[key] = _statements(line)
            if statements:
                program.append((line, statements))
        return tuple(program)

    def _run(self, program: tuple):
        """Execute a program from :meth:`_compile`, statement by statement."""
        scope, env = self._scope, self.env
        for line, statements in program:
            for text, code in statements:
                if code is _UNSUPPORTED:
                    raise InterpError(f"line {line.line_no}: unsupported statement {text!r}")
                try:
                    exec(compile_stmt(text) if code is None else code, scope, env)
                except Exception as exc:
                    raise InterpError(f"line {line.line_no}: cannot run {text.strip()!r}: {exc}") from exc

    # -- expressions ------------------------------------------------------------

    def eval_expr(self, text: str):
        try:
            code, _ = compile_expr(text)
            return eval(code, self._scope, self.env)
        except Exception as exc:
            raise InterpError(f"cannot evaluate {text.strip()!r}: {exc}") from exc
