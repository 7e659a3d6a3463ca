"""Desk-scale interpreter for transformed output.

Executes the runtime-call statements the passes emit, plus the small
straight-line C subset the case studies need, against a
:class:`~cpm.runtime.Runtime`. This is what lets a lowered program and a
hand-coded runtime-call sequence be compared observation-for-observation
without a C toolchain.

:func:`cpm.cexpr.translate_stmt` translates a statement's tokens into
Python source, and :func:`cpm.cexpr.compile_stmt` builds on it: the emitted
calls of :data:`cpm.cexpr.ABI` (each the ``Runtime`` method of its head,
less the type arguments), bare expressions, ``x = e``, ``x op= e``,
``++``/``--``, ``return [e]`` and scalar declarations ``T a [= e], *b ...``,
the ``extensions_pipeline`` preamble among them (it binds the string in
:attr:`env`). Braces and function headers are ignored. Control flow is not
interpreted, so a control header (``if (...) {``, ``} else {``, ``while``,
``for``, ``do``, ``switch``) is refused as unsupported rather than skipped,
which would run its body unconditionally. Expressions follow C rules: ``/``
and ``%`` truncate toward zero on ints, relational and logical operators
yield 0 or 1, comparisons never chain, and ``?:`` works.

A run takes its unit's lines in windows of :data:`CHUNK` lines, at
lines 1, 1 + :data:`CHUNK`, ..., and keeps one process-wide cache,
:data:`_CHUNKS`, keyed by the text of a window's lines and whether each
opens inside a block comment. A window seen before costs one key, one
lookup and one ``exec`` of the code object that runs its statements, and
every interpreter shares it. Only a window not seen before is compiled:
each of its lines not seen before in the same run is checked for an
``@ext:`` tag, cut by :func:`cpm.srcmodel.split_segments` and translated
from the tokens the line holds, so no statement is tokenized again, and the
window's sources are joined and compiled at once. The gain needs units that
run again in the same process, as every run of a unit after its first does.
The cache holds at most :data:`CHUNK_CACHE_SIZE` windows: a miss on a full
one empties it first, so a long-lived process keeps a fixed amount.
:data:`CHUNK` bounds what one ``compile`` holds in memory, which grows
with the source compiled at once (one code object for a 6,169-statement
program raised peak RSS from 41 to 67 MB), while 128 lines per ``exec``
already spread the call's own cost thin.

A failure is located from the line its window's frame stood at, so it reads
``line N: cannot run '...': <cause>`` as if the statement had run alone,
after the effects of the statements before it. A statement that is
unsupported, or does not translate or compile, ends its window's code: the
statements before it run, then it raises its refusal, which the cache holds
with the code. The refusal of a statement that does not compile is the
``ValueError`` that :func:`cpm.cexpr.compile_stmt` raises for it, computed
once when its window compiles, so it raises the same on every run. The
caller's ``env`` may not name a helper of :data:`cpm.cexpr.HELPERS`.
"""

from __future__ import annotations

from bisect import bisect_right

from .cexpr import ABI, HELPERS, check_name, compile_expr, compile_stmt, translate_stmt
from .srcmodel import SourceUnit, ext_tag, load_unit, split_segments


class InterpError(ValueError):
    pass


# the most lines one code object runs; see the module docstring
CHUNK = 128

# the first word of a control header, refused when its segment ends in "{"
_CONTROL = frozenset({"if", "else", "while", "for", "do", "switch"})

# the (raw, in_block_comment) pairs of a window of lines -> (code, starts,
# where, refused); see _chunk. Shared by every interpreter, since none of it
# holds interpreter state
_CHUNKS: dict[tuple, tuple] = {}

# the most windows _CHUNKS holds; a miss on a full cache empties it first.
# About 5x what the benchmark's interp input fills at 1x and 2x
CHUNK_CACHE_SIZE = 256


def _unsupported(text):
    return text, (f"unsupported statement {text!r}", None)


def _cannot_run(text):
    """The refusal of statement ``text``, which does not translate or
    compile: the ``ValueError`` text :func:`compile_stmt` raises for it."""
    try:
        compile_stmt(text)
    except ValueError as exc:
        return f"cannot run {text.strip()!r}: {exc}", str(exc)


def _statements(line):
    """The statements of ``line`` in order, as ``(text, source)`` pairs: each
    ``text`` without its ``;``, and each ``source`` from :func:`translate_stmt`
    or, for a statement that cannot run, its refusal ``(reason, cause)``.
    Braces, function headers and empty statements are left out; a control
    header is unsupported, and so is the unfinished ``rest`` of
    :func:`split_segments`, whose text is the stripped line."""
    raw = line.raw
    if not line.in_block_comment and ext_tag(raw)[0] is not None:
        return ()  # untransformed tagged line; nothing to execute
    statements = []
    finished, rest = split_segments(line.sig)
    for toks in finished:  # each ends on a ';' or a brace
        last = toks[-1]
        if last.lexeme == "{" and toks[0].lexeme in _CONTROL:
            statements.append(_unsupported(raw[toks[0].column : last.end]))
        elif last.lexeme in ("{", "}"):
            continue  # block structure and function headers are not interpreted
        elif len(toks) > 1:  # not an empty statement
            text = raw[toks[0].column : last.column]
            try:
                source = translate_stmt(toks[:-1])
            except ValueError:
                source = _cannot_run(text)
            statements.append((text, source))
    if rest:
        statements.append(_unsupported(raw.strip()))
    return statements


def _chunk(sources, where):
    """The cache entry ``(code, starts, where, refused)`` of a window whose
    statements have ``sources`` and, as ``(line offset, text)``, ``where``:
    ``code`` runs the statements before the first that cannot run, and
    ``starts`` holds the first line of each in it; ``refused`` is that
    statement's refusal, the last of ``where``, or None if all of them run."""
    stop = next((k for k, s in enumerate(sources) if not isinstance(s, str)), len(sources))
    try:
        code = compile("\n".join(sources[:stop]), "<cpm chunk>", "exec")
    except (SyntaxError, RecursionError):  # a statement past Python's nesting limits
        for k in range(stop):
            try:
                compile(sources[k], "<cpm statement>", "exec")
            except (SyntaxError, RecursionError):
                return _chunk(sources[:k] + [_cannot_run(where[k][1])], where)  # ends the window at k
        raise
    starts, at = [], 1
    for source in sources[:stop]:
        starts.append(at)
        at += source.count("\n") + 1
    return code, starts, where[: stop + 1], sources[stop] if stop < len(sources) else None


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
        """Execute ``unit`` one window of :data:`CHUNK` lines at a time."""
        scope, env, lines = self._scope, self.env, unit.lines
        cut = {}  # (raw, in_block_comment) -> the line's _statements, this run
        for at in range(0, len(lines), CHUNK):
            window = lines[at : at + CHUNK]
            key = tuple([(line.raw, line.in_block_comment) for line in window])
            chunk = _CHUNKS.get(key)
            if chunk is None:
                sources, where = [], []
                for offset, (pair, line) in enumerate(zip(key, window)):
                    statements = cut.get(pair)
                    if statements is None:
                        statements = cut[pair] = _statements(line)
                    for text, source in statements:
                        where.append((offset, text))
                        sources.append(source)
                if len(_CHUNKS) >= CHUNK_CACHE_SIZE:
                    _CHUNKS.clear()
                chunk = _CHUNKS[key] = _chunk(sources, where)
            code, starts, where, refused = chunk
            try:
                exec(code, scope, env)
            except Exception as exc:
                tb = exc.__traceback__
                while tb.tb_frame.f_code is not code:
                    tb = tb.tb_next
                offset, text = where[bisect_right(starts, tb.tb_lineno) - 1]
                raise InterpError(f"line {at + offset + 1}: cannot run {text.strip()!r}: {exc}") from exc
            if len(starts) < len(where):  # the window's code ended at a refused statement
                reason, cause = refused  # cause: the ValueError text, or None if unsupported
                raise InterpError(f"line {at + where[-1][0] + 1}: {reason}") from cause and ValueError(cause)

    # -- expressions ------------------------------------------------------------

    def eval_expr(self, text: str):
        try:
            code, _ = compile_expr(text)
            return eval(code, self._scope, self.env)
        except Exception as exc:
            raise InterpError(f"cannot evaluate {text.strip()!r}: {exc}") from exc

