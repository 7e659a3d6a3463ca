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

Each distinct line is cut into statements and translated once per process
(:data:`_LINES`), keyed by its text and whether it opens inside a block
comment, and every interpreter reuses its statements' sources: only a line
not seen before is checked for an ``@ext:`` tag, cut by
:func:`cpm.srcmodel.split_segments` and translated from the tokens the line
holds, so no statement is tokenized again. A run joins its
statements' sources into chunks of at most :data:`CHUNK` statements and
compiles each distinct chunk once per process into one code object, which
one ``exec`` runs (:data:`_CHUNKS`). A chunk is keyed by its statements'
sources, so the same statements compile once wherever they sit; the gain
needs lines that run again in the same process, as every run of a unit
after its first does. Both caches are bounded, by :data:`LINE_CACHE_SIZE`
and :data:`CHUNK_CACHE_SIZE`: a miss on a full one empties it first, so a
long-lived process keeps at most that many.
:data:`CHUNK` bounds what one ``compile`` holds in memory, which grows
with the source compiled at once (one code object for a 6,169-statement
program raised peak RSS from 41 to 67 MB), while 128 statements per
``exec`` already spread the call's own cost thin.

A failure is located from the line its chunk's frame stood at, so it reads
``line N: cannot run '...': <cause>`` as if the statement had run alone,
after the effects of the statements before it. A statement that is
unsupported or does not compile ends its chunk: the statements before it
run, then it raises, and a statement that does not compile is compiled again
when it is reached, so it raises at the same point on every run. The
caller's ``env`` may not name a helper of :data:`cpm.cexpr.HELPERS`.
"""

from __future__ import annotations

from bisect import bisect_right

from .cexpr import ABI, HELPERS, check_name, compile_expr, compile_stmt, translate_stmt
from .srcmodel import SourceUnit, ext_tag, load_unit, split_segments


class InterpError(ValueError):
    pass


# the most statements one code object runs; see the module docstring
CHUNK = 128

# the source of a statement that is not one, and of one that does not
# compile; either ends the chunk it falls in
_UNSUPPORTED = object()
_UNCOMPILED = object()

# (raw, in_block_comment) -> (texts, sources) of the line's statements;
# shared by every interpreter, since a source holds no interpreter state
_LINES: dict[tuple[str, bool], tuple] = {}
_NO_STATEMENTS = ((), ())

# the first word of a control header, refused when its segment ends in "{"
_CONTROL = frozenset({"if", "else", "while", "for", "do", "switch"})

# the sources of a chunk's statements -> (code, starts): the code object of
# the statements before the first that cannot join it, and the first line of
# each of those statements in that code
_CHUNKS: dict[tuple, tuple] = {}

# the most entries _LINES and _CHUNKS hold; a miss on a full cache empties it
# first. About 4x what the benchmark's interp input fills at 1x and 2x
LINE_CACHE_SIZE = 10_000
CHUNK_CACHE_SIZE = 256


def _store(cache, size, key, value):
    """Cache ``value`` under ``key`` in ``cache``, emptied first if it holds
    ``size`` entries, and return it."""
    if len(cache) >= size:
        cache.clear()
    cache[key] = value
    return value


def _statements(line):
    """The statements of ``line`` in order as ``(texts, sources)``: each
    ``text`` without its ``;``, each ``source`` from :func:`translate_stmt`
    or ``_UNCOMPILED``. Braces, function headers and empty statements are
    left out; a control header is ``_UNSUPPORTED``, and so is the unfinished
    ``rest`` of :func:`split_segments`, whose text is the stripped line."""
    raw = line.raw
    if not line.in_block_comment and ext_tag(raw)[0] is not None:
        return _NO_STATEMENTS  # untransformed tagged line; nothing to execute
    texts, sources = [], []
    finished, rest = split_segments(line.sig)
    for toks in finished:  # each ends on a ';' or a brace
        last = toks[-1]
        if last.lexeme == "{" and toks[0].lexeme in _CONTROL:
            texts.append(raw[toks[0].column : last.end])
            sources.append(_UNSUPPORTED)
        elif last.lexeme in ("{", "}"):
            continue  # block structure and function headers are not interpreted
        elif len(toks) > 1:  # not an empty statement
            try:
                source = translate_stmt(toks[:-1])
            except Exception:
                source = _UNCOMPILED  # failures are not cached: run compiles it again and raises
            texts.append(raw[toks[0].column : last.column])
            sources.append(source)
    if rest:
        texts.append(raw.strip())
        sources.append(_UNSUPPORTED)
    return (tuple(texts), tuple(sources)) if texts else _NO_STATEMENTS


def _chunk(sources):
    """The ``(code, starts)`` of a chunk of ``sources``: its code runs the
    statements before the first that is unsupported, does not translate or
    does not compile, and ``starts`` holds the first line of each in it."""
    stop = next((k for k, s in enumerate(sources) if not isinstance(s, str)), len(sources))
    try:
        code = compile("\n".join(sources[:stop]), "<cpm chunk>", "exec")
    except (SyntaxError, RecursionError):  # a statement past Python's nesting limits
        for k in range(stop):
            try:
                compile(sources[k], "<cpm statement>", "exec")
            except (SyntaxError, RecursionError):
                return _chunk(sources[:k] + (_UNCOMPILED,))  # ends the chunk at k
        raise
    starts, at = [], 1
    for source in sources[:stop]:
        starts.append(at)
        at += source.count("\n") + 1
    return code, starts


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
        self._run(unit, self._compile(unit))

    def _compile(self, unit: SourceUnit) -> list:
        """The sources of the statements of ``unit``, in order. Never raises;
        what cannot run raises when :meth:`_run` reaches it."""
        sources = []
        for line in unit.lines:
            key = (line.raw, line.in_block_comment)
            statements = _LINES.get(key)
            if statements is None:
                statements = _store(_LINES, LINE_CACHE_SIZE, key, _statements(line))
            sources += statements[1]
        return sources

    def _run(self, unit: SourceUnit, sources: list):
        """Execute ``unit``, compiled by :meth:`_compile` into ``sources``,
        chunk by chunk."""
        scope, env = self._scope, self.env
        at, end = 0, len(sources)
        while at < end:
            key = tuple(sources[at : at + CHUNK])
            chunk = _CHUNKS.get(key)
            if chunk is None:
                chunk = _store(_CHUNKS, CHUNK_CACHE_SIZE, key, _chunk(key))
            code, starts = chunk
            try:
                exec(code, scope, env)
            except Exception as exc:
                tb = exc.__traceback__
                while tb.tb_frame.f_code is not code:
                    tb = tb.tb_next
                line_no, text = _locate(unit, at + bisect_right(starts, tb.tb_lineno) - 1)
                raise InterpError(f"line {line_no}: cannot run {text.strip()!r}: {exc}") from exc
            at += len(starts)
            if len(starts) < len(key):  # the chunk ended at a statement that cannot join one
                line_no, text = _locate(unit, at)
                if sources[at] is _UNSUPPORTED:
                    raise InterpError(f"line {line_no}: unsupported statement {text!r}")
                try:
                    exec(compile_stmt(text), scope, env)
                except Exception as exc:
                    raise InterpError(f"line {line_no}: cannot run {text.strip()!r}: {exc}") from exc
                at += 1

    # -- expressions ------------------------------------------------------------

    def eval_expr(self, text: str):
        try:
            code, _ = compile_expr(text)
            return eval(code, self._scope, self.env)
        except Exception as exc:
            raise InterpError(f"cannot evaluate {text.strip()!r}: {exc}") from exc


def _locate(unit, index):
    """The line number and text of statement ``index`` of a compiled
    ``unit``."""
    for line_no, line in enumerate(unit.lines, 1):
        # the line may have left _LINES since its unit compiled
        texts = (_LINES.get((line.raw, line.in_block_comment)) or _statements(line))[0]
        if index < len(texts):
            return line_no, texts[index]
        index -= len(texts)
