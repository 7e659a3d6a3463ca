"""Independent oracles for the semantic tests.

Everything here is straight-line arithmetic/enumeration over the declared
behavior, sharing no code with the runtime or the scheduler it checks, except
the seven references at the end: plain, slower forms of the line lexer, the
statement splitter, the pipeline's access lowering, the interpreter's
statement loop and the voted read that the fast forms must agree with
exactly, the reflective array as it was when it stored its staleness
flag, and the event log as it was when it kept one :class:`Event` per
event.
"""

import csv
import io
import re

from cpm.cexpr import compile_stmt
from cpm.interp import InterpError
from cpm.pipeline import PipelineReport, _strict_sweep, _strip_tags, preamble_line
from cpm.rewrite import rewrite_line
from cpm.runtime.events import CSV_HEADER, Event
from cpm.runtime.redundant import NoMajorityError, ReplicaSet
from cpm.srcmodel import C_KEYWORDS, SourceUnit, Token, TokenKind, ext_tag, split_segments, unit_from_raws

WD_STARTED, WD_ACTIVE, WD_FIRED, WD_END = -1, -2, -3, -4


def majority_oracle(values):
    """Brute-force strict majority: the value held by more than half the
    replicas, or None. Independent of the runtime's Counter-based voting."""
    n = len(values)
    for candidate in values:
        count = 0
        for v in values:
            if v == candidate:
                count += 1
        if 2 * count > n:
            return candidate
    return None


def cyclic_fire_times(period, horizon):
    """Fixed-rate schedule: fire times for one cyclic object started at 0."""
    return [t for t in range(period, horizon + 1, period)]


def wdt_trace_oracle(period, horizon, heartbeats=(), restarts=()):
    """Enumerate the watchdog state trace by walking period boundaries and
    restart writes in time order (writes first on ties). Faults are absent by
    construction: the oracle describes the fault-free machine, which voting
    must reproduce."""
    trace = [(0, WD_STARTED), (0, WD_ACTIVE)]
    value = WD_ACTIVE
    writes = sorted(restarts)
    wi = 0
    next_boundary = period
    while True:
        write_t = writes[wi][0] if wi < len(writes) else None
        boundary_t = next_boundary if value != WD_FIRED else None
        candidates = [t for t in (write_t, boundary_t) if t is not None]
        if not candidates:
            break
        t = min(candidates)
        if t >= horizon:
            break
        if write_t is not None and write_t == t:
            wv = writes[wi][1]
            wi += 1
            if value == WD_FIRED:
                value = WD_ACTIVE
                trace.append((t, WD_ACTIVE))
                next_boundary = t + period
            continue
        if any(t - period < hb <= t for hb in heartbeats):
            value = value + 1 if value >= 0 else 1
            trace.append((t, value))
            next_boundary = t + period
        else:
            value = WD_FIRED
            trace.append((t, WD_FIRED))
    trace.append((horizon, WD_END))
    return trace


def switchboard_oracle(rows, period, horizon):
    """Hand-rolled cycle reports: count beacons per (cycle, mac) directly from
    the trace rows and apply the staleness rule period by period."""
    macs = []
    for _, mac, _ in rows:
        if mac not in macs:
            macs.append(mac)
    cycles = horizon // period
    silent = {mac: 0 for mac in macs}
    first_seen = {}
    latest_rate = {}
    reports = []
    for cycle in range(1, cycles + 1):
        lo, hi = (cycle - 1) * period, cycle * period
        counts = {mac: 0 for mac in macs}
        for t, mac, rate in rows:
            if lo < t <= hi or (cycle == 1 and t == 0):
                counts[mac] += 1
                latest_rate[mac] = rate
                first_seen.setdefault(mac, cycle)
        for mac in macs:
            if first_seen.get(mac, cycles + 1) > cycle:
                continue  # entry does not exist yet
            if counts[mac] == 0:
                silent[mac] += 1
                reports.append((cycle, mac, "stale"))
            else:
                silent[mac] = 0
                reports.append((cycle, mac, latest_rate[mac] / (1 + silent[mac])))
    return reports


def c_eval(node, env, seen=None):
    """Evaluate an expression tree by the C rules for ints: ``/`` and ``%``
    truncate toward zero in exact integer arithmetic (never through float),
    relational and logical operators give 0 or 1, ``&&``, ``||`` and ``?:``
    evaluate only the operands they need, and shifts are arithmetic. Division
    by zero raises ZeroDivisionError. Nodes: ("int", value, fmt), ("var",
    name), ("unary", op, x), ("binary", op, left, right), ("cond", c, then,
    else). A ``seen`` list collects the value of every node evaluated."""
    value = _c_node(node, env, seen)
    if seen is not None:
        seen.append(value)
    return value


def _c_node(node, env, seen):
    kind = node[0]
    if kind == "int":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "cond":
        return c_eval(node[2] if c_eval(node[1], env, seen) != 0 else node[3], env, seen)
    if kind == "unary":
        x = c_eval(node[2], env, seen)
        return {"-": -x, "~": ~x, "!": 1 if x == 0 else 0}[node[1]]
    op, a = node[1], c_eval(node[2], env, seen)
    if op == "&&":
        return 0 if a == 0 else (1 if c_eval(node[3], env, seen) != 0 else 0)
    if op == "||":
        return 1 if a != 0 else (1 if c_eval(node[3], env, seen) != 0 else 0)
    b = c_eval(node[3], env, seen)
    if op in ("/", "%"):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return q if op == "/" else a - b * q
    if op in ("<", ">", "<=", ">=", "==", "!="):
        holds = {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b, "==": a == b, "!=": a != b}[op]
        return 1 if holds else 0
    if op in ("<<", ">>"):
        return a << b if op == "<<" else a >> b
    return {"+": a + b, "-": a - b, "*": a * b, "&": a & b, "|": a | b, "^": a ^ b}[op]


# The lexical grammar with one named group per token kind, tried in order;
# the first alternative that matches at a position wins. OPEN is a block
# comment the line does not close.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<WHITESPACE> [ \t\r\v\f]+ )
    | (?P<COMMENT> //[\s\S]* | /\*[\s\S]*?\*/ )
    | (?P<OPEN> /\*[\s\S]* )
    | (?P<IDENTIFIER> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<NUMBER> \.?[0-9] (?: [eEpP][+-] | [.A-Za-z0-9_] )* )
    | (?P<STRING> "(?: [^"\\] | \\[\s\S] )*["\\]? | '(?: [^'\\] | \\[\s\S] )*['\\]? )
    | (?P<PUNCTUATOR> <<= | >>= | \.\.\. | -> | \+\+ | -- | << | >> | [-+*/%&^|<>=!]= | && | \|\| | \#\# | [\s\S] )
    """,
    re.VERBOSE,
)


def reference_tokenize(raw, in_block):
    """:func:`cpm.srcmodel._tokenize` in its plain form: one match object
    per token, whose named group gives the kind, and the significant tokens
    and identifier lexemes filtered from the token list afterwards."""
    tokens = []
    pos = 0
    if in_block:
        end = raw.find("*/")
        if end < 0:
            return ((Token(TokenKind.COMMENT, raw, 0),) if raw else ()), (), frozenset(), True
        pos = end + 2
        tokens.append(Token(TokenKind.COMMENT, raw[:pos], 0))
    group = None
    for m in _REFERENCE_TOKEN_RE.finditer(raw, pos):
        group = m.lastgroup
        if group == "OPEN":
            kind = TokenKind.COMMENT
        elif group == "IDENTIFIER" and m.group() in C_KEYWORDS:
            kind = TokenKind.KEYWORD
        else:
            kind = TokenKind[group]
        tokens.append(Token(kind, m.group(), m.start()))
    sig = tuple(t for t in tokens if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT))
    names = frozenset(t.lexeme for t in tokens if t.kind is TokenKind.IDENTIFIER)
    return tuple(tokens), sig, names, group == "OPEN"


def reference_split_segments(sig):
    """:func:`cpm.srcmodel.split_segments` in its plain form: attribute
    access, an Enum lookup per comparison and ``max`` for the depth."""
    segs, cur, depth = [], [], 0
    for tok in sig:
        if tok.kind is TokenKind.PUNCTUATOR:
            if tok.lexeme in ("(", "["):
                depth += 1
            elif tok.lexeme in (")", "]"):
                depth = max(0, depth - 1)
        cur.append(tok)
        if tok.kind is TokenKind.PUNCTUATOR and depth == 0 and tok.lexeme in (";", "{", "}"):
            segs.append(cur)
            cur = []
    return segs, cur


def reference_lower_in_turn(pipeline, unit, strict=False):
    """:func:`cpm.pipeline.run` with its access lowering as whole-unit walks:
    every pass's scan, then each pass's lowering over the whole unit in
    turn, the unit tokenized afresh after each."""
    diags = list(pipeline.compose_diagnostics)
    applied = {p.id.name for p in pipeline.passes}
    unit, tags = _strip_tags(unit, applied)
    scans = []
    for p in pipeline.passes:
        skip = frozenset(n for n, tag in tags.items() if tag != p.id.name)
        unit, declared, scan_diags = p.scan(unit, pipeline.config, skip)
        scans.append((p.lowering(declared, skip), scan_diags))
    for low, scan_diags in scans:
        lower_diags, raws = [], []
        for line_no, line in enumerate(unit.lines, 1):
            if line_no in low.skip or line.names.isdisjoint(low.targets):
                raws.append(line.raw)
            else:
                keywords = low.keywords & line.names
                raws.append(rewrite_line(line.raw, line.sig, low.targets, keywords, line_no, low.emitted_by, lower_diags))
        unit = unit_from_raws(raws, unit.final_newline)
        diags += scan_diags + lower_diags
    report = PipelineReport([p.id for p in pipeline.passes], diags)
    head = unit_from_raws([preamble_line(report.extensions_pipeline)]).lines
    out = SourceUnit(head + unit.lines, unit.final_newline if unit.lines else True)
    if strict:
        diags.extend(_strict_sweep(unit, pipeline, applied, tags))
    return out, report


def reference_run_unit(interp, unit):
    """:meth:`cpm.interp.AbiInterpreter.run_unit` as a loop over the lines
    that splits, slices and looks up every statement on every run, with
    ``interp``'s scope and env."""
    for line_no, line in enumerate(unit.lines, 1):
        if not line.in_block_comment and ext_tag(line.raw)[0] is not None:
            continue  # untransformed tagged line; nothing to execute
        finished, rest = split_segments(line.sig)
        for toks in (*finished, rest) if rest else finished:
            _reference_exec_segment(interp, line_no, line, toks)


def _reference_exec_segment(interp, line_no, line, toks):
    last = toks[-1]
    if last.lexeme not in (";", "{", "}") or _unclosed(toks):  # an unfinished statement, as "x = f(x; {"
        raise InterpError(f"line {line_no}: unsupported statement {line.raw.strip()!r}")
    if last.lexeme == "{" and toks[0].lexeme in ("if", "else", "while", "for", "do", "switch"):
        text = line.raw[toks[0].column : last.end]
        raise InterpError(f"line {line_no}: unsupported statement {text!r}")  # control flow is not run
    if last.lexeme in ("{", "}"):
        return  # block structure and function headers are not interpreted
    if len(toks) == 1:
        return  # an empty statement
    text = line.raw[toks[0].column : last.column]
    try:
        exec(compile_stmt(text), interp._scope, interp.env)
    except Exception as exc:
        raise InterpError(f"line {line_no}: cannot run {text.strip()!r}: {exc}") from exc


def _unclosed(toks):
    """Whether a bracket opened in ``toks`` is still open at their end: then
    their final ';' or brace did not end a statement, so they are the
    unfinished rest of their line."""
    depth = 0
    for tok in toks:
        if tok.lexeme in ("(", "["):
            depth += 1
        elif tok.lexeme in (")", "]") and depth:
            depth -= 1
    return depth > 0


class ReferenceReplicaSet(ReplicaSet):
    """A replica set whose read always votes (no unanimous short-circuit) and
    repairs and adapts through its own methods, one step at a time, instead
    of the runtime's inline bookkeeping."""

    def read(self):
        reps = self._replicas
        # Boyer-Moore: a strict majority, if there is one, is the candidate
        cand, lead = None, 0
        for v in reps:
            if lead == 0:
                cand, lead = v, 1
            elif v is cand or v == cand:  # identity first, as list.count
                lead += 1
            else:
                lead -= 1
        agreeing = reps.count(cand)
        if agreeing * 2 <= self.n:
            self.events.log("vote_fail", self.name, self.stats.reads, "no-majority")
            raise NoMajorityError(f"no strict majority among replicas of '{self.name}'")
        value = reps[reps.index(cand)]  # the first agreeing replica
        discrepancies = self.n - agreeing
        if discrepancies:
            for i in range(len(reps)):
                reps[i] = value
        st = self.stats
        st.discrepancy_histogram[discrepancies] = st.discrepancy_histogram.get(discrepancies, 0) + 1
        risky = self.n // 2
        if len(st.window) == st.window.maxlen and st.window[0] >= risky:
            st.risky -= 1  # about to be evicted
        st.window.append(discrepancies)
        st.risky += discrepancies >= risky
        self._adapt(majority=value)
        return value

    def _adapt(self, majority):
        self._window_reads += 1
        if self.stats.failure_risk > self.policy.escalate_threshold and self.n + 2 <= self.policy.n_max:
            self._resize(self.n + 2, majority)
            return
        if self._window_reads >= self.policy.window:
            if self.stats.risky == 0:  # stats.window holds just the reads of this window
                self._clean_windows += 1
                if self._clean_windows >= self.policy.deescalate_after:
                    if self.n - 2 >= self.policy.n_min:
                        self._resize(self.n - 2, majority)
                    self._clean_windows = 0
            else:
                self._clean_windows = 0
            self._window_reads = 0

    def _resize(self, new_n, majority):
        old_n = self.n
        if new_n > old_n:
            self._replicas.extend([majority] * (new_n - old_n))
        else:
            del self._replicas[new_n:]
        # measurements made at the old N no longer apply
        self.stats.window.clear()
        self.stats.risky = 0
        self._window_reads = 0
        self._clean_windows = 0
        self.events.log("adapt", self.name, new_n, f"{old_n}->{new_n}")


class ReferenceArray:
    """The reflective array with a stored ``stale`` flag, kept beside
    ``silent_periods`` and set by every beacon and rollover; keys live in a
    plain dict, whose order is insertion order."""

    def __init__(self):
        self.entries = {}

    def _entry(self, key):
        return self.entries.setdefault(key, {"cur": 0, "last": 0, "silent": 0, "stale": False, "props": {}})

    def report_beacon(self, key, prop=None, value=None):
        e = self._entry(key)
        e["cur"] += 1
        e["silent"] = 0
        e["stale"] = False
        if prop is not None:
            self.set_prop(key, prop, value)

    def rollover(self):
        for e in self.entries.values():
            e["last"], e["cur"] = e["cur"], 0
            if e["last"] == 0:
                e["silent"] += 1
                e["stale"] = True
            else:
                e["silent"] = 0
                e["stale"] = False

    def set_prop(self, key, prop, value):
        self._entry(key)["props"][prop] = value

    def get(self, key, prop):
        e = self.entries[key]
        builtin = {"beacons": e["last"], "silent_periods": e["silent"], "stale": e["stale"]}
        return builtin[prop] if prop in builtin else e["props"][prop]

    def keys(self):
        return list(self.entries)

    def anext(self, cursor):
        keys = self.keys()
        return keys[cursor] if 0 <= cursor < len(keys) else None


class ReferenceEventLog:
    """:class:`cpm.runtime.EventLog` as a list of :class:`Event` objects,
    one built per ``log`` call. A ``TOM`` built on it moves its ``_now``."""

    def __init__(self):
        self.events: list[Event] = []
        self._now = 0

    @property
    def now(self) -> int:
        return self._now

    def log(self, kind, name, instance=0, value=""):
        self.events.append(Event(self._now, kind, name, int(instance), str(value)))

    def of(self, kind) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        buf.write(CSV_HEADER + "\n")
        for e in self.events:
            writer.writerow([e.time_ms, e.kind, e.name, e.instance, e.value])
        return buf.getvalue()

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def fired_log(self) -> list[tuple[int, str, int]]:
        """``TOM.fired_log`` over this log: its ``fire`` events as tuples."""
        return [(e.time_ms, e.name, e.instance) for e in self.events if e.kind == "fire"]
