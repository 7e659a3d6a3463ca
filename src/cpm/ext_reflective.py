"""The ``refractive`` and ``array`` passes: context-aware variables.

``refractive`` intercepts scalar context variables. Reads of a sensor return
the runtime's current snapshot; writing an actuator triggers its bound
side-effect callback; a variable may be both. Guarded functions attach a
boolean expression over sensors to a function that runs when the guard turns
true.

``array`` intercepts reflective arrays: dynamically growing, string-indexed
arrays of context objects (``linkbeacons[mac].beacons``) maintained by the
runtime per observation period.

Context variables and arrays may be declared out of band in the pass
configuration, or in the source itself:

    sensor_t int cpu_load;                 -> cpm_ctx_register(cpu_load, sensor, "cpu_load");
    actuator_t int volume;                 -> cpm_ctx_register(volume, actuator, "volume");
    context_t int watchdog;                -> cpm_ctx_register(watchdog, both, "watchdog");
    reflective_array_t linkbeacons { beacons:int, silent_periods:int };
                                           -> cpm_arr_register(linkbeacons);
    guard_t (watchdog == WD_FIRED) on_fire; -> cpm_guard_register(on_fire, "watchdog == WD_FIRED");

Each pass has its own declaration scanner (``scan_context``,
``scan_arrays``) and its own pipeline stage and identifier; both find their
declarations with :func:`cpm.rewrite.decl_statements` and lower accesses
with :func:`cpm.rewrite.rewrite_line`, each from a table of targets.
"""

from __future__ import annotations

from .cexpr import compile_expr
from .pipeline import ExtensionId, ExtensionPass
from .rewrite import INDEX, Target, decl_head, decl_statements, lower_lines
from .srcmodel import Diagnostic, SourceUnit, TokenKind, apply_spans, map_lines

REFRACTIVE_ID = ExtensionId("refractive", "0.5")
ARRAY_ID = ExtensionId("array", "0.5")

_DECL_KEYWORDS = {"sensor_t": "sensor", "actuator_t": "actuator", "context_t": "both"}

BUILTIN_ARRAY_PROPS = ("beacons", "silent_periods", "stale")


_SCALAR_TARGETS = {  # direction -> target
    "sensor": Target(read="cpm_ctx_read({name})"),
    "actuator": Target(write="cpm_ctx_write({name}, {value});"),
    "both": Target(read="cpm_ctx_read({name})", write="cpm_ctx_write({name}, {value});"),
}

_ARRAY_MESSAGES = {
    **dict.fromkeys(
        ("assign", "update", "embedded"),
        "assignment to reflective array property '{o}' is unsupported; left unrewritten",
    ),
    "unclosed": "'{name}[' access does not close on this line; left unrewritten",
    "selector": "'{name}[...]' without a property selector; left unrewritten",
    "prop_name": "'{name}[...].' not followed by a property name; left unrewritten",
    "unknown": "unknown property '{prop}' of reflective array '{name}'; left unrewritten",
}


def _merge_direction(a, b):
    return a if a == b else "both"


def _config_names(text):
    """The names of a config list of ``name`` or ``name:type`` items."""
    return [item.partition(":")[0].strip() for item in str(text or "").split(",") if item.strip()]


def _config_scalars(config, diags):
    directions: dict[str, str] = {}
    for key, direction in (("sensors", "sensor"), ("actuators", "actuator"), ("context", "both")):
        for name in _config_names(config.get("refractive", key)):
            before = directions.get(name, direction)
            directions[name] = _merge_direction(before, direction)
            if directions[name] != before:
                diags.append(
                    Diagnostic("warning", 0, f"context variable '{name}' configured with two directions; treating as both", str(REFRACTIVE_ID))
                )
    return directions


def _config_arrays(config):
    names = (name.strip() for name in str(config.get("array", "arrays") or "").split(","))
    return {name: tuple(_config_names(config.get("array", name))) for name in names if name}


def _match_scalar_decl(toks):
    if toks[0].lexeme not in _DECL_KEYWORDS:
        return None
    decl = decl_head(toks[1:-1])
    if decl is None:
        return None
    return {
        "direction": _DECL_KEYWORDS[toks[0].lexeme],
        "name": decl[1],
        "start": toks[0].column,
        "end": toks[-1].end,
    }


def _match_array_decl(toks):
    if len(toks) < 5 or toks[0].lexeme != "reflective_array_t":
        return None
    if toks[1].kind is not TokenKind.IDENTIFIER:
        return None
    if toks[2].lexeme != "{" or toks[-2].lexeme != "}":
        return None
    props = []
    body = toks[3:-2]
    i = 0
    while i < len(body):
        if body[i].kind is not TokenKind.IDENTIFIER:
            return None
        pname = body[i].lexeme
        if i + 1 >= len(body) or body[i + 1].lexeme != ":":
            return None
        if i + 2 >= len(body) or body[i + 2].kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
            return None
        props.append(pname)
        i += 3
        if i < len(body):
            if body[i].lexeme != ",":
                return None
            i += 1
    if not props or len(set(props)) != len(props):
        return None
    return {
        "name": toks[1].lexeme,
        "properties": tuple(props),
        "start": toks[0].column,
        "end": toks[-1].end,
    }


def _match_guard_decl(raw, toks):
    """Match ``guard_t ( expr ) fn ;``; the expression is not checked here."""
    if len(toks) < 6 or toks[0].lexeme != "guard_t" or toks[1].lexeme != "(" or toks[-3].lexeme != ")":
        return None
    if toks[-2].kind is not TokenKind.IDENTIFIER:
        return None
    return {
        "fn": toks[-2].lexeme,
        "expr": raw[toks[1].end : toks[-3].column].strip(),
        "start": toks[0].column,
        "end": toks[-1].end,
    }


def scan_context(unit: SourceUnit, config, skip=frozenset()):
    """Collect scalar context variables (from config and from the source)
    and replace in-source context and guard declarations with registration
    calls.

    Guards are checked after the whole unit is seen, so a guard may precede
    the sensors it reads. A guard is kept when its text compiles as a C
    expression (:func:`cpm.cexpr.compile_expr`) that reads a declared
    sensor, the rule ``ContextRegistry.register_guard`` applies at run time.
    Returns (unit, {name: direction}, diagnostics).
    """
    emitted_by = str(REFRACTIVE_ID)
    diags: list[Diagnostic] = []
    scalars = _config_scalars(config, diags)
    pending_guards = []  # (match dict, line_no)
    line_spans: dict[int, list] = {}  # line_no -> replacement spans

    for line in unit.lines:
        if line.line_no in skip:
            continue
        match = lambda toks, raw=line.raw: _match_scalar_decl(toks) or _match_guard_decl(raw, toks)
        for kw, m in decl_statements(line, RefractivePass.KEYWORDS, match):
            if m is None:
                diags.append(
                    Diagnostic("warning", line.line_no, f"unrecognized {kw.lexeme} declaration form; line passed through", emitted_by)
                )
            elif kw.lexeme == "guard_t":
                pending_guards.append((m, line.line_no))
            else:
                direction = m["direction"]
                if m["name"] in scalars:
                    direction = _merge_direction(scalars[m["name"]], direction)
                    diags.append(
                        Diagnostic("warning", line.line_no, f"context variable '{m['name']}' declared more than once; directions merged", emitted_by)
                    )
                scalars[m["name"]] = direction
                text = f'cpm_ctx_register({m["name"]}, {direction}, "{m["name"]}");'
                line_spans.setdefault(line.line_no, []).append((m["start"], m["end"], text))

    sensor_names = {name for name, direction in scalars.items() if direction != "actuator"}
    for m, line_no in pending_guards:
        try:
            problem = None if compile_expr(m["expr"])[1] & sensor_names else "references no declared sensor"
        except ValueError:
            problem = "is not a C expression"
        if problem is not None:
            diags.append(Diagnostic("warning", line_no, f"guard for '{m['fn']}' {problem}; guard dropped", emitted_by))
            continue
        expr = m["expr"].replace("\\", "\\\\").replace('"', '\\"')
        text = f'cpm_guard_register({m["fn"]}, "{expr}");'
        line_spans.setdefault(line_no, []).append((m["start"], m["end"], text))

    out = map_lines(unit, lambda line: apply_spans(line.raw, line_spans.get(line.line_no)))
    return out, scalars, diags


def scan_arrays(unit: SourceUnit, config, skip=frozenset()):
    """Collect reflective arrays (from config and from the source) and
    replace in-source declarations with registration calls. Returns
    (unit, {name: property names}, diagnostics)."""
    diags: list[Diagnostic] = []
    arrays = _config_arrays(config)

    def lower_decls(line):
        spans = []
        for _, m in decl_statements(line, ArrayPass.KEYWORDS, _match_array_decl):
            if m is None:
                diags.append(
                    Diagnostic("warning", line.line_no, "unrecognized reflective_array_t declaration form; line passed through", str(ARRAY_ID))
                )
                continue
            if m["name"] in arrays:
                diags.append(
                    Diagnostic("warning", line.line_no, f"reflective array '{m['name']}' declared more than once; first declaration wins", str(ARRAY_ID))
                )
            else:
                arrays[m["name"]] = m["properties"]
            spans.append((m["start"], m["end"], f"cpm_arr_register({m['name']});"))
        return apply_spans(line.raw, spans)

    return map_lines(unit, lower_decls, skip), arrays, diags


def lower_context_accesses(unit: SourceUnit, directions, skip=frozenset()):
    """Wrap sensor reads and actuator writes of the scalar context variables
    in ``directions`` ({name: direction}). Returns (unit, diagnostics)."""
    targets = {name: _SCALAR_TARGETS[d] for name, d in directions.items()}
    return lower_lines(unit, targets, RefractivePass.KEYWORDS, str(REFRACTIVE_ID), skip)


def lower_array_accesses(unit: SourceUnit, arrays, skip=frozenset()):
    """Rewrite ``A[key].prop`` reads of the reflective arrays in ``arrays``
    ({name: property names}) into ``cpm_arr_get(A, (key), prop)``; the
    properties are read-only. Returns (unit, diagnostics)."""
    targets = {
        name: Target(
            INDEX,
            read="cpm_arr_get({name}, ({key}), {prop})",
            known=frozenset(BUILTIN_ARRAY_PROPS).union(props),
            messages=_ARRAY_MESSAGES,
        )
        for name, props in arrays.items()
    }
    return lower_lines(unit, targets, ArrayPass.KEYWORDS, str(ARRAY_ID), skip)


class RefractivePass(ExtensionPass):
    """Scalar context variables and guarded functions."""

    id = REFRACTIVE_ID
    KNOWN_KEYS = frozenset({"sensors", "actuators", "context"})
    KEYWORDS = frozenset({"sensor_t", "actuator_t", "context_t", "guard_t"})

    def _transform(self, unit, config, skip):
        unit, scalars, diags = scan_context(unit, config, skip)
        unit, more = lower_context_accesses(unit, scalars, skip)
        return unit, diags + more


class ArrayPass(ExtensionPass):
    """Reflective (string-indexed, dynamically growing) context arrays."""

    id = ARRAY_ID
    KEYWORDS = frozenset({"reflective_array_t"})

    def known_key(self, key: str) -> bool:
        if key == "arrays":
            return True
        # per-array property lists live under the array's own name
        return bool(key) and "." not in key

    def _transform(self, unit, config, skip):
        unit, arrays, diags = scan_arrays(unit, config, skip)
        unit, more = lower_array_accesses(unit, arrays, skip)
        return unit, diags + more
