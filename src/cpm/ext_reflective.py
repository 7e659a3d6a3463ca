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

Each pass has its own pipeline stage and identifier. Its declaration scan
(``scan_context``, ``scan_arrays``) is a matcher and a ``declare`` handed to
:func:`cpm.rewrite.lower_decls`, and its accesses are lowered by
:func:`cpm.rewrite.lower_lines` from a table of targets.
"""

from __future__ import annotations

from .cexpr import compile_expr
from .pipeline import ExtensionId, ExtensionPass
from .rewrite import INDEX, Target, decl_head, lower_decls, lower_lines
from .runtime.context import BUILTIN_ARRAY_PROPS
from .srcmodel import IDENTIFIER, KEYWORD, Diagnostic, SourceUnit

REFRACTIVE_ID = ExtensionId("refractive", "0.5")
ARRAY_ID = ExtensionId("array", "0.5")

_DECL_KEYWORDS = {"sensor_t": "sensor", "actuator_t": "actuator", "context_t": "both"}


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


def _match_context_decl(raw, toks):
    """Match ``sensor_t <type...> <name> ;`` (or ``actuator_t``,
    ``context_t``), giving (direction, name), or ``guard_t ( expr ) fn ;``,
    giving ("guard", fn, expr); the expression is not checked here."""
    if toks[0].lexeme == "guard_t":
        if len(toks) < 6 or toks[1].lexeme != "(" or toks[-3].lexeme != ")" or toks[-2].kind is not IDENTIFIER:
            return None
        return "guard", toks[-2].lexeme, raw[toks[1].end : toks[-3].column].strip()
    decl = decl_head(toks[1:-1]) if toks[0].lexeme in _DECL_KEYWORDS else None
    return None if decl is None else (_DECL_KEYWORDS[toks[0].lexeme], decl[1])


def _match_array_decl(raw, toks):
    """Match ``reflective_array_t <name> { prop:type, ... } ;``, a trailing
    ``,`` allowed; returns (name, property names)."""
    if len(toks) < 6 or toks[0].lexeme != "reflective_array_t" or toks[1].kind is not IDENTIFIER:
        return None
    body = toks[3:-2]
    if toks[2].lexeme != "{" or toks[-2].lexeme != "}" or len(body) % 4 in (1, 2):
        return None
    for i in range(0, len(body), 4):
        if (
            body[i].kind is not IDENTIFIER
            or body[i + 1].lexeme != ":"
            or body[i + 2].kind not in (IDENTIFIER, KEYWORD)
            or (i + 3 < len(body) and body[i + 3].lexeme != ",")
        ):
            return None
    props = tuple(t.lexeme for t in body[::4])
    return None if len(set(props)) != len(props) else (toks[1].lexeme, props)


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

    def guard(fn, expr, line_no):
        try:
            refs = compile_expr(expr)[1]
            problem = None if any(scalars.get(n, "actuator") != "actuator" for n in refs) else "references no declared sensor"
        except ValueError:
            problem = "is not a C expression"
        if problem is not None:
            diags.append(Diagnostic("warning", line_no, f"guard for '{fn}' {problem}; guard dropped", emitted_by))
            return None
        expr = expr.replace("\\", "\\\\").replace('"', '\\"')
        return f'cpm_guard_register({fn}, "{expr}");'

    def declare(m, line_no):
        if m[0] == "guard":
            return lambda: guard(m[1], m[2], line_no)
        direction, name = m
        if name in scalars:
            direction = _merge_direction(scalars[name], direction)
            diags.append(
                Diagnostic("warning", line_no, f"context variable '{name}' declared more than once; directions merged", emitted_by)
            )
        scalars[name] = direction
        return f'cpm_ctx_register({name}, {direction}, "{name}");'

    return lower_decls(unit, RefractivePass.KEYWORDS, _match_context_decl, declare, emitted_by, diags, skip), scalars, diags


def scan_arrays(unit: SourceUnit, config, skip=frozenset()):
    """Collect reflective arrays (from config and from the source) and
    replace in-source declarations with registration calls. Returns
    (unit, {name: property names}, diagnostics)."""
    diags: list[Diagnostic] = []
    arrays = _config_arrays(config)

    def declare(m, line_no):
        name, props = m
        if name in arrays:
            diags.append(
                Diagnostic("warning", line_no, f"reflective array '{name}' declared more than once; first declaration wins", str(ARRAY_ID))
            )
        else:
            arrays[name] = props
        return f"cpm_arr_register({name});"

    return lower_decls(unit, ArrayPass.KEYWORDS, _match_array_decl, declare, str(ARRAY_ID), diags, skip), arrays, diags


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

    def known_key(self, key: str, config) -> bool:
        # per-array property lists live under the name of a listed array
        return key == "arrays" or key in _config_arrays(config)

    def _transform(self, unit, config, skip):
        unit, arrays, diags = scan_arrays(unit, config, skip)
        unit, more = lower_array_accesses(unit, arrays, skip)
        return unit, diags + more
