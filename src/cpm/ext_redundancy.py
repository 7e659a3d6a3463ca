"""The ``redundancy`` pass: N-way replicated ("redundant") variables.

``redundant_t`` declarations become replica-storage definitions plus a
registration call; every later access to a declared name is lowered so that
writes are multiplexed to all replicas and reads go through the runtime's
majority vote:

    redundant_t int x;          ->  cpm_red_storage(x, int, 3);
    extern redundant_t int x;   ->  cpm_red_extern(x, int);
    x = e;                      ->  cpm_red_write(x, (e));
    ... x ...                   ->  ... cpm_red_read(x) ...
    x += e;                     ->  cpm_red_write(x, cpm_red_read(x) + (e));

Only scalars are supported; aggregates and address-taken uses are left alone
with a warning.
"""

from __future__ import annotations

from .cexpr import MAX_REPLICAS
from .pipeline import ExtensionId, ExtensionPass
from .rewrite import Target, decl_head, lower_decls
from .srcmodel import Diagnostic, SourceUnit

PASS_ID = ExtensionId("redundancy", "1.1")

DEFAULT_REPLICAS = 3


_TARGET = Target(read="cpm_red_read({name})", write="cpm_red_write({name}, {value});")


def _replica_count(config, diags):
    value = config.get("redundancy", "replicas", DEFAULT_REPLICAS)
    try:
        n = int(value)
    except (TypeError, ValueError):
        diags.append(
            Diagnostic("warning", 0, f"redundancy.replicas={value!r} is not an integer; using {DEFAULT_REPLICAS}", str(PASS_ID))
        )
        n = DEFAULT_REPLICAS
    if n > MAX_REPLICAS:
        diags.append(
            Diagnostic("warning", 0, f"redundancy.replicas={n} lowered to {MAX_REPLICAS} (the runtime's maximum)", str(PASS_ID))
        )
        n = MAX_REPLICAS
    if n < 3:
        diags.append(
            Diagnostic("warning", 0, f"redundancy.replicas={n} raised to 3 (minimum for a majority)", str(PASS_ID))
        )
        n = 3
    if n % 2 == 0:
        diags.append(
            Diagnostic("warning", 0, f"redundancy.replicas={n} raised to {n + 1} (replica count must be odd)", str(PASS_ID))
        )
        n += 1
    return n


def _match_decl(raw, toks):
    """Match ``[extern] redundant_t <type...> <name> [= init] ;``; returns
    (extern, type_text, name, init text or None). An initializer holding a
    brace (an aggregate) does not match."""
    is_extern = toks[0].lexeme == "extern"
    if toks[is_extern].lexeme != "redundant_t" or any(t.lexeme in ("{", "}") for t in toks):
        return None
    init_at = next((j for j, t in enumerate(toks) if t.lexeme == "="), None)
    decl = decl_head(toks[is_extern + 1 : init_at if init_at is not None else -1])
    if decl is None:
        return None
    init = raw[toks[init_at].end : toks[-1].column].strip() if init_at is not None else None
    return is_extern, decl[0], decl[1], init


def scan_redundant(unit: SourceUnit, config, skip=frozenset()):
    """Replace redundant declarations with their runtime storage/registration
    forms. Returns (unit, declared names, diagnostics)."""
    diags: list[Diagnostic] = []
    replicas = _replica_count(config, diags)
    names, defined = set(), set()

    def declare(m, line_no):
        is_extern, type_text, name, init = m
        if not is_extern or init is not None:  # C: any number of extern declarations, one definition
            if name in defined:
                diags.append(
                    Diagnostic("warning", line_no, f"duplicate redundant declaration of '{name}'; line passed through", str(PASS_ID))
                )
                return None
            defined.add(name)
        names.add(name)
        if is_extern:
            text = f"cpm_red_extern({name}, {type_text});"
        else:
            text = f"cpm_red_storage({name}, {type_text}, {replicas});"
        if init is not None:
            text += f" cpm_red_write({name}, ({init}));"
            diags.append(
                Diagnostic("info", line_no, f"initializer on redundant '{name}' rewritten as a multiplexed write", str(PASS_ID))
            )
        return text

    return lower_decls(unit, RedundancyPass.KEYWORDS, _match_decl, declare, str(PASS_ID), diags, skip), names, diags


def lower_accesses(unit: SourceUnit, names):
    """Rewrite reads/writes of the declared ``names`` into voted-read and
    multiplexed-write calls: the pass's lowering alone, kept for tests and
    the tracer. Returns (unit, diagnostics)."""
    return RedundancyPass().lower(unit, names)


class RedundancyPass(ExtensionPass):
    id = PASS_ID
    KNOWN_KEYS = frozenset({"replicas"})
    KEYWORDS = frozenset({"redundant_t"})

    def scan(self, unit, config, skip):
        return scan_redundant(unit, config, skip)

    @staticmethod
    def targets(names):
        return dict.fromkeys(names, _TARGET)
