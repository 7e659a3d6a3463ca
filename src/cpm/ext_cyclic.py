"""The ``cyclic`` pass: periodically executed methods.

A function prototype tagged ``cyclic_t`` declares a cyclic method; the
pseudo-member ``Cycle`` then controls it. Assigning a period in milliseconds
starts (or re-times) the method, assigning zero cancels it; the runtime
dispatches on the value, since it is generally unknown at transform time:

    cyclic_t int Tick(TOM*);   ->  int Tick(TOM*); cpm_cycle_register(Tick);
    Tick.Cycle = 100;          ->  cpm_cycle_set(Tick, (100));
    Tick.Cycle = 0;            ->  cpm_cycle_set(Tick, (0));
    ... Tick.Cycle ...         ->  ... cpm_cycle_get(Tick) ...
"""

from __future__ import annotations

from .pipeline import ExtensionId, ExtensionPass
from .rewrite import CYCLE, Target, closing, decl_head, lower_decls
from .srcmodel import Diagnostic, SourceUnit

PASS_ID = ExtensionId("cyclic", "1.0")


def _match_decl(raw, toks):
    """Match ``cyclic_t <type...> <name> ( params ) ;``, the statement's
    tokens, which hold no brace (a function definition does not match) and
    whose first ``(`` pairs with the ``)`` before the ``;``; returns
    (type_text, name, params)."""
    if toks[0].lexeme != "cyclic_t" or any(t.lexeme in ("{", "}") for t in toks):
        return None
    open_at = next((j for j, t in enumerate(toks) if t.lexeme == "("), None)
    if open_at is None or closing(toks, open_at) != len(toks) - 2:
        return None
    decl = decl_head(toks[1:open_at])
    if decl is None:
        return None
    return decl[0], decl[1], raw[toks[open_at].end : toks[-2].column]


def scan_cyclic(unit: SourceUnit, config, skip=frozenset()):
    """Replace cyclic prototypes with plain prototypes plus registration
    calls. Returns (unit, declared names, diagnostics)."""
    diags: list[Diagnostic] = []
    names = set()

    def declare(m, line_no):
        type_text, name, params = m
        proto = f"{type_text} {name}({params});"
        if name in names:
            diags.append(
                Diagnostic("warning", line_no, f"duplicate cyclic declaration of '{name}'; not registered again", str(PASS_ID))
            )
            return proto
        names.add(name)
        return f"{proto} cpm_cycle_register({name});"

    unrecognized = "cyclic_t on something other than a function prototype; line passed through"
    return lower_decls(unit, CyclicPass.KEYWORDS, _match_decl, declare, str(PASS_ID), diags, skip, unrecognized), names, diags


_MESSAGES = {
    "update": "compound assignment '{op}' to '{o}' is unsupported; left unrewritten",
    "step": "increment/decrement of '{o}' is unsupported; left unrewritten",
    "embedded": "assignment to '{o}' outside statement position; left unrewritten",
    "undeclared": "'.Cycle' on '{name}', which is not a declared cyclic method; left unrewritten",
}


def lower_cycle_member(unit: SourceUnit, names):
    """Rewrite ``fn.Cycle`` accesses of the cyclic methods in ``names``; a
    period is set by assignment only, as the runtime dispatches on the value
    assigned. The pass's lowering alone, kept for tests and the tracer.
    Returns (unit, diagnostics)."""
    return CyclicPass().lower(unit, names)


class CyclicPass(ExtensionPass):
    id = PASS_ID
    KEYWORDS = frozenset({"cyclic_t"})

    def scan(self, unit, config, skip):
        return scan_cyclic(unit, config, skip)

    @staticmethod
    def targets(names):
        cycle = Target(
            CYCLE,
            read="cpm_cycle_get({name})",
            write="cpm_cycle_set({name}, {value});",
            update=False,
            known=frozenset(names),
            messages=_MESSAGES,
        )
        return {"Cycle": cycle}
