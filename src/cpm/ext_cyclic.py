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

from dataclasses import dataclass

from .pipeline import ExtensionId, ExtensionPass
from .rewrite import COMPOUND_OPS, decl_head, decl_statements
from .srcmodel import (
    Diagnostic,
    SourceUnit,
    TokenKind,
    apply_spans,
    map_lines,
    significant,
    split_segments,
)

PASS_ID = ExtensionId("cyclic", "1.0")


@dataclass(frozen=True)
class CyclicMethodSpec:
    fn_name: str
    return_type: str
    param_types: str
    decl_line: int


def _match_decl(raw, toks):
    """Match ``cyclic_t <type...> <name> ( params ) ;``, the statement's
    tokens, which hold no brace (a function definition does not match)."""
    if toks[0].lexeme != "cyclic_t" or toks[-2].lexeme != ")" or any(t.lexeme in ("{", "}") for t in toks):
        return None
    open_at = next((j for j, t in enumerate(toks) if t.lexeme == "("), None)
    decl = decl_head(toks[1:open_at]) if open_at is not None else None
    if decl is None:
        return None
    return {
        "name": decl[1],
        "type_text": decl[0],
        "params": raw[toks[open_at].end : toks[-2].column],
        "start": toks[0].column,
        "end": toks[-1].end,
    }


def scan_cyclic(unit: SourceUnit, config, skip=frozenset()):
    """Replace cyclic prototypes with plain prototypes plus registration
    calls. Returns (unit, specs, diagnostics)."""
    diags: list[Diagnostic] = []
    specs: list[CyclicMethodSpec] = []
    names = set()

    def lower_decls(line):
        spans = []
        for _, m in decl_statements(line.tokens, CyclicPass.KEYWORDS, lambda toks: _match_decl(line.raw, toks)):
            if m is None:
                diags.append(
                    Diagnostic("warning", line.line_no, "cyclic_t on something other than a function prototype; line passed through", str(PASS_ID))
                )
                continue
            proto = f"{m['type_text']} {m['name']}({m['params']});"
            if m["name"] in names:
                diags.append(
                    Diagnostic("warning", line.line_no, f"duplicate cyclic declaration of '{m['name']}'; not registered again", str(PASS_ID))
                )
                spans.append((m["start"], m["end"], proto))
                continue
            names.add(m["name"])
            specs.append(
                CyclicMethodSpec(
                    fn_name=m["name"],
                    return_type=m["type_text"],
                    param_types=m["params"],
                    decl_line=line.line_no,
                )
            )
            spans.append((m["start"], m["end"], f"{proto} cpm_cycle_register({m['name']});"))
        return apply_spans(line.raw, spans)

    return map_lines(unit, lower_decls, skip), specs, diags


def lower_cycle_member(unit: SourceUnit, specs, skip=frozenset()):
    """Rewrite ``fn.Cycle`` accesses of declared cyclic methods.
    Returns (unit, diagnostics)."""
    diags: list[Diagnostic] = []
    names = {s.fn_name for s in specs}
    return map_lines(unit, lambda line: _lower_line(line, names, diags), skip), diags


def _lower_line(line, names, diags):
    tokens = line.tokens
    spans = []
    for seg in split_segments(tokens, significant(tokens)):
        # statement form: fn . Cycle = expr ;  (a compound operator is unsupported)
        if len(seg) >= 5:
            t0, t1, t2, t3 = (tokens[i] for i in seg[:4])
            last = tokens[seg[-1]]
            if (
                t0.kind is TokenKind.IDENTIFIER
                and t1.lexeme == "."
                and t2.lexeme == "Cycle"
                and (t3.lexeme == "=" or t3.lexeme in COMPOUND_OPS)
                and last.lexeme == ";"
                and t0.lexeme in names
            ):
                if t3.lexeme != "=":
                    diags.append(
                        Diagnostic("warning", line.line_no, f"compound assignment '{t3.lexeme}' to '{t0.lexeme}.Cycle' is unsupported; left unrewritten", str(PASS_ID))
                    )
                    spans.extend(_member_spans(line, seg[4:-1], names, diags))
                    continue
                lo = t3.end
                inner = [
                    (start - lo, end - lo, text)
                    for start, end, text in _member_spans(line, seg[4:-1], names, diags)
                ]
                rhs = apply_spans(line.raw[lo : last.column], inner).strip()
                spans.append((t0.column, last.end, f"cpm_cycle_set({t0.lexeme}, ({rhs}));"))
                continue
        spans.extend(_member_spans(line, seg, names, diags))
    return apply_spans(line.raw, spans)


def _member_spans(line, seg, names, diags):
    """Spans lowering each ``fn.Cycle`` read among the token indices ``seg``;
    other occurrences are warned about and left as they are."""
    tokens = line.tokens
    spans = []
    for p in range(len(seg) - 2):
        a, b, c = (tokens[seg[p + k]] for k in range(3))
        if b.lexeme != "." or c.lexeme != "Cycle" or a.kind is not TokenKind.IDENTIFIER:
            continue
        if any(start <= a.column < end for start, end, _ in spans):
            continue
        if a.lexeme not in names:
            diags.append(
                Diagnostic("warning", line.line_no, f"'.Cycle' on '{a.lexeme}', which is not a declared cyclic method; left unrewritten", str(PASS_ID))
            )
            continue
        after = tokens[seg[p + 3]] if p + 3 < len(seg) else None
        if after is not None and (after.lexeme == "=" or after.lexeme in COMPOUND_OPS):
            diags.append(
                Diagnostic("warning", line.line_no, f"assignment to '{a.lexeme}.Cycle' outside statement position; left unrewritten", str(PASS_ID))
            )
            continue
        spans.append((a.column, c.end, f"cpm_cycle_get({a.lexeme})"))
    return spans


class CyclicPass(ExtensionPass):
    id = PASS_ID
    KEYWORDS = frozenset({"cyclic_t"})

    def _transform(self, unit, config, skip):
        unit, specs, diags = scan_cyclic(unit, config, skip)
        unit, more = lower_cycle_member(unit, specs, skip)
        return unit, diags + more
