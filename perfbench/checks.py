"""Correctness checks for the benchmark's outputs.

Nothing here imports ``cpm``: the expectations come from the generators'
own arithmetic and from the linear-time oracles below, which restate the
watchdog and switchboard semantics of ``tests/oracles.py`` with bisection
and per-cycle grouping in place of whole-schedule scans. Each ``check_*``
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import re
from bisect import bisect_right

WD_STARTED, WD_ACTIVE, WD_FIRED, WD_END = -1, -2, -3, -4

EXTENSION_KEYWORDS = (
    "redundant_t", "sensor_t", "actuator_t", "context_t", "guard_t",
    "reflective_array_t", "cyclic_t",
)

# comments and string/char literals, matched over a whole file so block
# comments may span lines; unterminated literals run to end of line
_NON_CODE = re.compile(
    r"/\*.*?(?:\*/|\Z)|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"?|'(?:\\.|[^'\\\n])*'?",
    re.S,
)
_KEYWORD_RE = re.compile(r"\b(?:%s)\b|\.\s*Cycle\b" % "|".join(EXTENSION_KEYWORDS))
_PREAMBLE_RE = re.compile(
    r'^const char \*extensions_pipeline = "cpm://redundancy/[0-9.]+;cpm://refractive/[0-9.]+;'
    r'cpm://array/[0-9.]+;cpm://cyclic/[0-9.]+"; /\* cpm preamble \*/$'
)


def code_only(text: str) -> str:
    """Blank out comments and literals, keeping newlines."""
    return _NON_CODE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def check_transform(src, out_text: str, report_text: str, status: int) -> list:
    """``src`` is a ``gen.TransformFile``; the rest is what the CLI produced."""
    fails = []
    if status != 0:
        fails.append(f"{src.name}: exit status {status}")
    warnings = [ln for ln in report_text.splitlines() if ln.startswith("diagnostic=warning:")]
    if warnings:
        fails.append(f"{src.name}: {len(warnings)} warnings, first {warnings[0]!r}")
    if sum(ln.startswith("applied=") for ln in report_text.splitlines()) != 4:
        fails.append(f"{src.name}: report does not list four applied passes")
    in_lines = src.text.split("\n")
    out_lines = out_text.split("\n")
    if len(out_lines) != len(in_lines) + 1:
        fails.append(f"{src.name}: {len(out_lines) - 1} output lines for {len(in_lines)} input lines")
        return fails
    code = code_only(out_text)
    if not _PREAMBLE_RE.match(out_lines[0]) or len(re.findall(r"\bextensions_pipeline\b", code)) != 1:
        fails.append(f"{src.name}: not exactly one preamble, on the first line")
    leak = _KEYWORD_RE.search(code)
    if leak:
        line = code.count("\n", 0, leak.start()) + 1
        fails.append(f"{src.name}: extension syntax {leak.group(0)!r} survives on output line {line}")
    for form, want in src.expected.items():
        got = len(re.findall(r"\b%s\s*\(" % form, code))
        if got != want:
            fails.append(f"{src.name}: {got} x {form}, expected {want}")
    for i in src.plain_lines:
        if out_lines[i + 1] != in_lines[i]:
            fails.append(f"{src.name}: plain line {i + 1} changed to {out_lines[i + 1]!r}")
            break
    return fails


# -- watchdog ------------------------------------------------------------------

def wdt_expected(period, horizon, heartbeats, restarts):
    """State trace and ignored restart writes of the fault-free watchdog,
    walking period boundaries and writes in time order (writes first on
    ties). Faults are absent: voting must make them invisible."""
    beats = sorted(heartbeats)
    writes = sorted(restarts)
    trace = [(0, WD_STARTED), (0, WD_ACTIVE)]
    ignored = []
    value = WD_ACTIVE
    wi = 0
    boundary = period
    while True:
        write_t = writes[wi][0] if wi < len(writes) else None
        boundary_t = boundary if value != WD_FIRED else None
        if write_t is None and boundary_t is None:
            break
        t = min(x for x in (write_t, boundary_t) if x is not None)
        if t >= horizon:
            break
        if write_t == t:
            if value == WD_FIRED:
                value = WD_ACTIVE
                trace.append((t, WD_ACTIVE))
                boundary = t + period
            else:
                ignored.append((t, writes[wi][1]))
            wi += 1
            continue
        k = bisect_right(beats, t)
        if k and beats[k - 1] > t - period:
            value = value + 1 if value >= 0 else 1
            trace.append((t, value))
            boundary = t + period
        else:
            value = WD_FIRED
            trace.append((t, WD_FIRED))
    trace.append((horizon, WD_END))
    return trace, ignored


def check_wdt(expected, trace, ignored) -> list:
    """``expected`` is ``wdt_expected(...)``; ``trace``/``ignored`` come from
    ``WdtResult``."""
    fails = []
    want_trace, want_ignored = expected
    if list(trace) != want_trace:
        at = next((i for i, (a, b) in enumerate(zip(trace, want_trace)) if a != b), min(len(trace), len(want_trace)))
        fails.append(f"wdt trace differs at record {at} of {len(want_trace)}")
    if list(ignored) != want_ignored:
        fails.append(f"wdt ignored writes differ ({len(ignored)} vs {len(want_ignored)})")
    return fails


# -- switchboard ---------------------------------------------------------------

def switchboard_expected(rows, period, horizon):
    """Per-cycle reports ``(cycle, mac, metric or "stale")``: beacons are
    grouped by the cycle they fall in (a beacon on a boundary counts for the
    period it ends), peers report from the cycle of their first beacon in
    order of first appearance."""
    cycles = horizon // period
    per_cycle = [dict() for _ in range(cycles + 2)]  # cycle -> {mac: last rate}
    macs = []
    first_seen = {}
    for t, mac, rate in rows:
        cycle = 1 if t == 0 else (t - 1) // period + 1
        if cycle > cycles:
            continue
        per_cycle[cycle][mac] = rate
        if mac not in first_seen:
            first_seen[mac] = cycle
            macs.append(mac)
    silent = dict.fromkeys(macs, 0)
    reports = []
    for cycle in range(1, cycles + 1):
        seen = per_cycle[cycle]
        for mac in macs:
            if first_seen[mac] > cycle:
                continue
            if mac in seen:
                silent[mac] = 0
                reports.append((cycle, mac, seen[mac] / (1 + silent[mac])))
            else:
                silent[mac] += 1
                reports.append((cycle, mac, "stale"))
    return reports


def check_switchboard(expected, records) -> list:
    got = [(r.cycle, r.mac, "stale" if r.stale else r.metric) for r in records]
    if got == expected:
        return []
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
    return [f"switchboard record {at} differs ({len(got)} records, expected {len(expected)})"]


# -- interpreter ---------------------------------------------------------------

def check_interp(expected, replicas, env, sensors, fires) -> list:
    """``replicas`` maps a replica-set name to its replica tuple, ``fires``
    counts guard-body calls per guard name."""
    fails = []
    for name, want in expected["replicas"].items():
        got = replicas.get(name)
        if got is None or any(v != want for v in got):
            fails.append(f"replica set {name} holds {got}, expected {want}")
    for kind, actual in (("env", env), ("sensors", sensors), ("fires", fires)):
        for name, want in expected[kind].items():
            if actual.get(name, 0 if kind == "fires" else None) != want:
                fails.append(f"{kind} {name} = {actual.get(name)}, expected {want}")
    return fails
