"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of ``(seed, scale)``: the same arguments
give byte-identical inputs. ``scale`` is 1 or 2; the 2x input doubles the
workload's size dimension and keeps everything else the same. Each result
also carries what the checks in ``checks.py`` need, computed here from the
generator's own arithmetic and never from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from checks import wdt_expected  # places wdt faults where a voted read repairs them

# Stated sizes at 1x; each generator's docstring says what its 2x input doubles.
TRANSFORM_FILES = 4          # translation units per input set
TRANSFORM_CHUNKS = 6         # declaration-plus-function chunks per file at 1x
WDT_PERIOD_MS = 10
WDT_PERIODS = 2_400          # horizon at 1x, in watchdog periods
WDT_HANG_EVERY = 300         # periods per hang
WDT_HANG_HALVES = 8          # half periods without heartbeats per hang
WDT_FAULT_PERCENT = 35       # share of fault-eligible periods that get a fault
SWITCHBOARD_PERIOD_MS = 1_000
SWITCHBOARD_CYCLES = 20
SWITCHBOARD_PEERS = 1_200    # peer count at 1x
INTERP_REPLICA_SETS = 48
INTERP_PAIRS = 16            # actuator -> sensor pairs
INTERP_GUARDS = 64
INTERP_SCALARS = 24
INTERP_STATEMENTS = 3_000    # body statements at 1x


def _rng(seed: int, *parts) -> random.Random:
    # str seeds go through sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# -- transform ---------------------------------------------------------------

# Lowered forms counted by the transform check.
LOWERED_FORMS = (
    "cpm_red_storage", "cpm_red_extern", "cpm_red_write", "cpm_red_read",
    "cpm_ctx_register", "cpm_ctx_read", "cpm_ctx_write", "cpm_guard_register",
    "cpm_arr_register", "cpm_arr_get", "cpm_cycle_register", "cpm_cycle_set",
    "cpm_cycle_get",
)

# Body statement templates. ``{k}`` is the chunk index and ``{n}`` a small
# constant. Extension statements carry the lowered-form counts the transform
# check expects; plain statements (one or more lines) must survive
# byte-identically.
_EXT_STATEMENTS = (
    ("    rv{k} = {n};", {"cpm_red_write": 1}),
    ("    rv{k} += sn{k} * {n};", {"cpm_red_write": 1, "cpm_red_read": 1, "cpm_ctx_read": 1}),
    ("    ac{k} = rv{k} + rw{k};", {"cpm_red_read": 2, "cpm_ctx_write": 1}),
    ("    cx{k} = cx{k} + {n};", {"cpm_ctx_write": 1, "cpm_ctx_read": 1}),
    ("    local = peers{k}[mac].beacons + peers{k}[mac].rate;", {"cpm_arr_get": 2}),
    ("    tick{k}.Cycle = {n};", {"cpm_cycle_set": 1}),
    ("    if (tick{k}.Cycle > {n}) local += 1;", {"cpm_cycle_get": 1}),
    ("    rv{k}++;", {"cpm_red_write": 1, "cpm_red_read": 1}),
    ("    local = sn{k} + cx{k};", {"cpm_ctx_read": 2}),
    ("    ext{k} = rv{k};", {"cpm_red_write": 1, "cpm_red_read": 1}),
)
_PLAIN_STATEMENTS = (
    ("    for (;;) {{ if (local > {n}) break; local += 2; }}",),
    ('    printf("rv{k} = %d; sensor_t s; tick{k}.Cycle = 1; cpm_red_read(x)\\n", local);',),
    ("    /* recompute the metric; sensor_t sn{k} and", "       rv{k} = 0; appear here only as prose */"),
    ("    // redundant_t in a line comment: rv{k} = 1; tick{k}.Cycle = 2;",),
    ("    local = local * {n} + 1;",),
)
# Every chunk body holds each extension and each plain template twice, in a
# seeded order, so every seed asks for the same work per line kind. Stated
# density: two thirds of the body statements and 56% of all lines carry
# extension syntax.
_BODY = [("ext", i) for i in range(len(_EXT_STATEMENTS))] * 2 + [
    ("plain", i) for i in range(len(_PLAIN_STATEMENTS))
] * 2


@dataclass
class TransformFile:
    name: str
    text: str
    expected: dict                 # lowered form -> count
    plain_lines: tuple             # 0-based input line indices that must survive byte-identically
    ext_lines: int                 # lines carrying extension syntax


@dataclass
class TransformInput:
    files: list
    lines: int = 0
    why: str = (
        "srcmodel, rewrite, the ext_* passes, pipeline and cli do all the work; "
        "the runtime does none"
    )


def _chunk_shape(rng: random.Random):
    """Template order for one chunk's function body."""
    body = list(_BODY)
    rng.shuffle(body)
    return body


def _emit_chunk(k: int, shape, rng: random.Random, out: list, expected: dict, plain: list):
    """Append chunk ``k`` to ``out``, recording expectations."""

    def ext(line, counts):
        out.append(line)
        for form, c in counts.items():
            expected[form] = expected.get(form, 0) + c

    def keep(line):
        plain.append(len(out))
        out.append(line)

    keep(f"/* chunk {k}: replicated and context state.")
    keep(f" * keywords in prose only: redundant_t sensor_t cyclic_t tick{k}.Cycle")
    keep(" */")
    ext(f"redundant_t int rv{k};", {"cpm_red_storage": 1})
    ext(f"redundant_t int rw{k} = {rng.randint(1, 99)};", {"cpm_red_storage": 1, "cpm_red_write": 1})
    ext(f"extern redundant_t int ext{k};", {"cpm_red_extern": 1})
    ext(f"sensor_t int sn{k};", {"cpm_ctx_register": 1})
    ext(f"actuator_t int ac{k};", {"cpm_ctx_register": 1})
    ext(f"context_t int cx{k};", {"cpm_ctx_register": 1})
    ext(f"reflective_array_t peers{k} {{ beacons:int, rate:int }};", {"cpm_arr_register": 1})
    ext(f"cyclic_t int tick{k}(TOM *tom);", {"cpm_cycle_register": 1})
    ext(f"guard_t (sn{k} > {rng.randint(1, 9)} && cx{k} != 0) alarm{k};", {"cpm_guard_register": 1})
    keep(f'static const char *note{k} = "redundant_t x; guard_t (s) f; cpm_ctx_read(y)";')
    keep("")
    keep(f"int work{k}(int n) {{")
    keep("    int local = 0;")
    keep(f'    char *mac = "peer-{k}";')
    for kind, idx in shape:
        if kind == "ext":
            text, counts = _EXT_STATEMENTS[idx]
            ext(text.format(k=k, n=rng.randint(1, 9)), counts)
        else:
            n = rng.randint(1, 9)
            for text in _PLAIN_STATEMENTS[idx]:
                keep(text.format(k=k, n=n))
    keep("    return local;")
    keep("}")
    keep("")


def transform_input(seed: int, scale: int) -> TransformInput:
    """A set of translation units; at 2x each file has twice the chunks. The
    second half of a 2x file repeats the template choices of the first half
    under fresh names, so its length is exactly twice the 1x length."""
    files = []
    for f in range(TRANSFORM_FILES):
        shapes = [_chunk_shape(_rng(seed, "transform", f, c)) for c in range(TRANSFORM_CHUNKS)]
        out: list = []
        expected = {form: 0 for form in LOWERED_FORMS}
        plain: list = []
        for k in range(TRANSFORM_CHUNKS * scale):
            _emit_chunk(k, shapes[k % TRANSFORM_CHUNKS], _rng(seed, "transform", f, "n", k), out, expected, plain)
        files.append(
            TransformFile(
                name=f"unit{f}.cpm",
                text="\n".join(out) + "\n",
                expected=expected,
                plain_lines=tuple(plain),
                ext_lines=len(out) - len(plain),
            )
        )
    return TransformInput(files=files, lines=sum(f.text.count("\n") for f in files))


# -- wdt -----------------------------------------------------------------------

@dataclass
class WdtInput:
    period: int
    horizon: int
    heartbeats: tuple
    faults: tuple
    restarts: tuple
    why: str = (
        "runtime.redundant, runtime.tom, the guard in runtime.context and "
        "scenarios.watchdog do the work; srcmodel does none"
    )

    @property
    def sim_ms(self) -> int:
        return self.horizon


def wdt_input(seed: int, scale: int) -> WdtInput:
    """Jittered heartbeats, rare hangs, periodic restart writes that are
    mostly ignored, and single-replica faults often enough that the replica
    count adapts from 3 to 5. 2x doubles the horizon. The number of hangs and
    faults is fixed per horizon and only their places are seeded, so every
    seed asks for the same amount of work."""
    rng = _rng(seed, "wdt")
    period = WDT_PERIOD_MS
    periods = WDT_PERIODS * scale
    horizon = periods * period
    # two heartbeats per period, each jittered inside its half period, so any
    # window of one period holds a heartbeat unless the task hangs; a hang
    # silences WDT_HANG_HALVES half periods, one hang per WDT_HANG_EVERY periods
    half = period // 2
    slot = 2 * WDT_HANG_EVERY
    hangs = {s * slot + rng.randrange(4, slot - WDT_HANG_HALVES) for s in range(2 * periods // slot)}
    silent = {h + d for h in hangs for d in range(WDT_HANG_HALVES)}
    heartbeats = [h * half + rng.randint(1, half) for h in range(2 * periods) if h not in silent]
    restart_every = 7 * period
    restarts = tuple(
        (t, rng.randint(1, 9)) for t in range(restart_every + 3, horizon - period, restart_every)
    )
    # a fault lands strictly inside a period whose opening boundary published
    # a count and whose closing boundary reads the replicas, so one replica is
    # corrupted at most before the next voted read repairs it
    trace, _ = wdt_expected(period, horizon, heartbeats, restarts)
    counted = {t for t, v in trace if v >= 0}
    eligible = sorted(t for t in counted if t + period in counted)
    faults = [
        (t + rng.randint(1, period - 1), rng.randrange(3), rng.choice((-77, 99, 12345)))
        for t in sorted(rng.sample(eligible, len(eligible) * WDT_FAULT_PERCENT // 100))
    ]
    return WdtInput(period, horizon, tuple(heartbeats), tuple(faults), restarts)


# -- switchboard ----------------------------------------------------------------

@dataclass
class SwitchboardInput:
    period: int
    horizon: int
    rows: tuple  # (time, mac, rate), times non-decreasing
    why: str = (
        "ReflectiveArray (anext, rollover, get) and a TOM heap holding one "
        "one-shot per beacon do the work; runtime.redundant does none"
    )

    @property
    def sim_ms(self) -> int:
        return self.horizon


def switchboard_input(seed: int, scale: int) -> SwitchboardInput:
    """Peers join over the first half of the horizon, beacon with about 80%
    probability per period, and some go quiet for good. 2x doubles the peer
    count; the second half of a 2x trace is the first half's schedule under
    fresh MACs."""
    period = SWITCHBOARD_PERIOD_MS
    cycles = SWITCHBOARD_CYCLES
    horizon = cycles * period
    rows = []
    for peer in range(SWITCHBOARD_PEERS * scale):
        rng = _rng(seed, "switchboard", peer % SWITCHBOARD_PEERS)
        mac = "02:%02x:%02x:%02x:%02x:%02x" % tuple((peer >> s) & 0xFF for s in (32, 24, 16, 8, 0))
        join = rng.randrange(cycles // 2)
        quits = rng.randrange(join + 1, cycles + 1) if rng.random() < 0.2 else cycles
        rate = round(rng.uniform(1.0, 100.0), 1)
        for cycle in range(join, quits):
            if cycle == join or rng.random() < 0.8:
                rows.append((cycle * period + rng.randint(1, period), mac, rate))
    rows.sort(key=lambda r: r[0])  # stable: ties keep peer order
    return SwitchboardInput(period, horizon, tuple(rows))


# -- interp ---------------------------------------------------------------------

@dataclass
class InterpInput:
    header: tuple            # declaration lines
    body: tuple              # statement lines; the program runs them ``scale`` times
    scale: int
    expected: dict = field(default_factory=dict)
    why: str = (
        "the only workload that runs interp.eval_expr and guard evaluation; "
        "write-heavy use of runtime.redundant across many replica sets"
    )

    @property
    def statements(self) -> int:
        """Statements executed by one run of the program."""
        return len(self.header) + self.scale * len(self.body)

    @property
    def source(self) -> str:
        """The 1x program as ``.cpm`` text; lowering it lowers every size."""
        return "\n".join(self.header + self.body) + "\n"


def _guard_holds(guard, sensors) -> bool:
    kind, a, b, c = guard
    if kind == "gt":
        return sensors[a] > c
    if kind == "lt":
        return sensors[a] < c
    if kind == "and":
        return sensors[a] > c and sensors[b] < -c
    return sensors[a] + sensors[b] > c  # "sum"


def _guard_text(guard) -> str:
    kind, a, b, c = guard
    if kind == "gt":
        return f"s{a} > {c}"
    if kind == "lt":
        return f"s{a} < {c}"
    if kind == "and":
        return f"s{a} > {c} && s{b} < -{c}"
    return f"s{a} + s{b} > {c}"


def _guard_refs(guard):
    kind, a, b, _ = guard
    return {a} if kind in ("gt", "lt") else {a, b}


def interp_input(seed: int, scale: int) -> InterpInput:
    """Straight-line program: replica sets updated with ``x += k``, actuator
    writes whose callbacks update a paired sensor, guards over those sensors,
    and scalar variables. At 2x the body runs twice; the declarations run
    once. The generator executes the program itself for the expected final
    state."""
    rng = _rng(seed, "interp")
    R, P, G, S = INTERP_REPLICA_SETS, INTERP_PAIRS, INTERP_GUARDS, INTERP_SCALARS
    header = [f"redundant_t int x{i};" for i in range(R)]
    header += [f"sensor_t int s{j};" for j in range(P)]
    header += [f"actuator_t int a{j};" for j in range(P)]
    guards = []
    for g in range(G):
        kind = rng.choice(("gt", "lt", "and", "sum"))
        a, b = rng.randrange(P), rng.randrange(P)
        guards.append((kind, a, b, rng.randint(0, 10) if kind == "and" else rng.randint(-15, 15)))
    header += [f"guard_t ({_guard_text(gd)}) g{g};" for g, gd in enumerate(guards)]
    header += [f"int v{m} = {m % 7};" for m in range(S)]

    # statements as (text, effect) pairs, effect applied to the model state;
    # every variable is either reset to a constant or derived from one other
    # variable plus bounded noise, so values stay small and guards keep toggling
    body = []
    for _ in range(INTERP_STATEMENTS):
        r = rng.random()
        i, j, m = rng.randrange(R), rng.randrange(P), rng.randrange(S)
        k = rng.randint(1, 9)
        sign = rng.choice("+-")
        if r < 0.35:
            body.append((f"x{i} {sign}= {k};", ("x+", i, k if sign == "+" else -k)))
        elif r < 0.55:
            body.append((f"a{j} = x{i} + v{m};", ("act", j, i, m)))
        elif r < 0.65:
            body.append((f"v{m} {sign}= {k};", ("v+", m, k if sign == "+" else -k)))
        elif r < 0.80:
            body.append((f"v{m} = s{j} - x{i};", ("v=sx", m, j, i)))
        elif r < 0.90:
            body.append((f"x{i} = {k};", ("x=", i, k)))
        else:
            body.append((f"v{m} = {k};", ("v=", m, k)))

    x, s, v = [0] * R, [0] * P, [m % 7 for m in range(S)]
    last = [_guard_holds(gd, s) for gd in guards]
    fires = [0] * G
    by_sensor = {j: [g for g, gd in enumerate(guards) if j in _guard_refs(gd)] for j in range(P)}
    for _ in range(scale):
        for _, eff in body:
            op = eff[0]
            if op == "x+":
                x[eff[1]] += eff[2]
            elif op == "x=":
                x[eff[1]] = eff[2]
            elif op == "v+":
                v[eff[1]] += eff[2]
            elif op == "v=":
                v[eff[1]] = eff[2]
            elif op == "v=sx":
                v[eff[1]] = s[eff[2]] - x[eff[3]]
            else:  # "act": the actuator callback updates the paired sensor
                j = eff[1]
                s[j] = x[eff[2]] + v[eff[3]]
                for g in by_sensor[j]:
                    now = _guard_holds(guards[g], s)
                    if now and not last[g]:
                        fires[g] += 1
                    last[g] = now
    return InterpInput(
        header=tuple(header),
        body=tuple(text for text, _ in body),
        scale=scale,
        expected={
            "replicas": {f"x{i}": x[i] for i in range(R)},
            "env": {f"v{m}": v[m] for m in range(S)},
            "sensors": {f"s{j}": s[j] for j in range(P)},
            "fires": {f"g{g}": fires[g] for g in range(G)},
        },
    )
