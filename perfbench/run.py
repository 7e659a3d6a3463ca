"""cpm benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file). The program under test is imported from ``src/`` next to this
directory; the benchmark exits with status 2 if it is missing.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
Every output is checked against expectations computed without ``cpm``
(``checks.py``); any failed check makes the run exit with status 1.
See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5   # set-ups per run; setup_s is the median plus the import time
MIN_PAIRS = 3       # 1x/2x repetition pairs per run, even when --seconds is short
TRANSFORM_EXTS = ("redundancy", "refractive", "array", "cyclic")

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402


def _import_cpm():
    """Import the program from ``src/``, refusing any other installed copy."""
    src = ROOT / "src"
    if not (src / "cpm" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {src / 'cpm'} is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import cpm
    import cpm.cli
    import cpm.interp
    import cpm.scenarios

    if Path(cpm.__file__).resolve().parent != (src / "cpm").resolve():
        print(f"run.py: imported cpm from {cpm.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return cpm


# -- workloads ----------------------------------------------------------------
#
# Each workload has prepare(seed) -> state (the timed set-up), execute(state,
# scale) -> output (the timed repetition), check(state, scale, output) -> one
# list of failure messages per output checked, and size(state, scale) -> work
# items at that scale. dimension(state, scale) is the size along which 2x
# doubles the input, when that is not the work-item count.


class Workload:
    reads_source = False  # whether the work items are source lines (retokenize_ratio)

    def dimension(self, state, scale):
        return self.size(state, scale)


class Transform(Workload):
    unit = "lines_per_s"
    reads_source = True

    def __init__(self, cpm, work):
        self.cpm, self.work = cpm, work

    def prepare(self, seed):
        state = {}
        for scale in (1, 2):
            inp = gen.transform_input(seed, scale)
            d = self.work / f"{scale}x"
            d.mkdir(parents=True, exist_ok=True)
            argvs = []
            for f in inp.files:
                path = d / f.name
                path.write_text(f.text, encoding="latin-1")
                argv = [str(path), "-o", str(path.with_suffix(".c")),
                        "--emit-report", str(path.with_suffix(".report"))]
                for ext in TRANSFORM_EXTS:
                    argv += ["--ext", ext]
                argvs.append(argv + ["--strict-tags"])
            state[scale] = (inp, argvs)
        return state

    def execute(self, state, scale):
        _, argvs = state[scale]
        with contextlib.redirect_stderr(io.StringIO()):  # info diagnostics
            return [self.cpm.cli.main(argv) for argv in argvs]

    def check(self, state, scale, statuses):
        inp, argvs = state[scale]
        return [
            checks.check_transform(
                f,
                Path(argv[2]).read_text(encoding="latin-1"),
                Path(argv[4]).read_text(encoding="utf-8"),
                status,
            )
            for f, argv, status in zip(inp.files, argvs, statuses)
        ]

    def size(self, state, scale):
        return state[scale][0].lines


class Wdt(Workload):
    unit = "sim_ms_per_s"

    def __init__(self, cpm, work):
        self.cpm = cpm
        self.expected = {}  # scale -> oracle output, computed on first check

    def prepare(self, seed):
        state = {}
        for scale in (1, 2):
            inp = gen.wdt_input(seed, scale)
            params = self.cpm.scenarios.WdtScenarioParams(
                wdt_period=inp.period, horizon=inp.horizon, heartbeat_schedule=inp.heartbeats,
                replicas=3, fault_schedule=inp.faults, restart_schedule=inp.restarts,
            )
            state[scale] = (inp, params)
        return state

    def execute(self, state, scale):
        return self.cpm.scenarios.run_wdt(state[scale][1])

    def check(self, state, scale, result):
        inp = state[scale][0]
        if scale not in self.expected:
            self.expected[scale] = checks.wdt_expected(inp.period, inp.horizon, inp.heartbeats, inp.restarts)
        return [checks.check_wdt(self.expected[scale], result.trace, result.ignored_writes)]

    def size(self, state, scale):
        return state[scale][0].sim_ms


class Switchboard(Workload):
    unit = "sim_ms_per_s"

    def __init__(self, cpm, work):
        self.cpm = cpm
        self.expected = {}  # scale -> oracle output, computed on first check

    def prepare(self, seed):
        state = {}
        for scale in (1, 2):
            inp = gen.switchboard_input(seed, scale)
            state[scale] = (inp, self.cpm.scenarios.BeaconTrace.from_rows(inp.rows))
        return state

    def execute(self, state, scale):
        inp, trace = state[scale]
        return self.cpm.scenarios.run_switchboard(trace, inp.period, inp.horizon)

    def check(self, state, scale, result):
        inp = state[scale][0]
        if scale not in self.expected:
            self.expected[scale] = checks.switchboard_expected(inp.rows, inp.period, inp.horizon)
        return [checks.check_switchboard(self.expected[scale], result.records)]

    def size(self, state, scale):
        return state[scale][0].sim_ms

    def dimension(self, state, scale):
        return len({mac for _, mac, _ in state[scale][0].rows})


class Interp(Workload):
    unit = "stmts_per_s"
    reads_source = True

    def __init__(self, cpm, work):
        self.cpm = cpm

    def prepare(self, seed):
        pipeline = self.cpm.pipeline
        srcmodel = self.cpm.srcmodel
        inputs = {scale: gen.interp_input(seed, scale) for scale in (1, 2)}
        lowered, _ = pipeline.run(pipeline.compose(["redundancy", "refractive"]),
                                  srcmodel.load_unit(inputs[1].source))
        head = 1 + len(inputs[1].header)  # the preamble, then the declarations
        state = {}
        for scale, inp in inputs.items():
            state[scale] = (
                inp,
                srcmodel.SourceUnit(lowered.lines[:head]),
                srcmodel.SourceUnit(lowered.lines[head:] * scale),
            )
        return state

    def execute(self, state, scale):
        _, head, body = state[scale]
        rt = self.cpm.runtime.Runtime()
        it = self.cpm.interp.AbiInterpreter(rt)
        fires = {}

        def guard_body(name):
            def body():
                fires[name] = fires.get(name, 0) + 1
            return body

        for g in range(gen.INTERP_GUARDS):
            it.bind_function(f"g{g}", guard_body(f"g{g}"))
        it.run_unit(head)
        for j in range(gen.INTERP_PAIRS):
            # the watchdog pattern: writing an actuator updates its paired sensor
            rt.registry.bind_actuator(f"a{j}", lambda value, s=f"s{j}": rt.sensor_update(s, value))
        it.run_unit(body)
        return rt, it, fires

    def check(self, state, scale, output):
        rt, it, fires = output
        replicas = {name: rs.replicas for name, rs in rt.replicas.items()}
        return [checks.check_interp(state[scale][0].expected, replicas, it.env, rt.registry.sensors, fires)]

    def size(self, state, scale):
        return state[scale][0].statements


WORKLOADS = {"transform": Transform, "wdt": Wdt, "switchboard": Switchboard, "interp": Interp}


# -- metrics ------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "scale_2x": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_metrics():
    """Per-layer metric name -> unit, in report order."""
    from spans import LAYERS

    names = {}
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.self_s.2x"] = "s"
    for name in (
        "srcmodel.lines_tokenized", "srcmodel.tokenize_line.calls",
        "rewrite.rewrite_line.calls", "interp.eval_expr.calls",
        "redundant.read.calls", "redundant.write.calls",
        "tom.fires", "tom.heap_pops", "context.sensor_update.calls",
        "context.guard_evals", "context.anext.calls", "events.logged",
    ):
        names[name] = "count"
    for name in (
        "srcmodel.retokenize_ratio", "rewrite.useful_ratio", "redundant.repair_ratio",
        "tom.useful_pop_ratio", "context.guard_fire_ratio", "trace_overhead",
    ):
        names[name] = "ratio"
    return names


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(selfs1, selfs2, counts, input_lines, overhead):
    """Per-layer metric values from the traced repetitions."""
    values = {}
    for layer in selfs1[0]:
        values[f"{layer}.self_s"] = statistics.median(s[layer] for s in selfs1)
        values[f"{layer}.self_s.2x"] = statistics.median(s[layer] for s in selfs2)
    for name, unit in per_layer_metrics().items():
        if unit == "count":
            values[name] = counts[name]
    values["srcmodel.retokenize_ratio"] = _ratio(counts["srcmodel.lines_tokenized"], input_lines)
    values["rewrite.useful_ratio"] = _ratio(counts["rewrite.changed_lines"], counts["rewrite.rewrite_line.calls"])
    values["redundant.repair_ratio"] = _ratio(counts["redundant.repairs"], counts["redundant.read.calls"])
    values["tom.useful_pop_ratio"] = _ratio(counts["tom.fires"], counts["tom.heap_pops"])
    values["context.guard_fire_ratio"] = _ratio(counts["context.guard_fires"], counts["context.guard_evals"])
    values["trace_overhead"] = overhead
    return values


# -- measurement --------------------------------------------------------------
#
# On the 2-core host the bounds were set on, a process slows down by 20% or
# more for seconds at a time while other work shares the machine. Each timed
# section is therefore bracketed by two runs of a fixed reference
# computation, and its wall time is rescaled by REFERENCE_S / (mean reference
# time around it): a slow phase slows the reference as much as the program
# and cancels out. Timings reported in seconds are these host-normalised
# seconds; raw wall throughput goes to stderr.

REFERENCE_S = 0.02  # about the reference's time on the host above when it is quiet
_REFERENCE_LINES = [
    line[i:] + line[:i]
    for line in ('int work12(int n) { local = peers12[mac].beacons + 0x1f; '
                 '/* note */ printf("a=%d", local); }',)
    for i in range(0, len(line), 3)
] * 8


class _Cell:
    __slots__ = ("key", "name", "pair")

    def __init__(self, key, name, pair):
        self.key, self.name, self.pair = key, name, pair


def _reference():
    """Fixed pure-Python work shaped like the program's: scan characters,
    slice lexemes and build tuples, then allocate, index and sort a few
    thousand small objects (the second half tracks the memory-bound
    slow-downs that a cache-resident loop misses)."""
    seen = {}
    out = []
    for _ in range(2):
        for line in _REFERENCE_LINES:
            i, n = 0, len(line)
            toks = []
            while i < n:
                c = line[i]
                j = i + 1
                if c.isalnum() or c == "_":
                    while j < n and (line[j].isalnum() or line[j] == "_"):
                        j += 1
                lexeme = line[i:j]
                toks.append((c.isalpha(), lexeme, i))
                seen[lexeme] = seen.get(lexeme, 0) + 1
                i = j
            out.append(tuple(toks))
    cells = [_Cell(i, str(i), (i, i)) for i in range(12_000)]
    index = {c.name: c for c in cells}
    total = sum(index[str(k)].key for k in range(0, 12_000, 3))
    cells.sort(key=lambda c: -c.key)
    return len(out) + total


def _reference_time():
    t0 = time.perf_counter()
    _reference()
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run ``fn(*args)`` between two reference runs; returns (host-normalised
    seconds, wall seconds, result)."""
    gc.collect()
    before = _reference_time()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    after = _reference_time()
    return wall * REFERENCE_S / ((before + after) / 2), wall, out


def measure(workload, state, seconds, tracer=None):
    """Interleave 1x and 2x repetitions for ``seconds`` (at least MIN_PAIRS
    pairs). With a tracer, each untraced repetition is followed by a traced
    one of the same size. Returns per-scale lists of (normalised s, wall s),
    per-scale lists of traced (wall s, self times, counts), and one list of
    failure messages per output checked."""
    times = {1: [], 2: []}
    traced = {1: [], 2: []}
    checked = []
    deadline = time.perf_counter() + seconds
    while len(times[1]) < MIN_PAIRS or time.perf_counter() < deadline:
        for scale in (1, 2):
            norm, wall, out = timed(workload.execute, state, scale)
            times[scale].append((norm, wall))
            checked += workload.check(state, scale, out)
            if tracer is not None:
                gc.collect()
                out, wall, selfs, counts = tracer.traced(workload.execute, state, scale)
                traced[scale].append((wall, selfs, counts))
                checked += workload.check(state, scale, out)
    return times, traced, checked


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    print(f"{'workload':<12} {'metric':<32} {'value':>14} unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name:<12} no result (exit status {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name:<12} {'fail_ratio':<32} {result['failed'] / result['attempted']:>14.4f} ratio")
        for metric, m in result["metrics"].items():
            print(f"{name:<12} {metric:<32} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_s, _, cpm = timed(_import_cpm)

    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](cpm, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            norm, _, state = timed(workload.prepare, args.seed)
            setups.append(norm)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        times, traced, checked = measure(workload, state, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for msgs in checked if msgs)
    for msg in [m for msgs in checked for m in msgs][:10]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    size1 = workload.size(state, 1)
    growth = workload.dimension(state, 2) / workload.dimension(state, 1)
    norm1 = statistics.median(n for n, _ in times[1])
    wall1 = statistics.median(w for _, w in times[1])
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "throughput": size1 / norm1,
            # 1x and 2x of one pair ran back to back, so their wall-time ratio
            # sees one host phase and needs no normalising
            "scale_2x": statistics.median(
                w2 / (growth * w1) for (_, w1), (_, w2) in zip(times[1], times[2])
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        input_lines = size1 if workload.reads_source else 0
        # each traced repetition ran right after an untraced one of its size
        overhead = statistics.median(tw / w for (_, w), (tw, _, _) in zip(times[1], traced[1]))
        values = layer_values([s for _, s, _ in traced[1]], [s for _, s, _ in traced[2]],
                              traced[1][0][2], input_lines, overhead)
        units = per_layer_metrics()
    print(
        f"{args.workload}: seed={args.seed} pairs={len(times[1])} "
        f"{workload.unit}={size1 / norm1:.1f} (wall: {size1 / wall1:.1f}) import_s={import_s:.4f} "
        f"fail_ratio={failed / len(checked):.4f} ({failed}/{len(checked)})",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
