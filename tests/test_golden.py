"""Golden differential: the transformed text and diagnostics of a fixed set
of inputs, pinned by digest.

Each case runs one input through one pass order, with strict tags off or
on, under an empty config or ``demos/extensions.ini``. The inputs are the
``tests/c_corpus.py`` entries, both demo ``.cpm`` files and the benchmark's
transform input at seed 1, scale 1. A change that alters any output byte or
diagnostic fails here and names the case; a change meant to alter it
regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py

and says which cases moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

from c_corpus import CORPUS

from cpm import compose, load_unit, render, run
from cpm.pipeline import PassConfig

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"

ORDERS = (
    ("redundancy", "refractive", "array", "cyclic"),
    ("cyclic", "array", "refractive", "redundancy"),
    ("array", "cyclic", "redundancy", "refractive"),
    ("redundancy",),
    ("refractive",),
    ("array",),
    ("cyclic",),
)


def inputs():
    cases = {f"corpus{i + 1:02d}": text for i, text in enumerate(CORPUS)}
    for name in ("watchdog_task.cpm", "switchboard.cpm"):
        cases[name] = (ROOT / "demos" / name).read_text(encoding="latin-1")
    sys.path.insert(0, str(ROOT / "perfbench"))  # gen imports its sibling checks
    import gen
    for f in gen.transform_input(1, 1).files:
        cases[f"transform-{f.name}"] = f.text
    return cases


def config(ini):
    return PassConfig.from_ini(ROOT / "demos" / "extensions.ini") if ini else PassConfig()


def digests():
    out = {}
    for name, text in inputs().items():
        for order in ORDERS:
            for ini in (False, True):
                for strict in (False, True):
                    unit, report = run(compose(order, config=config(ini)), load_unit(text), strict)
                    blob = render(unit) + "\0" + "\n".join(map(str, report.diagnostics))
                    case = f"{name} | {','.join(order)} | {'ini' if ini else 'noconfig'} | {'strict' if strict else 'lax'}"
                    out[case] = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    return out


def test_text_and_diagnostics_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = digests()
    assert sorted(actual) == sorted(expected), "case set changed; regenerate the digests"
    moved = [case for case in expected if actual[case] != expected[case]]
    assert not moved, f"{len(moved)} case(s) changed output: " + "; ".join(moved[:20])


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n")
