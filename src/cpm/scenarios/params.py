"""INI-style parameter files for the scenarios.

Watchdog, section ``[wdt]``::

    [wdt]
    period_ms = 100
    horizon_ms = 1000
    replicas = 3
    heartbeats = 50, 150, 250          ; absolute times, ms
    faults = 120:0:99; 300:1:7         ; time:replica_index:corrupt_value
    restarts = 150:1                   ; time:value actuator writes

Switchboard, section ``[switchboard]``::

    [switchboard]
    observation_period_ms = 1000
    horizon_ms = 5000
    beacons = 100 aa:bb:cc:dd:ee:01 54.0; 300 aa:bb:cc:dd:ee:02 11.0

A missing ``period_ms``, ``horizon_ms`` or ``observation_period_ms``, an
entry with the wrong number of fields, or a value that does not read as its
number raises ``ValueError`` naming the file and key. Without
``horizon_ms`` a switchboard runs to its last beacon.
"""

from __future__ import annotations

import configparser

from .switchboard import BeaconTrace
from .watchdog import WdtScenarioParams


def _read(path, section, *required):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    if not parser.has_section(section):
        raise ValueError(f"{path}: missing [{section}] section")
    for key in required:
        if key not in parser[section]:
            raise ValueError(f"{path}: [{section}] is missing {key}")
    return parser[section]


def _value(path, key, convert, text):
    """``convert(text)``; a ValueError names the file and key."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: {key}: expected {convert.__name__}, got {text.strip()!r}") from None


def _int(path, sec, key, default=None):
    text = sec.get(key)
    return default if text is None else _value(path, key, int, text)


def _entries(path, sec, key, form, types, sep=None):
    """The ``;``-separated entries under ``key``, each split on ``sep``
    (whitespace if None) into the fields that ``form`` names, each field
    converted by its one of ``types``."""
    out = []
    for chunk in sec.get(key, "").split(";"):
        if chunk := chunk.strip():
            fields = chunk.split(sep)
            if len(fields) != len(types):
                raise ValueError(f"{path}: {key}: expected {form!r}, got {chunk!r}")
            out.append(tuple(_value(path, key, t, f) for t, f in zip(types, fields)))
    return tuple(out)


def load_wdt_params(path) -> WdtScenarioParams:
    sec = _read(path, "wdt", "period_ms", "horizon_ms")
    return WdtScenarioParams(
        wdt_period=_int(path, sec, "period_ms"),
        horizon=_int(path, sec, "horizon_ms"),
        heartbeat_schedule=tuple(_value(path, "heartbeats", int, x) for x in sec.get("heartbeats", "").split(",") if x.strip()),
        replicas=_int(path, sec, "replicas", 3),
        fault_schedule=_entries(path, sec, "faults", "time:replica_index:corrupt_value", (int, int, int), ":"),
        restart_schedule=_entries(path, sec, "restarts", "time:value", (int, int), ":"),
    )


def load_switchboard_params(path):
    """Returns (BeaconTrace, observation_period_ms, horizon_ms)."""
    sec = _read(path, "switchboard", "observation_period_ms")
    return (
        BeaconTrace.from_rows(_entries(path, sec, "beacons", "time mac rate", (int, str, float))),
        _int(path, sec, "observation_period_ms"),
        _int(path, sec, "horizon_ms"),
    )
