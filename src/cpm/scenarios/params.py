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

A missing ``period_ms``, ``horizon_ms`` or ``observation_period_ms``, or an
entry with the wrong number of fields, raises ``ValueError`` naming the file
and key. Without ``horizon_ms`` a switchboard runs to its last beacon.
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


def _entries(path, sec, key, form, sep=None):
    """The ``;``-separated entries under ``key``, each split on ``sep``
    (whitespace if None) into the fields that ``form`` names."""
    arity, out = len(form.split(sep)), []
    for chunk in sec.get(key, "").split(";"):
        if chunk := chunk.strip():
            fields = chunk.split(sep)
            if len(fields) != arity:
                raise ValueError(f"{path}: {key}: expected {form!r}, got {chunk!r}")
            out.append(fields)
    return out


def _int_tuples(path, sec, key, form):
    return tuple(tuple(map(int, fields)) for fields in _entries(path, sec, key, form, ":"))


def load_wdt_params(path) -> WdtScenarioParams:
    sec = _read(path, "wdt", "period_ms", "horizon_ms")
    return WdtScenarioParams(
        wdt_period=sec.getint("period_ms"),
        horizon=sec.getint("horizon_ms"),
        heartbeat_schedule=tuple(int(x) for x in sec.get("heartbeats", "").split(",") if x.strip()),
        replicas=sec.getint("replicas", 3),
        fault_schedule=_int_tuples(path, sec, "faults", "time:replica_index:corrupt_value"),
        restart_schedule=_int_tuples(path, sec, "restarts", "time:value"),
    )


def load_switchboard_params(path):
    """Returns (BeaconTrace, observation_period_ms, horizon_ms)."""
    sec = _read(path, "switchboard", "observation_period_ms")
    rows = [(int(t), mac, float(rate)) for t, mac, rate in _entries(path, sec, "beacons", "time mac rate")]
    return (
        BeaconTrace.from_rows(rows),
        sec.getint("observation_period_ms"),
        sec.getint("horizon_ms"),
    )
