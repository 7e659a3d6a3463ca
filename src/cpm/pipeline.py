"""Extension-pass contract and pipeline assembly.

A pipeline is an ordered chain of source-to-source passes chosen by the user;
order is never inferred. Each pass owns one orthogonal syntax family and
flushes everything else through untouched, so any ordering is legal. Every
pass scans its declarations, in pipeline order, before any pass lowers; then
one walk over the unit lowers every pass's accesses, in pipeline order on
each line.

Every pass carries a canonical identifier of the form ``cpm://<name>/<version>``.
Running a pipeline injects a one-line preamble defining the
``extensions_pipeline`` string (the semicolon-joined identifiers in
application order) so the transformed program can inspect its own execution
environment.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

from .rewrite import Lowering, lower_lines
from .srcmodel import IDENTIFIER, Diagnostic, SourceUnit, ext_tag, map_lines, unit_from_raws

_NAME_RE = re.compile(r"^[a-z0-9_]+$")
_VERSION_RE = re.compile(r"^[0-9]+(\.[0-9]+)*$")
_CANONICAL_RE = re.compile(r"^cpm://([a-z0-9_]+)/([0-9]+(?:\.[0-9]+)*)$")

PIPELINE_EMITTER = "pipeline"


class UnknownExtensionError(ValueError):
    pass


class VersionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class ExtensionId:
    name: str
    version: str

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"bad extension name {self.name!r}")
        if not _VERSION_RE.match(self.version):
            raise ValueError(f"bad extension version {self.version!r}")

    def canonical(self) -> str:
        return f"cpm://{self.name}/{self.version}"

    @classmethod
    def parse(cls, text: str) -> "ExtensionId":
        m = _CANONICAL_RE.match(text)
        if not m:
            raise ValueError(f"not a canonical extension id: {text!r}")
        return cls(m.group(1), m.group(2))

    def __str__(self):
        return self.canonical()


class PassConfig:
    """Flat key/value configuration, keys namespaced per extension name
    (e.g. ``redundancy.replicas``). Unknown keys are warned about at compose
    time, never fatal."""

    def __init__(self, values: dict | None = None):
        self._values = {str(k): v for k, v in (values or {}).items()}

    @classmethod
    def from_ini(cls, path) -> "PassConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.optionxform = str  # keep key case
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        values = {}
        for section in parser.sections():
            for key, val in parser.items(section):
                values[f"{section}.{key}"] = val
        return cls(values)

    def get(self, namespace, key, default=None):
        return self._values.get(f"{namespace}.{key}", default)

    def items(self):
        return self._values.items()


class ExtensionPass:
    """Base contract for a source-to-source extension pass.

    Subclasses set ``id``, ``KNOWN_KEYS`` (their config keys), ``KEYWORDS``
    (the identifier lexemes introducing their syntax, used for strict-mode
    reporting) and supply two methods. ``scan(unit, config, skip) -> (unit,
    declared, diagnostics)`` lowers declarations, and the static
    ``targets(declared)`` gives the table of
    :class:`~cpm.rewrite.Target` rows the accesses to them are lowered by.
    The base class does the rest: ``lowering(declared, skip)`` is the
    pass's :class:`~cpm.rewrite.Lowering`, which :func:`run` applies with
    every other pass's in one walk, ``lower(unit, declared) -> (unit,
    diagnostics)`` is that walk with this lowering alone, and ``transform``
    is scan then lower. No phase rejects input or changes a unit without
    the pass's syntax; lines numbered in ``skip`` keep their text.

    ``transform`` does not read ``@ext:`` tags: to a bare pass a tag is text.
    :func:`run` strips the tags of the pipeline's passes before the first
    pass runs and hands each pass's ``scan`` and ``lowering`` the lines
    tagged for any other pass as ``skip``.

    Passes hold no mutable state; one instance may transform any number of
    units, concurrently when the units are distinct.
    """

    id: ExtensionId
    KNOWN_KEYS: frozenset = frozenset()
    KEYWORDS: frozenset = frozenset()

    def known_key(self, key: str, config: PassConfig) -> bool:
        return key in self.KNOWN_KEYS

    def lowering(self, declared, skip=frozenset()) -> Lowering:
        return Lowering(self.targets(declared), self.KEYWORDS, str(self.id), skip)

    def lower(self, unit: SourceUnit, declared):
        unit, (diags,) = lower_lines(unit, [self.lowering(declared)])
        return unit, diags

    def transform(self, unit: SourceUnit, config: PassConfig):
        unit, declared, diags = self.scan(unit, config, frozenset())
        unit, more = self.lower(unit, declared)
        return unit, diags + more


@dataclass(frozen=True)
class Pipeline:
    passes: tuple[ExtensionPass, ...]
    config: PassConfig
    compose_diagnostics: tuple[Diagnostic, ...] = ()
    keyword_map: dict = field(default_factory=dict)  # keyword -> [pass names]


@dataclass
class PipelineReport:
    applied_ids: list[ExtensionId]
    diagnostics: list[Diagnostic]

    @property
    def extensions_pipeline(self) -> str:
        """The applied ids as the preamble publishes them."""
        return ";".join(i.canonical() for i in self.applied_ids)


def builtin_registry() -> dict[str, ExtensionPass]:
    """Fresh name -> pass map of the built-in extensions, in their customary
    staging order."""
    from .ext_redundancy import RedundancyPass
    from .ext_reflective import ArrayPass, RefractivePass
    from .ext_cyclic import CyclicPass

    passes = [RedundancyPass(), RefractivePass(), ArrayPass(), CyclicPass()]
    return {p.id.name: p for p in passes}


def _parse_request(request: str):
    if "@" in request:
        name, _, version = request.partition("@")
        return name, version
    return request, None


def compose(names, registry=None, config=None) -> Pipeline:
    """Assemble a pipeline from ordered ``name`` or ``name@version`` requests.

    Raises UnknownExtensionError / VersionMismatchError; duplicates are
    allowed but reported as warnings.
    """
    if registry is None:
        registry = builtin_registry()
    if config is None:
        config = PassConfig()
    diags = []
    passes = []
    seen = set()
    for request in names:
        name, version = _parse_request(request)
        if name not in registry:
            raise UnknownExtensionError(
                f"unknown extension {name!r}; registered: {', '.join(registry)}"
            )
        p = registry[name]
        if version is not None and version != p.id.version:
            raise VersionMismatchError(
                f"extension {name!r} is registered at version {p.id.version}, not {version}"
            )
        if name in seen:
            diags.append(
                Diagnostic("warning", 0, f"pass {name!r} requested more than once", PIPELINE_EMITTER)
            )
        seen.add(name)
        passes.append(p)
    for key, _ in config.items():
        ns, _, rest = key.partition(".")
        if ns not in registry:
            diags.append(
                Diagnostic("warning", 0, f"config key {key!r} names no registered extension", PIPELINE_EMITTER)
            )
        elif not registry[ns].known_key(rest, config):
            diags.append(
                Diagnostic("warning", 0, f"config key {key!r} is not recognized by pass {ns!r}", PIPELINE_EMITTER)
            )
    keyword_map: dict[str, list[str]] = {}
    for name, p in registry.items():
        for kw in p.KEYWORDS:
            keyword_map.setdefault(kw, []).append(name)
    return Pipeline(
        passes=tuple(passes),
        config=config,
        compose_diagnostics=tuple(diags),
        keyword_map=keyword_map,
    )


def publish_ids(pipeline: Pipeline) -> str:
    """Semicolon-joined canonical ids, application order, no trailing separator."""
    return ";".join(p.id.canonical() for p in pipeline.passes)


def preamble_line(ids_string: str) -> str:
    return f'const char *extensions_pipeline = "{ids_string}"; /* cpm preamble */'


def _strip_tags(unit: SourceUnit, applied):
    """Strip the ``@ext:`` tag of every line tagged for a pass in
    ``applied``. Returns (unit, {line_no: tag}) with every tagged line in the
    map, whether its tag was stripped or not. The walk visits only the lines
    whose text starts with ``@ext:``."""
    tags = {}

    def strip_tag(line_no, line):
        if line.in_block_comment:
            return line.raw  # an "@ext:" here is comment text
        tag, content = ext_tag(line.raw)
        if tag is None:
            return line.raw
        tags[line_no] = tag
        return content if tag in applied else line.raw

    tagged = [n for n, line in enumerate(unit.lines, 1) if line.raw.startswith("@ext:")]
    return map_lines(unit, strip_tag, tagged), tags


def run(pipeline: Pipeline, unit: SourceUnit, strict=False):
    """Route tagged lines, run every pass's scan in order, then lower every
    pass's accesses in one walk (:func:`~cpm.rewrite.lower_lines`, pipeline
    order on each line), and inject the identifier preamble as the first
    line, in front of the passes' own line objects. With ``strict`` (the
    CLI's ``--strict-tags``), also warn about the extension syntax no pass
    consumed (:func:`_strict_sweep`). Returns (unit, report)."""
    diags = list(pipeline.compose_diagnostics)
    applied = {p.id.name for p in pipeline.passes}
    unit, tags = _strip_tags(unit, applied)
    lowerings, scan_diags = [], []
    for p in pipeline.passes:
        skip = frozenset(n for n, tag in tags.items() if tag != p.id.name)
        unit, declared, found = p.scan(unit, pipeline.config, skip)
        lowerings.append(p.lowering(declared, skip))
        scan_diags.append(found)
    unit, lower_diags = lower_lines(unit, lowerings)
    for found, more in zip(scan_diags, lower_diags):
        diags += found + more
    head = unit_from_raws([preamble_line(publish_ids(pipeline))]).lines
    final_newline = unit.final_newline if unit.lines else True
    out = SourceUnit(lines=head + tuple(unit.lines), final_newline=final_newline)
    if strict:
        diags.extend(_strict_sweep(unit, pipeline, applied, tags))
    return out, PipelineReport(applied_ids=[p.id for p in pipeline.passes], diagnostics=diags)


def _strict_sweep(unit: SourceUnit, pipeline: Pipeline, applied, tags):
    """In strict-tag mode, report extension syntax that survived the whole
    pipeline: tags for passes not in ``applied`` (from the ``tags`` map of
    :func:`_strip_tags`) and extension keywords nobody consumed. ``unit`` is
    the passes' output before the preamble goes in, so line numbers are
    input line numbers, as in the passes' own diagnostics."""
    diags = []
    watched = frozenset(pipeline.keyword_map) | {"Cycle"}
    for line_no, line in enumerate(unit.lines, 1):
        tag = tags.get(line_no)
        if tag is not None and tag not in applied:
            diags.append(
                Diagnostic(
                    "warning",
                    line_no,
                    f"line tagged for pass {tag!r}, which is not in the pipeline",
                    PIPELINE_EMITTER,
                )
            )
        if line.names.isdisjoint(watched):
            continue
        sig = line.sig
        for p, tok in enumerate(sig):
            if tok.kind is not IDENTIFIER:
                continue
            if tok.lexeme in pipeline.keyword_map:
                candidates = ", ".join(pipeline.keyword_map[tok.lexeme])
                message = f"unconsumed extension keyword {tok.lexeme!r}; candidate passes: {candidates}"
            elif tok.lexeme == "Cycle" and p > 0 and sig[p - 1].lexeme == ".":
                message = "unconsumed '.Cycle' member; candidate passes: cyclic"
            else:
                continue
            diags.append(Diagnostic("warning", line_no, message, PIPELINE_EMITTER))
    return diags
