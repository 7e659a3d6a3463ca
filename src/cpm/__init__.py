"""cpm: composable language extensions for a C-flavored base language.

Three extensions (redundant/voted variables, context-aware sensor/actuator
variables with reflective arrays, and cyclic methods) are
implemented as independent source-to-source passes over a line-oriented
source model, assembled into user-ordered pipelines, and executed natively by
the bundled runtime (majority voting with adaptive redundancy, a timeout
manager that alone moves the virtual time the event log carries, and a
context registry). ``import cpm`` loads the transform side only; the
runtime, the interpreter and the scenarios load when named:
``from cpm import runtime`` or ``import cpm.interp``.
"""

from . import ext_cyclic, ext_redundancy, ext_reflective
from .pipeline import (
    ExtensionId,
    ExtensionPass,
    PassConfig,
    Pipeline,
    PipelineReport,
    UnknownExtensionError,
    VersionMismatchError,
    builtin_registry,
    compose,
    publish_ids,
    run,
)
from .srcmodel import (
    Diagnostic,
    SourceLine,
    SourceUnit,
    Token,
    TokenKind,
    load_unit,
    render,
    tokenize_line,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "ExtensionId",
    "ExtensionPass",
    "PassConfig",
    "Pipeline",
    "PipelineReport",
    "SourceLine",
    "SourceUnit",
    "Token",
    "TokenKind",
    "UnknownExtensionError",
    "VersionMismatchError",
    "builtin_registry",
    "compose",
    "ext_cyclic",
    "ext_redundancy",
    "ext_reflective",
    "interp",
    "load_unit",
    "publish_ids",
    "render",
    "run",
    "runtime",
    "scenarios",
    "tokenize_line",
]
