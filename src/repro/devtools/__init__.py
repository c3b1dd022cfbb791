"""Static-analysis tooling that machine-checks the engine's contracts.

``python -m repro.devtools lint src/`` (``--format json`` for CI) runs
an AST-based invariant linter over the tree.  Each rule encodes one of
the determinism / provenance / log-integrity contracts the codebase's
value rests on:

========  ========================  ==========================================
REP001    no-ambient-rng            generators derive from explicit
                                    ``SeedSequence``\\ s; no global-state draws
REP002    no-wallclock-in-identity  clock reads only in registered telemetry
                                    (``TELEMETRY_PREFIXES`` modules /
                                    ``WALL_CLOCK_METRICS`` producers)
REP003    provenance-completeness   every engine knob is serialized,
                                    round-tripped, and identity-or-telemetry
REP004    stream-layout-frozen      counter-stream ids and decision columns
                                    are append-only
REP005    append-only-io            committed checkpoint bytes are immutable
                                    outside ``io/shards`` + ``io/eventlog``
REP006    kernel-purity             no I/O / clock / logging in the traversal
                                    kernel modules
REP007    no-mutable-default        no shared mutable default arguments
REP008    no-hot-path-module-state  no module-level mutable state written
                                    from the engine's hot-path functions
========  ========================  ==========================================

See ``src/repro/devtools/README.md`` for the full catalogue, the
suppression syntax, and how to register a telemetry exemption; the rule
framework (:mod:`repro.devtools.framework`) makes a new rule ~50 lines.
"""

from __future__ import annotations

from .framework import (
    Diagnostic,
    Project,
    Rule,
    SourceFile,
    format_json,
    format_text,
    register,
    registered_rules,
    run_lint,
)

__all__ = [
    "Diagnostic",
    "Project",
    "Rule",
    "SourceFile",
    "format_json",
    "format_text",
    "register",
    "registered_rules",
    "run_lint",
]
