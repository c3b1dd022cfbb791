"""Rule-plugin framework for the invariant linter.

The linter machine-checks the contracts the engine's value rests on —
bit-identity across execution paths, provenance-complete results,
append-only telemetry, frozen draw-stream layouts — directly against the
source tree, so a violation fails in CI instead of in an integration
bisect.  The moving parts:

* :class:`SourceFile` — one parsed module: path, AST, and the per-line
  suppression table built from ``# repro-lint: allow REPnnn`` comments.
* :class:`Project` — every file of one lint invocation, with lookup
  helpers (``find_function`` / ``find_class`` / ``find_constant``) that
  cross-module rules use to read registries *out of the code itself*
  (e.g. :data:`repro.io.shards.TELEMETRY_PREFIXES`) rather than from a
  config copy that can drift.
* :class:`Rule` — one invariant.  Subclasses override :meth:`check_file`
  (called once per module) and/or :meth:`check_project` (called once per
  invocation, for cross-module contracts), yield :class:`Diagnostic`
  objects, and register with :func:`register`.  A new rule is ~50 lines:
  subclass, set ``rule_id`` / ``title`` / ``contract``, register, add a
  good/bad fixture pair under ``tests/devtools/fixtures/``.

Suppressions: a trailing ``# repro-lint: allow REP001 — reason`` comment
silences the named rule(s) on that line; a standalone comment line
silences them on the next code line.  The reason text is free-form but
expected — grandfathered sites should say why they are sound.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Diagnostic",
    "SourceFile",
    "Project",
    "Rule",
    "register",
    "registered_rules",
    "collect_paths",
    "load_project",
    "run_lint",
    "format_text",
    "format_json",
    "dotted_name",
    "import_bindings",
    "resolve_call_name",
]

#: ``# repro-lint: allow REP001`` or ``... allow REP001,REP005 — reason``.
_ALLOW_RE = re.compile(
    r"#\s*repro-lint:\s*allow\s+(?P<rules>REP\d{3}(?:\s*,\s*REP\d{3})*)"
)


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One rule violation, anchored to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclasses.dataclass
class SourceFile:
    """One parsed module of the lint target."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed on that line.
    allowed: Dict[int, frozenset]

    def is_allowed(self, rule_id: str, line: int) -> bool:
        return rule_id in self.allowed.get(line, frozenset())

    def matches(self, *suffixes: str) -> bool:
        """Whether this module's path ends with any of the given suffixes.

        Suffix matching (``"core/pipeline.py"``) keeps path-scoped rules
        working both on the real tree and on fixture corpora that mirror
        the layout under a different root.
        """
        return any(self.rel.endswith(suffix) for suffix in suffixes)


def _suppression_table(source: str) -> Dict[int, frozenset]:
    """Per-line suppressed rule ids from ``# repro-lint: allow`` comments.

    A comment on a code line covers that line; a comment alone on its
    line covers the next line as well (so long annotations can sit above
    the construct they bless).
    """
    table: Dict[int, set] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if not match:
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        table.setdefault(lineno, set()).update(rules)
        if text.lstrip().startswith("#"):
            table.setdefault(lineno + 1, set()).update(rules)
    return {line: frozenset(rules) for line, rules in table.items()}


class Project:
    """Every source file of one lint invocation."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def find_function(
        self, name: str
    ) -> Optional[Tuple[SourceFile, ast.FunctionDef]]:
        """The first module-level function of the given name, if any."""
        for file in self.files:
            for node in file.tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return file, node
        return None

    def find_class(self, name: str) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        """The first module-level class of the given name, if any."""
        for file in self.files:
            for node in file.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return file, node
        return None

    def find_constant(self, name: str) -> Optional[Tuple[SourceFile, object]]:
        """A module-level literal assignment, evaluated.

        This is how cross-module rules read the in-code registries
        (``TELEMETRY_PREFIXES``, ``WALL_CLOCK_METRICS``, ...): the
        allow-list *is* the code, never a copy in lint config.
        """
        for file in self.files:
            for node in file.tree.body:
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        try:
                            return file, ast.literal_eval(value)
                        except (ValueError, TypeError, SyntaxError):
                            return None
        return None


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`rule_id` (``"REPnnn"``), :attr:`title` (the
    kebab-case contract name), and :attr:`contract` (one sentence of what
    the rule enforces), then override :meth:`check_file` and/or
    :meth:`check_project`.
    """

    rule_id: str = ""
    title: str = ""
    contract: str = ""

    def check_file(
        self, file: SourceFile, project: Project
    ) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        return iter(())

    def diagnostic(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            rule=self.rule_id,
            path=file.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: List[Type[Rule]] = []


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if any(existing.rule_id == rule_class.rule_id for existing in _REGISTRY):
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY.append(rule_class)
    return rule_class


def registered_rules() -> List[Rule]:
    """One instance of every registered rule, in registration order."""
    # Importing the rule modules is what populates the registry; local
    # import keeps framework importable from the rule modules themselves.
    from . import rules_io, rules_layout  # noqa: F401
    from . import rules_provenance, rules_purity  # noqa: F401
    from . import rules_rng, rules_state, rules_wallclock  # noqa: F401

    return [
        rule_class()
        for rule_class in sorted(_REGISTRY, key=lambda cls: cls.rule_id)
    ]


# ---------------------------------------------------------------------------
# AST helpers shared by the rule modules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_bindings(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted module/object for every import."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    bindings[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bindings[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return bindings


def resolve_call_name(
    func: ast.expr, bindings: Dict[str, str]
) -> Optional[str]:
    """Canonical dotted name of a call target, resolved through imports.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``default_rng`` with ``from
    numpy.random import default_rng`` resolves the same way.
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, tail = name.partition(".")
    canonical_head = bindings.get(head, head)
    return f"{canonical_head}.{tail}" if tail else canonical_head


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def collect_paths(targets: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    found: List[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            found.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {target}")
    return found


def load_project(targets: Sequence[str]) -> Project:
    """Parse every target file into a :class:`Project`."""
    files = []
    for path in collect_paths(targets):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        files.append(
            SourceFile(
                path=path,
                rel=path.as_posix(),
                source=source,
                tree=tree,
                allowed=_suppression_table(source),
            )
        )
    return Project(files)


def run_lint(
    targets: Sequence[str], rules: Optional[Iterable[Rule]] = None
) -> List[Diagnostic]:
    """Run every rule over the targets; suppressed and sorted."""
    project = load_project(targets)
    active = list(rules) if rules is not None else registered_rules()
    diagnostics: List[Diagnostic] = []
    by_rel = {file.rel: file for file in project.files}
    for rule in active:
        for file in project:
            diagnostics.extend(rule.check_file(file, project))
        diagnostics.extend(rule.check_project(project))
    kept = [
        diagnostic
        for diagnostic in diagnostics
        if not (
            diagnostic.path in by_rel
            and by_rel[diagnostic.path].is_allowed(diagnostic.rule, diagnostic.line)
        )
    ]
    kept.sort(key=lambda diagnostic: (diagnostic.path, diagnostic.line, diagnostic.rule))
    return kept


def format_text(diagnostics: Sequence[Diagnostic]) -> str:
    if not diagnostics:
        return "repro-lint: clean"
    lines = [diagnostic.render() for diagnostic in diagnostics]
    lines.append(f"repro-lint: {len(diagnostics)} violation(s)")
    return "\n".join(lines)


def format_json(diagnostics: Sequence[Diagnostic]) -> str:
    payload = {
        "tool": "repro.devtools",
        "count": len(diagnostics),
        "diagnostics": [diagnostic.to_dict() for diagnostic in diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
