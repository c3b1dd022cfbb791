"""Span recording from outside the program, and the per-layer self-time report.

The benchmark never edits ``src/``.  Instead it replaces selected public
names with wrappers that record one span per call: layer name, start,
end, parent span and request id.  Each name is patched where its caller
looks it up (a module attribute read at call time, or a class
attribute), so the program's own calls go through the wrapper.

Spans stay in memory until the run ends.  A layer's self time is the sum
of its span durations minus the time covered by each span's direct
children; over one tree of spans the self times therefore add up to the
root durations exactly, and whatever wall time no root span covers is
reported as the untraced remainder.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Every layer the report names, in report order.  ``service.http`` has
#: no wrapper: it is the client round trip minus the server's app span.
LAYERS = (
    "simulation.traits",
    "simulation.encounter",
    "core.pipeline",
    "simulation.metrics",
    "simulation.habituation",
    "simulation.engine",
    "experiments.runner",
    "service.http",
    "service.app",
    "service.validate",
    "service.bind",
    "service.cache",
    "io.experiments_io",
)

#: ``(module, attribute path, layer)``: the attribute path is patched on
#: the module, so ``"PipelinePlan.walk_batch"`` patches the class.
ENGINE_TARGETS = (
    ("repro.simulation.batch", "draw_batch_counter", "simulation.traits"),
    ("repro.simulation.batch", "redraw_decisions_counter", "simulation.encounter"),
    ("repro.core.pipeline", "PipelinePlan.walk_batch", "core.pipeline"),
    ("repro.simulation.metrics", "SimulationTally.add_batch", "simulation.metrics"),
    ("repro.simulation.metrics", "SimulationTally.merge", "simulation.metrics"),
    ("repro.simulation.metrics", "FunnelTally.add_counts", "simulation.metrics"),
    ("repro.simulation.metrics", "FunnelTally.merge", "simulation.metrics"),
    ("repro.simulation.habituation", "advance_exposures", "simulation.habituation"),
    ("repro.simulation.engine", "HumanLoopSimulator.simulate_task", "simulation.engine"),
)

SERVICE_TARGETS = (
    ("repro.service.app", "ServiceApp.__call__", "service.app"),
    ("repro.service.router_simulate", "build_experiment", "service.validate"),
    ("repro.service.router_analyze", "validate_params", "service.validate"),
    ("repro.service.requests", "predicted_run_keys", "service.bind"),
    ("repro.service.cache", "ResultCache.peek", "service.cache"),
    ("repro.service.cache", "ResultCache.serve", "service.cache"),
    ("repro.service.cache", "ResultCache.store", "service.cache"),
    ("repro.service.requests", "run_variant", "experiments.runner"),
    ("repro.service.router_simulate", "resultset_to_dict", "io.experiments_io"),
    ("repro.service.router_analyze", "resultset_to_dict", "io.experiments_io"),
    ("repro.service.requests", "result_row_to_dict", "io.experiments_io"),
    ("repro.service.requests", "result_row_from_dict", "io.experiments_io"),
)

#: The HTTP header that carries the load generator's request id; WSGI
#: exposes it to the app as ``environ[REQUEST_ID_ENVIRON]``.
REQUEST_ID_HEADER = "X-Perfbench-Request"
REQUEST_ID_ENVIRON = "HTTP_X_PERFBENCH_REQUEST"

# (span id, layer, start, end, parent id, request id)
Span = Tuple[int, str, float, float, int, Optional[str]]


class SpanRecorder:
    """Thread-safe in-memory span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, layer: str, start: float, end: float, request_id: Optional[str] = None
    ) -> None:
        """Record a span measured by the caller (no parent)."""
        self.spans.append((next(self._ids), layer, start, end, 0, request_id))

    def wrap(
        self,
        layer: str,
        func: Callable[..., Any],
        request_id_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable[..., Any]:
        """``func`` recording one ``layer`` span per call.

        ``request_id_of(*args)`` names the request a root span serves;
        nested spans on the same thread inherit it.
        """
        local = self._local
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            previous = getattr(local, "request_id", None)
            request_id = request_id_of(*args) if request_id_of else previous
            local.request_id = request_id
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                local.request_id = previous
                spans.append((span_id, layer, start, end, parent, request_id))

        return traced

    def install(self, targets: Iterable[Tuple[str, str, str]]) -> List[str]:
        """Patch every target it can find; returns the ones it could not."""
        missing: List[str] = []
        for module_name, path, layer in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *owners, name = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            request_id_of = _environ_request_id if name == "__call__" else None
            setattr(owner, name, self.wrap(layer, original, request_id_of))
            self._patched.append((owner, name, original))
        return missing

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """Write the spans out as one JSON list (done once, at the end)."""
        path.write_text(json.dumps(self.spans))


def _environ_request_id(app: Any, environ: Dict[str, Any], *rest: Any) -> Optional[str]:
    return environ.get(REQUEST_ID_ENVIRON)


def load_spans(path: Path) -> List[Span]:
    return [tuple(span) for span in json.loads(path.read_text())]  # type: ignore[misc]


def link_server_spans(
    client: Sequence[Span], server: Sequence[Span]
) -> List[Span]:
    """One span list: each server root hangs under the client span of its request.

    Server span ids are shifted past the client ids.  Server spans of
    requests the client did not measure (set-up probes, warm-up) are dropped.
    """
    by_request = {span[5]: span[0] for span in client if span[5] is not None}
    shift = max((span[0] for span in client), default=0)
    kept: Dict[int, int] = {}
    linked: List[Span] = []
    for span_id, layer, start, end, parent, request_id in sorted(server):
        if request_id not in by_request:
            continue
        if parent == 0:
            new_parent = by_request[request_id]
        elif parent in kept:
            new_parent = kept[parent]
        else:
            continue
        kept[span_id] = span_id + shift
        linked.append((span_id + shift, layer, start, end, new_parent, request_id))
    return list(client) + linked


def self_time_report(
    spans: Sequence[Span], wall_s: float
) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer ``calls`` / ``self_s`` / ``share`` and the untraced remainder.

    ``wall_s`` is the traced wall time (summed over client threads when
    several run at once).  The remainder is ``wall_s`` minus the root span
    durations; by construction the layer self times plus the remainder
    equal ``wall_s``, which :func:`check_accounting` verifies independently.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent:
            child_time[parent] += end - start
    report = {layer: {"calls": 0.0, "self_s": 0.0} for layer in LAYERS}
    roots = 0.0
    for span_id, layer, start, end, parent, _ in spans:
        entry = report.setdefault(layer, {"calls": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[span_id]
        if not parent:
            roots += end - start
    for entry in report.values():
        entry["share"] = entry["self_s"] / wall_s if wall_s > 0 else 0.0
    return report, wall_s - roots


def check_accounting(
    spans: Sequence[Span],
    report: Dict[str, Dict[str, float]],
    remainder_s: float,
    wall_s: float,
) -> List[str]:
    """Problems with the self-time accounting (empty when it adds up).

    Checks that no span's children outlast it (negative self time), that
    every parent id exists, that the remainder is not negative, and that
    layer self times plus the remainder equal the traced wall time.
    """
    problems: List[str] = []
    ids = {span[0] for span in spans}
    orphans = sum(1 for span in spans if span[4] and span[4] not in ids)
    if orphans:
        problems.append(f"{orphans} spans name a parent that was not recorded")
    tolerance = 1e-6 * max(wall_s, 1.0)
    for layer, entry in report.items():
        if entry["self_s"] < -tolerance:
            problems.append(f"{layer} has negative self time {entry['self_s']:.6f}s")
    if remainder_s < -tolerance:
        problems.append(f"untraced remainder is negative ({remainder_s:.6f}s)")
    total = sum(entry["self_s"] for entry in report.values()) + remainder_s
    if abs(total - wall_s) > tolerance:
        problems.append(f"self times + remainder = {total:.6f}s, wall = {wall_s:.6f}s")
    return problems
