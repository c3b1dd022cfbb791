"""Unified experiment results with full provenance.

A :class:`ResultRow` is one (variant, mode) cell of an experiment: the
flat metrics the run produced plus everything needed to reproduce it —
scenario name, validated parameter overrides, seed, execution mode,
batch size, and the resolved task.  :func:`reproduce_row` proves the
provenance is sufficient by re-running any simulated row from its fields
alone.

A :class:`ResultSet` collects the rows of one experiment and is the
object the benchmarks, examples, and the viz layer consume: filtering,
per-metric comparison, Markdown rendering (via :mod:`repro.io.tabular`),
JSON export (via :mod:`repro.io.experiments_io`), and the mitigation
post-step — :meth:`ResultSet.recommendations` runs the
:mod:`repro.mitigations` ranking per variant instead of only per bare
system.

Row identity is **content-based**, not positional: every row carries the
:func:`repro.systems.scenario.variant_hash` of its (scenario, params)
point, and :meth:`ResultSet.merge` reassembles shard / partial result
sets by that identity — validating provenance (same experiment) and
rejecting clashes (the same row appearing in more than one set, as
overlapping shard plans produce) — into the exact row order of a serial
run.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import ReproError
from ..io.tabular import render_markdown_table
from ..mitigations.recommendations import SystemRecommendations, recommend_for_system
from ..simulation.metrics import SimulationResult
from ..systems.scenario import get_scenario
from ..systems.scenario import variant_hash as compute_variant_hash

__all__ = [
    "ResultRow",
    "ResultSet",
    "reproduce_row",
    "WALL_CLOCK_METRICS",
    "TELEMETRY_ROW_FIELDS",
]

#: Row metrics that record machine time rather than simulated outcomes —
#: the one per-row datum legitimately different between two bit-identical
#: runs.  Determinism checks (shard == serial, batch == reference,
#: scheduler-merged == serial) compare rows modulo these names — use
#: :meth:`ResultSet.canonical_dict` rather than re-deriving the filter;
#: ``perf:chunks`` is NOT listed because the chunk count is a pure
#: function of (n_receivers, batch_size).  The ``perf:phase:`` entries
#: are the engine's phase times, one per
#: :data:`~repro.simulation.metrics.ENGINE_PHASES` entry.
WALL_CLOCK_METRICS = (
    "perf:elapsed_seconds",
    "perf:receiver_rounds_per_second",
    "perf:phase:simulation.traits_s",
    "perf:phase:simulation.encounter_s",
    "perf:phase:core.pipeline_s",
    "perf:phase:simulation.metrics_s",
    "perf:phase:simulation.habituation_s",
)

#: :class:`ResultRow` provenance fields recorded as execution telemetry
#: only — how a run was executed, never what it computed — and therefore
#: deliberately not consumed by :func:`reproduce_row` and dropped from
#: :meth:`ResultSet.canonical_dict`.  Machine-checked by
#: ``repro.devtools`` rule REP003: every engine knob recorded on a row
#: must either be consumed by :func:`reproduce_row` (reproduction
#: identity) or be declared here (telemetry), never neither.
TELEMETRY_ROW_FIELDS = ("chunk_workers",)


class ExperimentError(ReproError):
    """Raised when an experiment spec or result set is used inconsistently."""


@dataclasses.dataclass(frozen=True)
class ResultRow:
    """One (variant, mode) result of an experiment, with provenance.

    ``mode`` is ``"analytic"`` for the failure-identification walk, or the
    engine mode (``"batch"`` / ``"reference"``) for simulated rows.  For
    simulated rows the (scenario, params, task, n_receivers, seed, mode,
    batch_size, rounds, recovery_rate, dismiss_weight, heed_weight,
    rng_mode) tuple reproduces the run exactly — see
    :func:`reproduce_row`; ``chunk_workers`` records how many processes
    the engine spread the run's chunks across, telemetry that never
    changes the bits.  ``rounds`` /
    ``recovery_rate`` / ``dismiss_weight`` / ``heed_weight`` record the
    *realized* engine settings (1 / 0.0 / 1.0 / 1.0 for single-shot,
    delivery-only runs); the per-round decay curve of a multi-round run
    lives in the ``round<k>:`` metrics and the per-stage funnel in the
    ``funnel:<checkpoint>:`` metrics.
    """

    experiment: str
    scenario: str
    variant: str
    params: Mapping[str, Any]
    mode: str
    metrics: Mapping[str, float]
    seed: Optional[int] = None
    n_receivers: Optional[int] = None
    batch_size: Optional[int] = None
    task: Optional[str] = None
    population: Optional[str] = None
    calibration_label: Optional[str] = None
    rounds: Optional[int] = None
    recovery_rate: Optional[float] = None
    dismiss_weight: Optional[float] = None
    heed_weight: Optional[float] = None
    rng_mode: Optional[str] = None
    chunk_workers: Optional[int] = None
    variant_index: Optional[int] = None

    @property
    def simulated(self) -> bool:
        return self.mode != "analytic"

    @functools.cached_property
    def variant_hash(self) -> str:
        """Content hash identifying this row's (scenario, params) point.

        Computed from the row's own provenance, once per row object (a
        ``dataclasses.replace`` copy hashes its own params), so it stays
        valid however the row was reassembled (merged shards, loaded
        checkpoints); the JSON form records it for integrity checking on
        load.
        """
        return compute_variant_hash(self.scenario, self.params)

    def row_key(self) -> Tuple[str, str, str]:
        """This row's identity within its experiment.

        The (variant label, variant hash, mode) triple: labels are unique
        per experiment, the hash pins the parameter point behind the
        label, and the mode separates the analytic row from the simulated
        one.  Shard checkpointing, resume, and :meth:`ResultSet.merge`
        all dedup on this key — never on list position.
        """
        return (self.variant, self.variant_hash, self.mode)

    def metric(self, name: str) -> float:
        if name not in self.metrics:
            raise ExperimentError(
                f"row {self.variant!r} has no metric {name!r}; "
                f"known: {sorted(self.metrics)}"
            )
        return self.metrics[name]

    def table_row(self) -> Dict[str, Any]:
        """The row flattened for tabular rendering: variant, params, metrics."""
        row: Dict[str, Any] = {"variant": self.variant, "mode": self.mode}
        row.update(self.params)
        row.update(self.metrics)
        return row


def reproduce_row(row: ResultRow) -> SimulationResult:
    """Re-run one simulated row from its recorded provenance alone.

    The returned result is bit-identical to the original run: the variant
    is re-bound from the registry with the recorded parameters and the
    engine re-seeded with the recorded (seed, mode, batch_size).  Row
    identity is entirely field-based — the row's ``variant_hash`` names
    the parameter point and the recorded seed the stream — so rows from
    merged, sharded, or resumed :class:`ResultSet`\\ s reproduce exactly,
    whatever position they ended up at.
    """
    if not row.simulated:
        raise ExperimentError(f"row {row.variant!r} is analytic; nothing to re-simulate")
    if row.seed is None or row.n_receivers is None:
        raise ExperimentError(f"row {row.variant!r} lacks seed/n_receivers provenance")
    variant = get_scenario(row.scenario).bind(**dict(row.params))
    overrides: Dict[str, Any] = {}
    # chunk_workers is deliberately omitted: it is parallelism telemetry,
    # not stream identity — a re-run reproduces the same bits anywhere.
    for name in (
        "batch_size",
        "rounds",
        "recovery_rate",
        "dismiss_weight",
        "heed_weight",
        "rng_mode",
    ):
        value = getattr(row, name)
        if value is not None:
            overrides[name] = value
    # Rows persisted before rng_mode existed were drawn by the matrix
    # source (the only source at the time, and the default until the
    # counter flip) — pin it so re-running them under today's counter
    # default still replays the recorded bits.
    overrides.setdefault("rng_mode", "matrix")
    return variant.simulate(
        row.n_receivers, seed=row.seed, task=row.task, mode=row.mode, **overrides
    )


def _canonical_row_order(row: ResultRow) -> Tuple[int, int]:
    """Serial-run row order: variant declaration order, analytic row first.

    Rows without a recorded ``variant_index`` (legacy payloads) all get
    the same key, so they keep their relative order at the end —
    ``sorted`` is stable.
    """
    if row.variant_index is None:
        return (sys.maxsize, 0)
    return (row.variant_index, 0 if row.mode == "analytic" else 1)


@dataclasses.dataclass
class ResultSet:
    """Every row one experiment produced, in variant order.

    ``seed`` records the experiment seed the rows were produced under
    (``None`` for hand-built or legacy sets): per-variant row seeds
    derive from it, so two sets can only be merged when it agrees.
    """

    experiment: str
    rows: List[ResultRow] = dataclasses.field(default_factory=list)
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    # -- merging -----------------------------------------------------------------

    @classmethod
    def merge(cls, *sets: "ResultSet") -> "ResultSet":
        """Reassemble shard / partial result sets into one canonical set.

        Validates provenance — every set must come from the same
        experiment: same name, same experiment seed (a renamed-in-place
        experiment re-run under a different seed must not merge with the
        old shards), and one ``n_receivers`` across the simulated rows —
        and rejects clashes: the same row identity
        (:meth:`ResultRow.row_key`) appearing more than once, which is
        what overlapping shard plans or a double-merged set produce.
        Rows are reordered canonically by their recorded
        ``variant_index`` (analytic before simulated within a variant),
        so merging a sharded sweep yields exactly the serial run's
        :class:`ResultSet` — bit-identical through
        :func:`repro.io.resultset_to_dict`.
        """
        if not sets:
            raise ExperimentError("merge needs at least one result set")
        names = sorted({resultset.experiment for resultset in sets})
        if len(names) > 1:
            raise ExperimentError(
                f"cannot merge result sets from different experiments: {names}"
            )
        seeds = sorted(
            {resultset.seed for resultset in sets if resultset.seed is not None}
        )
        if len(seeds) > 1:
            raise ExperimentError(
                f"cannot merge result sets produced under different experiment "
                f"seeds: {seeds}"
            )
        seen: Dict[Tuple[str, str, str], ResultRow] = {}
        for resultset in sets:
            for row in resultset.rows:
                key = row.row_key()
                if key in seen:
                    raise ExperimentError(
                        f"overlapping result sets: row {row.variant!r} "
                        f"(mode {row.mode!r}, hash {row.variant_hash}) appears "
                        "more than once — shard plans must be disjoint"
                    )
                seen[key] = row
        sizes = sorted(
            {row.n_receivers for row in seen.values() if row.n_receivers is not None}
        )
        if len(sizes) > 1:
            raise ExperimentError(
                f"cannot merge rows simulated at different n_receivers: {sizes}"
            )
        return cls(
            experiment=names[0],
            rows=sorted(seen.values(), key=_canonical_row_order),
            seed=seeds[0] if seeds else None,
        )

    # -- selection ---------------------------------------------------------------

    def labels(self) -> List[str]:
        """Variant labels in first-seen order."""
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.variant, None)
        return list(seen)

    def simulated(self) -> "ResultSet":
        return ResultSet(
            self.experiment, [row for row in self.rows if row.simulated], self.seed
        )

    def analytic(self) -> "ResultSet":
        return ResultSet(
            self.experiment, [row for row in self.rows if not row.simulated], self.seed
        )

    def row(self, variant: str, mode: Optional[str] = None) -> ResultRow:
        """The unique row for a variant (and mode, when both paths ran)."""
        matches = [
            row
            for row in self.rows
            if row.variant == variant and (mode is None or row.mode == mode)
        ]
        if not matches:
            raise ExperimentError(
                f"no row for variant {variant!r}"
                + (f" in mode {mode!r}" if mode else "")
                + f"; known variants: {self.labels()}"
            )
        if len(matches) > 1:
            raise ExperimentError(
                f"variant {variant!r} has {len(matches)} rows; pass mode="
                f"{sorted({row.mode for row in matches})}"
            )
        return matches[0]

    def row_by_hash(self, variant_hash: str, mode: Optional[str] = None) -> ResultRow:
        """The unique row whose parameter-identity hash matches.

        The hash-keyed sibling of :meth:`row`: identity comes from the
        (scenario, params) content hash rather than the display label, so
        callers holding provenance from another host's shard file can
        address the row without knowing how it was labelled.
        """
        matches = [
            row
            for row in self.rows
            if row.variant_hash == variant_hash
            and (mode is None or row.mode == mode)
        ]
        if not matches:
            raise ExperimentError(
                f"no row with variant hash {variant_hash!r}"
                + (f" in mode {mode!r}" if mode else "")
                + f"; known hashes: {sorted({row.variant_hash for row in self.rows})}"
            )
        if len(matches) > 1:
            raise ExperimentError(
                f"variant hash {variant_hash!r} matches {len(matches)} rows; "
                f"pass mode={sorted({row.mode for row in matches})}"
            )
        return matches[0]

    def reproduce(self, key: str, mode: Optional[str] = None) -> SimulationResult:
        """Re-run one simulated row, looked up by variant label or hash.

        Identity-based on :attr:`ResultRow.variant_hash` (falling back to
        the label), so merged / sharded / resumed sets reproduce
        correctly however their rows were reassembled.
        """
        matches = [
            row
            for row in self.simulated().rows
            if key in (row.variant, row.variant_hash)
            and (mode is None or row.mode == mode)
        ]
        if not matches:
            raise ExperimentError(
                f"no simulated row labelled or hashed {key!r}; "
                f"known variants: {self.labels()}"
            )
        if len(matches) > 1:
            raise ExperimentError(
                f"{key!r} matches {len(matches)} simulated rows; pass mode="
                f"{sorted({row.mode for row in matches})}"
            )
        return reproduce_row(matches[0])

    def metric_by_variant(self, metric: str, mode: Optional[str] = None) -> Dict[str, float]:
        """One metric across variants (simulated rows unless ``mode`` given)."""
        if mode is not None:
            rows = [row for row in self.rows if row.mode == mode]
        else:
            rows = self.simulated().rows or self.rows
        return {row.variant: row.metric(metric) for row in rows}

    def best(
        self, metric: str, mode: Optional[str] = None, minimize: bool = False
    ) -> ResultRow:
        """The row optimizing one metric."""
        subset = (
            [row for row in self.rows if row.mode == mode] if mode else self.rows
        )
        candidates = [row for row in subset if metric in row.metrics]
        if not candidates:
            raise ExperimentError(f"no rows carry metric {metric!r}")
        chooser = min if minimize else max
        return chooser(candidates, key=lambda row: row.metrics[metric])

    # -- rendering / export ------------------------------------------------------

    def table(self, metrics: Optional[Sequence[str]] = None) -> List[Dict[str, Any]]:
        """Rows flattened for :mod:`repro.io.tabular` rendering."""
        flattened = [row.table_row() for row in self.rows]
        if metrics is None:
            return flattened
        keep = ["variant", "mode", *metrics]
        return [
            {key: row[key] for key in keep if key in row} for row in flattened
        ]

    def to_markdown(self, metrics: Optional[Sequence[str]] = None) -> str:
        """Render the result set as a Markdown comparison table."""
        return render_markdown_table(self.table(metrics))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (see :mod:`repro.io.experiments_io`)."""
        from ..io.experiments_io import resultset_to_dict

        return resultset_to_dict(self)

    def canonical_dict(self) -> Dict[str, Any]:
        """The JSON form modulo execution telemetry — the bit-identity view.

        Two runs of the same experiment are *bit-identical* when their
        canonical dicts are equal: everything in :meth:`to_dict` except
        the :data:`WALL_CLOCK_METRICS` row metrics, which record machine
        time, and the :data:`TELEMETRY_ROW_FIELDS`, which record where
        the work ran; both legitimately differ between otherwise
        identical runs.
        Every equivalence assertion (merged shards == serial, scheduler
        fleet == serial, resumed == uninterrupted) compares this form.
        """
        payload = self.to_dict()
        for row in payload["rows"]:
            for name in TELEMETRY_ROW_FIELDS:
                row.pop(name, None)
            row["metrics"] = {
                name: value
                for name, value in row["metrics"].items()
                if name not in WALL_CLOCK_METRICS
            }
        return payload

    def save(self, path: str) -> None:
        """Write the result set (with provenance) as JSON."""
        from ..io.experiments_io import save_resultset

        save_resultset(self, path)

    # -- mitigation post-step ----------------------------------------------------

    def recommendations(
        self,
        domain: Optional[str] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> Dict[str, SystemRecommendations]:
        """Mitigation ranking per variant (rather than per bare system).

        Re-binds each variant's system from its provenance and runs the
        :func:`repro.mitigations.recommend_for_system` pipeline; returns
        one :class:`SystemRecommendations` per variant label.  ``labels``
        restricts the (analysis-heavy) ranking to a subset of variants.
        """
        if labels is not None:
            unknown = sorted(set(labels) - set(self.labels()))
            if unknown:
                raise ExperimentError(
                    f"unknown variants {unknown}; known: {self.labels()}"
                )
        recommendations: Dict[str, SystemRecommendations] = {}
        for row in self.rows:
            if row.variant in recommendations:
                continue
            if labels is not None and row.variant not in labels:
                continue
            variant = get_scenario(row.scenario).bind(**dict(row.params))
            recommendations[row.variant] = recommend_for_system(
                variant.system(), domain=domain
            )
        return recommendations
