"""Declarative experiment specifications: variants, sweep grids, experiments.

This is the layer ROADMAP.md asked for: instead of hand-wiring each
comparison (one simulator call per password-policy variant, per warning
activeness, ...), an :class:`Experiment` names a registered scenario, the
parameter points to visit, and how to run them — and produces a
:class:`~repro.experiments.results.ResultSet` with full provenance.

* A :class:`VariantSpec` is one parameter point of one scenario.
* A :class:`SweepSpec` expands a parameter grid (Cartesian product, in
  declaration order) into variants, with optional fixed ``base``
  overrides applied to every point.
* An :class:`Experiment` runs each variant through the analytic walk
  and/or the simulation engine.  Each variant gets its own seeded RNG
  stream (``seed_strategy="per-variant"``, derived deterministically from
  the experiment seed via :class:`numpy.random.SeedSequence`) or shares
  the experiment seed (``"shared"``, i.e. common random numbers — the
  right choice when comparing variants pairwise).  *How* the variants
  execute is a separate, pluggable concern: ``run(backend=...)`` accepts
  any :class:`~repro.experiments.backends.ExecutionBackend` (serial, a
  local process pool, or one shard per host — see
  :mod:`repro.experiments.backends`), and :meth:`Experiment.resume`
  completes an interrupted run from its checkpoint directory.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..simulation.engine import SIMULATION_MODES
from ..systems.parameters import format_params, variant_label
from ..systems.scenario import get_scenario

if TYPE_CHECKING:  # deferred: backends imports this module
    from .backends import ExecutionBackend
from .results import ExperimentError, ResultSet

__all__ = ["VariantSpec", "SweepSpec", "Experiment", "EXPERIMENT_PATHS", "SEED_STRATEGIES"]

#: The framework readings an experiment may run per variant.
EXPERIMENT_PATHS = ("analyze", "simulate")

#: How per-variant seeds derive from the experiment seed.
SEED_STRATEGIES = ("per-variant", "shared")


@dataclasses.dataclass(frozen=True)
class VariantSpec:
    """One parameter point of one registered scenario."""

    scenario: str
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    label: Optional[str] = None

    def resolved_label(self) -> str:
        return self.label if self.label is not None else variant_label(
            self.scenario, self.params
        )


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid over one scenario.

    ``grid`` maps parameter names to the values each axis visits; ``base``
    holds fixed overrides applied to every grid point.  Expansion is the
    Cartesian product with the *last* axis varying fastest, matching
    nested-loop reading order.
    """

    scenario: str
    grid: Mapping[str, Sequence[Any]]
    base: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ExperimentError("sweep grid must name at least one parameter")
        for name, values in self.grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise ExperimentError(
                    f"grid axis {name!r} must be a sequence of values, got {values!r}"
                )
            if len(values) == 0:
                raise ExperimentError(f"grid axis {name!r} has no values")
        overlap = set(self.grid) & set(self.base)
        if overlap:
            raise ExperimentError(
                f"parameters {sorted(overlap)} appear in both grid and base"
            )
        # Validate names and values against the scenario's parameter space
        # eagerly, so a bad spec fails at construction, not mid-run.
        space = get_scenario(self.scenario).parameter_space()
        space.validate(dict(self.base))
        for name, values in self.grid.items():
            for value in values:
                space.validate({name: value})

    @property
    def size(self) -> int:
        product = 1
        for values in self.grid.values():
            product *= len(values)
        return product

    def expand(self) -> Tuple[VariantSpec, ...]:
        """Every grid point as a :class:`VariantSpec`, labelled by its axes."""
        axes = list(self.grid)
        variants = []
        for point in itertools.product(*(self.grid[axis] for axis in axes)):
            swept = dict(zip(axes, point))
            label = format_params(swept)
            variants.append(
                VariantSpec(
                    scenario=self.scenario,
                    params={**dict(self.base), **swept},
                    label=label,
                )
            )
        return tuple(variants)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """A named, declarative experiment over scenario variants.

    Parameters
    ----------
    name:
        Experiment name (recorded on every result row).
    variants:
        The parameter points to run (see :meth:`from_sweep` for grids).
    n_receivers / seed / mode / batch_size:
        Simulation settings, applied to every variant.  Engine knobs
        (``rounds``, ``recovery_rate``, ``dismiss_weight``,
        ``heed_weight``, ``trace``, ...) are common scenario parameters
        and are set only through each variant's ``params`` — a sweep's
        ``base`` to fix one for every point, a grid axis to sweep it — so
        they are validated by the scenario's parameter space and belong
        to every row's identity.
    paths:
        Which framework readings to run per variant: ``("simulate",)``
        (default), ``("analyze",)``, or both.
    task:
        Task name (or unique prefix) to study; default — each variant's
        default task.
    seed_strategy:
        ``"per-variant"`` — independent seeded streams derived from
        ``seed``; ``"shared"`` — every variant runs on the experiment
        seed (common random numbers).
    """

    name: str
    variants: Tuple[VariantSpec, ...]
    n_receivers: int = 500
    seed: int = 0
    mode: str = "batch"
    paths: Tuple[str, ...] = ("simulate",)
    task: Optional[str] = None
    batch_size: Optional[int] = None
    seed_strategy: str = "per-variant"

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.name:
            raise ExperimentError("experiment name must be non-empty")
        if not self.variants:
            raise ExperimentError("experiment needs at least one variant")
        if self.n_receivers <= 0:
            raise ExperimentError("n_receivers must be positive")
        if self.seed < 0:
            raise ExperimentError("seed must be non-negative")
        if self.mode not in SIMULATION_MODES:
            raise ExperimentError(
                f"mode must be one of {SIMULATION_MODES}, got {self.mode!r}"
            )
        if not self.paths or any(path not in EXPERIMENT_PATHS for path in self.paths):
            raise ExperimentError(
                f"paths must be a non-empty subset of {EXPERIMENT_PATHS}, got {self.paths!r}"
            )
        if self.seed_strategy not in SEED_STRATEGIES:
            raise ExperimentError(
                f"seed_strategy must be one of {SEED_STRATEGIES}, got {self.seed_strategy!r}"
            )
        counts = collections.Counter(
            variant.resolved_label() for variant in self.variants
        )
        duplicates = sorted(label for label, count in counts.items() if count > 1)
        if duplicates:
            raise ExperimentError(f"duplicate variant labels: {duplicates}")

    @classmethod
    def from_sweep(cls, name: str, sweep: SweepSpec, **settings: Any) -> "Experiment":
        """An experiment over every point of a sweep grid."""
        return cls(name=name, variants=sweep.expand(), **settings)

    def variant_seed(self, index: int) -> int:
        """The seed of the ``index``-th variant under the seed strategy."""
        if self.seed_strategy == "shared":
            return self.seed
        # REP001 exemplar: per-variant streams derive from an explicit
        # SeedSequence over (experiment seed, variant declaration index),
        # so seeds never depend on execution order or ambient state.
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def run(self, backend: Optional["ExecutionBackend"] = None) -> ResultSet:
        """Run every variant and collect a :class:`ResultSet`.

        ``backend`` selects the execution strategy — any
        :class:`~repro.experiments.backends.ExecutionBackend`:
        :class:`~repro.experiments.backends.SerialBackend` (the default),
        :class:`~repro.experiments.backends.ProcessBackend` for a local
        pool, or :class:`~repro.experiments.backends.ShardBackend` to run
        one deterministic shard of the grid per invocation.  Results are
        bit-identical across backends (each variant's stream derives from
        the experiment seed and the variant index, never from execution
        order); shard results reassemble via :meth:`ResultSet.merge`.
        """
        from .backends import resolve_backend  # deferred: backends imports this module

        return resolve_backend(backend).execute(self)

    def resume(self, checkpoint_dir: str) -> ResultSet:
        """Complete an interrupted (or partially-sharded) run from checkpoints.

        Reads every JSONL shard file in ``checkpoint_dir``, skips rows
        already completed, runs only what is missing (persisting the
        recomputed rows append-only alongside the shards), and returns
        the full :class:`ResultSet` — bit-identical to a serial run that
        was never interrupted.
        """
        from .backends import resume_experiment  # deferred, as above

        return resume_experiment(self, checkpoint_dir)
