"""Declarative experiment layer over the scenario registry and batch engine.

The public API for *comparing* human-in-the-loop configurations — the
activity the paper's case studies exist for.  Instead of hand-wiring one
simulator call per configuration, describe the comparison declaratively:

>>> from repro.experiments import Experiment, SweepSpec
>>> sweep = SweepSpec(
...     scenario="passwords",
...     grid={"distinct_accounts": [4, 8, 16], "single_sign_on": [False, True]},
... )
>>> experiment = Experiment.from_sweep(
...     "password-burden", sweep, n_receivers=1000, seed=7, task="recall-passwords"
... )
>>> results = experiment.run()            # SerialBackend is the default
>>> print(results.to_markdown(["protection_rate", "capability_failure_rate"]))

Execution strategy is pluggable (:mod:`repro.experiments.backends`):
``run(backend=ProcessBackend())`` fans out over the local process pool,
and a grid can be split across hosts with one
:class:`ShardBackend` invocation per shard —

>>> host_a = experiment.run(backend=ShardBackend(0, 2, checkpoint_dir="ckpt"))
>>> host_b = experiment.run(backend=ShardBackend(1, 2, checkpoint_dir="ckpt"))
>>> merged = ResultSet.merge(host_a, host_b)   # == the serial run, bit for bit

— shard ``k`` of ``n`` runs variant indices ``k, k + n, ...``
(:func:`~repro.experiments.backends.shard_slice`), with append-only
JSONL checkpoints (:mod:`repro.io.shards`) that
``experiment.resume("ckpt")`` completes after an interruption without
recomputing finished rows.  Shards, resumes, cluster workers
(:mod:`repro.cluster`) and service requests all run through one
checkpointed loop, :func:`~repro.experiments.backends.run_checkpointed`.

Layering:

* :mod:`repro.experiments.design` — :class:`VariantSpec` /
  :class:`SweepSpec` / :class:`Experiment` specifications,
* :mod:`repro.experiments.runner` — picklable :class:`VariantRun` work
  units with per-variant seeded RNG streams,
* :mod:`repro.experiments.backends` — the :class:`ExecutionBackend`
  protocol and the serial / process-pool / shard strategies,
* :mod:`repro.experiments.results` — the unified :class:`ResultSet` of
  :class:`ResultRow` provenance records (content-hashed row identity,
  :meth:`ResultSet.merge`), exported via :mod:`repro.io`, rendered via
  :mod:`repro.io.tabular`, and feeding the :mod:`repro.mitigations`
  ranking per variant.
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    ShardProgress,
    resolve_backend,
    resume_experiment,
)
from .design import (
    EXPERIMENT_PATHS,
    SEED_STRATEGIES,
    Experiment,
    SweepSpec,
    VariantSpec,
)
from .presets import password_case_study_variants
from .results import ExperimentError, ResultRow, ResultSet, reproduce_row
from .runner import (
    WALL_CLOCK_METRICS,
    VariantRun,
    execute,
    plan_runs,
    run_variant,
)

__all__ = [
    "password_case_study_variants",
    "Experiment",
    "SweepSpec",
    "VariantSpec",
    "EXPERIMENT_PATHS",
    "SEED_STRATEGIES",
    "ResultRow",
    "ResultSet",
    "ExperimentError",
    "reproduce_row",
    "VariantRun",
    "plan_runs",
    "run_variant",
    "execute",
    "WALL_CLOCK_METRICS",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "ShardBackend",
    "ShardProgress",
    "resolve_backend",
    "resume_experiment",
]
