"""Exception hierarchy for the human-in-the-loop framework library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  Sub-classes signal the layer that raised them:
model construction, analysis, simulation, or serialization.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this library.

    An error that rejects one named input says which: ``parameter`` names
    a parameter (or the scenario) whose *value* was rejected, ``field`` a
    malformed input field.  The service copies either into its error body.
    """

    def __init__(
        self, *args: object, parameter: Optional[str] = None, field: Optional[str] = None
    ) -> None:
        super().__init__(*args)
        self.parameter = parameter
        self.field = field


class ModelError(ReproError):
    """Raised when a framework model object is constructed inconsistently.

    Examples: a communication with an activeness score outside ``[0, 1]``,
    a receiver profile with a negative age, or a task that references an
    undefined communication.
    """


class ValidationError(ModelError):
    """Raised when validation of a fully-built model object fails."""


class AnalysisError(ReproError):
    """Raised when a framework analysis cannot be completed.

    Typically indicates that required inputs (task, communication, receiver
    profile) are missing or mutually inconsistent.
    """


class UnknownComponentError(AnalysisError):
    """Raised when a component name does not exist in the framework."""

    def __init__(self, component: object) -> None:
        super().__init__(f"unknown framework component: {component!r}")
        self.component = component


class SimulationError(ReproError):
    """Raised when the human-receiver simulation is misconfigured."""


class CalibrationError(SimulationError):
    """Raised when a calibration is missing parameters or is out of range."""


class SerializationError(ReproError):
    """Raised when a model cannot be serialized to or parsed from JSON."""


class ProcessError(ReproError):
    """Raised when the human threat identification and mitigation process
    is driven incorrectly (e.g. steps executed out of order)."""


class ClusterError(ReproError):
    """Raised when the cluster scheduler cannot complete a sharded sweep.

    Examples: a shard exhausting its retry budget, a worker transport that
    cannot launch processes, or a scheduler misconfiguration (zero
    workers, negative timeouts).
    """
