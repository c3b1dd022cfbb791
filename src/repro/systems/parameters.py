"""Typed scenario parameters.

The scenario registry (:mod:`repro.systems.scenario`) originally exposed
each modeled system as a *frozen* factory: the only way to study a
password-policy variant or a more passive warning was to hand-wire a new
system object.  This module supplies the typed parameter layer that makes
scenarios *bindable*:

* a :class:`Parameter` declares one named knob (kind, default, bounds or
  choices, whether ``None`` is a meaningful value),
* a :class:`ParameterSpace` is an ordered collection of parameters that
  validates override mappings and resolves them against the defaults, and
* :class:`ScenarioComponents` is what a scenario *binder* returns: the
  concrete system / population / calibration triple built for one set of
  parameter values.

Every registered scenario automatically accepts the **common** parameters
(:func:`common_parameter_space`): population training fraction, the
calibration's noise / intention / capability knobs, and the engine knobs
(``rounds`` / ``recovery_rate``, the outcome-coupled habituation weights
``dismiss_weight`` / ``heed_weight``, the funnel ``trace`` toggle, and
the decision-stream source ``rng_mode`` — all of which become the bound
variant's simulation defaults rather than touching the component build;
where the engine runs a variant's chunks is its own choice, not a
parameter).
Scenarios with a domain binder (passwords, anti-phishing) add their own
typed parameters on top — see
:func:`repro.systems.passwords.parameter_space`.

Validation errors raise :class:`~repro.core.exceptions.ModelError`, the
same class the registry uses for unknown scenarios, so callers of the
declarative experiment layer catch one exception type.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import ModelError
from ..core.task import SecureSystem
from ..simulation.calibration import StageCalibration
from ..simulation.engine import RNG_MODES
from ..simulation.population import PopulationSpec

__all__ = [
    "Parameter",
    "ParameterSpace",
    "ScenarioComponents",
    "ScenarioBinder",
    "common_parameter_space",
    "SIMULATION_PARAMETER_NAMES",
    "format_params",
    "variant_label",
]

#: The parameter kinds a scenario knob may declare.
PARAMETER_KINDS = ("float", "int", "bool", "choice")


@dataclasses.dataclass(frozen=True)
class Parameter:
    """One typed scenario knob.

    Parameters
    ----------
    name:
        Override key accepted by :meth:`Scenario.bind`.
    kind:
        ``"float"``, ``"int"``, ``"bool"``, or ``"choice"``.
    default:
        Value used when the knob is not overridden.
    low / high:
        Inclusive bounds for numeric kinds (either may be omitted).
    choices:
        Allowed values for the ``"choice"`` kind.
    allow_none:
        Whether ``None`` is a legal value (e.g. "no expiry", "keep the
        scenario default").
    """

    name: str
    kind: str
    default: Any = None
    low: Optional[float] = None
    high: Optional[float] = None
    choices: Optional[Tuple[Any, ...]] = None
    allow_none: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("parameter name must be non-empty")
        if self.kind not in PARAMETER_KINDS:
            raise ModelError(
                f"parameter {self.name!r}: kind must be one of {PARAMETER_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "choice" and not self.choices:
            raise ModelError(f"parameter {self.name!r}: choice kind requires choices")
        if self.low is not None and self.high is not None and self.high < self.low:
            raise ModelError(f"parameter {self.name!r}: high must be >= low")
        # The declared default must itself be valid.
        self.validate(self.default)

    def validate(self, value: Any) -> Any:
        """Validate (and coerce) one value; a rejection names this parameter."""
        if value is None:
            if not self.allow_none:
                raise self._rejection("does not accept None")
            return None
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise self._rejection(f"expects a bool, got {value!r}")
            return value
        if self.kind == "choice":
            if value not in self.choices:
                raise self._rejection(
                    f"expects one of {list(self.choices)}, got {value!r}"
                )
            return value
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise self._rejection(f"expects an int, got {value!r}")
            number: float = value
        else:  # float
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise self._rejection(f"expects a number, got {value!r}")
            number = float(value)
        if self.low is not None and number < self.low:
            raise self._rejection(f"must be >= {self.low}, got {value!r}")
        if self.high is not None and number > self.high:
            raise self._rejection(f"must be <= {self.high}, got {value!r}")
        return int(number) if self.kind == "int" else float(number)

    def _rejection(self, reason: str) -> ModelError:
        return ModelError(f"parameter {self.name!r} {reason}", parameter=self.name)


class ParameterSpace:
    """An ordered, name-unique collection of :class:`Parameter` objects."""

    def __init__(self, parameters: Sequence[Parameter] = ()) -> None:
        self._parameters: Dict[str, Parameter] = {}
        for parameter in parameters:
            if parameter.name in self._parameters:
                raise ModelError(f"duplicate parameter {parameter.name!r}")
            self._parameters[parameter.name] = parameter

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters.values())

    def __contains__(self, name: object) -> bool:
        return name in self._parameters

    def names(self) -> Tuple[str, ...]:
        return tuple(self._parameters)

    def get(self, name: str) -> Parameter:
        if name not in self._parameters:
            raise ModelError(
                f"unknown parameter {name!r}; known: {list(self._parameters)}",
                parameter=name,
            )
        return self._parameters[name]

    # -- validation -------------------------------------------------------------

    def defaults(self) -> Dict[str, Any]:
        """Default value of every parameter, in declaration order."""
        return {name: parameter.default for name, parameter in self._parameters.items()}

    def validate(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate an override mapping, one name at a time in order.

        The first rejected name — unknown, or with a bad value — raises a
        :class:`ModelError` that names it as its ``parameter``.
        """
        validated: Dict[str, Any] = {}
        for name, value in overrides.items():
            parameter = self._parameters.get(name)
            if parameter is None:
                unknown = [name for name in overrides if name not in self._parameters]
                raise ModelError(
                    f"unknown parameters {unknown}; known: {list(self._parameters)}",
                    parameter=name,
                )
            validated[name] = parameter.validate(value)
        return validated

    def resolve(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults updated with validated overrides, in declaration order."""
        validated = self.validate(overrides)
        resolved = self.defaults()
        resolved.update(validated)
        return resolved

    def merged(self, other: "ParameterSpace") -> "ParameterSpace":
        """A new space holding this space's parameters followed by ``other``'s."""
        collisions = [name for name in other.names() if name in self]
        if collisions:
            raise ModelError(f"parameter name collision: {collisions}")
        return ParameterSpace([*self, *other])

    def describe(self) -> Sequence[Dict[str, Any]]:
        """One row per parameter (for docs and ``--help``-style listings)."""
        return [
            {
                "name": parameter.name,
                "kind": parameter.kind,
                "default": parameter.default,
                "bounds": (parameter.low, parameter.high),
                "choices": parameter.choices,
                "description": parameter.description,
            }
            for parameter in self
        ]


@dataclasses.dataclass(frozen=True)
class ScenarioComponents:
    """The concrete component triple a scenario binder builds."""

    system: SecureSystem
    population: PopulationSpec
    calibration: StageCalibration


#: A scenario binder maps fully-resolved custom parameter values to components.
ScenarioBinder = Callable[[Mapping[str, Any]], ScenarioComponents]

#: The common knobs consumed by the engine (simulation defaults of a bound
#: variant) rather than by the component build.
SIMULATION_PARAMETER_NAMES = (
    "rounds",
    "recovery_rate",
    "dismiss_weight",
    "heed_weight",
    "trace",
    "rng_mode",
)


def common_parameter_space() -> ParameterSpace:
    """The parameters every registered scenario accepts.

    All default to ``None`` ("keep the scenario's own value"), so binding a
    scenario with no overrides reproduces the unbound scenario exactly.
    """
    return ParameterSpace(
        [
            Parameter(
                "training_fraction",
                "float",
                default=None,
                low=0.0,
                high=1.0,
                allow_none=True,
                description="Fraction of the population with security training.",
            ),
            Parameter(
                "user_noise_std",
                "float",
                default=None,
                low=0.0,
                high=0.5,
                allow_none=True,
                description="Per-user noise added to stage probabilities.",
            ),
            Parameter(
                "intention_multiplier",
                "float",
                default=None,
                low=0.0,
                high=10.0,
                allow_none=True,
                description="Calibration multiplier on the intention gate.",
            ),
            Parameter(
                "capability_multiplier",
                "float",
                default=None,
                low=0.0,
                high=10.0,
                allow_none=True,
                description="Calibration multiplier on the capability gate.",
            ),
            Parameter(
                "rounds",
                "int",
                default=None,
                low=1,
                high=10_000,
                allow_none=True,
                description="Hazard encounters each simulated receiver faces.",
            ),
            Parameter(
                "recovery_rate",
                "float",
                default=None,
                low=0.0,
                high=1.0,
                allow_none=True,
                description="Habituation recovery applied between encounter rounds.",
            ),
            Parameter(
                "dismiss_weight",
                "float",
                default=None,
                low=0.0,
                high=100.0,
                allow_none=True,
                description=(
                    "Exposure accrued by a delivered encounter the receiver "
                    "dismissed (hazard not avoided); outcome-coupled habituation."
                ),
            ),
            Parameter(
                "heed_weight",
                "float",
                default=None,
                low=0.0,
                high=100.0,
                allow_none=True,
                description=(
                    "Exposure accrued by a delivered encounter the receiver "
                    "heeded (hazard avoided); outcome-coupled habituation."
                ),
            ),
            Parameter(
                "trace",
                "bool",
                default=None,
                allow_none=True,
                description="Keep streaming per-stage funnel tallies for the run.",
            ),
            Parameter(
                "rng_mode",
                "choice",
                default=None,
                choices=RNG_MODES,
                allow_none=True,
                description=(
                    "Decision-stream source: 'counter' (O(1)-addressable keyed "
                    "streams, the engine default) or 'matrix' (the sequential "
                    "legacy layout, kept replayable for archived rows)."
                ),
            ),
        ]
    )


def format_params(params: Mapping[str, Any]) -> str:
    """Canonical ``name=value,...`` rendering of parameter overrides.

    The one formatter behind variant labels, sweep-point labels, and
    derived policy/calibration names, so provenance strings agree
    everywhere.
    """
    return ",".join(f"{name}={value}" for name, value in params.items())


def variant_label(scenario_name: str, params: Mapping[str, Any]) -> str:
    """Canonical human-readable label for a bound scenario variant."""
    if not params:
        return scenario_name
    return f"{scenario_name}[{format_params(params)}]"
