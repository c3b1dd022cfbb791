"""Scenario registry: one uniform entry point per modeled secure system.

A *scenario* bundles everything needed to study one secure system with
either reading of the framework: the :class:`~repro.core.task.SecureSystem`
model, the receiver :class:`~repro.simulation.population.PopulationSpec`
expected to face it, and the
:class:`~repro.simulation.calibration.StageCalibration` anchoring the
simulation to the cited user studies (neutral when no study calibration
exists).  Any registered scenario can be dropped into

* the **analytic path** — :meth:`Scenario.analyze` runs the Table-1
  failure-identification walk of :mod:`repro.core.analysis`, and
* the **batch simulator** — :meth:`Scenario.simulate` runs the vectorized
  engine of :mod:`repro.simulation.engine` over the scenario population,

both of which traverse the shared stage pipeline of
:mod:`repro.core.pipeline`.  The benchmarks iterate the registry instead
of hand-wiring each system to the engine.

Scenarios are **parameterized**: every scenario accepts the common typed
knobs of :func:`repro.systems.parameters.common_parameter_space`
(population training fraction, calibration noise and gate multipliers),
and scenarios registered with a domain *binder* add their own typed
parameters — the password scenario exposes every
:class:`~repro.systems.passwords.PasswordPolicy` field, the anti-phishing
scenario its warning variant, activeness, and prior exposures.
:meth:`Scenario.bind` validates overrides against the parameter space and
returns a :class:`ScenarioVariant` — a concrete, unregistered scenario
with identical ``analyze()`` / ``simulate()`` entry points plus full
parameter provenance.  The declarative experiment layer
(:mod:`repro.experiments`) expands sweep grids into such variants.

Every module in :mod:`repro.systems` registers one scenario here;
third-party systems can call :func:`register_scenario` themselves — any
object satisfying :class:`ScenarioLike` is accepted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from ..core.analysis import SystemAnalysis, analyze_system
from ..core.exceptions import ModelError
from ..core.task import HumanSecurityTask, SecureSystem
from ..simulation.calibration import StageCalibration
from ..simulation.engine import HumanLoopSimulator, SimulationConfig
from ..simulation.metrics import SimulationResult
from ..simulation.population import PopulationSpec
from . import (  # noqa: F401  (imported for their registration side effects)
    antiphishing,
    email_attachments,
    file_permissions,
    graphical_passwords,
    passwords,
    smartcard,
    ssl_indicators,
)
from .base import builder_for
from .parameters import (
    SIMULATION_PARAMETER_NAMES,
    ParameterSpace,
    ScenarioBinder,
    ScenarioComponents,
    common_parameter_space,
    variant_label,
)

__all__ = [
    "ScenarioLike",
    "Scenario",
    "ScenarioVariant",
    "register_scenario",
    "available_scenarios",
    "get_scenario",
    "all_scenarios",
    "variant_hash",
]


def variant_hash(scenario_name: str, params: Mapping[str, Any]) -> str:
    """Stable content hash identifying one (scenario, parameters) point.

    The canonical row identity of the experiment layer: independent of
    variant declaration order, of which shard ran the point, and of the
    position a row ends up at after :meth:`ResultSet.merge` — two rows
    describe the same parameter point iff their hashes agree.  Computed
    over the canonical JSON form of the scenario name and the validated
    overrides (sorted by name), so it survives a JSON round-trip of the
    parameters unchanged.
    """
    canonical = json.dumps(
        {"scenario": scenario_name, "params": dict(params)},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@runtime_checkable
class ScenarioLike(Protocol):
    """The protocol every registered scenario satisfies."""

    name: str
    description: str

    def system(self) -> SecureSystem: ...

    def population(self) -> PopulationSpec: ...

    def calibration(self) -> StageCalibration: ...


class _ScenarioPaths:
    """The two framework readings, shared by scenarios and bound variants.

    Subclasses provide ``components()`` (one fresh system / population /
    calibration build) and a ``default_task`` attribute; everything here
    derives from those.  Single-component accessors go through
    ``components()`` too, so a bound variant's binder runs exactly once
    per access however many components the caller needs.
    """

    default_task: Optional[str]

    def components(self) -> ScenarioComponents:  # pragma: no cover - overridden
        raise NotImplementedError

    def system(self) -> SecureSystem:
        system = self.components().system
        system.validate()
        return system

    def population(self) -> PopulationSpec:
        return self.components().population

    def calibration(self) -> StageCalibration:
        return self.components().calibration

    def resolve_task(
        self, system: SecureSystem, name: Optional[str]
    ) -> HumanSecurityTask:
        """Resolve a task name (or unique prefix) within one built system.

        Callers that already hold a built system (the runner, the analytic
        path) use this to avoid rebuilding components just for the name.
        """
        if name is None:
            name = self.default_task
        if name is not None:
            try:
                return system.task_named(name)
            except ModelError:
                prefixed = [task for task in system.tasks if task.name.startswith(name)]
                if len(prefixed) == 1:
                    return prefixed[0]
                raise ModelError(
                    f"no task named (or uniquely prefixed by) {name!r}; "
                    f"known: {[task.name for task in system.tasks]}"
                )
        critical = system.security_critical_tasks()
        if not critical:
            raise ModelError(f"scenario {self.name!r} has no security-critical tasks")
        return critical[0]

    def tasks(self) -> List[HumanSecurityTask]:
        """The scenario's security-critical tasks."""
        return self.system().security_critical_tasks()

    def task(self, name: Optional[str] = None) -> HumanSecurityTask:
        """One task by name; defaults to ``default_task`` or the first.

        Exact names win; otherwise a *unique* name prefix is accepted, so
        experiment specs can say ``task="recall-passwords"`` and match
        ``recall-passwords[<any policy variant>]``.
        """
        return self.resolve_task(self.system(), name)

    def analyze(self) -> SystemAnalysis:
        """Run the analytic failure-identification walk over the system."""
        return analyze_system(self.system())

    def simulation_defaults(self) -> Dict[str, Any]:
        """Engine config defaults this scenario carries (none for base scenarios).

        Bound variants return their ``rounds`` / ``recovery_rate`` common
        knobs here, so a variant bound for a multi-round study runs
        multi-round through the ordinary ``simulate()`` entry point.
        """
        return {}

    def simulator(self, **config_overrides) -> HumanLoopSimulator:
        """An engine configured with this scenario's calibration and engine
        defaults; explicit ``config_overrides`` win over both."""
        if "calibration" not in config_overrides:
            config_overrides["calibration"] = self.calibration()
        for name, value in self.simulation_defaults().items():
            config_overrides.setdefault(name, value)
        return HumanLoopSimulator(SimulationConfig(**config_overrides))

    def simulate(
        self,
        n_receivers: int,
        seed: int = 0,
        task: Optional[str] = None,
        mode: Optional[str] = None,
        **config_overrides,
    ) -> SimulationResult:
        """Simulate the scenario population encountering one task.

        ``config_overrides`` flow into :class:`SimulationConfig` — e.g.
        ``rounds=10, recovery_rate=0.2`` runs the multi-round engine over
        this scenario, and ``rng_mode="matrix"`` selects the engine's
        decision-stream source (explicit overrides win over a bound
        variant's knobs).
        """
        components = self.components()
        components.system.validate()
        simulator = self.simulator(
            **{"calibration": components.calibration, **config_overrides}
        )
        return simulator.simulate_task(
            self.resolve_task(components.system, task),
            components.population,
            n_receivers=n_receivers,
            seed=seed,
            mode=mode,
        )


@dataclasses.dataclass(frozen=True)
class Scenario(_ScenarioPaths):
    """A registered scenario: system + population + calibration factories.

    ``parameters`` declares the scenario's own typed knobs and ``binder``
    maps resolved values of those knobs to concrete components; scenarios
    without a binder still accept the common parameters via :meth:`bind`.
    """

    name: str
    description: str
    system_factory: Callable[[], SecureSystem]
    population_factory: Callable[[], PopulationSpec]
    calibration_factory: Callable[[], StageCalibration] = StageCalibration.neutral
    default_task: Optional[str] = None
    parameters: ParameterSpace = dataclasses.field(default_factory=ParameterSpace)
    binder: Optional[ScenarioBinder] = None
    _parameter_space: ParameterSpace = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Parameters and spaces are never mutated, so the merged space is
        # built once here and shared by every validate/bind call.
        object.__setattr__(
            self,
            "_parameter_space",
            self.parameters.merged(common_parameter_space()),
        )

    # -- components --------------------------------------------------------------

    def components(self) -> ScenarioComponents:
        return ScenarioComponents(
            system=self.system_factory(),
            population=self.population_factory(),
            calibration=self.calibration_factory(),
        )

    # -- parameter binding -------------------------------------------------------

    def parameter_space(self) -> ParameterSpace:
        """The scenario's own parameters followed by the common ones."""
        return self._parameter_space

    def variant_hash(self) -> str:
        """The identity hash of this scenario with no overrides bound."""
        return variant_hash(self.name, {})

    def bind(self, **overrides: Any) -> "ScenarioVariant":
        """Bind typed parameter overrides into a concrete scenario variant.

        Overrides are validated against :meth:`parameter_space`; custom
        parameters flow through the scenario's binder, the common ones are
        applied to whatever population / calibration results.  Binding with
        no overrides reproduces the base scenario's components exactly.
        """
        space = self.parameter_space()
        validated = space.validate(overrides)
        custom = {name: value for name, value in validated.items() if name in self.parameters}
        common = {name: value for name, value in validated.items() if name not in self.parameters}

        if self.binder is not None:
            values = self.parameters.resolve(custom)
            binder = self.binder
            base_components: Callable[[], ScenarioComponents] = lambda: binder(values)
        elif custom:  # pragma: no cover - custom params imply a binder
            raise ModelError(
                f"scenario {self.name!r} declares parameters but no binder"
            )
        else:
            base_components = self.components

        training_fraction = common.get("training_fraction")
        calibration_updates = {
            name: common[name]
            for name in ("user_noise_std", "intention_multiplier", "capability_multiplier")
            if common.get(name) is not None
        }

        def components_factory() -> ScenarioComponents:
            components = base_components()
            population = components.population
            calibration = components.calibration
            if training_fraction is not None:
                population = dataclasses.replace(
                    population, training_fraction=training_fraction
                )
            if calibration_updates:
                calibration = dataclasses.replace(calibration, **calibration_updates)
            return ScenarioComponents(
                system=components.system, population=population, calibration=calibration
            )

        # Fail fast: per-value validation passed, but the binder may still
        # reject the combination (e.g. activeness on no_warning).
        components_factory()

        return ScenarioVariant(
            name=variant_label(self.name, validated),
            description=self.description,
            base=self,
            params=dict(validated),
            components_factory=components_factory,
            default_task=self.default_task,
        )


@dataclasses.dataclass(frozen=True)
class ScenarioVariant(_ScenarioPaths):
    """A scenario bound to concrete parameter values.

    Satisfies :class:`ScenarioLike` (and offers the same ``analyze()`` /
    ``simulate()`` paths as :class:`Scenario`) while carrying full
    provenance: the base scenario and the validated overrides that produced
    it.  Variants are not registered; re-binding goes through the base, so
    ``variant.bind(x=1)`` layers on top of the existing overrides.
    """

    name: str
    description: str
    base: Scenario
    params: Mapping[str, Any]
    components_factory: Callable[[], ScenarioComponents]
    default_task: Optional[str] = None

    def components(self) -> ScenarioComponents:
        return self.components_factory()

    def simulation_defaults(self) -> Dict[str, Any]:
        return {
            name: self.params[name]
            for name in SIMULATION_PARAMETER_NAMES
            if self.params.get(name) is not None
        }

    def parameter_space(self) -> ParameterSpace:
        return self.base.parameter_space()

    def variant_hash(self) -> str:
        """The identity hash of this variant's (base scenario, overrides) point."""
        return variant_hash(self.base.name, self.params)

    def bind(self, **overrides: Any) -> "ScenarioVariant":
        merged: Dict[str, Any] = {**dict(self.params), **overrides}
        return self.base.bind(**merged)


_SCENARIOS: Dict[str, ScenarioLike] = {}


def register_scenario(scenario: ScenarioLike) -> ScenarioLike:
    """Register a scenario under its name (unique across the registry)."""
    if not isinstance(scenario, ScenarioLike):
        raise ModelError(f"object {scenario!r} does not satisfy the Scenario protocol")
    if scenario.name in _SCENARIOS:
        raise ModelError(f"scenario {scenario.name!r} already registered")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def available_scenarios() -> List[str]:
    """Names of every registered scenario."""
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> ScenarioLike:
    """Look up a registered scenario by name."""
    if name not in _SCENARIOS:
        raise ModelError(
            f"unknown scenario {name!r}; known: {available_scenarios()}",
            parameter="scenario",
        )
    return _SCENARIOS[name]


def all_scenarios() -> Dict[str, ScenarioLike]:
    """Every registered scenario, keyed by name."""
    return dict(_SCENARIOS)


# ---------------------------------------------------------------------------
# Built-in scenarios: one per modeled system.  Population factories come
# from the system modules; systems without a study calibration run neutral.
# Scenarios whose module exposes a parameter space register it (with the
# matching binder) so the experiment layer can sweep them declaratively.
# ---------------------------------------------------------------------------

def _builtin(
    name: str,
    population_factory,
    calibration_factory=None,
    parameters: Optional[ParameterSpace] = None,
    binder: Optional[ScenarioBinder] = None,
) -> None:
    register_scenario(
        Scenario(
            name=name,
            description=builder_for(name).description,
            system_factory=builder_for(name).build,
            population_factory=population_factory,
            calibration_factory=calibration_factory or StageCalibration.neutral,
            parameters=parameters or ParameterSpace(),
            binder=binder,
        )
    )


_builtin(
    "antiphishing",
    antiphishing.population,
    antiphishing.calibration,
    parameters=antiphishing.parameter_space(),
    binder=antiphishing.scenario_components,
)
_builtin(
    "passwords",
    passwords.population,
    passwords.calibration,
    parameters=passwords.parameter_space(),
    binder=passwords.scenario_components,
)
_builtin(
    "ssl-indicator",
    ssl_indicators.population,
    parameters=ssl_indicators.parameter_space(),
    binder=ssl_indicators.scenario_components,
)
_builtin(
    "email-attachments",
    email_attachments.population,
    parameters=email_attachments.parameter_space(),
    binder=email_attachments.scenario_components,
)
_builtin(
    "smartcard",
    smartcard.population,
    parameters=smartcard.parameter_space(),
    binder=smartcard.scenario_components,
)
_builtin(
    "file-permissions",
    file_permissions.population,
    parameters=file_permissions.parameter_space(),
    binder=file_permissions.scenario_components,
)
_builtin(
    "graphical-passwords",
    graphical_passwords.population,
    parameters=graphical_passwords.parameter_space(),
    binder=graphical_passwords.scenario_components,
)
