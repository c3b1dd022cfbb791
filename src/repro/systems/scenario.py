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

A variant's binder runs once per bind: the variant keeps the components
it built, and its analytic walk and its simulations all read that one
build.  The registered :class:`Scenario` caches nothing (it is shared
across the service's threads) and builds from its factories on every
call.

Every module in :mod:`repro.systems` registers one scenario here;
third-party systems can call :func:`register_scenario` themselves with a
:class:`Scenario` of their own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Mapping, Optional

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


class _ScenarioPaths:
    """The two framework readings, shared by scenarios and bound variants.

    Subclasses provide ``components()`` (the system / population /
    calibration triple) and a ``default_task`` attribute; everything here
    derives from those.  A bound variant returns the components its
    binder built once per bind, so every reading of one variant looks at
    the same system.
    """

    name: str
    default_task: Optional[str]

    def components(self) -> ScenarioComponents:  # pragma: no cover - overridden
        raise NotImplementedError

    def system(self) -> SecureSystem:
        return self.components().system

    def population(self) -> PopulationSpec:
        return self.components().population

    def calibration(self) -> StageCalibration:
        return self.components().calibration

    def tasks(self) -> List[HumanSecurityTask]:
        """The scenario's security-critical tasks."""
        return self.system().security_critical_tasks()

    def task(self, name: Optional[str] = None) -> HumanSecurityTask:
        """One task by name; defaults to ``default_task`` or the first.

        Exact names win; otherwise a *unique* name prefix is accepted, so
        experiment specs can say ``task="recall-passwords"`` and match
        ``recall-passwords[<any policy variant>]``.
        """
        system = self.system()
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

    def simulator(self, **config_overrides: Any) -> HumanLoopSimulator:
        """An engine configured with this scenario's calibration and engine
        defaults; explicit ``config_overrides`` win over both."""
        return HumanLoopSimulator(
            SimulationConfig(
                **{
                    "calibration": self.calibration(),
                    **self.simulation_defaults(),
                    **config_overrides,
                }
            )
        )

    def simulate(
        self,
        n_receivers: int,
        seed: int = 0,
        task: Optional[str] = None,
        mode: Optional[str] = None,
        **config_overrides: Any,
    ) -> SimulationResult:
        """Simulate the scenario population encountering one task.

        ``config_overrides`` flow into :class:`SimulationConfig` — e.g.
        ``rounds=10, recovery_rate=0.2`` runs the multi-round engine over
        this scenario, and ``rng_mode="matrix"`` selects the engine's
        decision-stream source (explicit overrides win over a bound
        variant's knobs).
        """
        return self.simulator(**config_overrides).simulate_task(
            self.task(task),
            self.population(),
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
    A registered scenario is shared across threads, so it caches nothing:
    every accessor calls its factory afresh.
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
            system=self.system(),
            population=self.population(),
            calibration=self.calibration(),
        )

    def system(self) -> SecureSystem:
        system = self.system_factory()
        system.validate()
        return system

    def population(self) -> PopulationSpec:
        return self.population_factory()

    def calibration(self) -> StageCalibration:
        return self.calibration_factory()

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
        The components are built and validated here, once: the binder may
        still reject a combination every value of which passed (e.g.
        activeness on no_warning), and the variant keeps what it built.
        """
        validated = self.parameter_space().validate(overrides)
        custom = {name: value for name, value in validated.items() if name in self.parameters}
        common = {name: value for name, value in validated.items() if name not in self.parameters}

        if self.binder is not None:
            built = self.binder(self.parameters.resolve(custom))
        elif custom:  # pragma: no cover - custom params imply a binder
            raise ModelError(
                f"scenario {self.name!r} declares parameters but no binder"
            )
        else:
            built = self.components()
        built.system.validate()

        population = built.population
        if common.get("training_fraction") is not None:
            population = dataclasses.replace(
                population, training_fraction=common["training_fraction"]
            )
        calibration_updates = {
            name: common[name]
            for name in ("user_noise_std", "intention_multiplier", "capability_multiplier")
            if common.get(name) is not None
        }
        calibration = built.calibration
        if calibration_updates:
            calibration = dataclasses.replace(calibration, **calibration_updates)

        return ScenarioVariant(
            name=variant_label(self.name, validated),
            description=self.description,
            base=self,
            params=dict(validated),
            built=ScenarioComponents(
                system=built.system, population=population, calibration=calibration
            ),
            default_task=self.default_task,
        )


@dataclasses.dataclass(frozen=True)
class ScenarioVariant(_ScenarioPaths):
    """A scenario bound to concrete parameter values.

    Offers the same ``analyze()`` / ``simulate()`` paths as
    :class:`Scenario` over the components :meth:`Scenario.bind` built
    (``built``, read and never mutated by every path, so one variant may
    serve several threads), while carrying full provenance: the base
    scenario and the validated overrides that produced it.  Variants are
    not registered; re-binding goes through the base, so
    ``variant.bind(x=1)`` layers on top of the existing overrides.
    """

    name: str
    description: str
    base: Scenario
    params: Mapping[str, Any]
    built: ScenarioComponents = dataclasses.field(repr=False, compare=False)
    default_task: Optional[str] = None

    def components(self) -> ScenarioComponents:
        return self.built

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


_SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register a scenario under its name (unique across the registry)."""
    if not isinstance(scenario, Scenario):
        raise ModelError(f"object {scenario!r} is not a Scenario")
    if scenario.name in _SCENARIOS:
        raise ModelError(f"scenario {scenario.name!r} already registered")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def available_scenarios() -> List[str]:
    """Names of every registered scenario."""
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    if name not in _SCENARIOS:
        raise ModelError(
            f"unknown scenario {name!r}; known: {available_scenarios()}",
            parameter="scenario",
        )
    return _SCENARIOS[name]


def all_scenarios() -> Dict[str, Scenario]:
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
