"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import (
    Communication,
    CommunicationType,
    Environment,
    HazardFrequency,
    HazardProfile,
    HazardSeverity,
    HumanSecurityTask,
    SecureSystem,
    StimulusKind,
    TaskDesign,
    expert_receiver,
    novice_receiver,
    typical_receiver,
)
from repro.core.receiver import Capabilities


@pytest.fixture
def severe_hazard() -> HazardProfile:
    """A severe hazard for which user action is critical."""
    return HazardProfile(
        severity=HazardSeverity.HIGH,
        frequency=HazardFrequency.OCCASIONAL,
        user_action_necessity=0.9,
        description="test hazard",
    )


@pytest.fixture
def blocking_warning(severe_hazard: HazardProfile) -> Communication:
    """A clear, blocking warning with instructions."""
    return Communication(
        name="test-blocking-warning",
        comm_type=CommunicationType.WARNING,
        activeness=1.0,
        hazard=severe_hazard,
        clarity=0.8,
        includes_instructions=True,
        conspicuity=0.9,
    )


@pytest.fixture
def passive_indicator(severe_hazard: HazardProfile) -> Communication:
    """A subtle passive indicator for the same hazard."""
    return Communication(
        name="test-passive-indicator",
        comm_type=CommunicationType.STATUS_INDICATOR,
        activeness=0.1,
        hazard=severe_hazard,
        clarity=0.3,
        conspicuity=0.2,
    )


@pytest.fixture
def busy_environment() -> Environment:
    """A distracting environment with a demanding primary task."""
    environment = Environment(description="busy")
    environment.add_stimulus(StimulusKind.PRIMARY_TASK, 0.7, "primary task")
    environment.add_stimulus(StimulusKind.UNRELATED_COMMUNICATION, 0.3, "notifications")
    return environment


@pytest.fixture
def warning_task(blocking_warning: Communication, busy_environment: Environment) -> HumanSecurityTask:
    """A simple security-critical task triggered by the blocking warning."""
    return HumanSecurityTask(
        name="heed-test-warning",
        description="Heed the warning and leave.",
        communication=blocking_warning,
        task_design=TaskDesign(steps=1, controls_discoverable=0.9, feedback_quality=0.8),
        environment=busy_environment,
        receivers=[typical_receiver(), novice_receiver(), expert_receiver()],
        desired_action="leave the hazardous site",
        failure_consequence="credentials stolen",
    )


@pytest.fixture
def memory_task(passive_indicator: Communication) -> HumanSecurityTask:
    """A task whose capability requirements exceed typical memory capacity."""
    return HumanSecurityTask(
        name="remember-many-secrets",
        description="Remember many random secrets.",
        communication=passive_indicator,
        capability_requirements=Capabilities(
            knowledge_to_act=0.2,
            cognitive_skill=0.2,
            physical_skill=0.1,
            memory_capacity=0.9,
            has_required_software=False,
            has_required_device=False,
        ),
        desired_action="recall every secret on demand",
    )


@pytest.fixture
def small_system(warning_task: HumanSecurityTask, memory_task: HumanSecurityTask) -> SecureSystem:
    """A two-task system used by analysis/process tests."""
    return SecureSystem(
        name="test-system",
        description="two-task test system",
        tasks=[warning_task, memory_task],
    )
