"""Concrete secure-system models analysed with the framework.

Each module expresses one secure system from the paper (or from the
examples scattered through Sections 1–2) as a
:class:`~repro.core.task.SecureSystem` built from the core task model:

* :mod:`repro.systems.antiphishing` — browser anti-phishing warnings
  (case study 3.1),
* :mod:`repro.systems.passwords` — organizational password policies
  (case study 3.2),
* :mod:`repro.systems.ssl_indicators` — the passive SSL lock icon,
* :mod:`repro.systems.email_attachments` — judging suspicious attachments,
* :mod:`repro.systems.smartcard` — smartcard handling (Piazzalunga et al.),
* :mod:`repro.systems.file_permissions` — file-permission management
  (Maxion & Reeder),
* :mod:`repro.systems.graphical_passwords` — predictable graphical-password
  choices (Davis et al., Thorpe & van Oorschot).
"""

from . import (
    antiphishing,
    email_attachments,
    file_permissions,
    graphical_passwords,
    passwords,
    smartcard,
    ssl_indicators,
)
from .base import available_systems, build, builder_for
from .catalog import all_systems, system_descriptions
from .parameters import (
    Parameter,
    ParameterSpace,
    ScenarioComponents,
    common_parameter_space,
    variant_label,
)
from .scenario import (
    Scenario,
    ScenarioVariant,
    all_scenarios,
    available_scenarios,
    get_scenario,
    register_scenario,
)

__all__ = [
    "antiphishing",
    "passwords",
    "ssl_indicators",
    "email_attachments",
    "smartcard",
    "file_permissions",
    "graphical_passwords",
    "available_systems",
    "build",
    "builder_for",
    "all_systems",
    "system_descriptions",
    "Scenario",
    "ScenarioVariant",
    "register_scenario",
    "available_scenarios",
    "get_scenario",
    "all_scenarios",
    "Parameter",
    "ParameterSpace",
    "ScenarioComponents",
    "common_parameter_space",
    "variant_label",
]
