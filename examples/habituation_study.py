#!/usr/bin/env python3
"""Habituation and the active–passive spectrum.

Section 2.1 warns that "frequent, active warnings about relatively low-risk
hazards ... may lead users to start ignoring not only these warnings, but
also similar warnings about more severe hazards", and Section 2.3.1 that
"over time users may ignore security indicators that they observe
frequently".  This example shows the decay three ways:

* a single-receiver exposure trace (:func:`simulate_exposure_series`) for
  three communications — the SSL lock icon, the passive IE anti-phishing
  warning, and the blocking Firefox warning,
* the same study at population scale through the multi-round engine
  (``scenario.simulate(..., rounds=N, recovery_rate=r)``), whose
  per-round :class:`~repro.simulation.metrics.RoundTally` series shows the
  notice rate eroding encounter after encounter — and recovering when
  exposure-free gaps are long enough,
* delivery-keyed vs **outcome-coupled** exposure accrual: §2.3.1 says
  habituation is driven by what receivers *do* at each encounter, so
  weighting dismissed encounters heavier than heeded ones
  (``dismiss_weight`` / ``heed_weight``) steepens or flattens the decay
  curve relative to the delivery-only rule, and
* the §2.1 design advice for a few contrasting hazard profiles.

Run with::

    python examples/habituation_study.py
"""

from __future__ import annotations

from repro.core import (
    HazardFrequency,
    HazardProfile,
    HazardSeverity,
    advise,
)
from repro.simulation.habituation import simulate_exposure_series
from repro.systems import antiphishing, get_scenario, ssl_indicators


def trace_habituation() -> None:
    print("Notice probability over repeated exposures")
    print("-" * 60)
    communications = {
        "ssl-lock-icon (passive indicator)": ssl_indicators.lock_icon_indicator(
            habituation_exposures=0
        ),
        "ie-passive warning": antiphishing.ie_passive_warning(),
        "firefox blocking warning": antiphishing.firefox_warning(),
    }
    checkpoints = (0, 5, 10, 20, 29)
    header = "exposure".ljust(34) + "".join(f"{index:>8d}" for index in checkpoints)
    print(header)
    for label, communication in communications.items():
        series = simulate_exposure_series(communication, exposures=30, seed=7)
        row = label.ljust(34)
        for index in checkpoints:
            row += f"{series[index].notice_probability:8.2f}"
        print(row)
    print()


def trace_engine_rounds(
    n_receivers: int = 4_000, rounds: int = 8, seed: int = 7
) -> None:
    """The same decay study at population scale, through the engine.

    Each receiver faces ``rounds`` consecutive hazard encounters; the
    engine carries their habituation exposure state between rounds, so the
    per-round notice rate traces the population-level decay curve (and the
    effect of recovery during exposure-free gaps).
    """
    print(f"Population notice rate over {rounds} hazard encounters (engine rounds)")
    print("-" * 60)
    scenario = get_scenario("antiphishing")
    studies = {
        "ie-passive, no recovery": ("heed-ie_passive-warning", 0.0),
        "ie-passive, recovery 0.5": ("heed-ie_passive-warning", 0.5),
        "firefox blocking, no recovery": ("heed-firefox-warning", 0.0),
    }
    header = "scenario".ljust(34) + "".join(f" round{index}" for index in range(rounds))
    print(header)
    for label, (task, recovery_rate) in studies.items():
        result = scenario.simulate(
            n_receivers,
            seed=seed,
            task=task,
            rounds=rounds,
            recovery_rate=recovery_rate,
        )
        row = label.ljust(34)
        for notice_rate in result.round_metric("notice_rate"):
            row += f"{notice_rate:7.2f}"
        print(row)
    print()


def trace_outcome_coupled_decay(
    n_receivers: int = 4_000, rounds: int = 8, seed: int = 7
) -> None:
    """Delivery-keyed vs outcome-coupled decay, for the passive IE warning.

    The delivery-only rule (unit weights) habituates every receiver the
    warning reached by one exposure per encounter.  Coupling the accrual
    to realized outcomes — dismissed encounters weigh more, heeded ones
    less — steepens the decay for a warning most users click through, and
    the per-round funnel shows exactly where the extra encounters die
    (attention-switch survival).
    """
    print(f"Delivery-keyed vs outcome-coupled decay ({rounds} encounters)")
    print("-" * 60)
    scenario = get_scenario("antiphishing")
    studies = {
        "delivery-only (1.0 / 1.0)": dict(dismiss_weight=1.0, heed_weight=1.0),
        "dismissal-heavy (3.0 / 0.5)": dict(dismiss_weight=3.0, heed_weight=0.5),
        "heed-only (0.0 / 1.0)": dict(dismiss_weight=0.0, heed_weight=1.0),
    }
    header = "accrual rule".ljust(34) + "".join(f" round{index}" for index in range(rounds))
    print(header)
    results = {}
    for label, weights in studies.items():
        result = scenario.simulate(
            n_receivers,
            seed=seed,
            task="heed-ie_passive-warning",
            rounds=rounds,
            recovery_rate=0.0,
            **weights,
        )
        results[label] = result
        row = label.ljust(34)
        for notice_rate in result.round_metric("notice_rate"):
            row += f"{notice_rate:7.2f}"
        print(row)
    print()
    print("Per-stage funnel, final round (dismissal-heavy accrual)")
    final = results["dismissal-heavy (3.0 / 0.5)"].round_funnels[-1]
    for funnel_row in final.survival():
        print(
            f"    {funnel_row['checkpoint']:<22} entered {funnel_row['entry_rate']:6.1%}  "
            f"survived {funnel_row['survival_rate']:6.1%}  "
            f"cond. failure {funnel_row['conditional_failure_rate']:6.1%}"
        )
    print()


def show_design_advice() -> None:
    print("§2.1 design advice for contrasting hazards")
    print("-" * 60)
    hazards = {
        "phishing page (severe, occasional, actionable)": HazardProfile(
            severity=HazardSeverity.HIGH,
            frequency=HazardFrequency.OCCASIONAL,
            user_action_necessity=0.9,
        ),
        "mixed-content resource (low risk, constant)": HazardProfile(
            severity=HazardSeverity.LOW,
            frequency=HazardFrequency.CONSTANT,
            user_action_necessity=0.3,
        ),
        "unpatched kernel (critical, user cannot act)": HazardProfile(
            severity=HazardSeverity.CRITICAL,
            frequency=HazardFrequency.FREQUENT,
            user_action_necessity=0.1,
        ),
    }
    for label, hazard in hazards.items():
        advice = advise(hazard)
        print(f"{label}:")
        print(
            f"    -> {advice.recommended_type.value}, "
            f"{advice.recommended_activeness.value}, "
            f"habituation risk {advice.habituation_risk:.2f}"
        )
    print()


def main() -> None:
    trace_habituation()
    trace_engine_rounds()
    trace_outcome_coupled_decay()
    show_design_advice()


if __name__ == "__main__":
    main()
