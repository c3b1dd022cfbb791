"""Ablation benchmark: the active–passive communication spectrum.

Section 2.1 places security communications on an active–passive spectrum
and warns that the choice trades off attention against habituation.  This
ablation sweeps the activeness of the anti-phishing warning from fully
passive to fully blocking and measures, with everything else held fixed:

* the simulated protection rate for a fresh (unhabituated) population,
* the notice rate after heavy habituation (30 prior exposures), and
* the habituation decay of the notice probability over repeated exposures.

Expected shape: protection rises monotonically (within noise) with
activeness; the habituation penalty is far larger for passive indicators,
reproducing the guidance that severe, action-critical hazards deserve
active warnings while frequent low-risk hazards should stay passive.

The activeness sweep is a one-axis grid of the parameterized
``antiphishing`` scenario run through :mod:`repro.experiments`; the shared
experiment seed holds the randomness fixed across grid points, so the
ablation isolates the activeness knob exactly as the hand-wired loop did.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.probabilities import habituation_factor
from repro.experiments import Experiment, ResultSet, SweepSpec
from repro.simulation.habituation import simulate_exposure_series
from repro.systems import antiphishing

ACTIVENESS_SWEEP = (0.1, 0.35, 0.6, 0.8, 1.0)
N_RECEIVERS = 300
SEED = 77


def _sweep_experiment() -> Experiment:
    return Experiment.from_sweep(
        "antiphishing-activeness-ablation",
        SweepSpec(
            scenario="antiphishing",
            grid={"activeness": list(ACTIVENESS_SWEEP)},
            base={"variant": "ie_active"},
        ),
        n_receivers=N_RECEIVERS,
        seed=SEED,
        seed_strategy="shared",
    )


def test_ablation_activeness_sweep(benchmark, record):
    results: ResultSet = benchmark.pedantic(
        _sweep_experiment().run, rounds=1, iterations=1
    )

    rates: Dict[float, float] = {
        row.params["activeness"]: row.metric("protection_rate") for row in results
    }

    # Shape check: protection rises (within simulation noise) with activeness
    # and the fully blocking warning beats the fully passive one by a wide margin.
    values = [rates[a] for a in ACTIVENESS_SWEEP]
    assert rates[1.0] > rates[0.1] + 0.3
    assert all(later >= earlier - 0.08 for earlier, later in zip(values, values[1:]))

    record({f"protection@activeness={a}": rates[a] for a in ACTIVENESS_SWEEP})
    print()
    print(results.to_markdown(["protection_rate", "notice_rate"]))


def test_ablation_habituation_penalty(benchmark, record):
    """Habituation erodes passive indicators much faster than blocking warnings."""

    def decay_profile() -> Dict[str, float]:
        passive = antiphishing.ie_passive_warning()
        blocking = antiphishing.firefox_warning()
        profile: Dict[str, float] = {}
        for label, communication in (("passive", passive), ("blocking", blocking)):
            series = simulate_exposure_series(
                communication, exposures=30, seed=SEED
            )
            profile[f"{label}.initial_notice"] = series[0].notice_probability
            profile[f"{label}.final_notice"] = series[-1].notice_probability
            profile[f"{label}.habituation_factor_30"] = habituation_factor(
                30, communication.activeness
            )
        return profile

    profile = benchmark(decay_profile)

    assert profile["blocking.final_notice"] > 0.4
    assert profile["passive.final_notice"] < 0.3
    assert profile["blocking.habituation_factor_30"] > profile["passive.habituation_factor_30"]

    record(profile)


def test_ablation_habituated_population(benchmark, record):
    """Prior exposures (the habituation knob) depress the notice rate in-engine."""

    def habituated_vs_fresh() -> Dict[str, float]:
        experiment = Experiment.from_sweep(
            "antiphishing-habituation-ablation",
            SweepSpec(
                scenario="antiphishing",
                grid={"prior_exposures": [0, 30]},
                base={"variant": "ie_passive"},
            ),
            n_receivers=N_RECEIVERS,
            seed=SEED,
            seed_strategy="shared",
        )
        results = experiment.run()
        return {
            f"notice@exposures={row.params['prior_exposures']}": row.metric("notice_rate")
            for row in results
        }

    rates = benchmark.pedantic(habituated_vs_fresh, rounds=1, iterations=1)

    assert rates["notice@exposures=30"] < rates["notice@exposures=0"]
    record(rates)
