"""Tests for the stage-outcome trace layer (ISSUE 4 tentpole).

Pins the refactor's invariants:

* the batch and reference modes emit *identical* funnel tallies round by
  round (reference is the same kernel at width 1),
* traces agree with the streaming :class:`SimulationTally` counters
  (trace↔tally consistency).
"""

import numpy as np
import pytest

from repro.core.exceptions import ModelError, SimulationError
from repro.core.pipeline import build_pipeline
from repro.core.stages import GATE_CHECKPOINTS, Stage, StageTraceBatch
from repro.core.task import HumanSecurityTask
from repro.simulation import batch as batch_module
from repro.simulation.calibration import StageCalibration
from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
from repro.simulation.metrics import FunnelTally
from repro.simulation.population import general_web_population
from repro.simulation.rng import CounterDraws
from repro.systems import get_scenario

N = 400
SEED = 20260726


def _simulator(**overrides) -> HumanLoopSimulator:
    overrides.setdefault("n_receivers", N)
    overrides.setdefault("seed", SEED)
    return HumanLoopSimulator(SimulationConfig(**overrides))


class TestKernelTrace:
    """The kernel's StageTraceBatch must be internally consistent."""

    def _evaluate(self, warning_task, trace=True):
        plan = build_pipeline(warning_task, calibration=StageCalibration.neutral())
        draws = batch_module.draw_batch_counter(
            plan, general_web_population(), N, CounterDraws(SEED)
        )
        return plan, batch_module.evaluate_batch(plan, draws, trace=trace)

    def test_trace_labels_are_stages_then_gates(self, warning_task):
        plan, outcomes = self._evaluate(warning_task)
        trace = outcomes.trace
        assert trace is not None
        assert trace.labels == tuple(s.value for s in plan.stages) + GATE_CHECKPOINTS
        assert trace.count == N

    def test_trace_off_by_default(self, warning_task):
        _, outcomes = self._evaluate(warning_task, trace=False)
        assert outcomes.trace is None

    def test_entered_is_monotone_nonincreasing(self, warning_task):
        _, outcomes = self._evaluate(warning_task)
        entered = outcomes.trace.entered_counts()
        assert all(entered[k] >= entered[k + 1] for k in range(len(entered) - 1))
        # passed at one checkpoint is exactly entered at the next.
        passed = outcomes.trace.passed_counts()
        assert all(passed[k] == entered[k + 1] for k in range(len(entered) - 1))

    def test_trace_matches_outcome_arrays(self, warning_task):
        plan, outcomes = self._evaluate(warning_task)
        trace = outcomes.trace
        # Spoofed receivers enter nothing.
        assert not trace.entered[outcomes.spoofed].any()
        # First checkpoint is entered by every non-spoofed receiver.
        assert trace.entered[:, 0].sum() == np.count_nonzero(~outcomes.spoofed)
        # Attention checkpoint agrees with the dedicated counters.
        attention = trace.column(Stage.ATTENTION_SWITCH.value)
        assert (
            trace.entered[:, attention].sum()
            == np.count_nonzero(outcomes.attention_evaluated)
        )
        assert (
            trace.passed[:, attention].sum()
            == np.count_nonzero(outcomes.attention_succeeded)
        )
        # Behavior survivors are exactly the successes.
        from repro.core.behavior import BehaviorOutcome, outcome_code

        behavior = trace.column("behavior")
        assert trace.passed[:, behavior].sum() == np.count_nonzero(
            outcomes.outcome_codes == outcome_code(BehaviorOutcome.SUCCESS)
        )

    def test_no_communication_trace(self):
        task = HumanSecurityTask(name="silent", desired_action="act")
        plan = build_pipeline(task)
        draws = batch_module.draw_batch_counter(
            plan, general_web_population(), 50, CounterDraws(1)
        )
        outcomes = batch_module.evaluate_batch(plan, draws, trace=True)
        assert outcomes.trace.labels == ("self_initiated",)
        assert outcomes.trace.entered[:, 0].all()
        assert outcomes.trace.passed[:, 0].sum() == np.count_nonzero(outcomes.protected)

    def test_batch_trace_validation(self):
        with pytest.raises(ModelError):
            StageTraceBatch(
                labels=("a", "b"),
                stages=(),
                skipped=(),
                entered=np.zeros((3, 1), dtype=bool),
                passed=np.zeros((3, 1), dtype=bool),
                spoofed=np.zeros(3, dtype=bool),
            )
        with pytest.raises(ModelError):
            StageTraceBatch(
                labels=("a",),
                stages=(),
                skipped=(),
                entered=np.zeros((3, 1), dtype=bool),
                passed=np.zeros((2, 1), dtype=bool),
                spoofed=np.zeros(3, dtype=bool),
            )


class TestFunnelTally:
    def test_funnel_streams_across_chunks(self, warning_task):
        # Folding chunk by chunk must account for every encounter exactly
        # once, and stay consistent with the streaming tally it rides
        # alongside (chunking changes the draw stream, not the accounting).
        population = general_web_population()
        result = _simulator(batch_size=64).simulate_task(warning_task, population)
        funnel = result.funnel
        assert funnel.n == result.tally.n == N
        assert funnel.spoofed == result.tally.spoofed
        assert funnel.entered[0] == N - funnel.spoofed

    def test_funnel_matches_tally_counters(self, warning_task):
        result = _simulator().simulate_task(warning_task, general_web_population())
        funnel = result.funnel
        tally = result.tally
        attention = Stage.ATTENTION_SWITCH.value
        assert funnel.entered[funnel._column(attention)] == tally.attention_evaluated
        assert funnel.passed[funnel._column(attention)] == tally.attention_succeeded
        intention = funnel._column("intention")
        assert (
            funnel.entered[intention] - funnel.passed[intention]
            == tally.intention_failures
        )
        capability = funnel._column("capability")
        assert (
            funnel.entered[capability] - funnel.passed[capability]
            == tally.capability_failures
        )
        behavior = funnel._column("behavior")
        assert funnel.passed[behavior] == tally.outcome_counts_by_code[0]  # SUCCESS
        assert funnel.spoofed == tally.spoofed
        assert funnel.n == tally.n

    def test_batch_and_reference_funnels_agree_per_round(self, warning_task):
        population = general_web_population()
        common = dict(rounds=3, recovery_rate=0.2)
        batch = _simulator(batch_size=150).simulate_task(
            warning_task, population, mode="batch", **common
        )
        reference = _simulator(batch_size=150).simulate_task(
            warning_task, population, mode="reference", **common
        )
        assert batch.funnel.entered == reference.funnel.entered
        assert batch.funnel.passed == reference.funnel.passed
        assert len(batch.round_funnels) == len(reference.round_funnels) == 3
        for batch_round, reference_round in zip(batch.round_funnels, reference.round_funnels):
            assert batch_round.entered == reference_round.entered
            assert batch_round.passed == reference_round.passed
            assert batch_round.spoofed == reference_round.spoofed

    def test_trace_off_keeps_rates_and_drops_funnel(self, warning_task):
        population = general_web_population()
        on = _simulator().simulate_task(warning_task, population)
        off = _simulator(trace=False).simulate_task(warning_task, population)
        assert off.funnel is None
        assert off.round_funnels == []
        assert off.funnel_survival() == []
        assert off.outcome_counts() == on.outcome_counts()
        with pytest.raises(SimulationError):
            off.conditional_failure_rate("intention")

    def test_conditional_failure_and_survival_rates(self, warning_task):
        result = _simulator().simulate_task(warning_task, general_web_population())
        funnel = result.funnel
        for row in funnel.survival():
            label = row["checkpoint"]
            assert 0.0 <= row["conditional_failure_rate"] <= 1.0
            assert row["survival_rate"] <= row["entry_rate"] <= 1.0
            assert funnel.survival_rate(label) == row["survival_rate"]
        # survival through the last checkpoint is the heed rate.
        assert funnel.survival_rate("behavior") == pytest.approx(result.heed_rate())

    def test_merge_and_mismatch(self):
        a = FunnelTally(labels=("x", "y"), entered=[4, 2], passed=[2, 1], n=5, spoofed=1)
        b = FunnelTally(labels=("x", "y"), entered=[1, 1], passed=[1, 0], n=2, spoofed=0)
        a.merge(b)
        assert a.entered == [5, 3] and a.passed == [3, 1] and a.n == 7
        with pytest.raises(SimulationError):
            a.merge(FunnelTally(labels=("z",), entered=[1], passed=[0], n=1))
        with pytest.raises(SimulationError):
            a.entry_rate("nope")

    def test_round_funnel_metric_series(self):
        scenario = get_scenario("antiphishing")
        result = scenario.simulate(
            1_000, seed=SEED, task="heed-ie_passive-warning", rounds=6, recovery_rate=0.0
        )
        survival = result.round_funnel_metric(Stage.ATTENTION_SWITCH.value)
        assert len(survival) == 6
        # Habituation: attention-switch survival erodes over rounds.
        assert survival[-1] < survival[0]
        with pytest.raises(SimulationError):
            result.round_funnel_metric("behavior", rate="nope")
