"""Tests for habituation dynamics."""

import pytest

from repro.core.communication import Communication, CommunicationType
from repro.core.exceptions import SimulationError
from repro.simulation.habituation import HabituationState, simulate_exposure_series


def _indicator(activeness: float = 0.2) -> Communication:
    return Communication(
        name="indicator",
        comm_type=CommunicationType.STATUS_INDICATOR,
        activeness=activeness,
        conspicuity=0.4,
    )


class TestHabituationState:
    def test_exposures_accumulate(self):
        state = HabituationState()
        communication = _indicator()
        assert state.exposure_count(communication) == 0
        state.record_exposure(communication)
        state.record_exposure(communication)
        assert state.exposure_count(communication) == 2

    def test_baked_in_prior_exposures_respected(self):
        state = HabituationState()
        seasoned = _indicator().with_exposures(10)
        assert state.exposure_count(seasoned) == 10

    def test_attention_factor_decreases_with_exposures(self):
        state = HabituationState()
        communication = _indicator()
        fresh = state.attention_factor(communication)
        for _ in range(20):
            state.record_exposure(communication)
        worn = state.attention_factor(communication)
        assert worn < fresh

    def test_recovery_reduces_exposures(self):
        state = HabituationState(recovery_rate=0.5)
        communication = _indicator()
        for _ in range(8):
            state.record_exposure(communication)
        state.recover(periods=2)
        assert state.exposure_count(communication) == pytest.approx(2.0)

    def test_recovery_validation(self):
        with pytest.raises(SimulationError):
            HabituationState(recovery_rate=1.5)
        with pytest.raises(SimulationError):
            HabituationState().recover(periods=-1)


#: ``noticed`` flags of a 30-exposure series of ``_indicator(0.5)``, per
#: (seed, (dismiss_weight, heed_weight)), recorded from the scalar
#: Bernoulli sampler the series used to draw with.
RECORDED_NOTICED = {
    (0, (1.0, 1.0)): "011100000001010100001100000000",
    (0, (3.0, 0.5)): "011100000001010000001100000000",
    (7, (1.0, 1.0)): "000110100001100000000101100000",
    (7, (3.0, 0.5)): "000110100000000000000001100000",
}


class TestExposureSeries:
    @pytest.mark.parametrize("seed, weights", sorted(RECORDED_NOTICED))
    def test_noticed_flags_match_recording(self, seed, weights):
        dismiss_weight, heed_weight = weights
        series = simulate_exposure_series(
            _indicator(0.5),
            exposures=30,
            seed=seed,
            dismiss_weight=dismiss_weight,
            heed_weight=heed_weight,
        )
        flags = "".join("1" if point.noticed else "0" for point in series)
        assert flags == RECORDED_NOTICED[(seed, weights)]

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError):
            simulate_exposure_series(_indicator(), exposures=3, seed=-1)

    def test_series_length_and_determinism(self):
        series_a = simulate_exposure_series(_indicator(), exposures=15, seed=5)
        series_b = simulate_exposure_series(_indicator(), exposures=15, seed=5)
        assert len(series_a) == 15
        assert [point.noticed for point in series_a] == [point.noticed for point in series_b]

    def test_notice_probability_declines_over_exposures(self):
        series = simulate_exposure_series(_indicator(), exposures=25, seed=1)
        assert series[-1].notice_probability < series[0].notice_probability

    def test_blocking_warning_stays_noticed_while_passive_fades(self):
        from repro.core.impediments import Environment

        quiet = Environment.quiet()
        passive = simulate_exposure_series(
            _indicator(0.1), environment=quiet, exposures=30, seed=2
        )
        blocking = simulate_exposure_series(
            Communication(name="block", comm_type=CommunicationType.WARNING,
                          activeness=1.0, conspicuity=0.9),
            environment=quiet,
            exposures=30,
            seed=2,
        )
        # After heavy exposure the passive indicator is mostly ignored while
        # the blocking warning is still noticed by most receivers.
        assert passive[-1].notice_probability < 0.3
        assert blocking[-1].notice_probability > 0.4
        # And the passive indicator loses a larger share of its initial
        # notice probability than the blocking warning does.
        passive_retention = passive[-1].notice_probability / passive[0].notice_probability
        blocking_retention = blocking[-1].notice_probability / blocking[0].notice_probability
        assert passive_retention < blocking_retention + 0.05

    def test_zero_exposures_gives_empty_series(self):
        assert simulate_exposure_series(_indicator(), exposures=0) == []

    def test_negative_exposures_rejected(self):
        with pytest.raises(SimulationError):
            simulate_exposure_series(_indicator(), exposures=-1)


class TestHabituationEdgeCases:
    """Edge cases: recovery clamping, rate bounds, series monotonicity."""

    def test_recover_with_zero_recorded_exposures_is_a_noop(self):
        state = HabituationState(recovery_rate=0.5)
        communication = _indicator()
        state.recover(periods=5)
        assert state.exposure_count(communication) == 0
        # Recovery steps that happen before the state ever sees a
        # communication cannot touch its baked-in count: it only
        # materializes (and starts recovering) on first access.
        seasoned = _indicator().with_exposures(10)
        fresh_state = HabituationState(recovery_rate=0.5)
        fresh_state.recover(periods=5)
        assert fresh_state.exposure_count(seasoned) == 10

    def test_recover_zero_periods_changes_nothing(self):
        state = HabituationState(recovery_rate=0.5)
        communication = _indicator()
        state.record_exposure(communication)
        state.recover(periods=0)
        assert state.exposure_count(communication) == 1.0

    def test_exposures_clamp_toward_zero_never_below(self):
        state = HabituationState(recovery_rate=0.9)
        communication = _indicator()
        state.record_exposure(communication)
        state.recover(periods=50)
        count = state.exposure_count(communication)
        assert 0.0 <= count < 1e-12

    def test_recovery_rate_boundary_values(self):
        # Both bounds of [0, 1] are legal...
        frozen = HabituationState(recovery_rate=0.0)
        total = HabituationState(recovery_rate=1.0)
        communication = _indicator()
        for _ in range(4):
            frozen.record_exposure(communication)
            total.record_exposure(communication)
        # ... a zero rate never recovers, a unit rate recovers fully.
        frozen.recover(periods=3)
        assert frozen.exposure_count(communication) == 4.0
        total.recover()
        assert total.exposure_count(communication) == 0.0

    def test_recovery_rate_out_of_bounds_rejected(self):
        with pytest.raises(SimulationError):
            HabituationState(recovery_rate=-0.01)
        with pytest.raises(SimulationError):
            HabituationState(recovery_rate=1.01)

    def test_recovery_uniform_for_baked_in_exposures(self):
        """Identical histories recover identically whether the exposure
        entry was materialized by a read or by an explicit record."""
        seasoned = _indicator().with_exposures(8)
        read_state = HabituationState(recovery_rate=0.5)
        factor_state = HabituationState(recovery_rate=0.5)
        read_state.exposure_count(seasoned)  # materializes via a read
        factor_state.attention_factor(seasoned)  # materializes via the factor
        read_state.recover(periods=2)
        factor_state.recover(periods=2)
        assert read_state.exposure_count(seasoned) == pytest.approx(2.0)
        assert read_state.exposure_count(seasoned) == factor_state.exposure_count(seasoned)

    def test_recorded_and_never_recorded_recover_identically(self):
        """A baked-in count decays under recovery exactly like the same
        count built from explicit records (the old fallback skipped it)."""
        baked = _indicator().with_exposures(4)
        recorded = Communication(
            name="recorded-indicator",
            comm_type=CommunicationType.STATUS_INDICATOR,
            activeness=0.2,
            conspicuity=0.4,
        )
        state = HabituationState(recovery_rate=0.5)
        state.exposure_count(baked)
        for _ in range(4):
            state.record_exposure(recorded)
        state.recover(periods=1)
        assert state.exposure_count(baked) == state.exposure_count(recorded) == 2.0
        assert state.attention_factor(baked) == state.attention_factor(recorded)

    def test_fractional_counts_change_attention_monotonically(self):
        """Post-recovery fractional counts must not be quantized: 0.6 and
        1.4 effective exposures yield distinct, ordered factors."""
        from repro.core.probabilities import habituation_factor

        communication = _indicator(activeness=0.2)
        state = HabituationState(recovery_rate=0.3)
        factors = []
        counts = []
        for _ in range(6):
            state.record_exposure(communication)
            state.recover()
            counts.append(state.exposure_count(communication))
            factors.append(state.attention_factor(communication))
        # Counts grow fractionally toward the equilibrium, factors shrink.
        assert all(0 < c != int(c) for c in counts)
        assert all(later < earlier for earlier, later in zip(factors, factors[1:]))
        # And the factor is the continuous one, not the rounded-count one.
        assert factors[0] == pytest.approx(
            habituation_factor(counts[0], communication.activeness)
        )
        assert factors[0] != habituation_factor(round(counts[0]), communication.activeness)

    def test_habituation_factor_polymorphic_over_arrays(self):
        import numpy as np

        from repro.core.exceptions import ModelError
        from repro.core.probabilities import habituation_factor

        counts = np.array([0.0, 0.6, 1.4, 40.0])
        factors = habituation_factor(counts, activeness=0.2)
        scalars = [habituation_factor(float(count), 0.2) for count in counts]
        assert factors.shape == counts.shape
        # Scalar and array branches agree bit for bit (the batch/reference
        # equivalence of the multi-round engine depends on this).
        assert list(factors) == scalars
        assert factors[-1] == 0.25  # floor engages for heavy habituation
        with pytest.raises(ModelError):
            habituation_factor(np.array([1.0, -0.5]), 0.2)
        with pytest.raises(ModelError):
            habituation_factor(-1.0, 0.2)

    def test_exposure_series_with_recovery_stays_above_plain_decay(self):
        quiet_series = simulate_exposure_series(
            _indicator(activeness=0.2), exposures=20, seed=3
        )
        rested_series = simulate_exposure_series(
            _indicator(activeness=0.2), exposures=20, seed=3, recovery_rate=0.5
        )
        assert (
            rested_series[-1].notice_probability > quiet_series[-1].notice_probability
        )

    def test_exposure_series_monotone_under_zero_recovery(self):
        """Without recovery periods, notice probability can only decay."""
        series = simulate_exposure_series(
            _indicator(activeness=0.3), exposures=25, seed=11
        )
        probabilities = [point.notice_probability for point in series]
        assert all(
            later <= earlier + 1e-12
            for earlier, later in zip(probabilities, probabilities[1:])
        )
        assert probabilities[-1] < probabilities[0]

    def test_zero_exposures_series_is_empty(self):
        assert simulate_exposure_series(_indicator(), exposures=0) == []
