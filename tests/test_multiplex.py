"""Tests for the channel-packing planner and its cross-channel validation."""

import math

import pytest

from eprmux.multiplex import ChannelPlan, MultiplexPlan, plan_multiplex, validate_plan
from eprmux.optics import GeometryError, OpaSource


class TestPlanning:
    def test_reference_band_holds_six_channels(self):
        plan = plan_multiplex((4e6, 10e6), 0.5e6)
        assert plan.n_channels == 6
        centers = [ch.center_hz for ch in plan.channels]
        assert centers == pytest.approx([4.5e6, 5.5e6, 6.5e6, 7.5e6, 8.5e6, 9.5e6])

    def test_seventh_channel_cannot_fit(self):
        # 7 channels of width 1 MHz need 7 MHz of band; only 6 are available,
        # independent of any grid shift.
        lo, hi = 4e6, 10e6
        width = 2 * 0.5e6
        assert math.floor((hi - lo) / width) == 6
        for shift in (0.0, 0.1e6, 0.25e6, 0.49e6):
            plan = plan_multiplex((lo + shift, hi), 0.5e6)
            assert plan.n_channels <= 6

    def test_guard_interval_reduces_count(self):
        plan = plan_multiplex((4e6, 10e6), 0.5e6, guard_hz=2e5)
        assert plan.n_channels == 5
        gaps = [
            b.center_hz - a.center_hz
            for a, b in zip(plan.channels, plan.channels[1:])
        ]
        assert gaps == pytest.approx([1.2e6] * 4)

    def test_channel_geometry(self):
        ch = ChannelPlan(index=0, center_hz=7e6, demod_hz=2e5)
        assert ch.lo_pair_hz == (-7e6, +7e6)
        assert ch.pair_frequencies_hz == (6.8e6, 7.2e6)
        assert ch.sideband_quadruple_hz == (-7.2e6, -6.8e6, +6.8e6, +7.2e6)
        assert ch.filter_detunings_hz == (-7e6, +7e6)

    def test_occupancy_stays_inside_band(self):
        plan = plan_multiplex((3.7e6, 9.1e6), 0.4e6, guard_hz=1e5)
        for ch in plan.channels:
            assert ch.center_hz - 0.4e6 >= 3.7e6 - 1e-6
            assert ch.center_hz + 0.4e6 <= 9.1e6 + 1e-6

    def test_too_narrow_band_gives_empty_plan(self):
        plan = plan_multiplex((4e6, 4.8e6), 0.5e6)
        assert plan.n_channels == 0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="band"):
            plan_multiplex((10e6, 4e6), 0.5e6)
        with pytest.raises(ValueError, match="bandwidth"):
            plan_multiplex((4e6, 10e6), 0.0)
        with pytest.raises(ValueError, match="guard"):
            plan_multiplex((4e6, 10e6), 0.5e6, guard_hz=-1.0)

    def test_demod_beyond_detection_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="demod"):
            plan_multiplex((4e6, 10e6), 0.5e6, demod_hz=0.6e6)

    # Each of these used to hang the packing loop or plan NaN pair frequencies.
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"band_hz": (math.nan, 10e6)}, "band"),
            ({"band_hz": (4e6, math.nan)}, "band"),
            ({"band_hz": (4e6, math.inf)}, "band"),
            ({"detection_bandwidth_hz": math.nan}, "bandwidth"),
            ({"detection_bandwidth_hz": math.inf}, "bandwidth"),
            ({"guard_hz": math.nan}, "guard"),
            ({"guard_hz": math.inf}, "guard"),
            ({"demod_hz": math.nan}, "demod"),
            ({"demod_hz": 0.0}, "demod"),
            ({"demod_hz": -1e5}, "demod"),
        ],
        ids=lambda v: str(v) if isinstance(v, dict) else None,
    )
    def test_non_finite_or_non_positive_input_rejected(self, kwargs, match):
        args = {"band_hz": (4e6, 10e6), "detection_bandwidth_hz": 5e5, **kwargs}
        with pytest.raises(ValueError, match=match):
            plan_multiplex(**args)


class TestValidation:
    def setup_method(self):
        self.source = OpaSource(0.3616, cavity_hwhm_hz=12.5e6)

    def test_planned_channels_are_independent(self):
        plan = plan_multiplex((4e6, 10e6), 0.5e6)
        result = validate_plan(plan, self.source, splitter_hwhm_hz=0.75e6)
        assert result.max_cross_channel_cov < 1e-12
        assert len(result.reports) == 6

    def test_every_channel_stays_entangled(self):
        plan = plan_multiplex((4e6, 10e6), 0.5e6)
        result = validate_plan(plan, self.source, splitter_hwhm_hz=0.75e6)
        for rep in result.reports:
            assert rep.inseparability < 1.0
            assert rep.ppt_eigenvalue < 1.0

    def test_inseparability_follows_squeezing_rolloff(self):
        plan = plan_multiplex((4e6, 10e6), 0.5e6)
        result = validate_plan(plan, self.source)
        insep = [rep.inseparability for rep in result.reports]
        assert all(a < b for a, b in zip(insep, insep[1:]))

    def test_overlapping_channels_rejected(self):
        plan = plan_multiplex((4e6, 10e6), 0.5e6)
        squeezed = plan.channels[0]
        clash = ChannelPlan(index=99, center_hz=squeezed.center_hz + 0.6e6, demod_hz=2e5)
        bad = plan.__class__(
            band_hz=plan.band_hz,
            detection_bandwidth_hz=plan.detection_bandwidth_hz,
            guard_hz=plan.guard_hz,
            demod_hz=plan.demod_hz,
            channels=(squeezed, clash),
        )
        with pytest.raises(GeometryError, match="overlap"):
            validate_plan(bad, self.source)

    def test_channels_one_hz_too_close_rejected(self):
        detbw = 0.5e6
        first = ChannelPlan(index=0, center_hz=4.5e6, demod_hz=2e5)
        second = ChannelPlan(index=1, center_hz=4.5e6 + 2 * detbw - 1.0, demod_hz=2e5)
        bad = MultiplexPlan(
            band_hz=(4e6, 10e6),
            detection_bandwidth_hz=detbw,
            guard_hz=0.0,
            demod_hz=2e5,
            channels=(second, first),
        )
        with pytest.raises(GeometryError, match="channels 0 and 1 overlap"):
            validate_plan(bad, self.source)

    def test_empty_plan_validates_to_nothing(self):
        plan = plan_multiplex((4e6, 4.8e6), 0.5e6)
        result = validate_plan(plan, self.source)
        assert result.reports == ()
        assert result.max_cross_channel_cov == 0.0
