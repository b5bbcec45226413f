"""Tests for the optical chain: source spectra, cavities, splitting, homodyne.

Expected numbers are either closed-form expressions evaluated inline or
constants frozen from an independent calculation noted next to them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from eprmux import optics
from eprmux.gaussian import (
    apply_loss,
    apply_mode_unitary,
    attach_vacuum,
    project_quadrature,
)
from eprmux.optics import (
    AboveThresholdError,
    ChainScenario,
    FilterCavity,
    GeometryError,
    HomodyneChannel,
    OpaSource,
    PerfectSplitter,
    apply_frequency_beam_splitter,
    build_sideband_pairs_state,
    cavity_transfer,
    demod_projection,
    finesse_from_transmissions,
    linewidth_from_finesse,
    run_chain,
    splitter_transfer,
    squeezing_spectrum,
)


def mean_photons(state, mode):
    block = state.cov[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2]
    return (np.trace(block) - 2.0) / 4.0


class TestSource:
    def test_threshold_rejected(self):
        with pytest.raises(AboveThresholdError):
            OpaSource(pump_parameter=1.0)
        with pytest.raises(ValueError):
            OpaSource(pump_parameter=-0.1)
        OpaSource(pump_parameter=0.999)

    @pytest.mark.parametrize("x", [0.05, 0.3, 0.6726, 0.95])
    @pytest.mark.parametrize("omega", [1e5, 1e6, 5e6, 2e7, 1e8])
    def test_unit_efficiency_state_is_pure(self, x, omega):
        v_sq, v_anti = squeezing_spectrum(OpaSource(x), omega)
        assert v_sq * v_anti == pytest.approx(1.0, rel=1e-12)

    def test_flat_source_closed_form(self):
        x = 0.5
        src = OpaSource(x, cavity_hwhm_hz=math.inf)
        for omega in (1e4, 1e6, 1e9):
            v_sq, v_anti = squeezing_spectrum(src, omega)
            assert v_sq == pytest.approx(((1 - x) / (1 + x)) ** 2, rel=1e-12)
            assert v_anti == pytest.approx(((1 + x) / (1 - x)) ** 2, rel=1e-12)

    def test_pump_for_target_flat_squeezing(self):
        s = 0.1
        x = (1 - math.sqrt(s)) / (1 + math.sqrt(s))
        src = OpaSource(x, cavity_hwhm_hz=math.inf)
        assert squeezing_spectrum(src, 3e6)[0] == pytest.approx(s, rel=1e-12)

    def test_pump_from_measured_squeezing(self):
        # Oracle: root of the resonant-spectrum expression for 5.5 dB of
        # squeezing at 5 MHz through a 12.5 MHz half-width resonance.
        target = 10 ** (-0.55)
        x_star = brentq(
            lambda x: 1 - 4 * x / ((1 + x) ** 2 + (5e6 / 12.5e6) ** 2) - target,
            0.0,
            0.999,
            xtol=1e-15,
        )
        assert x_star == pytest.approx(0.3615731179, rel=1e-9)
        v_sq, _ = squeezing_spectrum(OpaSource(x_star), 5e6)
        assert v_sq == pytest.approx(target, rel=1e-12)

    def test_squeezing_rolls_off_with_frequency(self):
        src = OpaSource(0.6)
        freqs = np.linspace(0, 1e8, 40)
        depths = [1 - squeezing_spectrum(src, f)[0] for f in freqs]
        assert all(a > b for a, b in zip(depths, depths[1:]))

    def test_efficiency_mixes_with_vacuum(self):
        x, eta = 0.4, 0.7
        v0 = squeezing_spectrum(OpaSource(x), 2e6)
        v = squeezing_spectrum(OpaSource(x, efficiency=eta), 2e6)
        assert v[0] == pytest.approx(1 - eta * (1 - v0[0]), rel=1e-12)
        assert v[1] == pytest.approx(1 + eta * (v0[1] - 1), rel=1e-12)

    def test_technical_noise_confined_below_cutoff(self):
        src = OpaSource(0.3, added_classical_noise=0.25, noise_cutoff_hz=4e6)
        clean = OpaSource(0.3)
        lo = squeezing_spectrum(src, 1e6)
        lo_ref = squeezing_spectrum(clean, 1e6)
        assert lo[0] == pytest.approx(lo_ref[0] + 0.25, rel=1e-12)
        assert lo[1] == pytest.approx(lo_ref[1] + 0.25, rel=1e-12)
        assert squeezing_spectrum(src, 5e6) == squeezing_spectrum(clean, 5e6)

    def test_bandwidth_conventions(self):
        a = OpaSource.from_bandwidth(0.3, 25e6, convention="fwhm")
        assert a.cavity_hwhm_hz == pytest.approx(12.5e6)
        b = OpaSource.from_bandwidth(0.3, 12.5e6, convention="hwhm")
        assert b.cavity_hwhm_hz == pytest.approx(12.5e6)
        with pytest.raises(ValueError, match="convention"):
            OpaSource.from_bandwidth(0.3, 25e6, convention="sigma")


class TestFilterCavity:
    def test_resonant_response(self):
        cav = FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        t, r = cavity_transfer(cav, -7e6)
        assert abs(t) == pytest.approx(1.0, abs=1e-12)
        assert abs(r) == pytest.approx(0.0, abs=1e-12)

    def test_far_detuned_leakage(self):
        # Oracle: kappa^2 / (kappa^2 + delta^2) with kappa = 0.75 MHz and
        # delta = 14 MHz, evaluated by hand.
        cav = FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        t, r = cavity_transfer(cav, +7e6)
        assert abs(t) ** 2 == pytest.approx(2.8616852146e-3, rel=1e-9)
        assert abs(r) ** 2 == pytest.approx(1 - 2.8616852146e-3, rel=1e-9)

    def test_lossless_energy_conservation(self):
        cav = FilterCavity(detuning_hz=3e6, hwhm_hz=1.2e6)
        for f in np.linspace(3e6 - 12e6, 3e6 + 12e6, 101):
            t, r = cavity_transfer(cav, f)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_loss_rides_on_the_resonant_field(self):
        loss = 0.02
        cav = FilterCavity(detuning_hz=0.0, hwhm_hz=1e6, loss=loss)
        for f in np.linspace(-1e7, 1e7, 81):
            t, r = cavity_transfer(cav, f)
            share = cav.hwhm_hz**2 / (cav.hwhm_hz**2 + f**2)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(
                1 - loss * share, abs=1e-12
            )

    def test_half_width_point(self):
        cav = FilterCavity(detuning_hz=0.0, hwhm_hz=2e6)
        t, _ = cavity_transfer(cav, 2e6)
        assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_finesse_from_transmissions(self):
        # Oracles: 2*pi / 0.017005 and 2*pi / 0.000605.
        f = finesse_from_transmissions([8500e-6, 8500e-6, 5e-6])
        assert f == pytest.approx(369.490462, rel=1e-6)
        f2 = finesse_from_transmissions([300e-6, 300e-6, 5e-6])
        assert f2 == pytest.approx(10385.430260, rel=1e-6)

    def test_linewidth_from_finesse(self):
        # Oracles: (c / 0.52 m) / finesse evaluated by hand.
        assert linewidth_from_finesse(0.52, 369.490462) == pytest.approx(
            1.560322e6, rel=1e-5
        )
        assert linewidth_from_finesse(0.52, 10385.430260) == pytest.approx(
            55512.77, rel=1e-5
        )

    def test_constructor_round_trip(self):
        cav = FilterCavity.from_linewidth(-7e6, 1.5e6)
        assert cav.hwhm_hz == pytest.approx(0.75e6)
        cav2 = FilterCavity.from_finesse(-7e6, 0.52, 369.490462)
        assert 2 * cav2.hwhm_hz == pytest.approx(1.560322e6, rel=1e-5)

    def test_perfect_splitter_routes_by_band(self):
        sp = PerfectSplitter(center_hz=-7e6, halfwidth_hz=1e6)
        t_in, r_in = splitter_transfer(sp, -6.8e6)
        assert (t_in, r_in) == (1.0, 0.0)
        t_out, r_out = splitter_transfer(sp, +6.8e6)
        assert (t_out, r_out) == (0.0, 1.0)


class TestSidebandStates:
    def test_pair_block_structure(self):
        src = OpaSource(0.5)
        state = build_sideband_pairs_state(src, [7e6])
        v_sq, v_anti = squeezing_spectrum(src, 7e6)
        mean_v = (v_sq + v_anti) / 2
        c = (v_sq - v_anti) / 2
        assert [lab.offset_hz for lab in state.labels] == [-7e6, +7e6]
        np.testing.assert_allclose(state.cov[:2, :2], mean_v * np.eye(2), rtol=1e-12)
        np.testing.assert_allclose(state.cov[2:, 2:], mean_v * np.eye(2), rtol=1e-12)
        np.testing.assert_allclose(state.cov[:2, 2:], np.diag([c, -c]), rtol=1e-12)
        state.validate()

    def test_sum_and_difference_quadratures(self):
        src = OpaSource(0.6726, cavity_hwhm_hz=12.5e6)
        state = build_sideband_pairs_state(src, [5e6])
        v_sq, v_anti = squeezing_spectrum(src, 5e6)
        s2 = 1 / math.sqrt(2)
        x_sum = np.array([s2, 0, s2, 0])
        p_sum = np.array([0, s2, 0, s2])
        x_diff = np.array([s2, 0, -s2, 0])
        assert project_quadrature(state, x_sum) == pytest.approx(v_sq, rel=1e-12)
        assert project_quadrature(state, p_sum) == pytest.approx(v_anti, rel=1e-12)
        assert project_quadrature(state, x_diff) == pytest.approx(v_anti, rel=1e-12)

    def test_four_mode_ordering_and_pair_independence(self):
        src = OpaSource(0.4)
        state = build_sideband_pairs_state(src, [6.8e6, 7.2e6])
        offsets = [lab.offset_hz for lab in state.labels]
        assert offsets == [-7.2e6, -6.8e6, +6.8e6, +7.2e6]
        # Pairs at distinct Fourier frequencies stay uncorrelated.
        i1 = state.mode_index(-6.8e6)
        i2 = state.mode_index(+7.2e6)
        cross = state.cov[2 * i1: 2 * i1 + 2, 2 * i2: 2 * i2 + 2]
        np.testing.assert_allclose(cross, 0.0, atol=1e-15)
        state.validate()

    def test_many_pairs_state_is_physical_near_threshold(self):
        src = OpaSource(0.99)
        state = build_sideband_pairs_state(src, [4.5e6, 5.5e6, 6.5e6, 7.5e6])
        assert state.n_modes == 8
        state.validate()

    def test_duplicate_pair_frequency_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            build_sideband_pairs_state(OpaSource(0.3), [5e6, 5e6])

    def test_unsorted_pairs_land_in_frequency_order(self):
        src = OpaSource(
            0.6, cavity_hwhm_hz=8e6, added_classical_noise=0.05, noise_cutoff_hz=5e6
        )
        state = build_sideband_pairs_state(src, [7.2e6, 4.5e6, 6.8e6], rbw_hz=2e4)
        offsets = [lab.offset_hz for lab in state.labels]
        assert offsets == [-7.2e6, -6.8e6, -4.5e6, 4.5e6, 6.8e6, 7.2e6]
        assert {lab.rbw_hz for lab in state.labels} == {2e4}
        assert {lab.path for lab in state.labels} == {""}
        # Assemble the covariance by hand: mode i pairs with mode 5 - i.
        expected = np.zeros((12, 12))
        for i, w in enumerate([7.2e6, 6.8e6, 4.5e6]):
            j = 5 - i
            v_sq, v_anti = squeezing_spectrum(src, w)
            mean_v, c = (v_sq + v_anti) / 2, (v_sq - v_anti) / 2
            for m in (i, j):
                expected[2 * m, 2 * m] = expected[2 * m + 1, 2 * m + 1] = mean_v
            for a, b in ((i, j), (j, i)):
                expected[2 * a, 2 * b] = c
                expected[2 * a + 1, 2 * b + 1] = -c
        np.testing.assert_array_equal(state.cov, expected)
        np.testing.assert_array_equal(state.mean, np.zeros(12))
        state.validate()

    @pytest.mark.parametrize("omegas", [[0.0], [5e6, -5e6], [5e6, -1.0], [math.nan]])
    def test_non_positive_pair_frequency_rejected(self, omegas):
        with pytest.raises(ValueError, match="positive"):
            build_sideband_pairs_state(OpaSource(0.3), omegas)


class TestFrequencyBeamSplitter:
    def test_output_paths_and_ordering(self):
        state = build_sideband_pairs_state(OpaSource(0.5), [6.8e6, 7.2e6])
        out = apply_frequency_beam_splitter(
            state, FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        )
        assert out.n_modes == 8
        for k in range(4):
            assert out.labels[k].path == "t"
            assert out.labels[k].offset_hz == state.labels[k].offset_hz
        for k in range(4, 8):
            assert out.labels[k].path == "r"
            assert out.labels[k].offset_hz == state.labels[k - 4].offset_hz
        out.validate()

    def test_photon_number_conserved_without_loss(self):
        state = build_sideband_pairs_state(OpaSource(0.7), [6.8e6, 7.2e6])
        n = state.n_modes
        split = apply_frequency_beam_splitter(
            state, FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        )
        for k in range(n):
            n_in = mean_photons(state, k)
            n_out = mean_photons(split, k) + mean_photons(split, n + k)
            assert n_out == pytest.approx(n_in, rel=1e-10, abs=1e-12)

    def test_intracavity_loss_removes_photons_resonantly(self):
        state = build_sideband_pairs_state(OpaSource(0.7), [6.8e6, 7.2e6])
        n = state.n_modes
        lossy = apply_frequency_beam_splitter(
            state, FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6, loss=0.05)
        )
        lossy.validate()
        k = state.mode_index(-7.2e6)
        n_in = mean_photons(state, k)
        n_out = mean_photons(lossy, k) + mean_photons(lossy, n + k)
        assert n_out < n_in
        # Nearly all of this sideband is resonant, so close to 5% disappears.
        assert n_out == pytest.approx(0.95 * n_in, rel=5e-3)

    def test_perfect_splitter_separates_cleanly(self):
        state = build_sideband_pairs_state(OpaSource(0.5), [6.8e6, 7.2e6])
        n = state.n_modes
        out = apply_frequency_beam_splitter(
            state, PerfectSplitter(center_hz=-7e6, halfwidth_hz=1e6)
        )
        for offset in (-7.2e6, -6.8e6):
            k = state.mode_index(offset)
            assert mean_photons(out, k) == pytest.approx(
                mean_photons(state, k), rel=1e-12
            )
            assert mean_photons(out, n + k) == pytest.approx(0.0, abs=1e-12)
        for offset in (+6.8e6, +7.2e6):
            k = state.mode_index(offset)
            assert mean_photons(out, k) == pytest.approx(0.0, abs=1e-12)

    def test_tagged_input_rejected(self):
        splitter = FilterCavity(detuning_hz=-7e6, hwhm_hz=1e6)
        split = apply_frequency_beam_splitter(
            build_sideband_pairs_state(OpaSource(0.5), [7e6]), splitter
        )
        with pytest.raises(ValueError, match="path"):
            apply_frequency_beam_splitter(split, splitter)

    @given(
        detuning=st.floats(-1e7, 1e7),
        hwhm=st.floats(1e5, 5e6),
        x=st.floats(0.0, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_state_stays_physical(self, detuning, hwhm, x):
        state = build_sideband_pairs_state(OpaSource(x), [6.8e6, 7.2e6])
        split = apply_frequency_beam_splitter(
            state, FilterCavity(detuning_hz=detuning, hwhm_hz=hwhm, loss=0.01)
        )
        split.validate()


class TestDemodProjection:
    def setup_method(self):
        self.state = build_sideband_pairs_state(OpaSource(0.5), [6.8e6, 7.2e6])
        self.channel = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=2e5)

    def test_unit_norm_and_support(self):
        u = demod_projection(self.state, self.channel)
        assert u @ u == pytest.approx(1.0, rel=1e-12)
        # Support only on the two addressed modes, weight 1/2 each.
        i_up = self.state.mode_index(-6.8e6)
        i_lo = self.state.mode_index(-7.2e6)
        for k in range(self.state.n_modes):
            w = u[2 * k] ** 2 + u[2 * k + 1] ** 2
            expected = 0.5 if k in (i_up, i_lo) else 0.0
            assert w == pytest.approx(expected, abs=1e-12)

    def test_angle_structure(self):
        chan = replace(self.channel, lo_phase_rad=0.3, demod_phase_rad=0.1)
        u = demod_projection(self.state, chan)
        i_up = self.state.mode_index(-6.8e6)
        i_lo = self.state.mode_index(-7.2e6)
        s2 = 1 / math.sqrt(2)
        assert u[2 * i_up] == pytest.approx(s2 * math.cos(0.4), rel=1e-12)
        assert u[2 * i_up + 1] == pytest.approx(s2 * math.sin(0.4), rel=1e-12)
        assert u[2 * i_lo] == pytest.approx(s2 * math.cos(0.2), rel=1e-12)
        assert u[2 * i_lo + 1] == pytest.approx(s2 * math.sin(0.2), rel=1e-12)

    def test_sin_component_is_orthogonal(self):
        u_cos = demod_projection(self.state, self.channel, "cos")
        u_sin = demod_projection(self.state, self.channel, "sin")
        assert u_cos @ u_sin == pytest.approx(0.0, abs=1e-12)
        assert u_sin @ u_sin == pytest.approx(1.0, rel=1e-12)

    def test_missing_mode_raises_geometry_error(self):
        bad = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=5e5)
        with pytest.raises(GeometryError, match="absent"):
            demod_projection(self.state, bad)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="component"):
            demod_projection(self.state, self.channel, "tan")


def symmetric_scenario(source, splitter=None, demod_hz=2e5, **kwargs):
    alice = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=demod_hz)
    bob = HomodyneChannel(lo_shift_hz=+7e6, demod_freq_hz=demod_hz)
    return ChainScenario(
        source=source,
        omega1_hz=7e6 - demod_hz,
        omega2_hz=7e6 + demod_hz,
        alice=alice,
        bob=bob,
        splitter=splitter,
        **kwargs,
    )


def fixed_angle_inseparability(result):
    """I evaluated at the X_A + X_B / Xp_A - Xp_B combination.

    For upper/lower sideband pairs the X quadratures anticorrelate, so this
    fixed combination is the minimizing one whenever the chain is symmetric
    and dispersion-free.
    """
    s2 = 1 / math.sqrt(2)
    v_d = project_quadrature(result.state, s2 * (result.alice_x + result.bob_x))
    v_s = project_quadrature(result.state, s2 * (result.alice_xp - result.bob_xp))
    return (v_d + v_s) / 2


class TestChain:
    def test_ideal_flat_chain_reaches_source_squeezing(self):
        s = 0.25
        x = (1 - math.sqrt(s)) / (1 + math.sqrt(s))
        src = OpaSource(x, cavity_hwhm_hz=math.inf)
        result = run_chain(symmetric_scenario(src))
        assert fixed_angle_inseparability(result) == pytest.approx(s, rel=1e-12)

    def test_no_splitter_paths_are_bare(self):
        result = run_chain(symmetric_scenario(OpaSource(0.5)))
        assert result.alice_path == "" and result.bob_path == ""
        assert len(set(result.alice_modes) & set(result.bob_modes)) == 0

    def test_splitter_assigns_opposite_paths(self):
        fbs = FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        result = run_chain(symmetric_scenario(OpaSource(0.5), splitter=fbs))
        assert result.alice_path == "t"
        assert result.bob_path == "r"
        for k in result.alice_modes:
            assert result.state.labels[k].path == "t"

    def test_deterministic(self):
        scen = symmetric_scenario(
            OpaSource(0.3616), splitter=FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        )
        a, b = run_chain(scen), run_chain(scen)
        np.testing.assert_array_equal(a.state.cov, b.state.cov)
        np.testing.assert_array_equal(a.alice_x, b.alice_x)

    def test_loss_degrades_difference_variance_monotonically(self):
        s = 0.1
        x = (1 - math.sqrt(s)) / (1 + math.sqrt(s))
        src = OpaSource(x, cavity_hwhm_hz=math.inf)
        values = []
        for loss in (0.0, 0.1, 0.25, 0.5, 0.75):
            scen = symmetric_scenario(
                src,
                splitter=PerfectSplitter(center_hz=-7e6, halfwidth_hz=1e6),
                alice_path_loss=loss,
                bob_path_loss=loss,
            )
            values.append(fixed_angle_inseparability(run_chain(scen)))
        assert values[0] == pytest.approx(s, rel=1e-12)
        assert all(a < b for a, b in zip(values, values[1:]))
        # Symmetric loss interpolates linearly toward the vacuum.
        assert values[2] == pytest.approx(0.75 * s + 0.25, rel=1e-12)

    def test_dispersion_compensation_recovers_correlation(self):
        src = OpaSource(0.3616, cavity_hwhm_hz=12.5e6)
        fbs = FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6)
        on = run_chain(symmetric_scenario(src, splitter=fbs))
        off = run_chain(
            symmetric_scenario(src, splitter=fbs, compensate_dispersion=False)
        )
        assert fixed_angle_inseparability(on) < fixed_angle_inseparability(off)

    def test_detection_efficiency_equivalent_to_path_loss(self):
        src = OpaSource(0.5, cavity_hwhm_hz=math.inf)
        sp = PerfectSplitter(center_hz=-7e6, halfwidth_hz=1e6)
        alice = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=2e5, efficiency=0.8)
        bob = HomodyneChannel(lo_shift_hz=+7e6, demod_freq_hz=2e5, efficiency=0.8)
        by_eff = ChainScenario(
            source=src, omega1_hz=6.8e6, omega2_hz=7.2e6,
            alice=alice, bob=bob, splitter=sp,
        )
        by_loss = symmetric_scenario(
            src, splitter=sp, alice_path_loss=0.2, bob_path_loss=0.2
        )
        v1 = fixed_angle_inseparability(run_chain(by_eff))
        v2 = fixed_angle_inseparability(run_chain(by_loss))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_mismatched_channel_frequencies_rejected(self):
        src = OpaSource(0.5)
        alice = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=3e5)
        bob = HomodyneChannel(lo_shift_hz=+7e6, demod_freq_hz=2e5)
        with pytest.raises(GeometryError, match="addresses"):
            ChainScenario(
                source=src, omega1_hz=6.8e6, omega2_hz=7.2e6, alice=alice, bob=bob
            )

    def test_same_side_channels_rejected(self):
        src = OpaSource(0.5)
        alice = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=2e5)
        bob = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=2e5)
        with pytest.raises(GeometryError, match="opposite"):
            ChainScenario(
                source=src, omega1_hz=6.8e6, omega2_hz=7.2e6, alice=alice, bob=bob
            )

    def test_asymmetric_shared_beam_rejected(self):
        src = OpaSource(0.5)
        with pytest.raises(GeometryError, match="share"):
            symmetric_scenario(src, alice_path_loss=0.1, bob_path_loss=0.0)

    def test_splitter_sending_both_parties_one_way_rejected(self):
        # A splitter resonant far from both LOs reflects everything.
        src = OpaSource(0.5)
        fbs = FilterCavity(detuning_hz=0.0, hwhm_hz=1e5)
        with pytest.raises(GeometryError, match="same splitter output"):
            run_chain(symmetric_scenario(src, splitter=fbs))


def random_chain(rng, splitter_kind):
    """A single-channel chain with asymmetric losses and efficiencies."""
    centre = rng.uniform(3e6, 12e6)
    demod = rng.uniform(5e4, 5e5)
    source = OpaSource(
        rng.uniform(0.1, 0.9),
        cavity_hwhm_hz=rng.uniform(5e6, 25e6),
        efficiency=rng.uniform(0.8, 1.0),
        added_classical_noise=rng.uniform(0.0, 0.2),
    )
    losses = rng.uniform(0.0, 0.3, 2)
    effs = rng.uniform(0.5, 1.0, 2)
    if splitter_kind == "cavity":
        splitter = FilterCavity(
            detuning_hz=-centre, hwhm_hz=demod * rng.uniform(0.5, 3.0),
            loss=rng.uniform(0.0, 0.2),
        )
    elif splitter_kind == "perfect":
        splitter = PerfectSplitter(center_hz=-centre, halfwidth_hz=demod * 2)
    else:
        splitter = None
        losses[1], effs[1] = losses[0], effs[0]
    channels = [
        HomodyneChannel(
            lo_shift_hz=sign * centre,
            demod_freq_hz=demod,
            lo_phase_rad=rng.uniform(0.0, 2 * math.pi),
            demod_phase_rad=rng.uniform(0.0, 2 * math.pi),
            efficiency=eff,
        )
        for sign, eff in ((-1, effs[0]), (+1, effs[1]))
    ]
    return ChainScenario(
        source=source,
        omega1_hz=centre - demod,
        omega2_hz=centre + demod,
        alice=channels[0],
        bob=channels[1],
        splitter=splitter,
        alice_path_loss=losses[0],
        bob_path_loss=losses[1],
    )


def composed_from_primitives(scenario, alice_path, bob_path):
    """Detector-plane state built from primitives, one element at a time.

    The splitter mixes each mode with its own vacuum port through the
    unitary ``[[t0, r], [r, t0]]``, ``t0 = t / sqrt(1 - loss)``; the cavity
    loss then acts on each transmitted mode, and the path losses and
    efficiencies on every mode of each path, one ``apply_loss`` at a time.
    """
    state = build_sideband_pairs_state(
        scenario.source, (scenario.omega1_hz, scenario.omega2_hz), scenario.rbw_hz
    )
    n = state.n_modes
    splitter = scenario.splitter
    if splitter is not None:
        tagged = replace(
            state, labels=tuple(replace(lab, path="t") for lab in state.labels)
        )
        state = attach_vacuum(tagged, (replace(lab, path="r") for lab in state.labels))
        loss = getattr(splitter, "loss", 0.0)
        u = np.eye(2 * n, dtype=complex)
        for k, lab in enumerate(tagged.labels):
            t, r = splitter_transfer(splitter, lab.offset_hz)
            t0 = t / math.sqrt(1.0 - loss)
            u[np.ix_([k, n + k], [k, n + k])] = [[t0, r], [r, t0]]
        state = apply_mode_unitary(state, u)
        for mode in range(n):
            state = apply_loss(state, mode, 1.0 - loss)
    etas = {
        alice_path: (1 - scenario.alice_path_loss) * scenario.alice.efficiency,
        bob_path: (1 - scenario.bob_path_loss) * scenario.bob.efficiency,
    }
    for mode, lab in enumerate(state.labels):
        state = apply_loss(state, mode, etas[lab.path])
    return state


class TestPassiveChain:
    @pytest.mark.parametrize("kind", ["cavity", "perfect", "none"])
    def test_detector_state_equals_the_step_by_step_composition(self, kind):
        rng = np.random.default_rng({"cavity": 11, "perfect": 12, "none": 13}[kind])
        for _ in range(40):
            scenario = random_chain(rng, kind)
            result = run_chain(scenario)
            ref = composed_from_primitives(
                scenario, result.alice_path, result.bob_path
            )
            assert result.state.labels == ref.labels
            scale = max(1.0, float(np.max(np.abs(ref.cov))))
            np.testing.assert_allclose(
                result.state.cov, ref.cov, rtol=0, atol=1e-12 * scale
            )
            np.testing.assert_array_equal(result.state.mean, ref.mean)

    @pytest.mark.parametrize("kind", ["cavity", "perfect", "none"])
    def test_run_chain_applies_one_passive_map(self, kind, monkeypatch):
        original = optics.apply_passive
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optics, "apply_passive", counted)
        run_chain(random_chain(np.random.default_rng(5), kind))
        assert len(calls) == 1
