"""Tests for noise synthesis, the demodulation pipeline, and the estimator."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import eprmux
from eprmux import mcdsp
from eprmux.criteria import lumped_channel_scenario
from eprmux.mcdsp import (
    DspConfig,
    NoiseSynthesisSpec,
    SpectralModelError,
    build_synthesis_spec,
    demodulate_and_filter,
    estimate_entanglement,
    read_records,
    run_montecarlo,
    synthesize_records,
    vacuum_synthesis_spec,
    write_records,
)
from eprmux.optics import run_chain

QUICK = DspConfig(duration_s=0.25)

# Records of 700 000 samples, not a whole number of demodulation blocks,
# whose 300 000-sample transient discard ends past the first block boundary;
# decimation 3 does not divide the block length either.
STRADDLING = [
    DspConfig(duration_s=0.35, transient_discard_s=0.15, decimation=3),
    DspConfig(duration_s=0.35, transient_discard_s=0.15, decimation=1),
]


def _skip(config):
    return int(round(config.transient_discard_s * config.sample_rate_hz))


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this eprmux."""
    src = os.path.dirname(os.path.dirname(eprmux.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def white_spec(s_aa=1.0, s_bb=1.0, s_ab=0j):
    return NoiseSynthesisSpec(
        s_aa=s_aa,
        s_bb=s_bb,
        s_ab=s_ab,
        correlation_sign=+1,
        model_inseparability=1.0,
        model_epr=1.0,
    )


class TestSynthesis:
    def test_unit_level_full_band_gives_unit_variance(self):
        rng = np.random.default_rng(1)
        a, b = synthesize_records(
            white_spec(), QUICK, rng, band_hz=(1.0, 0.9999e6)
        )
        assert a.var() == pytest.approx(1.0, rel=2e-2)
        assert b.var() == pytest.approx(1.0, rel=2e-2)

    def test_band_limited_variance_scales_with_band(self):
        rng = np.random.default_rng(2)
        a, _ = synthesize_records(white_spec(), QUICK, rng)
        lo, hi = QUICK.synthesis_band_hz
        expected = 2.0 * (hi - lo) / QUICK.sample_rate_hz
        assert a.var() == pytest.approx(expected, rel=3e-2)

    def test_real_cross_density_sets_correlation(self):
        rng = np.random.default_rng(3)
        a, b = synthesize_records(white_spec(s_ab=0.9 + 0j), QUICK, rng)
        corr = np.mean(a * b) / math.sqrt(a.var() * b.var())
        assert corr == pytest.approx(0.9, abs=2e-2)

    def test_imaginary_cross_density_is_a_quadrature_lag(self):
        # Purely imaginary s_ab: zero instantaneous correlation, full
        # correlation between I of one channel and Q of the other.
        rng = np.random.default_rng(4)
        a, b = synthesize_records(white_spec(s_ab=0.95j), QUICK, rng)
        corr = np.mean(a * b) / math.sqrt(a.var() * b.var())
        assert corr == pytest.approx(0.0, abs=2e-2)
        ia, qa = demodulate_and_filter(a, QUICK)
        ib, qb = demodulate_and_filter(b, QUICK)
        c_iq = np.mean(ia * qb) / math.sqrt(np.mean(ia**2) * np.mean(qb**2))
        c_qi = np.mean(qa * ib) / math.sqrt(np.mean(qa**2) * np.mean(ib**2))
        assert c_iq == pytest.approx(0.95, abs=3e-2)
        assert c_qi == pytest.approx(-0.95, abs=3e-2)

    def test_rank_one_spectrum_gives_identical_channels(self):
        rng = np.random.default_rng(5)
        spec = white_spec(s_aa=1.0, s_bb=4.0, s_ab=2.0 + 0j)
        a, b = synthesize_records(spec, QUICK, rng)
        corr = np.mean(a * b) / math.sqrt(a.var() * b.var())
        assert corr > 0.999

    def test_unphysical_cross_density_rejected(self):
        with pytest.raises(SpectralModelError, match="Cauchy"):
            white_spec(s_ab=1.2 + 0j)

    def test_seeded_synthesis_is_deterministic(self):
        a1, b1 = synthesize_records(white_spec(), QUICK, np.random.default_rng(9))
        a2, b2 = synthesize_records(white_spec(), QUICK, np.random.default_rng(9))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_welch_round_trip_matches_target_per_bin(self):
        # Long record and short segments put the per-bin Welch scatter near
        # one percent, so every in-band bin must land within five percent of
        # the target density.  scipy's csd estimates E[conj(A) B], which for
        # this synthesis is the conjugate of the specified cross density.
        from scipy import signal as sps

        config = DspConfig(duration_s=8.0)
        spec = white_spec(s_aa=1.0, s_bb=2.0, s_ab=0.8 + 0.9j)
        a, b = synthesize_records(spec, config, np.random.default_rng(21))
        fs = config.sample_rate_hz
        nperseg = 2048
        freqs, p_aa = sps.welch(a, fs=fs, nperseg=nperseg)
        _, p_bb = sps.welch(b, fs=fs, nperseg=nperseg)
        _, p_ab = sps.csd(a, b, fs=fs, nperseg=nperseg)
        lo, hi = config.synthesis_band_hz
        df = fs / nperseg
        mask = (freqs >= lo + 2 * df) & (freqs <= hi - 2 * df)
        assert mask.sum() > 300
        scale = fs / 2.0
        assert np.max(np.abs(p_aa[mask] * scale - spec.s_aa)) < 0.05 * spec.s_aa
        assert np.max(np.abs(p_bb[mask] * scale - spec.s_bb)) < 0.05 * spec.s_bb
        target = np.conj(spec.s_ab)
        assert np.max(np.abs(p_ab[mask] * scale - target)) < 0.05 * abs(target)


class TestDemodulation:
    def test_carrier_tone_lands_at_dc(self):
        n = QUICK.n_samples
        t = np.arange(n) / QUICK.sample_rate_hz
        tone = 0.8 * np.cos(2 * math.pi * QUICK.demod_freq_hz * t)
        i_series, q_series = demodulate_and_filter(tone, QUICK)
        assert i_series.mean() == pytest.approx(0.8 / math.sqrt(2), rel=1e-6)
        assert abs(q_series.mean()) < 1e-9

    def test_demod_phase_moves_tone_to_q(self):
        n = QUICK.n_samples
        t = np.arange(n) / QUICK.sample_rate_hz
        tone = 0.8 * np.sin(2 * math.pi * QUICK.demod_freq_hz * t)
        i_series, q_series = demodulate_and_filter(tone, QUICK)
        assert abs(i_series.mean()) < 1e-9
        assert q_series.mean() == pytest.approx(0.8 / math.sqrt(2), rel=1e-6)

    def test_out_of_band_tone_rejected(self):
        n = QUICK.n_samples
        t = np.arange(n) / QUICK.sample_rate_hz
        tone = np.cos(2 * math.pi * (QUICK.demod_freq_hz + 2.5e5) * t)
        i_series, _ = demodulate_and_filter(tone, QUICK)
        assert np.sqrt(np.mean(i_series**2)) < 2e-3

    def test_config_guards(self):
        with pytest.raises(ValueError, match="undersamples"):
            DspConfig(decimation=32)
        with pytest.raises(ValueError, match="Nyquist"):
            DspConfig(sample_rate_hz=7e5)
        with pytest.raises(ValueError, match="cutoff"):
            DspConfig(lpf_cutoff_hz=3e5)

    def test_pipeline_is_exactly_linear(self):
        # Scaling by a power of two is exact in floating point, so linearity
        # of the whole demodulate/filter/decimate chain holds bit for bit.
        rng = np.random.default_rng(12)
        record = rng.standard_normal(200_000)
        i_one, q_one = demodulate_and_filter(record, QUICK)
        i_two, q_two = demodulate_and_filter(2.0 * record, QUICK)
        np.testing.assert_array_equal(i_two, 2.0 * i_one)
        np.testing.assert_array_equal(q_two, 2.0 * q_one)

    @pytest.mark.parametrize(
        "config", [DspConfig(duration_s=0.1), QUICK, *STRADDLING], ids=repr
    )
    def test_block_streaming_equals_one_filter_pass(self, config):
        from scipy import signal as sps

        block = mcdsp._DEMOD_BLOCK
        assert config.n_samples % block != 0
        record = np.random.default_rng(17).standard_normal(config.n_samples)
        sos = sps.butter(
            config.lpf_order,
            config.lpf_cutoff_hz,
            btype="low",
            fs=config.sample_rate_hz,
            output="sos",
        )
        t = np.arange(config.n_samples)
        phase = (2.0 * math.pi * config.demod_freq_hz / config.sample_rate_hz) * t
        scaled = math.sqrt(2.0) * record
        skip = _skip(config)
        i_ref = sps.sosfilt(sos, scaled * np.cos(phase))[skip :: config.decimation]
        q_ref = sps.sosfilt(sos, scaled * np.sin(phase))[skip :: config.decimation]
        i_series, q_series = demodulate_and_filter(record, config)
        np.testing.assert_array_equal(i_series, i_ref)
        np.testing.assert_array_equal(q_series, q_ref)

    def test_white_noise_variance_follows_filter_enbw(self):
        # White input of variance v keeps a flat two-sided level v/fs after
        # the sqrt(2) mixers, so each output variance is v * 2 * ENBW / fs
        # with ENBW the equivalent noise bandwidth of the low-pass.
        from scipy import signal as sps

        config = DspConfig(duration_s=2.0)
        rng = np.random.default_rng(13)
        record = 1.7 * rng.standard_normal(config.n_samples)
        i_series, q_series = demodulate_and_filter(record, config)
        sos = sps.butter(
            config.lpf_order,
            config.lpf_cutoff_hz,
            btype="low",
            fs=config.sample_rate_hz,
            output="sos",
        )
        w, h = sps.sosfreqz(sos, worN=1 << 16, fs=config.sample_rate_hz)
        enbw = np.trapezoid(np.abs(h) ** 2, w)
        expected = 1.7**2 * 2.0 * enbw / config.sample_rate_hz
        assert i_series.var() == pytest.approx(expected, rel=3e-2)
        assert q_series.var() == pytest.approx(expected, rel=3e-2)


class TestSpecFromChain:
    def test_spec_matches_projection_variances(self):
        result = run_chain(lumped_channel_scenario(0.6726, 0.6135))
        spec = build_synthesis_spec(result)
        v_a = float(result.alice_x @ result.state.cov @ result.alice_x)
        v_b = float(result.bob_x @ result.state.cov @ result.bob_x)
        assert spec.s_aa == pytest.approx(v_a, rel=1e-10)
        assert spec.s_bb == pytest.approx(v_b, rel=1e-10)
        assert abs(spec.s_ab) <= math.sqrt(spec.s_aa * spec.s_bb) + 1e-12

    def test_angle_offsets_change_nothing_for_symmetric_pairs(self):
        # The per-detector level of a sideband pair is angle independent.
        result = run_chain(lumped_channel_scenario(0.5, 0.9))
        s0 = build_synthesis_spec(result, (0.0, 0.0))
        s1 = build_synthesis_spec(result, (0.7, 1.9))
        assert s1.s_aa == pytest.approx(s0.s_aa, rel=1e-10)
        assert s1.s_bb == pytest.approx(s0.s_bb, rel=1e-10)

    def test_model_values_track_optimized_angles(self):
        from eprmux.criteria import evaluate_scenario, optimize_duan_angles

        scen = lumped_channel_scenario(0.6726, 0.6135)
        result = run_chain(scen)
        best = optimize_duan_angles(
            result.state.cov,
            (result.alice_x, result.alice_xp),
            (result.bob_x, result.bob_xp),
        )
        spec = build_synthesis_spec(result, (best.theta_a, best.theta_b))
        report = evaluate_scenario(scen)
        assert spec.model_inseparability == pytest.approx(
            report.inseparability, rel=1e-9
        )
        assert spec.model_epr == pytest.approx(report.epr_product, rel=1e-9)


def demod_all(records, config):
    (a, b) = records
    ia, qa = demodulate_and_filter(a, config)
    ib, qb = demodulate_and_filter(b, config)
    return ia, qa, ib, qb


class TestEstimator:
    def test_vacuum_estimates_unity(self):
        rng = np.random.default_rng(11)
        sig = demod_all(synthesize_records(white_spec(), QUICK, rng), QUICK)
        vac = demod_all(synthesize_records(white_spec(), QUICK, rng), QUICK)
        est = estimate_entanglement(sig, vac, +1)
        assert est.inseparability == pytest.approx(
            1.0, abs=5 * est.sigma_inseparability
        )
        assert est.epr_product == pytest.approx(1.0, abs=5 * est.sigma_epr)

    def test_error_bars_shrink_with_duration(self):
        short = DspConfig(duration_s=0.25)
        long = DspConfig(duration_s=1.0)
        rng = np.random.default_rng(12)
        est_s = estimate_entanglement(
            demod_all(synthesize_records(white_spec(), short, rng), short),
            demod_all(synthesize_records(white_spec(), short, rng), short),
            +1,
        )
        est_l = estimate_entanglement(
            demod_all(synthesize_records(white_spec(), long, rng), long),
            demod_all(synthesize_records(white_spec(), long, rng), long),
            +1,
        )
        ratio = est_s.sigma_inseparability / est_l.sigma_inseparability
        assert ratio == pytest.approx(2.0, rel=0.3)

    def test_error_bar_matches_batch_scatter(self):
        # Estimate I on 8 independent record pairs; their scatter should
        # agree with the reported per-estimate error bar.
        cfg = DspConfig(duration_s=0.25)
        spec = white_spec(s_ab=0.5 + 0j)
        estimates = []
        for k in range(8):
            rng = np.random.default_rng(300 + k)
            sig = demod_all(synthesize_records(spec, cfg, rng), cfg)
            vac = demod_all(synthesize_records(white_spec(), cfg, rng), cfg)
            estimates.append(estimate_entanglement(sig, vac, +1))
        values = np.array([e.inseparability for e in estimates])
        sigma = np.mean([e.sigma_inseparability for e in estimates])
        scatter = values.std(ddof=1)
        assert scatter == pytest.approx(sigma, rel=0.8)

    def test_mismatched_series_rejected(self):
        x = np.zeros(100)
        with pytest.raises(ValueError, match="length"):
            estimate_entanglement((x, x, x, x[:50]), (x, x, x, x), +1)

    def test_mismatched_vacuum_series_rejected(self):
        x = np.ones(100)
        with pytest.raises(ValueError, match="vacuum series"):
            estimate_entanglement((x, x, x, x), (x, x, x[:50], x), +1)


class TestMonteCarlo:
    def test_mini_closure_on_the_reference_channel(self):
        scen = lumped_channel_scenario(0.6726, 0.6135)
        mc = run_montecarlo(
            scen, DspConfig(duration_s=0.5), n_trials=5, seed=42
        )
        assert mc.coverage(3.0) == 1.0
        assert mc.spec.model_inseparability == pytest.approx(0.41, abs=1e-3)

    def test_seeded_run_reproduces(self):
        scen = lumped_channel_scenario(0.5, 0.8)
        cfg = DspConfig(duration_s=0.1)
        a = run_montecarlo(scen, cfg, n_trials=2, seed=7)
        b = run_montecarlo(scen, cfg, n_trials=2, seed=7)
        for ta, tb in zip(a.trials, b.trials):
            assert ta == tb
        c = run_montecarlo(scen, cfg, n_trials=2, seed=8)
        assert c.trials[0] != a.trials[0]

    def test_trial_seeds_are_addressable(self):
        # Trial k of a run with base seed s must equal trial 0 of a run with
        # base seed s + k, so single trials can be reproduced alone.
        scen = lumped_channel_scenario(0.5, 0.8)
        cfg = DspConfig(duration_s=0.1)
        run = run_montecarlo(scen, cfg, n_trials=3, seed=20)
        solo = run_montecarlo(scen, cfg, n_trials=1, seed=22)
        assert run.trials[2] == solo.trials[0]


class TestTrialPipeline:
    """The concurrent trial pipeline against the serial public functions."""

    @pytest.mark.parametrize("config", STRADDLING, ids=repr)
    def test_trials_equal_the_serial_public_composition(self, config):
        block = mcdsp._DEMOD_BLOCK
        assert config.n_samples % block != 0
        assert _skip(config) > block and _skip(config) % block != 0
        scen = lumped_channel_scenario(0.6726, 0.6135)
        run = run_montecarlo(scen, config, n_trials=2, seed=31)
        for k, trial in enumerate(run.trials):
            rng = np.random.default_rng(31 + k)
            signal = synthesize_records(run.spec, config, rng)
            vacuum = synthesize_records(vacuum_synthesis_spec(), config, rng)
            expected = estimate_entanglement(
                demod_all(signal, config),
                demod_all(vacuum, config),
                run.spec.correlation_sign,
            )
            assert trial == expected

    def test_trials_do_not_depend_on_the_thread_count(self, monkeypatch):
        # More workers than cores and a short switch interval interleave the
        # jobs as much as possible; one worker runs them in order.
        scen = lumped_channel_scenario(0.6726, 0.6135)
        runs = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 8):
                monkeypatch.setattr(mcdsp, "_pool_size", lambda: workers)
                runs[workers] = run_montecarlo(scen, QUICK, n_trials=3, seed=61).trials
        finally:
            sys.setswitchinterval(interval)
        assert runs[8] == runs[1]

    def test_run_builds_carriers_and_filter_once(self, monkeypatch):
        builds = {"carriers": 0, "filter": 0}

        def counted(key, fn):
            def wrapper(*args):
                builds[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(mcdsp, "_carrier_cache", {})
        monkeypatch.setattr(
            mcdsp, "_build_carriers", counted("carriers", mcdsp._build_carriers)
        )
        monkeypatch.setattr(mcdsp, "_lowpass_sos", counted("filter", mcdsp._lowpass_sos))
        scen = lumped_channel_scenario(0.5, 0.8)
        run = run_montecarlo(scen, DspConfig(duration_s=0.1), n_trials=3, seed=5)
        assert len(run.trials) == 3
        assert builds == {"carriers": 1, "filter": 1}

    def test_ten_second_trial_stays_under_1800_mib(self):
        # Peak memory grows by about 460 MiB per worker thread, so the
        # child keeps at most two cores, the size this bound is set for.
        code = (
            "import os, resource\n"
            "if hasattr(os, 'sched_setaffinity'):\n"
            "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
            "import eprmux\n"
            "fit = eprmux.fit_to_measurements(0.41, 0.64)\n"
            "eprmux.run_montecarlo(fit.scenario, eprmux.DspConfig(duration_s=10.0),"
            " n_trials=1, seed=101000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        peak_mib = int(_run_python(code)) / 1024.0
        assert peak_mib < 1800.0, f"peak RSS {peak_mib:.0f} MiB"


def test_import_loads_no_scipy():
    # mcdsp imports scipy.signal when it first filters; nothing else uses scipy.
    code = "import sys, eprmux\nprint(sorted(k for k in sys.modules if k.startswith('scipy')))\n"
    assert _run_python(code).strip() == "[]"


class TestRecordFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        a, b = synthesize_records(white_spec(), QUICK, rng)
        path = str(tmp_path / "records.bin")
        write_records(path, a, b, QUICK)
        a2, b2, fs = read_records(path)
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)
        assert fs == QUICK.sample_rate_hz

    def test_header_is_ascii_first_line(self, tmp_path):
        rng = np.random.default_rng(14)
        a, b = synthesize_records(white_spec(), QUICK, rng)
        path = str(tmp_path / "records.bin")
        write_records(path, a, b, QUICK, seed=7)
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii")
        assert header.startswith("eprmux-records v1")
        assert f"n={a.size}" in header
        assert "seed=7" in header
        assert f"fs_hz={QUICK.sample_rate_hz!r}" in header

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        a, b = synthesize_records(white_spec(), QUICK, rng)
        path = str(tmp_path / "records.bin")
        write_records(path, a, b, QUICK)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_records(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.bin")
        with open(path, "wb") as fh:
            fh.write(b"something else\n")
        with pytest.raises(ValueError, match="header"):
            read_records(path)
