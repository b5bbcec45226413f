"""Monte-Carlo time-domain check of the covariance model through real DSP.

The covariance model predicts the joint statistics of the demodulated
homodyne outputs directly.  This module validates those predictions the long
way around: synthesize raw photocurrent records with the cross-spectral
density the model implies, push them through an explicit DSP pipeline
(demodulation, low-pass filtering, decimation), estimate the entanglement
criteria from sample moments, and compare against the model within the
estimator's own error bars.

Within the analysis band around the demodulation frequency the two
photocurrents form a stationary Gaussian pair with a 2x2 Hermitian
cross-spectral matrix

    S = [[s_aa, s_ab], [conj(s_ab), s_bb]],

flat across the band.  The demodulated outputs (I_A, Q_A, I_B, Q_B) then
satisfy V(I) = V(Q) = s per detector, Cov(I_A, I_B) = Cov(Q_A, Q_B) =
Re(s_ab) and Cov(I_A, Q_B) = -Cov(Q_A, I_B) = Im(s_ab); the covariance
model's demodulation projections have exactly this structure, which
:func:`build_synthesis_spec` verifies before extracting S.

All estimates are normalized to a vacuum record generated by the same
pipeline, mirroring the shot-noise calibration of an experiment.

:func:`run_montecarlo` draws each trial's normals on the calling thread,
then synthesizes and demodulates the trial's four records (signal A and B,
vacuum A and B) as independent jobs on a pool of
``min(4, usable cores)`` threads; the FFTs and filters release the GIL.
Demodulation streams each record in blocks with the filter state carried
across them.  Every trial is therefore bit-identical to the serial
composition of :func:`synthesize_records`, :func:`demodulate_and_filter`
and :func:`estimate_entanglement`, and a fixed seed gives the same report
on any number of cores.  A 10-s trial at the default rates peaks at about
1.24 GB of resident memory on one worker and 0.46 GB more per further
worker (1.7 GB on two), most of it the demodulation carriers and the
real FFTs in flight.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import (
    JointSecondMoments,
    duan_inseparability,
    optimize_duan_angles,
    reid_epr,
)
from .optics import ChainResult, ChainScenario, demod_projection, run_chain

__all__ = [
    "DspConfig",
    "NoiseSynthesisSpec",
    "SpectralModelError",
    "TrialEstimate",
    "McRunResult",
    "build_synthesis_spec",
    "synthesize_records",
    "demodulate_and_filter",
    "estimate_entanglement",
    "run_montecarlo",
    "vacuum_synthesis_spec",
    "write_records",
    "read_records",
    "write_quadratures_csv",
]


class SpectralModelError(ValueError):
    """The requested statistics cannot come from a stationary beam pair."""


@dataclass(frozen=True)
class DspConfig:
    """Sampling and demodulation parameters of the validation pipeline.

    Args:
        sample_rate_hz: Raw record sampling rate.
        demod_freq_hz: Electronic demodulation frequency.
        lpf_cutoff_hz: Corner of the post-demodulation Butterworth low-pass.
        lpf_order: Order of that filter.
        decimation: Keep-one-in-N downsampling after filtering.
        duration_s: Length of each synthesized record.
        transient_discard_s: Leading stretch dropped from the filtered
            series before any moment is taken, covering filter settling.
        synthesis_halfwidth_factor: Half width of the synthesized band
            around the demodulation frequency, in units of the low-pass
            cutoff.
    """

    sample_rate_hz: float = 2e6
    demod_freq_hz: float = 2e5
    lpf_cutoff_hz: float = 5e4
    lpf_order: int = 4
    decimation: int = 4
    duration_s: float = 1.0
    transient_discard_s: float = 2e-3
    synthesis_halfwidth_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0 or self.duration_s <= 0:
            raise ValueError("sample rate and duration must be positive")
        if not 0 < self.lpf_cutoff_hz < self.demod_freq_hz:
            raise ValueError(
                "low-pass cutoff must lie between 0 and the demodulation "
                "frequency"
            )
        band_top = self.demod_freq_hz + self.synthesis_halfwidth_factor * self.lpf_cutoff_hz
        if band_top >= self.sample_rate_hz / 2:
            raise ValueError(
                f"analysis band reaches {band_top} Hz, beyond the Nyquist "
                f"frequency {self.sample_rate_hz / 2} Hz"
            )
        if self.decimation < 1:
            raise ValueError("decimation factor must be >= 1")
        if self.decimated_rate_hz <= 2 * self.lpf_cutoff_hz:
            raise ValueError(
                f"decimated rate {self.decimated_rate_hz} Hz undersamples the "
                f"{self.lpf_cutoff_hz} Hz low-pass band"
            )
        if self.transient_discard_s < 0:
            raise ValueError("transient discard must be >= 0")
        if self.transient_discard_s >= self.duration_s / 2:
            raise ValueError("transient discard eats most of the record")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    @property
    def decimated_rate_hz(self) -> float:
        return self.sample_rate_hz / self.decimation

    @property
    def synthesis_band_hz(self) -> tuple[float, float]:
        half = self.synthesis_halfwidth_factor * self.lpf_cutoff_hz
        return (max(0.0, self.demod_freq_hz - half), self.demod_freq_hz + half)


@dataclass(frozen=True)
class NoiseSynthesisSpec:
    """Flat-band cross-spectral density of the two photocurrents.

    Spectral levels are in vacuum units (a shot-noise-limited detector has
    level 1).  ``correlation_sign`` is +1 when the I channels correlate
    positively, so that ``I_A - I_B`` is the squeezed combination together
    with ``Q_A - Q_B``; -1 flips both combinations to sums.
    ``model_inseparability``/``model_epr`` are the covariance-model
    predictions for exactly the statistics being synthesized.
    """

    s_aa: float
    s_bb: float
    s_ab: complex
    correlation_sign: int
    model_inseparability: float
    model_epr: float

    def __post_init__(self) -> None:
        if self.s_aa <= 0 or self.s_bb <= 0:
            raise SpectralModelError("spectral levels must be positive")
        if abs(self.s_ab) ** 2 > self.s_aa * self.s_bb * (1 + 1e-12):
            raise SpectralModelError(
                f"cross density {self.s_ab} exceeds the Cauchy-Schwarz bound "
                f"for levels {self.s_aa}, {self.s_bb}"
            )
        if self.correlation_sign not in (-1, +1):
            raise ValueError("correlation sign must be -1 or +1")


def _projection_cov(state, u, v) -> float:
    return float(u @ state.cov @ v)


def build_synthesis_spec(
    result: ChainResult,
    angle_offsets_rad: tuple[float, float] = (0.0, 0.0),
    tol: float = 1e-9,
) -> NoiseSynthesisSpec:
    """Extract the flat-band cross-spectral density from a chain result.

    Args:
        result: Output of :func:`eprmux.optics.run_chain`.
        angle_offsets_rad: Extra LO phases for the two parties, typically
            the output of the quadrature-angle optimization.
        tol: Tolerance of the stationarity (circularity) checks.

    Raises:
        SpectralModelError: if the four demodulation projections do not have
            the circular structure of a stationary beam pair, e.g. because
            the chain would need a phase-sensitive detector model.
    """
    state = result.state
    off_a, off_b = angle_offsets_rad
    proj = {}
    for party, chan, path, off in (
        ("a", result.alice_channel, result.alice_path, off_a),
        ("b", result.bob_channel, result.bob_path, off_b),
    ):
        for comp in ("cos", "sin"):
            proj[party, comp] = demod_projection(
                state, chan, comp, path, quadrature_offset_rad=off
            )

    v_ia = _projection_cov(state, proj["a", "cos"], proj["a", "cos"])
    v_qa = _projection_cov(state, proj["a", "sin"], proj["a", "sin"])
    v_ib = _projection_cov(state, proj["b", "cos"], proj["b", "cos"])
    v_qb = _projection_cov(state, proj["b", "sin"], proj["b", "sin"])
    c_iq_a = _projection_cov(state, proj["a", "cos"], proj["a", "sin"])
    c_iq_b = _projection_cov(state, proj["b", "cos"], proj["b", "sin"])
    c_ii = _projection_cov(state, proj["a", "cos"], proj["b", "cos"])
    c_qq = _projection_cov(state, proj["a", "sin"], proj["b", "sin"])
    c_iq = _projection_cov(state, proj["a", "cos"], proj["b", "sin"])
    c_qi = _projection_cov(state, proj["a", "sin"], proj["b", "cos"])

    scale = max(v_ia, v_ib, 1.0)
    defects = {
        "V(I_A) != V(Q_A)": abs(v_ia - v_qa),
        "V(I_B) != V(Q_B)": abs(v_ib - v_qb),
        "Cov(I_A, Q_A) != 0": abs(c_iq_a),
        "Cov(I_B, Q_B) != 0": abs(c_iq_b),
        "Cov(I_A, I_B) != Cov(Q_A, Q_B)": abs(c_ii - c_qq),
        "Cov(I_A, Q_B) != -Cov(Q_A, I_B)": abs(c_iq + c_qi),
    }
    worst = max(defects, key=defects.get)
    if defects[worst] > tol * scale:
        raise SpectralModelError(
            f"demodulated statistics are not stationary: {worst} "
            f"(defect {defects[worst]:.3e})"
        )

    s_aa = (v_ia + v_qa) / 2.0
    s_bb = (v_ib + v_qb) / 2.0
    s_ab = complex((c_ii + c_qq) / 2.0, (c_iq - c_qi) / 2.0)
    sign = +1 if s_ab.real >= 0 else -1
    # The signed combinations I_A - sign I_B and Q_A - sign Q_B play the
    # roles of X_A - X_B and Xp_A + Xp_B in the criteria.
    moments = JointSecondMoments(
        v_xa=s_aa,
        v_xpa=s_aa,
        v_xb=s_bb,
        v_xpb=s_bb,
        c_x=sign * s_ab.real,
        c_xp=-sign * s_ab.real,
    )
    return NoiseSynthesisSpec(
        s_aa=s_aa,
        s_bb=s_bb,
        s_ab=s_ab,
        correlation_sign=sign,
        model_inseparability=duan_inseparability(moments),
        model_epr=reid_epr(moments)[0],
    )


def _chol2(s_aa: float, s_bb: float, s_ab: complex, bin_hz: float) -> np.ndarray:
    """Cholesky factor of a 2x2 Hermitian spectral matrix."""
    l00 = math.sqrt(s_aa)
    l10 = s_ab.conjugate() / l00
    rem = s_bb - abs(s_ab) ** 2 / s_aa
    if rem < -1e-9 * max(s_aa, s_bb):
        raise SpectralModelError(
            f"spectral matrix at {bin_hz} Hz is not positive semidefinite "
            f"(Schur complement {rem:.3e})"
        )
    l11 = math.sqrt(max(rem, 0.0))
    return np.array([[l00, 0.0], [l10, l11]], dtype=complex)


@functools.lru_cache(maxsize=8)
def _band_slice(config: DspConfig, band_hz: tuple[float, float] | None) -> slice:
    """The real-FFT bins of a record that the synthesis band covers."""
    n = config.n_samples
    fs = config.sample_rate_hz
    lo, hi = band_hz if band_hz is not None else config.synthesis_band_hz
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    mask = (freqs >= lo) & (freqs <= hi) & (freqs > 0) & (freqs < fs / 2)
    n_bins = int(np.count_nonzero(mask))
    if n_bins == 0:
        raise ValueError(f"synthesis band ({lo}, {hi}) Hz contains no FFT bin")
    # The bin frequencies increase, so the band is one contiguous run.
    first = int(np.argmax(mask))
    return slice(first, first + n_bins)


def _colored_rows(
    spec: NoiseSynthesisSpec,
    config: DspConfig,
    n_bins: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """In-band spectra of a record pair, one separately owned row each."""
    chol = _chol2(spec.s_aa, spec.s_bb, spec.s_ab, config.demod_freq_hz)
    # Unit-variance complex pairs, colored by the Cholesky factor and scaled
    # to E|R_k|^2 = N fs P = N S.
    g = rng.standard_normal((2, n_bins, 2))
    z = (g[..., 0] + 1j * g[..., 1]) / math.sqrt(2.0)
    del g
    colored = chol @ z
    del z
    scale = math.sqrt(float(config.n_samples))
    return [scale * colored[0], scale * colored[1]]


def _record(rows: list, k: int, band: slice, n: int) -> np.ndarray:
    """Record ``k`` of a pair from its in-band spectrum ``rows[k]``.

    The row is dropped from ``rows`` once it is placed, so that its memory
    goes as soon as no other job holds it.
    """
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[band] = rows[k]
    rows[k] = None
    return np.fft.irfft(spectrum, n=n)


def synthesize_records(
    spec: NoiseSynthesisSpec,
    config: DspConfig,
    rng: np.random.Generator,
    band_hz: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one pair of band-limited Gaussian photocurrent records.

    Spectral coloring happens in the real-FFT domain: every positive
    frequency bin inside the band receives a complex Gaussian pair with
    covariance ``N fs P(f)`` where ``P = S / fs`` is the two-sided PSD of
    the real record, so a unit spectral level synthesized over the whole
    Nyquist range gives unit sample variance.
    """
    band = _band_slice(config, None if band_hz is None else tuple(band_hz))
    rows = _colored_rows(spec, config, band.stop - band.start, rng)
    n = config.n_samples
    return _record(rows, 0, band, n), _record(rows, 1, band, n)


# Demodulation streams a record through the mixers and the low-pass in
# blocks of this many samples, so its scratch memory stays a few megabytes
# whatever the record length.
_DEMOD_BLOCK = 1 << 18

# One-slot cache of the demodulation carriers; long validation runs reuse the
# same (rate, frequency, length) triple for every record of every trial, and
# regenerating two multi-megasample trig arrays per call dominates the cost.
_carrier_cache: dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray]] = {}


def _build_carriers(fs_hz: float, freq_hz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    phase = (2.0 * math.pi * freq_hz / fs_hz) * np.arange(n)
    return np.cos(phase), np.sin(phase)


def _carriers(fs_hz: float, freq_hz: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    key = (fs_hz, freq_hz, n)
    cached = _carrier_cache.get(key)
    if cached is None:
        _carrier_cache.clear()
        cached = _carrier_cache[key] = _build_carriers(fs_hz, freq_hz, n)
    return cached


def _lowpass_sos(config: DspConfig) -> np.ndarray:
    """Second-order sections of the post-demodulation Butterworth low-pass."""
    from scipy import signal

    return signal.butter(
        config.lpf_order,
        config.lpf_cutoff_hz,
        btype="low",
        fs=config.sample_rate_hz,
        output="sos",
    )


def _demodulate(
    record: np.ndarray,
    config: DspConfig,
    sos: np.ndarray,
    carriers: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Block-streamed body of :func:`demodulate_and_filter`.

    Each block carries the filter state of the one before, which makes the
    output equal, bit for bit, to one filter pass over the whole record.
    """
    from scipy.signal import sosfilt

    cos_c, sin_c = carriers
    n = record.size
    skip = int(round(config.transient_discard_s * config.sample_rate_hz))
    step = config.decimation
    n_out = len(range(skip, n, step))
    i_series = np.empty(n_out)
    q_series = np.empty(n_out)
    zi_i = zi_q = np.zeros((sos.shape[0], 2))
    for start in range(0, n, _DEMOD_BLOCK):
        stop = min(start + _DEMOD_BLOCK, n)
        scaled = math.sqrt(2.0) * record[start:stop]
        i_block, zi_i = sosfilt(sos, scaled * cos_c[start:stop], zi=zi_i)
        q_block, zi_q = sosfilt(sos, scaled * sin_c[start:stop], zi=zi_q)
        # Output j is sample skip + j * step; j0 is the first in this block.
        j0 = max(0, -((skip - start) // step))
        kept = slice(skip + j0 * step - start, None, step)
        i_kept = i_block[kept]
        i_series[j0 : j0 + i_kept.size] = i_kept
        q_series[j0 : j0 + i_kept.size] = q_block[kept]
    return i_series, q_series


def demodulate_and_filter(
    record: np.ndarray, config: DspConfig
) -> tuple[np.ndarray, np.ndarray]:
    """I/Q demodulation of one record, low-passed, trimmed, decimated.

    The carriers are ``sqrt(2) cos`` and ``sqrt(2) sin`` at the
    demodulation frequency, so a coherent tone of amplitude A at the carrier
    lands at ``A / sqrt(2)`` in I, matching the 1/sqrt(2) weight the
    covariance model assigns each sideband.
    """
    record = np.asarray(record, dtype=float)
    carriers = _carriers(config.sample_rate_hz, config.demod_freq_hz, record.size)
    return _demodulate(record, config, _lowpass_sos(config), carriers)


def _tau2(series: np.ndarray, max_lag: int) -> float:
    """Autocorrelation-squared time: N_eff = N / tau2 for variance targets.

    Long series are split into segments a few times ``max_lag`` long and the
    segment periodograms averaged (Bartlett), which estimates the same
    autocovariance out to ``max_lag`` at a fraction of the full-length FFT
    cost.
    """
    x = series - series.mean()
    n = x.size
    seg = 1
    while seg < 8 * max_lag:
        seg *= 2
    if n >= 2 * seg:
        nseg = n // seg
        blocks = x[: nseg * seg].reshape(nseg, seg)
        f = np.fft.rfft(blocks, 2 * seg, axis=1)
        acov = np.fft.irfft((f * np.conj(f)).mean(axis=0))[: max_lag + 1] / seg
    else:
        m = 1
        while m < 2 * n:
            m *= 2
        f = np.fft.rfft(x, m)
        acov = np.fft.irfft(f * np.conj(f))[: max_lag + 1] / n
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    return float(1.0 + 2.0 * np.sum(rho[1:] ** 2))


@dataclass(frozen=True)
class TrialEstimate:
    """I and E estimated from one synthesized record pair."""

    inseparability: float
    epr_product: float
    sigma_inseparability: float
    sigma_epr: float
    gain_i: float
    gain_q: float
    n_effective: float


def _moment_cov(va: float, vb: float, c: float, n_eff: float) -> np.ndarray:
    """Covariance of (va_hat, vb_hat, c_hat) for a Gaussian series pair."""
    return (
        np.array(
            [
                [2 * va**2, 2 * c**2, 2 * va * c],
                [2 * c**2, 2 * vb**2, 2 * vb * c],
                [2 * va * c, 2 * vb * c, va * vb + c**2],
            ]
        )
        / n_eff
    )


# Autocorrelation range of the effective-sample count.
_MAX_LAG = 400


def estimate_entanglement(
    signal_iq: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    vacuum_iq: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    correlation_sign: int,
    max_lag: int = _MAX_LAG,
) -> TrialEstimate:
    """Entanglement estimate from demodulated series, vacuum normalized.

    Args:
        signal_iq: ``(I_A, Q_A, I_B, Q_B)`` series of the signal records.
        vacuum_iq: Same pipeline applied to vacuum-level records; sets the
            shot-noise unit per detector.
        correlation_sign: From the synthesis spec; +1 evaluates the
            difference combinations, -1 the sums.
        max_lag: Autocorrelation range for the effective-sample count.

    Error bars use the delta method with Gaussian fourth moments and an
    effective sample count ``N / tau2`` shared by all series (they pass the
    same filter).  The vacuum normalization contributes independently
    through the two detector levels and is propagated exactly; the small
    covariance between I-block and Q-block moment errors (zero for a
    dispersion-free chain) is neglected.
    """
    return _estimate(signal_iq, vacuum_iq, correlation_sign, max_lag, map)


def _estimate(
    signal_iq, vacuum_iq, correlation_sign: int, max_lag: int, map_fn
) -> TrialEstimate:
    """Body of :func:`estimate_entanglement`; ``map_fn`` maps ``_tau2``
    over the four signal series."""
    i_a, q_a, i_b, q_b = (np.asarray(s, dtype=float) for s in signal_iq)
    vi_a, vq_a, vi_b, vq_b = (np.asarray(s, dtype=float) for s in vacuum_iq)
    n = i_a.size
    if any(s.size != n for s in (q_a, i_b, q_b)):
        raise ValueError("the four signal series must share one length")
    if any(s.size != vi_a.size for s in (vq_a, vi_b, vq_b)):
        raise ValueError("the four vacuum series must share one length")

    def power(x):
        return float(np.mean(x * x))

    n_a = (power(vi_a) + power(vq_a)) / 2.0
    n_b = (power(vi_b) + power(vq_b)) / 2.0
    if n_a <= 0 or n_b <= 0:
        raise ValueError("vacuum records have no power; cannot normalize")

    via = power(i_a) / n_a
    vqa = power(q_a) / n_a
    vib = power(i_b) / n_b
    vqb = power(q_b) / n_b
    ci = float(np.mean(i_a * i_b)) / math.sqrt(n_a * n_b)
    cq = float(np.mean(q_a * q_b)) / math.sqrt(n_a * n_b)

    tau2 = float(np.mean(list(map_fn(_tau2, (i_a, q_a, i_b, q_b), [max_lag] * 4))))
    n_eff = n / tau2
    n_eff_vac = vi_a.size / tau2

    s = float(correlation_sign)
    insep = 0.25 * ((via + vib - 2 * s * ci) + (vqa + vqb - 2 * s * cq))
    u = via - ci**2 / vib
    w = vqa - cq**2 / vqb
    epr = u * w
    gain_i = ci / vib
    gain_q = cq / vqb

    # Signal-noise part of the error bars, block by block.
    g_i = np.array([0.25, 0.25, -0.5 * s])
    m_i = _moment_cov(via, vib, ci, n_eff)
    m_q = _moment_cov(vqa, vqb, cq, n_eff)
    var_insep = float(g_i @ m_i @ g_i + g_i @ m_q @ g_i)
    g_u = np.array([1.0, (ci / vib) ** 2, -2.0 * ci / vib])
    g_w = np.array([1.0, (cq / vqb) ** 2, -2.0 * cq / vqb])
    var_epr = float(w**2 * (g_u @ m_i @ g_u) + u**2 * (g_w @ m_q @ g_w))

    # Vacuum-normalization part: independent relative errors on the two
    # detector levels, each estimated from two series.
    relvar_n = 1.0 / n_eff_vac
    d_insep_dlna = 0.25 * (-via - vqa + s * (ci + cq))
    d_insep_dlnb = 0.25 * (-vib - vqb + s * (ci + cq))
    var_insep += (d_insep_dlna**2 + d_insep_dlnb**2) * relvar_n
    # E scales as 1/n_a^2 and is invariant under n_b.
    var_epr += (2.0 * epr) ** 2 * relvar_n

    return TrialEstimate(
        inseparability=insep,
        epr_product=epr,
        sigma_inseparability=math.sqrt(var_insep),
        sigma_epr=math.sqrt(var_epr),
        gain_i=gain_i,
        gain_q=gain_q,
        n_effective=n_eff,
    )


@dataclass(frozen=True)
class McRunResult:
    """All trials of one Monte-Carlo validation run."""

    spec: NoiseSynthesisSpec
    config: DspConfig
    seed: int
    trials: tuple[TrialEstimate, ...]

    @property
    def z_inseparability(self) -> np.ndarray:
        return np.array(
            [
                (t.inseparability - self.spec.model_inseparability)
                / t.sigma_inseparability
                for t in self.trials
            ]
        )

    @property
    def z_epr(self) -> np.ndarray:
        return np.array(
            [(t.epr_product - self.spec.model_epr) / t.sigma_epr for t in self.trials]
        )

    def coverage(self, n_sigma: float = 3.0) -> float:
        """Fraction of trials whose I and E both sit within n_sigma."""
        ok = (np.abs(self.z_inseparability) <= n_sigma) & (
            np.abs(self.z_epr) <= n_sigma
        )
        return float(np.mean(ok))


def vacuum_synthesis_spec() -> NoiseSynthesisSpec:
    """Shot-noise reference: uncorrelated unit spectral levels."""
    return NoiseSynthesisSpec(
        s_aa=1.0,
        s_bb=1.0,
        s_ab=0j,
        correlation_sign=+1,
        model_inseparability=1.0,
        model_epr=1.0,
    )


def _pool_size() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cores = os.cpu_count() or 1
    return min(4, cores)


def _record_iq(
    rows: list,
    k: int,
    band: slice,
    config: DspConfig,
    sos: np.ndarray,
    carriers: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize record ``k`` of a pair and demodulate it."""
    record = _record(rows, k, band, config.n_samples)
    return _demodulate(record, config, sos, carriers)


def _run_one_trial(
    spec: NoiseSynthesisSpec,
    config: DspConfig,
    rng: np.random.Generator,
    pool: ThreadPoolExecutor,
    band: slice,
    sos: np.ndarray,
    carriers: tuple[np.ndarray, np.ndarray],
) -> TrialEstimate:
    """One trial: the same draws, records and estimate as the serial
    composition of :func:`synthesize_records` (signal, then vacuum),
    :func:`demodulate_and_filter` and :func:`estimate_entanglement`.

    The normals are drawn here, in that order; the four records are then
    synthesized and demodulated as independent jobs on ``pool``.
    """
    jobs = []
    for pair_spec in (spec, vacuum_synthesis_spec()):
        rows = _colored_rows(pair_spec, config, band.stop - band.start, rng)
        jobs += [
            pool.submit(_record_iq, rows, k, band, config, sos, carriers)
            for k in (0, 1)
        ]
    (ia, qa), (ib, qb), (via, vqa), (vib, vqb) = (job.result() for job in jobs)
    return _estimate(
        (ia, qa, ib, qb), (via, vqa, vib, vqb), spec.correlation_sign, _MAX_LAG, pool.map
    )


def run_montecarlo(
    scenario: ChainScenario,
    config: DspConfig | None = None,
    n_trials: int = 10,
    seed: int = 0,
    angle_offsets_rad: tuple[float, float] | None = None,
) -> McRunResult:
    """Monte-Carlo validation of one chain scenario.

    Each trial draws fresh records from an rng seeded ``seed + trial``, so
    single trials can be reproduced in isolation.  When ``angle_offsets_rad``
    is None the quadrature angles minimizing the difference variance are
    found first, matching how the deterministic evaluation reports I.
    """
    config = config or DspConfig()
    result = run_chain(scenario)
    if angle_offsets_rad is None:
        best = optimize_duan_angles(
            result.state.cov,
            (result.alice_x, result.alice_xp),
            (result.bob_x, result.bob_xp),
        )
        angle_offsets_rad = (best.theta_a, best.theta_b)
    spec = build_synthesis_spec(result, angle_offsets_rad)
    # Everything the jobs share is built here, once, before any dispatch.
    band = _band_slice(config, None)
    sos = _lowpass_sos(config)
    carriers = _carriers(config.sample_rate_hz, config.demod_freq_hz, config.n_samples)
    with ThreadPoolExecutor(max_workers=_pool_size()) as pool:
        trials = tuple(
            _run_one_trial(
                spec, config, np.random.default_rng(seed + k), pool, band, sos, carriers
            )
            for k in range(n_trials)
        )
    return McRunResult(spec=spec, config=config, seed=seed, trials=trials)


_RECORD_MAGIC = "eprmux-records v1"


def write_records(
    path: str, a: np.ndarray, b: np.ndarray, config: DspConfig, seed: int = 0
) -> None:
    """Store one record pair: ASCII header line, then both channels as
    little-endian float64.  ``seed`` documents the rng stream the records
    came from so a reader can regenerate them."""
    a = np.asarray(a, dtype="<f8")
    b = np.asarray(b, dtype="<f8")
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("records must be two equal-length 1-D arrays")
    header = (
        f"{_RECORD_MAGIC} fs_hz={config.sample_rate_hz!r} n={a.size} "
        f"seed={int(seed)} channels=alice,bob dtype=float64-le\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(a.tobytes())
        fh.write(b.tobytes())


def read_records(path: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Load a record pair written by :func:`write_records`.

    Returns:
        ``(a, b, sample_rate_hz)``.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        if not header.startswith(_RECORD_MAGIC):
            raise ValueError(f"not a records file: header {header!r}")
        fields = dict(
            item.split("=", 1) for item in header.split() if "=" in item
        )
        n = int(fields["n"])
        fs = float(fields["fs_hz"])
        payload = np.frombuffer(fh.read(), dtype="<f8")
    if payload.size != 2 * n:
        raise ValueError(
            f"records file truncated: expected {2 * n} samples, got {payload.size}"
        )
    return payload[:n].copy(), payload[n:].copy(), fs


def write_quadratures_csv(
    path: str, streams: dict[str, np.ndarray], rate_hz: float
) -> None:
    """Store decimated quadrature streams as CSV with a leading time column.

    All streams must share one length; the time column is the sample index
    divided by ``rate_hz``.
    """
    arrays = {name: np.asarray(s, dtype=float) for name, s in streams.items()}
    lengths = {a.size for a in arrays.values()}
    if not arrays or len(lengths) != 1:
        raise ValueError("need at least one stream and equal lengths")
    (n,) = lengths
    names = list(arrays)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(["time_s"] + names) + "\n")
        for k in range(n):
            row = [repr(k / rate_hz)] + [repr(float(arrays[m][k])) for m in names]
            fh.write(",".join(row) + "\n")
