"""Planner for packing several EPR channels into one squeezed beam.

Every channel occupies two sideband pairs around its own center frequency
Omega_i, read by local oscillators at -/+Omega_i and split by filter cavities
detuned to -/+Omega_i.  Channels are packed on a regular grid inside a usable
band, leaving a guard interval between neighboring channels so their
resolution bands never overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import EntanglementReport, evaluate_scenario
from .optics import (
    ChainScenario,
    FilterCavity,
    GeometryError,
    HomodyneChannel,
    OpaSource,
    Splitter,
    build_sideband_pairs_state,
)

__all__ = [
    "ChannelPlan",
    "MultiplexPlan",
    "PlanValidation",
    "plan_multiplex",
    "validate_plan",
]

# Most channels one plan may hold.
_MAX_CHANNELS = 100_000


@dataclass(frozen=True)
class ChannelPlan:
    """One frequency-multiplexed EPR channel.

    ``center_hz`` is the channel's sideband frequency Omega_i; the two
    parties place local oscillators at -/+Omega_i and demodulate at
    ``demod_hz``, addressing the squeezed pairs at Omega_i -/+ demod_hz.
    """

    index: int
    center_hz: float
    demod_hz: float

    @property
    def lo_pair_hz(self) -> tuple[float, float]:
        """Local-oscillator offsets of the two parties."""
        return (-self.center_hz, +self.center_hz)

    @property
    def pair_frequencies_hz(self) -> tuple[float, float]:
        """The two squeezed Fourier frequencies this channel uses."""
        return (self.center_hz - self.demod_hz, self.center_hz + self.demod_hz)

    @property
    def sideband_quadruple_hz(self) -> tuple[float, float, float, float]:
        """All four sideband offsets, ascending."""
        w1, w2 = self.pair_frequencies_hz
        return (-w2, -w1, +w1, +w2)

    @property
    def filter_detunings_hz(self) -> tuple[float, float]:
        """Detunings of the two splitter cavities serving this channel."""
        return (-self.center_hz, +self.center_hz)


@dataclass(frozen=True)
class MultiplexPlan:
    """A set of non-overlapping channels inside the usable band."""

    band_hz: tuple[float, float]
    detection_bandwidth_hz: float
    guard_hz: float
    demod_hz: float
    channels: tuple[ChannelPlan, ...]

    @property
    def n_channels(self) -> int:
        return len(self.channels)


def plan_multiplex(
    band_hz: tuple[float, float],
    detection_bandwidth_hz: float,
    guard_hz: float = 0.0,
    demod_hz: float = 2e5,
) -> MultiplexPlan:
    """Pack channels on a regular grid into the usable sideband band.

    Each channel occupies ``[Omega_i - detection_bandwidth_hz, Omega_i +
    detection_bandwidth_hz]`` on the positive-frequency side (mirrored on the
    negative side).  Channels are placed greedily from the lower band edge
    with ``guard_hz`` between neighboring occupancies, so

        Omega_i = lower + detection_bandwidth + (i - 1) (2 detection_bandwidth + guard)

    as long as the occupancy stays inside the band.  An empty plan is a
    valid outcome for a band too narrow for a single channel.
    """
    # Written as "not ..." so that NaN fails every test.
    lo, hi = float(band_hz[0]), float(band_hz[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"band must satisfy 0 < lower < upper < inf, got {band_hz}")
    if not 0.0 < detection_bandwidth_hz < math.inf:
        raise ValueError(
            f"detection bandwidth must be positive and finite, got {detection_bandwidth_hz}"
        )
    if not 0.0 <= guard_hz < math.inf:
        raise ValueError(f"guard interval must be >= 0 and finite, got {guard_hz}")
    if not demod_hz > 0:
        raise ValueError(f"demodulation frequency must be positive, got {demod_hz}")
    if demod_hz >= detection_bandwidth_hz:
        raise ValueError(
            "demodulation frequency must stay below the detection bandwidth, "
            f"got {demod_hz} >= {detection_bandwidth_hz}"
        )
    pitch = 2.0 * detection_bandwidth_hz + guard_hz
    # The plan holds floor(extra) + 1 channels; the loop keeps the exact
    # float edge test, this bound only stops a band no plan should fill.
    extra = (hi - lo - 2.0 * detection_bandwidth_hz) / pitch
    if extra >= _MAX_CHANNELS:
        raise ValueError(
            f"band holds about {extra + 1.0:.3g} channels, more than the "
            f"{_MAX_CHANNELS} a plan may hold"
        )
    channels = []
    i = 0
    while True:
        center = lo + detection_bandwidth_hz + i * pitch
        if center + detection_bandwidth_hz > hi:
            break
        channels.append(ChannelPlan(index=i, center_hz=center, demod_hz=demod_hz))
        i += 1
    return MultiplexPlan(
        band_hz=(lo, hi),
        detection_bandwidth_hz=detection_bandwidth_hz,
        guard_hz=guard_hz,
        demod_hz=demod_hz,
        channels=tuple(channels),
    )


@dataclass(frozen=True)
class PlanValidation:
    """Cross-channel checks and per-channel entanglement of a plan."""

    reports: tuple[EntanglementReport, ...]
    max_cross_channel_cov: float


def _channel_scenario(
    source: OpaSource,
    channel: ChannelPlan,
    splitter_hwhm_hz: float | None,
    rbw_hz: float,
) -> ChainScenario:
    w1, w2 = channel.pair_frequencies_hz
    alice = HomodyneChannel(lo_shift_hz=-channel.center_hz, demod_freq_hz=channel.demod_hz)
    bob = HomodyneChannel(lo_shift_hz=+channel.center_hz, demod_freq_hz=channel.demod_hz)
    splitter: Splitter | None = None
    if splitter_hwhm_hz is not None:
        splitter = FilterCavity(
            detuning_hz=channel.filter_detunings_hz[0], hwhm_hz=splitter_hwhm_hz
        )
    return ChainScenario(
        source=source,
        omega1_hz=w1,
        omega2_hz=w2,
        alice=alice,
        bob=bob,
        splitter=splitter,
        rbw_hz=rbw_hz,
    )


def validate_plan(
    plan: MultiplexPlan,
    source: OpaSource,
    splitter_hwhm_hz: float | None = None,
    rbw_hz: float = 1e5,
) -> PlanValidation:
    """Check that planned channels do not talk to each other.

    Rejects occupancy overlaps, reports the largest covariance between modes
    of different channels, and evaluates each channel's entanglement through
    its own chain.

    ``max_cross_channel_cov`` is taken over the source's joint sideband
    state, before any splitter.  That state is block diagonal by
    construction, so the figure is exactly 0; it does not model crosstalk
    through the splitter cavities.

    Args:
        plan: Output of :func:`plan_multiplex`.
        source: Squeezed source shared by all channels.
        splitter_hwhm_hz: Half width of the per-channel splitter cavities;
            ``None`` evaluates the splitterless symmetric reference.
        rbw_hz: Resolution bandwidth of each sideband mode.

    Raises:
        GeometryError: if two channels' occupancies overlap.
    """
    # Centres come from float arithmetic, so allow a rounding slack far
    # below any physical frequency scale.
    ordered = sorted(plan.channels, key=lambda ch: ch.center_hz)
    slack = 1e-12 * max((abs(ch.center_hz) for ch in ordered), default=0.0)
    for a, b in zip(ordered, ordered[1:]):
        if b.center_hz - a.center_hz < 2.0 * plan.detection_bandwidth_hz - slack:
            raise GeometryError(
                f"channels {a.index} and {b.index} overlap: centers "
                f"{a.center_hz} and {b.center_hz} Hz closer than the "
                f"occupancy width"
            )
    if not plan.channels:
        return PlanValidation(reports=(), max_cross_channel_cov=0.0)

    all_pairs = [w for ch in plan.channels for w in ch.pair_frequencies_hz]
    joint = build_sideband_pairs_state(source, all_pairs, rbw_hz)
    # The labels carry the very floats of pair_frequencies_hz, so the
    # offsets are exact keys.
    channel_of = {w: ch.index for ch in plan.channels for w in ch.sideband_quadruple_hz}
    owner = np.repeat([channel_of[lab.offset_hz] for lab in joint.labels], 2)
    cross = owner[:, None] != owner[None, :]
    max_cross = float(np.max(np.abs(joint.cov), where=cross, initial=0.0))

    reports = tuple(
        evaluate_scenario(_channel_scenario(source, ch, splitter_hwhm_hz, rbw_hz))
        for ch in plan.channels
    )
    return PlanValidation(reports=reports, max_cross_channel_cov=max_cross)
