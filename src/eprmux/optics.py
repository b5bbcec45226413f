"""Optical chain: squeezed-sideband source, filter cavities, shifted homodynes.

The source model is a below-threshold parametric amplifier emitting a
broadband squeezed field.  Each pair of sidebands at +/-Omega around the
carrier forms a two-mode squeezed state; two such pairs make up the
four-mode state addressed by one EPR channel.  A detuned filter cavity acts
as a frequency-dependent beam splitter that sends the lower sidebands to one
party and the upper sidebands to the other, and each party reads its beam
with a frequency-shifted local oscillator followed by demodulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .gaussian import GaussianState, SidebandLabel, apply_passive

__all__ = [
    "AboveThresholdError",
    "GeometryError",
    "OpaSource",
    "FilterCavity",
    "PerfectSplitter",
    "HomodyneChannel",
    "ChainScenario",
    "ChainResult",
    "squeezing_spectrum",
    "finesse_from_transmissions",
    "linewidth_from_finesse",
    "cavity_transfer",
    "splitter_transfer",
    "build_sideband_pairs_state",
    "apply_frequency_beam_splitter",
    "demod_projection",
    "dispersion_corrected_phases",
    "run_chain",
]

TRANSMITTED = "t"
REFLECTED = "r"

# Speed of light in vacuum, exact in the SI (m/s).
_C_LIGHT = 299_792_458.0


class AboveThresholdError(ValueError):
    """Pump parameter at or above the oscillation threshold."""


class GeometryError(ValueError):
    """A scenario wires channels and sidebands together inconsistently."""


@dataclass(frozen=True)
class OpaSource:
    """Below-threshold parametric source of a broadband squeezed field.

    Args:
        pump_parameter: Normalized pump amplitude x in [0, 1); the
            oscillation threshold sits at 1.
        cavity_hwhm_hz: Half width (HWHM) of the source cavity.  ``inf`` is
            accepted and gives a frequency-flat spectrum.
        efficiency: Escape/propagation efficiency folded into the emitted
            spectrum.
        added_classical_noise: Extra variance added flat to both quadratures
            below ``noise_cutoff_hz``, modeling residual technical noise.
        noise_cutoff_hz: Upper edge of the technical-noise band.
    """

    pump_parameter: float
    cavity_hwhm_hz: float = 12.5e6
    efficiency: float = 1.0
    added_classical_noise: float = 0.0
    noise_cutoff_hz: float = 4e6

    def __post_init__(self) -> None:
        if not 0.0 <= self.pump_parameter:
            raise ValueError(f"pump parameter must be >= 0, got {self.pump_parameter}")
        if self.pump_parameter >= 1.0:
            raise AboveThresholdError(
                f"pump parameter {self.pump_parameter} is at or above threshold"
            )
        if not self.cavity_hwhm_hz > 0:
            raise ValueError("cavity half width must be positive")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.added_classical_noise < 0:
            raise ValueError("added classical noise must be >= 0")

    @classmethod
    def from_bandwidth(
        cls,
        pump_parameter: float,
        bandwidth_hz: float,
        convention: str = "fwhm",
        **kwargs,
    ) -> "OpaSource":
        """Build a source from a quoted cavity bandwidth.

        ``convention`` selects whether the quoted figure is the full width
        ("fwhm", the default reading) or already the half width ("hwhm").
        """
        if convention == "fwhm":
            hwhm = bandwidth_hz / 2.0
        elif convention == "hwhm":
            hwhm = bandwidth_hz
        else:
            raise ValueError(f"unknown bandwidth convention {convention!r}")
        return cls(pump_parameter=pump_parameter, cavity_hwhm_hz=hwhm, **kwargs)


def squeezing_spectrum(source: OpaSource, omega_hz: float) -> tuple[float, float]:
    """Squeezed and antisqueezed variances at sideband frequency omega_hz.

    Returns:
        ``(v_sq, v_anti)`` in vacuum units.  Without added technical noise
        ``v_sq <= 1 <= v_anti``, and for unit efficiency the product
        ``v_sq * v_anti`` equals 1 at every frequency.
    """
    x = source.pump_parameter
    if math.isinf(source.cavity_hwhm_hz):
        d2 = 0.0
    else:
        d2 = (abs(omega_hz) / source.cavity_hwhm_hz) ** 2
    eta = source.efficiency
    v_sq = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + d2)
    v_anti = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + d2)
    if abs(omega_hz) < source.noise_cutoff_hz and source.added_classical_noise > 0:
        v_sq += source.added_classical_noise
        v_anti += source.added_classical_noise
    return v_sq, v_anti


def finesse_from_transmissions(transmissions: Sequence[float]) -> float:
    """Cavity finesse 2*pi / (sum of mirror power transmissions)."""
    total = float(sum(transmissions))
    if total <= 0:
        raise ValueError("mirror transmissions must sum to a positive value")
    return 2.0 * math.pi / total


def linewidth_from_finesse(round_trip_length_m: float, finesse: float) -> float:
    """Full linewidth (FWHM) of a travelling-wave cavity in Hz."""
    if round_trip_length_m <= 0 or finesse <= 0:
        raise ValueError("round-trip length and finesse must be positive")
    fsr = _C_LIGHT / round_trip_length_m
    return fsr / finesse


@dataclass(frozen=True)
class FilterCavity:
    """Single-pole cavity used as a frequency splitter or mode cleaner.

    Args:
        detuning_hz: Resonance offset from the carrier (signed).
        hwhm_hz: Half width of the resonance.
        loss: Intracavity power loss experienced by the resonant (transmitted)
            field.
    """

    detuning_hz: float
    hwhm_hz: float
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not self.hwhm_hz > 0:
            raise ValueError("cavity half width must be positive")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"cavity loss must lie in [0, 1), got {self.loss}")

    @classmethod
    def from_linewidth(
        cls, detuning_hz: float, linewidth_hz: float, loss: float = 0.0
    ) -> "FilterCavity":
        """Construct from a full linewidth (FWHM)."""
        return cls(detuning_hz=detuning_hz, hwhm_hz=linewidth_hz / 2.0, loss=loss)

    @classmethod
    def from_finesse(
        cls,
        detuning_hz: float,
        round_trip_length_m: float,
        finesse: float,
        loss: float = 0.0,
    ) -> "FilterCavity":
        lw = linewidth_from_finesse(round_trip_length_m, finesse)
        return cls.from_linewidth(detuning_hz, lw, loss)


def cavity_transfer(cavity: FilterCavity, omega_hz: float) -> tuple[complex, complex]:
    """Amplitude transmission and reflection at sideband frequency omega_hz.

    ``t = sqrt(1-loss) * k / (k + i(w - d))`` and ``r = i(w - d)/(k + i(w - d))``
    so that ``|t|^2 + |r|^2 = 1 - loss * k^2/(k^2 + (w - d)^2)``: the loss is
    carried by the resonant field only.
    """
    k = cavity.hwhm_hz
    delta = omega_hz - cavity.detuning_hz
    denom = k + 1j * delta
    t = math.sqrt(1.0 - cavity.loss) * k / denom
    r = 1j * delta / denom
    return t, r


@dataclass(frozen=True)
class PerfectSplitter:
    """Idealized frequency router: unit transmission inside a band, unit
    reflection outside, no phase shift.  Used by the measurement-fit model
    where every imperfection is lumped into one efficiency.
    """

    center_hz: float
    halfwidth_hz: float

    def __post_init__(self) -> None:
        if not self.halfwidth_hz > 0:
            raise ValueError("splitter halfwidth must be positive")


Splitter = Union[FilterCavity, PerfectSplitter]


def splitter_transfer(splitter: Splitter, omega_hz: float) -> tuple[complex, complex]:
    """(t, r) amplitudes of either splitter flavor at omega_hz."""
    if isinstance(splitter, PerfectSplitter):
        inside = abs(omega_hz - splitter.center_hz) <= splitter.halfwidth_hz
        return (1.0 + 0j, 0j) if inside else (0j, 1.0 + 0j)
    return cavity_transfer(splitter, omega_hz)


def build_sideband_pairs_state(
    source: OpaSource, omegas_hz: Sequence[float], rbw_hz: float = 1e5
) -> GaussianState:
    """Joint state of several independent sideband pairs of one source.

    Modes are ordered by ascending signed frequency: for m pairs, the pair
    at the k-th lowest frequency sits at modes ``m - 1 - k`` (-omega) and
    ``m + k`` (+omega).  Within a pair the sum quadrature
    ``(X_+ + X_-)/sqrt(2)`` carries the squeezed variance of the source and
    the orthogonal sum the antisqueezed one.  Pairs at different Fourier
    frequencies of a below-threshold source are uncorrelated, so the joint
    covariance is block diagonal in the pair basis.
    """
    omegas = sorted(float(w) for w in omegas_hz)
    if len(set(omegas)) != len(omegas):
        raise ValueError("pair frequencies must be distinct")
    if not all(w > 0 for w in omegas):
        raise ValueError("pair frequencies must be positive")
    m = len(omegas)
    labels = tuple(SidebandLabel(-w, rbw_hz) for w in reversed(omegas)) + tuple(
        SidebandLabel(+w, rbw_hz) for w in omegas
    )
    cov = np.zeros((4 * m, 4 * m))
    for k, w in enumerate(omegas):
        v_sq, v_anti = squeezing_spectrum(source, w)
        c = (v_sq - v_anti) / 2.0
        lo = slice(2 * (m - 1 - k), 2 * (m - k))
        hi = slice(2 * (m + k), 2 * (m + k + 1))
        cov[lo, lo] = cov[hi, hi] = (v_sq + v_anti) / 2.0 * np.eye(2)
        cov[lo, hi] = cov[hi, lo] = np.diag([c, -c])
    return GaussianState(labels=labels, mean=np.zeros(4 * m), cov=cov)


def _split_transfer(
    labels: Sequence[SidebandLabel], splitter: Splitter
) -> tuple[np.ndarray, tuple[SidebandLabel, ...]]:
    """A splitter's transfer ``diag(t)`` over ``diag(r)`` and its output labels.

    ``(t, r)`` is :func:`splitter_transfer` at each mode's frequency; a
    cavity's ``t`` carries its intracavity loss.
    """
    t, r = np.array([splitter_transfer(splitter, lab.offset_hz) for lab in labels]).T
    out = tuple(
        replace(lab, path=p) for p in (TRANSMITTED, REFLECTED) for lab in labels
    )
    return np.concatenate([np.diag(t), np.diag(r)]), out


def apply_frequency_beam_splitter(
    state: GaussianState, splitter: Splitter
) -> GaussianState:
    """Split every sideband mode into transmitted and reflected components.

    For n input modes the output's modes ``0 .. n-1`` are their transmitted
    components, tagged ``t``, and modes ``n .. 2n-1`` their reflected ones,
    tagged ``r``.  The state goes through one passive map whose transfer is
    ``diag(t)`` over ``diag(r)``; the vacuum at the splitter's open port and
    its intracavity loss are that map's added noise.  Both outputs are kept,
    so cross-path correlations remain exact.
    """
    if any(lab.path for lab in state.labels):
        raise ValueError("input beam already carries path tags; cannot split again")
    transfer, labels = _split_transfer(state.labels, splitter)
    return apply_passive(state, transfer, labels)


@dataclass(frozen=True)
class HomodyneChannel:
    """Frequency-shifted homodyne detector with electronic demodulation.

    Args:
        lo_shift_hz: Signed frequency offset of the local oscillator from
            the carrier.
        lo_phase_rad: Optical phase of the local oscillator (the measured
            quadrature angle).
        demod_freq_hz: Demodulation frequency; the channel addresses the two
            sideband modes at ``lo_shift_hz +/- demod_freq_hz``.
        demod_phase_rad: Electronic phase of the demodulation reference.
        efficiency: Detection efficiency of the homodyne.
    """

    lo_shift_hz: float
    demod_freq_hz: float
    lo_phase_rad: float = 0.0
    demod_phase_rad: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.demod_freq_hz <= 0:
            raise ValueError("demodulation frequency must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")

    @property
    def addressed_offsets(self) -> tuple[float, float]:
        """(upper, lower) sideband frequencies seen by this channel."""
        return (
            self.lo_shift_hz + self.demod_freq_hz,
            self.lo_shift_hz - self.demod_freq_hz,
        )


def demod_projection(
    state: GaussianState,
    channel: HomodyneChannel,
    component: str = "cos",
    path: str = "",
    quadrature_offset_rad: float = 0.0,
) -> np.ndarray:
    """Unit coefficient vector of the quadrature measured by a channel.

    The cosine demodulation output measures
    ``(X_{a+}(upper) + X_{a-}(lower)) / sqrt(2)`` with angles
    ``a+/- = lo_phase +/- demod_phase``; the sine output advances the
    demodulation phase by pi/2.  ``quadrature_offset_rad`` shifts the LO
    phase, e.g. pi/2 for the orthogonal quadrature.
    """
    if component not in ("cos", "sin"):
        raise ValueError(f"component must be 'cos' or 'sin', got {component!r}")
    upper, lower = channel.addressed_offsets
    try:
        i_up = state.mode_index(upper, path=path)
        i_lo = state.mode_index(lower, path=path)
    except KeyError as exc:
        raise GeometryError(
            f"channel at lo_shift {channel.lo_shift_hz} Hz addresses modes "
            f"{upper}/{lower} Hz on path {path!r}, absent from the state"
        ) from exc
    phi = channel.demod_phase_rad
    if component == "sin":
        phi += math.pi / 2
    theta = channel.lo_phase_rad + quadrature_offset_rad
    coeffs = np.zeros(2 * state.n_modes)
    amp = 1.0 / math.sqrt(2.0)
    for idx, ang in ((i_up, theta + phi), (i_lo, theta - phi)):
        coeffs[2 * idx] = amp * math.cos(ang)
        coeffs[2 * idx + 1] = amp * math.sin(ang)
    return coeffs


def dispersion_corrected_phases(
    splitter: Splitter, channel: HomodyneChannel, path: str
) -> float:
    """Demodulation phase correcting the splitter's differential dispersion.

    The splitter imprints different phases on the two sidebands a channel
    addresses.  Setting the demodulation phase to half their difference makes
    the channel measure a common quadrature angle on both modes again, the
    same adjustment an experiment makes when tuning the demodulation phase
    for maximum correlation.
    """
    upper, lower = channel.addressed_offsets
    t_up, r_up = splitter_transfer(splitter, upper)
    t_lo, r_lo = splitter_transfer(splitter, lower)
    if path == TRANSMITTED:
        ph_up, ph_lo = np.angle(t_up), np.angle(t_lo)
    elif path == REFLECTED:
        ph_up, ph_lo = np.angle(r_up), np.angle(r_lo)
    else:
        raise ValueError(f"unknown path {path!r}")
    return channel.demod_phase_rad + (ph_up - ph_lo) / 2.0


@dataclass(frozen=True)
class ChainScenario:
    """Complete description of one EPR channel from source to detectors.

    ``omega1_hz``/``omega2_hz`` are the two squeezed Fourier frequencies;
    they must equal the sidebands addressed by the two homodyne channels.
    With ``splitter=None`` both parties look at the unsplit beam, which is
    the idealized symmetric reference; in that case their path losses and
    efficiencies must agree since they share the same physical modes.
    """

    source: OpaSource
    omega1_hz: float
    omega2_hz: float
    alice: HomodyneChannel
    bob: HomodyneChannel
    splitter: Splitter | None = None
    alice_path_loss: float = 0.0
    bob_path_loss: float = 0.0
    rbw_hz: float = 1e5
    compensate_dispersion: bool = True

    def __post_init__(self) -> None:
        for name, loss in (("alice", self.alice_path_loss), ("bob", self.bob_path_loss)):
            if not 0.0 <= loss < 1.0:
                raise ValueError(f"{name} path loss must lie in [0, 1), got {loss}")
        if self.omega1_hz >= self.omega2_hz:
            raise GeometryError("omega1_hz must be below omega2_hz")
        expected = {self.omega1_hz, self.omega2_hz}
        for chan in (self.alice, self.bob):
            addressed = {abs(f) for f in chan.addressed_offsets}
            if not _freq_set_close(addressed, expected):
                raise GeometryError(
                    f"channel at lo_shift {chan.lo_shift_hz} Hz addresses "
                    f"{sorted(addressed)}, expected {sorted(expected)}"
                )
        if (self.alice.lo_shift_hz >= 0) == (self.bob.lo_shift_hz >= 0):
            raise GeometryError(
                "the two channels must sit on opposite sides of the carrier"
            )
        if self.splitter is None:
            if (
                self.alice_path_loss != self.bob_path_loss
                or self.alice.efficiency != self.bob.efficiency
            ):
                raise GeometryError(
                    "without a splitter both parties read the same beam and "
                    "must share one loss and efficiency"
                )


def _freq_set_close(a: set, b: set, rtol: float = 1e-9) -> bool:
    if len(a) != len(b):
        return False
    return all(
        any(math.isclose(x, y, rel_tol=rtol, abs_tol=1e-3) for y in b) for x in a
    )


@dataclass(frozen=True)
class ChainResult:
    """Detector-plane state and the four measured quadrature projections.

    ``alice_channel``/``bob_channel`` are the channels as actually operated,
    with any dispersion-compensating demodulation phase folded in.
    """

    state: GaussianState
    alice_x: np.ndarray
    alice_xp: np.ndarray
    bob_x: np.ndarray
    bob_xp: np.ndarray
    alice_modes: tuple[int, ...]
    bob_modes: tuple[int, ...]
    alice_path: str
    bob_path: str
    alice_channel: HomodyneChannel
    bob_channel: HomodyneChannel


def _channel_path(splitter: Splitter, channel: HomodyneChannel) -> str:
    t, _ = splitter_transfer(splitter, channel.lo_shift_hz)
    return TRANSMITTED if abs(t) ** 2 >= 0.5 else REFLECTED


def run_chain(scenario: ChainScenario) -> ChainResult:
    """Propagate the four-mode state through the chain and build projections.

    Everything between source and detectors is passive, so the source state
    goes through one :func:`eprmux.gaussian.apply_passive` whose transfer is,
    right to left, the splitter's ``diag(t)`` over ``diag(r)`` (mode order
    as in :func:`apply_frequency_beam_splitter`; the identity without a
    splitter), then ``sqrt((1 - path_loss) * efficiency)`` per output path.
    The projections act on that detector-plane state.  The function is
    deterministic and leaves its inputs untouched.
    """
    state = build_sideband_pairs_state(
        scenario.source, (scenario.omega1_hz, scenario.omega2_hz), scenario.rbw_hz
    )
    alice, bob = scenario.alice, scenario.bob
    if scenario.splitter is None:
        path_a = path_b = ""
        transfer, labels = np.eye(state.n_modes), state.labels
    else:
        transfer, labels = _split_transfer(state.labels, scenario.splitter)
        path_a = _channel_path(scenario.splitter, alice)
        path_b = _channel_path(scenario.splitter, bob)
        if path_a == path_b:
            raise GeometryError(
                "both channels land on the same splitter output; check the "
                "splitter detuning against the LO shifts"
            )
        if scenario.compensate_dispersion:
            alice = replace(
                alice,
                demod_phase_rad=dispersion_corrected_phases(
                    scenario.splitter, alice, path_a
                ),
            )
            bob = replace(
                bob,
                demod_phase_rad=dispersion_corrected_phases(
                    scenario.splitter, bob, path_b
                ),
            )
    # Without a splitter both parties share one path, loss and efficiency.
    eta = {
        path_a: (1.0 - scenario.alice_path_loss) * alice.efficiency,
        path_b: (1.0 - scenario.bob_path_loss) * bob.efficiency,
    }
    gain = np.sqrt([eta[lab.path] for lab in labels])
    state = apply_passive(state, gain[:, None] * transfer, labels)

    def modes_for(chan: HomodyneChannel, path: str) -> tuple[int, ...]:
        upper, lower = chan.addressed_offsets
        return (state.mode_index(lower, path), state.mode_index(upper, path))

    return ChainResult(
        state=state,
        alice_x=demod_projection(state, alice, "cos", path_a),
        alice_xp=demod_projection(state, alice, "cos", path_a, np.pi / 2),
        bob_x=demod_projection(state, bob, "cos", path_b),
        bob_xp=demod_projection(state, bob, "cos", path_b, np.pi / 2),
        alice_modes=modes_for(alice, path_a),
        bob_modes=modes_for(bob, path_b),
        alice_path=path_a,
        bob_path=path_b,
        alice_channel=alice,
        bob_channel=bob,
    )
