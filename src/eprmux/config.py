"""Configuration files: strict parsing, validation, and serialization.

A run is described by one YAML document with nested sections.  Parsing is
strict: every key is checked for type and range, and unknown keys are
rejected with the section that owns them.

Frequencies are plain floats in Hz.  Decibel input is accepted only through
the explicitly suffixed ``squeezing_db`` field and converted to the pump
parameter once, at parse time.  The source ``bandwidth_hz`` is interpreted
per ``bandwidth_convention`` (``fwhm`` by default, ``hwhm`` alternatively);
``.inf`` gives a frequency-flat source.  A cavity splitter takes exactly one
of ``hwhm_hz``, ``linewidth_hz`` (FWHM) and ``finesse`` with
``round_trip_length_m``.

A run is serialized once, from the objects parsing built: ``resolved``, the
mapping that reports echo, is :func:`scenario_mapping` of the scenario plus
the Monte-Carlo settings and the seed.  It is the canonical form of the run
(``pump_parameter``, a FWHM ``bandwidth_hz``, a cavity's ``hwhm_hz``) with
every default materialized, and it parses back to the same run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import yaml

from .mcdsp import DspConfig
from .optics import (
    ChainScenario,
    FilterCavity,
    HomodyneChannel,
    OpaSource,
    PerfectSplitter,
    Splitter,
)

__all__ = [
    "ConfigError",
    "LoadedConfig",
    "load_config",
    "parse_config",
    "scenario_mapping",
]

_REQUIRED = object()


class ConfigError(ValueError):
    """A configuration document is malformed or out of range."""


@dataclass(frozen=True)
class LoadedConfig:
    """One fully validated run description.

    Attributes:
        scenario: The physical chain to simulate.
        dsp: Sampling/demodulation settings for Monte-Carlo commands.
        n_trials: Number of Monte-Carlo trials.
        seed: Base seed; trial k uses ``seed + k``.
        resolved: Canonical echo of the run with every default
            materialized; it parses back to the same run.
    """

    scenario: ChainScenario
    dsp: DspConfig
    n_trials: int
    seed: int
    resolved: dict


class _Section:
    """One mapping node: typed key extraction plus unknown-key rejection."""

    def __init__(self, mapping, where: str):
        if not isinstance(mapping, dict):
            raise ConfigError(f"{where} must be a mapping of keys to values")
        self._data = dict(mapping)
        self._where = where

    def _pop(self, key, default):
        if key in self._data:
            return self._data.pop(key)
        if default is _REQUIRED:
            raise ConfigError(f"{self._where}: missing required key '{key}'")
        return default

    def has(self, key) -> bool:
        return key in self._data

    def number(
        self,
        key,
        default=_REQUIRED,
        minimum=None,
        maximum=None,
        exclusive_minimum=False,
        exclusive_maximum=False,
        allow_inf=False,
    ):
        value = self._pop(key, default)
        if value is default and default is not _REQUIRED:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self._where}.{key} must be a number, got {value!r}")
        value = float(value)
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            raise ConfigError(f"{self._where}.{key} must be finite, got {value!r}")
        if minimum is not None:
            if value < minimum or (exclusive_minimum and value == minimum):
                bound = ">" if exclusive_minimum else ">="
                raise ConfigError(
                    f"{self._where}.{key} must be {bound} {minimum}, got {value!r}"
                )
        if maximum is not None:
            if value > maximum or (exclusive_maximum and value == maximum):
                bound = "<" if exclusive_maximum else "<="
                raise ConfigError(
                    f"{self._where}.{key} must be {bound} {maximum}, got {value!r}"
                )
        return value

    def integer(self, key, default=_REQUIRED, minimum=None):
        value = self._pop(key, default)
        if value is default and default is not _REQUIRED:
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"{self._where}.{key} must be an integer, got {value!r}"
            )
        if minimum is not None and value < minimum:
            raise ConfigError(
                f"{self._where}.{key} must be >= {minimum}, got {value!r}"
            )
        return value

    def boolean(self, key, default=_REQUIRED):
        value = self._pop(key, default)
        if value is default and default is not _REQUIRED:
            return value
        if not isinstance(value, bool):
            raise ConfigError(f"{self._where}.{key} must be a boolean, got {value!r}")
        return value

    def string(self, key, choices, default=_REQUIRED):
        value = self._pop(key, default)
        if value is default and default is not _REQUIRED:
            return value
        if value not in choices:
            raise ConfigError(
                f"{self._where}.{key} must be one of {sorted(choices)}, got {value!r}"
            )
        return value

    def child(self, key, required=False):
        value = self._pop(key, _REQUIRED if required else None)
        if value is None:
            return None
        return _Section(value, f"{self._where}.{key}")

    def finish(self) -> None:
        if self._data:
            names = ", ".join(repr(k) for k in sorted(map(str, self._data)))
            raise ConfigError(f"{self._where}: unknown key(s) {names}")


def _pump_from_db(squeezing_db: float) -> float:
    """Pump parameter whose frequency-flat squeezed variance is the given dB."""
    variance = 10.0 ** (squeezing_db / 10.0)
    root = math.sqrt(variance)
    return (1.0 - root) / (1.0 + root)


def _parse_source(section: _Section) -> OpaSource:
    has_pump = section.has("pump_parameter")
    if has_pump == section.has("squeezing_db"):
        raise ConfigError(
            "scenario.source needs exactly one of 'pump_parameter' and "
            "'squeezing_db'"
        )
    if has_pump:
        pump = section.number(
            "pump_parameter", minimum=0.0, maximum=1.0, exclusive_maximum=True
        )
    else:
        pump = _pump_from_db(section.number("squeezing_db", maximum=0.0))
    bandwidth = section.number(
        "bandwidth_hz", minimum=0.0, exclusive_minimum=True, allow_inf=True
    )
    convention = section.string(
        "bandwidth_convention", {"fwhm", "hwhm"}, default="fwhm"
    )
    efficiency = section.number(
        "efficiency", default=1.0, minimum=0.0, maximum=1.0, exclusive_minimum=True
    )
    noise = section.number("added_classical_noise", default=0.0, minimum=0.0)
    cutoff = section.number(
        "noise_cutoff_hz", default=4e6, minimum=0.0, exclusive_minimum=True
    )
    section.finish()
    return OpaSource.from_bandwidth(
        pump,
        bandwidth,
        convention,
        efficiency=efficiency,
        added_classical_noise=noise,
        noise_cutoff_hz=cutoff,
    )


def _parse_splitter(section: _Section | None) -> Splitter | None:
    if section is None:
        return None
    kind = section.string("kind", {"perfect", "cavity"})
    if kind == "perfect":
        center = section.number("center_hz")
        halfwidth = section.number(
            "halfwidth_hz", minimum=0.0, exclusive_minimum=True
        )
        section.finish()
        return PerfectSplitter(center_hz=center, halfwidth_hz=halfwidth)
    detuning = section.number("detuning_hz")
    ways = [w for w in ("hwhm_hz", "linewidth_hz", "finesse") if section.has(w)]
    if len(ways) != 1:
        raise ConfigError(
            "scenario.splitter needs exactly one of 'hwhm_hz', 'linewidth_hz' "
            "and 'finesse'"
        )
    (way,) = ways
    if way == "finesse":
        finesse = section.number("finesse", minimum=1.0)
        length = section.number(
            "round_trip_length_m", minimum=0.0, exclusive_minimum=True
        )
    else:
        width = section.number(way, minimum=0.0, exclusive_minimum=True)
    loss = section.number(
        "loss", default=0.0, minimum=0.0, maximum=1.0, exclusive_maximum=True
    )
    section.finish()
    if way == "hwhm_hz":
        return FilterCavity(detuning_hz=detuning, hwhm_hz=width, loss=loss)
    if way == "linewidth_hz":
        return FilterCavity.from_linewidth(detuning, width, loss)
    return FilterCavity.from_finesse(detuning, length, finesse, loss)


def _parse_channel(section: _Section) -> tuple[HomodyneChannel, float]:
    lo_shift = section.number("lo_shift_hz")
    demod = section.number("demod_freq_hz", minimum=0.0, exclusive_minimum=True)
    lo_phase = section.number("lo_phase_rad", default=0.0)
    demod_phase = section.number("demod_phase_rad", default=0.0)
    efficiency = section.number(
        "efficiency", default=1.0, minimum=0.0, maximum=1.0, exclusive_minimum=True
    )
    path_loss = section.number(
        "path_loss", default=0.0, minimum=0.0, maximum=1.0, exclusive_maximum=True
    )
    section.finish()
    channel = HomodyneChannel(
        lo_shift_hz=lo_shift,
        demod_freq_hz=demod,
        lo_phase_rad=lo_phase,
        demod_phase_rad=demod_phase,
        efficiency=efficiency,
    )
    return channel, path_loss


def _parse_scenario(section: _Section) -> ChainScenario:
    source = _parse_source(section.child("source", required=True))
    splitter = _parse_splitter(section.child("splitter"))
    alice, alice_loss = _parse_channel(section.child("alice", required=True))
    bob, bob_loss = _parse_channel(section.child("bob", required=True))
    rbw = section.number(
        "resolution_bandwidth_hz", default=1e5, minimum=0.0, exclusive_minimum=True
    )
    compensate = section.boolean("compensate_dispersion", default=True)
    section.finish()
    omega1, omega2 = sorted(abs(f) for f in alice.addressed_offsets)
    try:
        return ChainScenario(
            source=source,
            omega1_hz=omega1,
            omega2_hz=omega2,
            alice=alice,
            bob=bob,
            splitter=splitter,
            alice_path_loss=alice_loss,
            bob_path_loss=bob_loss,
            rbw_hz=rbw,
            compensate_dispersion=compensate,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def _parse_montecarlo(section: _Section | None) -> tuple[DspConfig, int]:
    defaults = DspConfig()
    if section is None:
        section = _Section({}, "montecarlo")
    sample_rate = section.number(
        "sample_rate_hz",
        default=defaults.sample_rate_hz,
        minimum=0.0,
        exclusive_minimum=True,
    )
    demod = section.number(
        "demod_freq_hz",
        default=defaults.demod_freq_hz,
        minimum=0.0,
        exclusive_minimum=True,
    )
    cutoff = section.number(
        "lpf_cutoff_hz",
        default=defaults.lpf_cutoff_hz,
        minimum=0.0,
        exclusive_minimum=True,
    )
    order = section.integer("lpf_order", default=defaults.lpf_order, minimum=1)
    decimation = section.integer(
        "decimation", default=defaults.decimation, minimum=1
    )
    duration = section.number(
        "duration_s", default=defaults.duration_s, minimum=0.0, exclusive_minimum=True
    )
    discard = section.number(
        "transient_discard_s", default=defaults.transient_discard_s, minimum=0.0
    )
    n_trials = section.integer("n_trials", default=10, minimum=1)
    section.finish()
    try:
        dsp = DspConfig(
            sample_rate_hz=sample_rate,
            demod_freq_hz=demod,
            lpf_cutoff_hz=cutoff,
            lpf_order=order,
            decimation=decimation,
            duration_s=duration,
            transient_discard_s=discard,
        )
    except ValueError as exc:
        raise ConfigError(f"montecarlo: {exc}") from exc
    return dsp, n_trials


def parse_config(mapping) -> LoadedConfig:
    """Validate one already-loaded configuration mapping."""
    top = _Section(mapping, "config")
    scenario = _parse_scenario(top.child("scenario", required=True))
    dsp, n_trials = _parse_montecarlo(top.child("montecarlo"))
    seed = top.integer("seed", default=0, minimum=0)
    top.finish()
    resolved = {
        "scenario": scenario_mapping(scenario)["scenario"],
        "montecarlo": {**asdict(dsp), "n_trials": n_trials},
        "seed": seed,
    }
    return LoadedConfig(
        scenario=scenario, dsp=dsp, n_trials=n_trials, seed=seed, resolved=resolved
    )


def load_config(path: str) -> LoadedConfig:
    """Read and validate one YAML configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if document is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config(document)


def scenario_mapping(scenario: ChainScenario, seed: int = 0) -> dict:
    """Serialize a chain scenario into a complete configuration mapping.

    The mapping is the canonical form of the scenario: ``pump_parameter``,
    a FWHM ``bandwidth_hz`` and, for a cavity splitter, ``hwhm_hz``.  It
    parses back into an identical scenario, which makes report echoes and
    fitted scenarios exchangeable as ordinary configuration files.
    """
    source = scenario.source
    body: dict = {
        "source": {
            "pump_parameter": source.pump_parameter,
            "bandwidth_hz": source.cavity_hwhm_hz * 2.0,
            "bandwidth_convention": "fwhm",
            "efficiency": source.efficiency,
            "added_classical_noise": source.added_classical_noise,
            "noise_cutoff_hz": source.noise_cutoff_hz,
        },
        "alice": {**asdict(scenario.alice), "path_loss": scenario.alice_path_loss},
        "bob": {**asdict(scenario.bob), "path_loss": scenario.bob_path_loss},
        "resolution_bandwidth_hz": scenario.rbw_hz,
        "compensate_dispersion": scenario.compensate_dispersion,
    }
    splitter = scenario.splitter
    if splitter is not None:
        kind = "perfect" if isinstance(splitter, PerfectSplitter) else "cavity"
        body["splitter"] = {"kind": kind, **asdict(splitter)}
    return {"scenario": body, "seed": seed}
