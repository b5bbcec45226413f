"""End-to-end tests of the command-line interface and config parsing."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from eprmux.cli import main
from eprmux.config import ConfigError, parse_config, scenario_mapping
from eprmux.criteria import lumped_channel_scenario
from eprmux.mcdsp import estimate_entanglement, demodulate_and_filter, read_records


QUICK_MC = {"duration_s": 0.25, "n_trials": 2}

HEADLINE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "single_channel.yaml"


def run_cli(args):
    return main(list(args))


def write_fit_config(tmp_path, target_i, target_e, name="fit.yaml"):
    path = tmp_path / name
    rc = run_cli(
        [
            "fit",
            "--target-i",
            str(target_i),
            "--target-e",
            str(target_e),
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


def load_report(path):
    return yaml.safe_load(open(path))


class TestFitSimulateRoundTrip:
    def test_headline_targets_round_trip(self, tmp_path):
        cfg = write_fit_config(tmp_path, 0.41, 0.64)
        out = tmp_path / "report.yaml"
        assert run_cli(["simulate", str(cfg), "--out", str(out)]) == 0
        report = load_report(out)
        ent = report["entanglement"]
        assert abs(ent["inseparability"] - 0.41) <= 1e-3
        assert abs(ent["epr_product"] - 0.64) <= 1e-3
        assert ent["entangled"] is True
        assert ent["epr_paradox"] is True

    def test_round_trip_closes_on_feasible_grid(self, tmp_path):
        # 10x10 grid spanning the feasible region: for each inseparability,
        # EPR targets from just above the pure-state floor to just below
        # the antisqueezing-dominated supremum 4 I^2 (capped at 1).
        targets_i = np.linspace(0.1, 0.95, 10)
        fractions = np.linspace(0.05, 0.9, 10)
        cfg = tmp_path / "grid.yaml"
        out = tmp_path / "grid_report.yaml"
        for ti in targets_i:
            e_floor = (2.0 * ti / (1.0 + ti**2)) ** 2
            e_cap = min(4.0 * ti**2, 1.0)
            for f in fractions:
                te = e_floor + f * (e_cap - e_floor)
                rc = run_cli(
                    [
                        "fit",
                        "--target-i",
                        repr(float(ti)),
                        "--target-e",
                        repr(float(te)),
                        "--out",
                        str(cfg),
                    ]
                )
                assert rc == 0, (ti, te)
                assert run_cli(["simulate", str(cfg), "--out", str(out)]) == 0
                ent = load_report(out)["entanglement"]
                assert abs(ent["inseparability"] - ti) <= 1e-3, (ti, te)
                assert abs(ent["epr_product"] - te) <= 1e-3, (ti, te)

    def test_unity_targets_give_vacuum_config(self, tmp_path):
        cfg = write_fit_config(tmp_path, 1.0, 1.0)
        mapping = yaml.safe_load(open(cfg))
        assert mapping["scenario"]["source"]["pump_parameter"] == 0.0
        out = tmp_path / "vac.yaml"
        assert run_cli(["simulate", str(cfg), "--out", str(out)]) == 0
        ent = load_report(out)["entanglement"]
        assert ent["inseparability"] == pytest.approx(1.0, abs=1e-12)
        assert ent["epr_product"] == pytest.approx(1.0, abs=1e-12)
        assert ent["entangled"] is False

    def test_infeasible_targets_exit_3(self, capsys):
        assert run_cli(["fit", "--target-i", "0.2", "--target-e", "10"]) == 3
        assert "attainable" in capsys.readouterr().err


class TestConfigErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli(["simulate", str(tmp_path / "absent.yaml")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_exits_2_without_partial_output(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenario:\n  source: {pump_parameter: 1.4, bandwidth_hz: 1e6}\n")
        out = tmp_path / "never.yaml"
        assert run_cli(["simulate", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        mapping = scenario_mapping(lumped_channel_scenario(0.5, 0.9))
        mapping["scenario"]["mystery"] = 1
        cfg = tmp_path / "unknown.yaml"
        cfg.write_text(yaml.safe_dump(mapping))
        assert run_cli(["simulate", str(cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_invalid_yaml_exits_2(self, tmp_path):
        cfg = tmp_path / "syntax.yaml"
        cfg.write_text("scenario: [unclosed\n")
        assert run_cli(["simulate", str(cfg)]) == 2


class TestParseConfigDirectly:
    def base_mapping(self):
        return scenario_mapping(lumped_channel_scenario(0.5, 0.9), seed=4)

    def test_round_trip_preserves_scenario(self):
        scen = lumped_channel_scenario(0.6726, 0.6135)
        loaded = parse_config(scenario_mapping(scen, seed=9))
        assert loaded.scenario == scen
        assert loaded.seed == 9

    def test_squeezing_db_converts_to_pump(self):
        mapping = self.base_mapping()
        mapping["scenario"]["source"] = {
            "squeezing_db": -6.0,
            "bandwidth_hz": math.inf,
        }
        loaded = parse_config(mapping)
        variance = 10.0 ** (-6.0 / 10.0)
        expected = (1.0 - math.sqrt(variance)) / (1.0 + math.sqrt(variance))
        assert loaded.scenario.source.pump_parameter == pytest.approx(
            expected, rel=1e-15
        )
        again = parse_config(loaded.resolved)
        assert again.scenario == loaded.scenario
        assert again.resolved == loaded.resolved

    def test_pump_and_db_together_rejected(self):
        mapping = self.base_mapping()
        mapping["scenario"]["source"]["squeezing_db"] = -3.0
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(mapping)

    def test_positive_squeezing_db_rejected(self):
        mapping = self.base_mapping()
        del mapping["scenario"]["source"]["pump_parameter"]
        mapping["scenario"]["source"]["squeezing_db"] = 3.0
        with pytest.raises(ConfigError, match="squeezing_db"):
            parse_config(mapping)

    def test_bandwidth_convention_scales_hwhm(self):
        mapping = self.base_mapping()
        mapping["scenario"]["source"]["bandwidth_hz"] = 25e6
        mapping["scenario"]["source"]["bandwidth_convention"] = "fwhm"
        assert parse_config(mapping).scenario.source.cavity_hwhm_hz == 12.5e6
        mapping["scenario"]["source"]["bandwidth_convention"] = "hwhm"
        assert parse_config(mapping).scenario.source.cavity_hwhm_hz == 25e6

    def test_wrong_type_reported_with_path(self):
        mapping = self.base_mapping()
        mapping["scenario"]["alice"]["efficiency"] = "high"
        with pytest.raises(ConfigError, match="scenario.alice.efficiency"):
            parse_config(mapping)

    def test_montecarlo_section_validated(self):
        mapping = self.base_mapping()
        mapping["montecarlo"] = {"lpf_cutoff_hz": 3e5}
        with pytest.raises(ConfigError, match="montecarlo"):
            parse_config(mapping)

    def test_cavity_splitter_from_linewidth(self):
        mapping = self.base_mapping()
        mapping["scenario"]["splitter"] = {
            "kind": "cavity",
            "detuning_hz": -7e6,
            "linewidth_hz": 1.5e6,
        }
        loaded = parse_config(mapping)
        assert loaded.scenario.splitter.hwhm_hz == pytest.approx(0.75e6)


# Every accepted spelling of each configurable part of a run.
SOURCE_FORMS = {
    "pump": {"pump_parameter": 0.5},
    "db": {"squeezing_db": -4.5},
}
BANDWIDTH_FORMS = {
    "fwhm": {"bandwidth_hz": 25e6},
    "hwhm": {"bandwidth_hz": 12.5e6, "bandwidth_convention": "hwhm"},
    "flat": {"bandwidth_hz": math.inf},
}
SPLITTER_FORMS = {
    "none": None,
    "perfect": {"kind": "perfect", "center_hz": -7e6, "halfwidth_hz": 1e6},
    "cavity-hwhm": {
        "kind": "cavity",
        "detuning_hz": -7e6,
        "hwhm_hz": 7.5e5,
        "loss": 0.01,
    },
    "cavity-linewidth": {"kind": "cavity", "detuning_hz": -7e6, "linewidth_hz": 1.5e6},
    "cavity-finesse": {
        "kind": "cavity",
        "detuning_hz": -7e6,
        "finesse": 300.0,
        "round_trip_length_m": 0.5,
    },
}
MONTECARLO_FORMS = {
    "absent": None,
    "present": {"duration_s": 0.5, "decimation": 2, "n_trials": 3},
}


@pytest.mark.parametrize("montecarlo", list(MONTECARLO_FORMS))
@pytest.mark.parametrize("splitter", list(SPLITTER_FORMS))
@pytest.mark.parametrize("bandwidth", list(BANDWIDTH_FORMS))
@pytest.mark.parametrize("source", list(SOURCE_FORMS))
def test_echo_parses_back_to_the_same_run(source, bandwidth, splitter, montecarlo):
    def channel(lo_shift_hz, efficiency, path_loss):
        return {
            "lo_shift_hz": lo_shift_hz,
            "demod_freq_hz": 2e5,
            "lo_phase_rad": 0.3,
            "efficiency": efficiency,
            "path_loss": path_loss,
        }

    split = SPLITTER_FORMS[splitter]
    # Without a splitter both parties read one beam and share its losses.
    bob = channel(7e6, 0.8, 0.1) if split is None else channel(7e6, 0.7, 0.2)
    mapping = {
        "scenario": {
            "source": {**SOURCE_FORMS[source], **BANDWIDTH_FORMS[bandwidth]},
            "alice": channel(-7e6, 0.8, 0.1),
            "bob": bob,
        },
        "seed": 3,
    }
    if split is not None:
        mapping["scenario"]["splitter"] = dict(split)
    if MONTECARLO_FORMS[montecarlo] is not None:
        mapping["montecarlo"] = dict(MONTECARLO_FORMS[montecarlo])
    loaded = parse_config(mapping)
    again = parse_config(loaded.resolved)
    assert again.scenario == loaded.scenario
    assert again.dsp == loaded.dsp
    assert again.n_trials == loaded.n_trials
    assert again.seed == loaded.seed
    assert again.resolved == loaded.resolved


class TestHeadlineConfig:
    def test_file_is_the_fit_output(self, capsys):
        assert run_cli(["fit", "--target-i", "0.41", "--target-e", "0.64"]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == HEADLINE_CONFIG.read_bytes()

    def test_simulate_echoes_the_file_scenario(self, capsys):
        assert run_cli(["simulate", str(HEADLINE_CONFIG)]) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        document = yaml.safe_load(HEADLINE_CONFIG.read_text(encoding="utf-8"))
        assert report["config"]["scenario"] == document["scenario"]


class TestPlanCommand:
    def test_reference_band_packs_six(self, capsys):
        assert run_cli(["plan", "--band", "4e6:10e6", "--detbw", "5e5"]) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["n_channels"] == 6
        centers = [ch["center_hz"] for ch in report["channels"]]
        assert centers[0] == pytest.approx(4.5e6)
        assert centers[-1] == pytest.approx(9.5e6)

    def test_demonstrated_band_is_one_channel(self, capsys):
        assert run_cli(["plan", "--band", "6.6e6:7.4e6", "--detbw", "4e5"]) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["n_channels"] == 1
        assert report["channels"][0]["center_hz"] == pytest.approx(7e6)

    def test_empty_band_is_success_with_zero_channels(self, capsys):
        assert run_cli(["plan", "--band", "4e6:4.5e6", "--detbw", "5e5"]) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["n_channels"] == 0
        assert report["channels"] == []

    def test_invalid_geometry_exits_3(self, capsys):
        assert run_cli(["plan", "--band", "10e6:4e6", "--detbw", "5e5"]) == 3
        assert "band" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--detbw", "nan"],
            ["--detbw", "5e5", "--guard", "nan"],
            ["--detbw", "5e5", "--band", "4e6:inf"],
            ["--detbw", "5e5", "--demod", "nan"],
            ["--detbw", "5e5", "--demod=-1e5"],
        ],
    )
    def test_non_finite_or_non_positive_input_exits_3(self, extra, capsys):
        assert run_cli(["plan", "--band", "4e6:10e6", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_guardless_plan_validates_despite_rounded_centres(self, capsys):
        # With this lower edge the computed centres of channels 0 and 1 sit
        # 4.7e-10 Hz (one ulp of the first centre) closer than twice the
        # detection bandwidth.
        band = "3577199.4577184212:9677199.457718421"
        rc = run_cli(["plan", "--band", band, "--detbw", "5e5", "--validate"])
        assert rc == 0, capsys.readouterr().err
        assert yaml.safe_load(capsys.readouterr().out)["n_channels"] == 6

    def test_validated_csv_has_one_row_per_channel(self, capsys):
        rc = run_cli(
            [
                "plan",
                "--band",
                "4e6:10e6",
                "--detbw",
                "5e5",
                "--validate",
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("inseparability,epr_product")
        assert len(lines) == 7
        for line in lines[1:]:
            i_value = float(line.split(",")[5])
            assert i_value < 1.0


class TestMonteCarloCommand:
    def quick_config(self, tmp_path, seed=11):
        cfg_path = write_fit_config(tmp_path, 0.41, 0.64, name="mc_base.yaml")
        mapping = yaml.safe_load(open(cfg_path))
        mapping["montecarlo"] = dict(QUICK_MC)
        mapping["seed"] = seed
        path = tmp_path / "mc.yaml"
        path.write_text(yaml.safe_dump(mapping, sort_keys=False))
        return path

    def test_fixed_seed_reports_are_byte_identical(self, tmp_path):
        cfg = self.quick_config(tmp_path)
        out1 = tmp_path / "r1.yaml"
        out2 = tmp_path / "r2.yaml"
        assert run_cli(["montecarlo", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["montecarlo", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.quick_config(tmp_path, seed=11)
        out_cfg = tmp_path / "by_config.yaml"
        out_same = tmp_path / "by_flag_same.yaml"
        out_diff = tmp_path / "by_flag_diff.yaml"
        assert run_cli(["montecarlo", str(cfg), "--out", str(out_cfg)]) == 0
        assert (
            run_cli(["montecarlo", str(cfg), "--seed", "11", "--out", str(out_same)])
            == 0
        )
        assert (
            run_cli(["montecarlo", str(cfg), "--seed", "5", "--out", str(out_diff)])
            == 0
        )
        assert out_cfg.read_bytes() == out_same.read_bytes()
        r_cfg = load_report(out_cfg)
        r_diff = load_report(out_diff)
        assert (
            r_cfg["montecarlo"]["trials"][0]["inseparability"]
            != r_diff["montecarlo"]["trials"][0]["inseparability"]
        )

    def test_trials_agree_with_model_within_errors(self, tmp_path):
        cfg = self.quick_config(tmp_path)
        out = tmp_path / "r.yaml"
        assert run_cli(["montecarlo", str(cfg), "--out", str(out)]) == 0
        mc = load_report(out)["montecarlo"]
        assert mc["summary"]["coverage_3sigma"] == 1.0
        for trial in mc["trials"]:
            assert abs(trial["z_inseparability"]) < 4.0

    def test_exported_records_reproduce_first_trial(self, tmp_path):
        cfg = self.quick_config(tmp_path)
        out = tmp_path / "r.yaml"
        recdir = tmp_path / "records"
        rc = run_cli(
            [
                "montecarlo",
                str(cfg),
                "--out",
                str(out),
                "--export-records",
                str(recdir),
            ]
        )
        assert rc == 0
        report = load_report(out)
        sign = report["montecarlo"]["model"]["correlation_sign"]
        a, b, fs = read_records(str(recdir / "signal_records.bin"))
        va, vb, _ = read_records(str(recdir / "vacuum_records.bin"))
        assert fs == report["config"]["montecarlo"]["sample_rate_hz"]
        from eprmux.mcdsp import DspConfig

        dsp = DspConfig(duration_s=QUICK_MC["duration_s"])
        ia, qa = demodulate_and_filter(a, dsp)
        ib, qb = demodulate_and_filter(b, dsp)
        wia, wqa = demodulate_and_filter(va, dsp)
        wib, wqb = demodulate_and_filter(vb, dsp)
        est = estimate_entanglement((ia, qa, ib, qb), (wia, wqa, wib, wqb), sign)
        first = report["montecarlo"]["trials"][0]
        assert est.inseparability == first["inseparability"]
        assert est.epr_product == first["epr_product"]
        header = open(recdir / "signal_records.bin", "rb").readline().decode()
        assert "seed=11" in header
        csv_head = open(recdir / "signal_quadratures.csv").readline().strip()
        assert csv_head == "time_s,alice_i,alice_q,bob_i,bob_q"


class TestSeedFlag:
    @pytest.mark.parametrize(
        "args",
        [
            ["fit", "--target-i", "0.41", "--target-e", "0.64", "--seed", "-1"],
            ["montecarlo", str(HEADLINE_CONFIG), "--seed", "-3"],
        ],
        ids=["fit", "montecarlo"],
    )
    def test_negative_seed_is_a_usage_error(self, args, tmp_path, capsys):
        out = tmp_path / "out.yaml"
        with pytest.raises(SystemExit) as exc:
            run_cli([*args, "--out", str(out)])
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestOutputFormats:
    def test_simulate_csv_is_flat_key_value(self, tmp_path, capsys):
        cfg = write_fit_config(tmp_path, 0.41, 0.64)
        assert run_cli(["simulate", str(cfg), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        table = dict(line.split(",", 1) for line in lines[1:])
        assert float(table["entanglement.inseparability"]) == pytest.approx(
            0.41, abs=1e-3
        )
        assert table["entanglement.entangled"] == "true"

    def test_simulate_structured_is_valid_yaml_echoing_config(
        self, tmp_path, capsys
    ):
        cfg = write_fit_config(tmp_path, 0.41, 0.64)
        assert run_cli(["simulate", str(cfg)]) == 0
        report = yaml.safe_load(capsys.readouterr().out)
        assert report["report"] == "simulate"
        assert "eprmux" in report["versions"]
        pump = report["config"]["scenario"]["source"]["pump_parameter"]
        assert 0.0 < pump < 1.0
