"""Command-line interface: simulate, plan, montecarlo, fit.

Reports are deterministic given the configuration and seed: structured
output is YAML with a fixed key order, CSV output uses full-precision float
reprs, and wall-clock timing goes to stderr only, so two runs with the same
inputs produce byte-identical artifacts.

Exit codes: 0 on success, 2 for configuration or usage problems, 3 for
physics or numeric failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .config import ConfigError, LoadedConfig, load_config, scenario_mapping
from .criteria import (
    EntanglementReport,
    evaluate_scenario,
    fit_to_measurements,
)
from .mcdsp import (
    demodulate_and_filter,
    run_montecarlo,
    synthesize_records,
    vacuum_synthesis_spec,
    write_quadratures_csv,
    write_records,
)
from .multiplex import plan_multiplex, validate_plan
from .optics import OpaSource

__all__ = ["main"]


def _versions() -> dict:
    import scipy

    return {
        "eprmux": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


# Verdict guard band: a criterion value within numerical noise of the vacuum
# level 1 is no verdict, so the boolean flags require clearing it by 1e-9,
# the same tolerance the state validator applies.
_VERDICT_MARGIN = 1e-9


def _entanglement_mapping(report: EntanglementReport) -> dict:
    m = report.moments
    return {
        "inseparability": report.inseparability,
        "epr_product": report.epr_product,
        "entangled": bool(report.inseparability < 1.0 - _VERDICT_MARGIN),
        "epr_paradox": bool(report.epr_product < 1.0 - _VERDICT_MARGIN),
        "gain_x": report.gain_x,
        "gain_xp": report.gain_xp,
        "theta_a_rad": report.theta_a,
        "theta_b_rad": report.theta_b,
        "effective_v_sq": report.effective_v_sq,
        "effective_v_anti": report.effective_v_anti,
        "ppt_eigenvalue": report.ppt_eigenvalue,
        "moments": {
            "v_xa": m.v_xa,
            "v_xpa": m.v_xpa,
            "v_xb": m.v_xb,
            "v_xpb": m.v_xpb,
            "c_x": m.c_x,
            "c_xp": m.c_xp,
        },
    }


def _render_structured(data: dict) -> str:
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)


def _flatten(data, prefix="") -> list:
    rows = []
    if isinstance(data, dict):
        for key, value in data.items():
            rows.extend(_flatten(value, f"{prefix}{key}."))
    elif isinstance(data, (list, tuple)):
        for idx, value in enumerate(data):
            rows.extend(_flatten(value, f"{prefix}{idx}."))
    else:
        if isinstance(data, float):
            text = repr(data)
        elif isinstance(data, bool):
            text = "true" if data else "false"
        else:
            text = str(data)
        rows.append((prefix[:-1], text))
    return rows


def _render_csv(data: dict) -> str:
    lines = ["key,value"]
    lines.extend(f"{key},{value}" for key, value in _flatten(data))
    return "\n".join(lines) + "\n"


def _render(data: dict, fmt: str) -> str:
    return _render_csv(data) if fmt == "csv" else _render_structured(data)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _band(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"band must look like LOW:HIGH in Hz, got {text!r}"
        )
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"band edges must be numbers: {exc}")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> str:
    loaded = load_config(args.config)
    report = evaluate_scenario(loaded.scenario)
    data = {
        "report": "simulate",
        "versions": _versions(),
        "config": loaded.resolved,
        "entanglement": _entanglement_mapping(report),
    }
    return _render(data, args.format)


def _cmd_plan(args: argparse.Namespace) -> str:
    plan = plan_multiplex(
        args.band,
        args.detbw,
        guard_hz=args.guard,
        demod_hz=args.demod,
    )
    channels = [
        {
            "index": ch.index,
            "center_hz": ch.center_hz,
            "demod_freq_hz": ch.demod_hz,
            "lo_pair_hz": list(ch.lo_pair_hz),
            "pair_hz": list(ch.pair_frequencies_hz),
            "sideband_quadruple_hz": list(ch.sideband_quadruple_hz),
        }
        for ch in plan.channels
    ]
    data = {
        "report": "plan",
        "versions": _versions(),
        "parameters": {
            "band_hz": list(args.band),
            "detection_bandwidth_hz": args.detbw,
            "guard_hz": args.guard,
            "demod_freq_hz": args.demod,
        },
        "n_channels": plan.n_channels,
        "channels": channels,
    }
    if args.validate:
        source = OpaSource(
            pump_parameter=args.pump, cavity_hwhm_hz=args.source_bandwidth / 2.0
        )
        checked = validate_plan(
            plan,
            source,
            splitter_hwhm_hz=args.splitter_hwhm,
            rbw_hz=args.rbw,
        )
        data["validation"] = {
            "max_cross_channel_cov": checked.max_cross_channel_cov,
            "channels": [
                {
                    "index": ch.index,
                    "inseparability": rep.inseparability,
                    "epr_product": rep.epr_product,
                }
                for ch, rep in zip(plan.channels, checked.reports)
            ],
        }
    if args.format == "csv":
        return _render_plan_csv(data)
    return _render_structured(data)


def _render_plan_csv(data: dict) -> str:
    validation = data.get("validation")
    header = "index,center_hz,demod_freq_hz,pair_lower_hz,pair_upper_hz"
    if validation is not None:
        header += ",inseparability,epr_product"
    lines = [header]
    for pos, ch in enumerate(data["channels"]):
        row = (
            f"{ch['index']},{ch['center_hz']!r},{ch['demod_freq_hz']!r},"
            f"{ch['pair_hz'][0]!r},{ch['pair_hz'][1]!r}"
        )
        if validation is not None:
            val = validation["channels"][pos]
            row += f",{val['inseparability']!r},{val['epr_product']!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _export_records(args, loaded: LoadedConfig, run) -> None:
    """Regenerate the first trial's records and write them next to the report."""
    os.makedirs(args.export_records, exist_ok=True)
    rng = np.random.default_rng(run.seed)
    a, b = synthesize_records(run.spec, run.config, rng)
    va, vb = synthesize_records(vacuum_synthesis_spec(), run.config, rng)
    base = args.export_records
    write_records(os.path.join(base, "signal_records.bin"), a, b, run.config, run.seed)
    write_records(os.path.join(base, "vacuum_records.bin"), va, vb, run.config, run.seed)
    ia, qa = demodulate_and_filter(a, run.config)
    ib, qb = demodulate_and_filter(b, run.config)
    write_quadratures_csv(
        os.path.join(base, "signal_quadratures.csv"),
        {"alice_i": ia, "alice_q": qa, "bob_i": ib, "bob_q": qb},
        run.config.decimated_rate_hz,
    )


def _cmd_montecarlo(args: argparse.Namespace) -> str:
    loaded = load_config(args.config)
    seed = loaded.seed if args.seed is None else args.seed
    report = evaluate_scenario(loaded.scenario)
    run = run_montecarlo(
        loaded.scenario, loaded.dsp, n_trials=loaded.n_trials, seed=seed
    )
    z_i = run.z_inseparability
    z_e = run.z_epr
    trials = [
        {
            "trial": k,
            "inseparability": t.inseparability,
            "sigma_inseparability": t.sigma_inseparability,
            "z_inseparability": float(z_i[k]),
            "epr_product": t.epr_product,
            "sigma_epr": t.sigma_epr,
            "z_epr": float(z_e[k]),
            "n_effective": t.n_effective,
        }
        for k, t in enumerate(run.trials)
    ]
    data = {
        "report": "montecarlo",
        "versions": _versions(),
        "config": loaded.resolved,
        "entanglement": _entanglement_mapping(report),
        "montecarlo": {
            "seed": seed,
            "n_trials": len(run.trials),
            "model": {
                "inseparability": run.spec.model_inseparability,
                "epr_product": run.spec.model_epr,
                "s_aa": run.spec.s_aa,
                "s_bb": run.spec.s_bb,
                "s_ab_real": run.spec.s_ab.real,
                "s_ab_imag": run.spec.s_ab.imag,
                "correlation_sign": run.spec.correlation_sign,
            },
            "trials": trials,
            "summary": {
                "mean_inseparability": float(
                    np.mean([t.inseparability for t in run.trials])
                ),
                "mean_epr_product": float(
                    np.mean([t.epr_product for t in run.trials])
                ),
                "max_abs_z_inseparability": float(np.max(np.abs(z_i))),
                "max_abs_z_epr": float(np.max(np.abs(z_e))),
                "coverage_3sigma": run.coverage(3.0),
            },
        },
    }
    if args.export_records is not None:
        _export_records(args, loaded, run)
    if args.format == "csv":
        return _render_montecarlo_csv(trials)
    return _render_structured(data)


def _render_montecarlo_csv(trials: list) -> str:
    header = (
        "trial,inseparability,sigma_inseparability,z_inseparability,"
        "epr_product,sigma_epr,z_epr,n_effective"
    )
    lines = [header]
    for t in trials:
        lines.append(
            f"{t['trial']},{t['inseparability']!r},{t['sigma_inseparability']!r},"
            f"{t['z_inseparability']!r},{t['epr_product']!r},{t['sigma_epr']!r},"
            f"{t['z_epr']!r},{t['n_effective']!r}"
        )
    return "\n".join(lines) + "\n"


def _cmd_fit(args: argparse.Namespace) -> str:
    fit = fit_to_measurements(args.target_i, args.target_e)
    mapping = scenario_mapping(fit.scenario, seed=0 if args.seed is None else args.seed)
    achieved = fit.report
    header = (
        f"# fitted configuration\n"
        f"# targets: inseparability={args.target_i!r} epr_product={args.target_e!r}\n"
        f"# achieved: inseparability={achieved.inseparability!r} "
        f"epr_product={achieved.epr_product!r}\n"
        f"# residual={fit.residual!r}\n"
    )
    return header + yaml.safe_dump(mapping, sort_keys=False, default_flow_style=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprmux",
        description=(
            "Gaussian simulator of sideband-multiplexed EPR entanglement "
            "distribution"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument(
        "--format",
        choices=["structured", "csv"],
        default="structured",
        help="report format (default: structured YAML)",
    )

    p_sim = sub.add_parser(
        "simulate",
        parents=[common],
        help="evaluate one configured chain deterministically",
    )
    p_sim.add_argument("config", help="path to a YAML configuration file")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plan = sub.add_parser(
        "plan",
        parents=[common],
        help="pack EPR channels into a frequency band",
    )
    p_plan.add_argument(
        "--band",
        type=_band,
        required=True,
        metavar="LOW:HIGH",
        help="usable sideband band in Hz, e.g. 4e6:10e6",
    )
    p_plan.add_argument(
        "--detbw",
        type=float,
        required=True,
        help="detection bandwidth per party in Hz; channels occupy twice this",
    )
    p_plan.add_argument(
        "--guard", type=float, default=0.0, help="extra spacing between channels in Hz"
    )
    p_plan.add_argument(
        "--demod",
        type=float,
        default=2e5,
        help="demodulation frequency of every channel in Hz",
    )
    p_plan.add_argument(
        "--validate",
        action="store_true",
        help="evaluate each channel and check cross-channel covariance",
    )
    p_plan.add_argument(
        "--pump",
        type=float,
        default=0.6726134419,
        help="source pump parameter used by --validate",
    )
    p_plan.add_argument(
        "--source-bandwidth",
        type=float,
        default=25e6,
        help="source bandwidth (FWHM, Hz) used by --validate",
    )
    p_plan.add_argument(
        "--splitter-hwhm",
        type=float,
        default=None,
        help="per-channel splitter cavity half width in Hz for --validate",
    )
    p_plan.add_argument(
        "--rbw",
        type=float,
        default=1e5,
        help="resolution bandwidth per sideband mode in Hz for --validate",
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_mc = sub.add_parser(
        "montecarlo",
        parents=[common],
        help="time-domain Monte-Carlo validation of one configured chain",
    )
    p_mc.add_argument("config", help="path to a YAML configuration file")
    p_mc.add_argument(
        "--seed", type=_seed, default=None, help="override the configured base seed"
    )
    p_mc.add_argument(
        "--export-records",
        metavar="DIR",
        default=None,
        help="write the first trial's raw records and quadrature streams here",
    )
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_fit = sub.add_parser(
        "fit",
        help="find a scenario reproducing measured criteria and emit its config",
    )
    p_fit.add_argument(
        "--target-i",
        type=float,
        required=True,
        help="measured inseparability to reproduce",
    )
    p_fit.add_argument(
        "--target-e",
        type=float,
        required=True,
        help="measured conditional-variance product to reproduce",
    )
    p_fit.add_argument(
        "--seed", type=_seed, default=None, help="seed stored in the emitted config"
    )
    p_fit.add_argument(
        "--out", help="write the fitted config to this file instead of stdout"
    )
    p_fit.set_defaults(func=_cmd_fit, format="structured")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        text = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed {time.perf_counter() - started:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
