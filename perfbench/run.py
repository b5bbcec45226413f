"""eprmux benchmark: one workload per process, driven through the public API.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for their make-up):

* ``chains``: seeded random single-channel chains through
  ``evaluate_scenario`` plus a grid of ``fit_to_measurements`` targets;
* ``multiplex``: ``plan_multiplex`` + ``validate_plan`` on a ladder of
  6 to 100 channels, without and with per-channel filter cavities;
* ``montecarlo``: ``run_montecarlo`` with 10-s records on the fitted
  headline chain;
* ``cli``: fresh ``eprmux`` subprocesses for simulate, fit, plan and
  montecarlo.

The run repeats whole rounds of the same operations until ``--seconds``
have passed and checks every output against references computed apart
from the program (``checks.py``).  Its last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (``tracer.py``) with
``--trace 1``.  The package is imported from ``src/`` of the checkout and
nowhere else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_TOP = time.perf_counter()


def _process_age_s() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_TOP = _process_age_s()


def _cap_blas_threads() -> None:
    """Use at most one BLAS/OpenMP thread per available core."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


_cap_blas_threads()  # before numpy is loaded

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
from tracer import LayerTracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Children of the cli workload are killed this long after the run started,
# so that the run ends within three minutes.
_TIME_LIMIT_S = 160.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

CLI_COMMANDS = ("simulate", "fit", "plan", "montecarlo")
_TRACED_FUNCTIONS = (
    "criteria.optimize_duan_angles",
    "criteria.evaluate_chain",
    "criteria.evaluate_scenario",
    "criteria.fit_to_measurements",
    "gaussian.ppt_min_symplectic_eigenvalue",
    "gaussian.symplectic_eigenvalues",
    "gaussian.apply_symplectic",
    "gaussian.apply_loss",
    "gaussian.GaussianState.construct",
    "gaussian.GaussianState.mode_index",
    "gaussian.GaussianState.validate",
    "optics.run_chain",
    "optics.apply_frequency_beam_splitter",
    "optics.demod_projection",
    "optics.build_sideband_pairs_state",
    "multiplex.plan_multiplex",
    "multiplex.validate_plan",
    "mcdsp.run_montecarlo",
    "mcdsp.build_synthesis_spec",
    "mcdsp.synthesize_records",
    "mcdsp.demodulate_and_filter",
    "mcdsp.estimate_entanglement",
    "config.load_config",
    "cli.main",
)
_COUNTED_FUNCTIONS = (
    "criteria.optimize_duan_angles",
    "gaussian.apply_loss",
    "gaussian.GaussianState.construct",
    "gaussian.GaussianState.mode_index",
    "mcdsp.synthesize_records",
    "mcdsp.demodulate_and_filter",
)
PER_LAYER = {
    **{f"{fn}.self_s": "s" for fn in _TRACED_FUNCTIONS},
    **{f"{fn}.calls": "count" for fn in _COUNTED_FUNCTIONS},
    "criteria.evaluate_scenario.calls_per_fit": "count",
    "mcdsp.samples_synthesized": "count",
    "cli.import_s": "s",
    **{
        f"cli.{cmd}.{part}": "s"
        for cmd in CLI_COMMANDS
        for part in ("wall_s", "elapsed_s", "startup_s")
    },
}


def _import_eprmux():
    """Import the package from this checkout's src/, or exit with status 2."""
    problem = None
    if (SRC / "eprmux" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import eprmux

        if Path(eprmux.__file__).resolve().parent == (SRC / "eprmux").resolve():
            return eprmux
        problem = f"eprmux was imported from {eprmux.__file__}, not {SRC}"
    print(f"perfbench: {problem or f'no eprmux package under {SRC}'}", file=sys.stderr)
    sys.exit(2)


class Context:
    """Counters, timers and the optional tracer shared by one run."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        # per operation of a round: its wall times, one per round, and its work
        self.seconds: dict = {}
        self.work: dict = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.correct = True
        self.problems: list[str] = []

    def timed(self, key, work: float, fn, *args, **kwargs):
        """Call into the program; only these calls are timed and traced.

        ``key`` names the operation within a round and ``work`` is what it
        contributes to ``ops_per_s``; a call that raises is not timed.
        """
        if self.tracer is not None:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        self.add_time(key, work, time.perf_counter() - start)
        return result

    def add_time(self, key, work: float, seconds: float) -> None:
        self.seconds.setdefault(key, []).append(seconds)
        self.work[key] = work

    def ops_per_s(self) -> float:
        """Work of one round over the round's time with every operation at
        its fastest: slow rounds on a shared machine come from contention,
        not from the program, so each operation's minimum is kept."""
        best = sum(min(times) for times in self.seconds.values())
        return sum(self.work.values()) / best if best > 0 else 0.0

    def record(self, label: str, problems: list[str], count: int = 1) -> None:
        """Count ``count`` attempted operations, all failed if any problem."""
        self.attempted += count
        if problems:
            self.failed += count
            self._note(label, problems)

    def incorrect(self, label: str, problems: list[str]) -> None:
        """A property of the whole run (not of one operation) does not hold."""
        if problems:
            self.correct = False
            self._note(label, problems)

    def _note(self, label: str, problems: list[str]) -> None:
        line = f"{label}: {'; '.join(problems)}"
        if len(self.problems) < 20 and line not in self.problems:
            self.problems.append(line)


def _repeatable(seen: dict, key, value) -> list[str]:
    """Outputs of the same operation must be identical in every round."""
    first = seen.setdefault(key, value)
    return [] if first == value else ["output differs from the same operation in round 1"]


# --------------------------------------------------------------------- chains

# LO phase sums and demodulation phase differences of the seeded sweep are
# drawn where the optimal quadrature angles sum to between ~195 and ~350
# degrees, so the angle search never steps below 0 (see README.md).  Every
# individual phase is still uniform over [0, 2pi).
_LO_SUM_DEG = (-150.0, -20.0)
_DEMOD_DIFF_DEG = (-30.0, 30.0)
# Fault witnesses: chains 155, 168, 214 and 261 of a sweep with every phase
# uniform over [0, 2pi), drawn from seed 3.  The angle search's grid picks
# (0, n) degrees, the refinement steps just below 0, and the per-angle
# reduction modulo pi flips one site's sign, so evaluate_scenario reports
# V(X_A + X_B) in place of the minimum of V(X_A - X_B).  They do not depend
# on --seed and fail in every round until that fault is fixed.
_WITNESS_SEED = 3
_WITNESSES = (155, 168, 214, 261)
_KINDS = ("none", "perfect", "cavity")


def _random_chain(eprmux, rng, kind: str, lo_sum_deg: float, demod_diff_deg: float):
    centre = rng.uniform(3e6, 12e6)
    demod = rng.uniform(50e3, 500e3)
    source = eprmux.OpaSource(
        pump_parameter=rng.uniform(0.1, 0.8),
        cavity_hwhm_hz=rng.uniform(5e6, 25e6),
        efficiency=rng.uniform(0.8, 1.0),
        added_classical_noise=rng.uniform(0.0, 0.2),
    )
    common_lo = rng.uniform(0.0, 2.0 * math.pi)
    common_demod = rng.uniform(0.0, 2.0 * math.pi)
    if kind == "none":
        loss_a = loss_b = rng.uniform(0.0, 0.2)
        eff_a = eff_b = rng.uniform(0.7, 1.0)
        splitter = None
    else:
        loss_a, loss_b = rng.uniform(0.0, 0.2, 2)
        eff_a, eff_b = rng.uniform(0.7, 1.0, 2)
        if kind == "perfect":
            splitter = eprmux.PerfectSplitter(
                center_hz=-centre, halfwidth_hz=demod * rng.uniform(1.5, 5.0)
            )
        else:
            splitter = eprmux.FilterCavity(
                detuning_hz=-centre,
                hwhm_hz=demod * rng.uniform(0.5, 3.0),
                loss=rng.uniform(0.0, 0.05),
            )
    two_pi = 2.0 * math.pi
    alice = eprmux.HomodyneChannel(
        lo_shift_hz=-centre,
        demod_freq_hz=demod,
        lo_phase_rad=(common_lo + math.radians(lo_sum_deg)) % two_pi,
        demod_phase_rad=(common_demod + math.radians(demod_diff_deg)) % two_pi,
        efficiency=eff_a,
    )
    bob = eprmux.HomodyneChannel(
        lo_shift_hz=+centre,
        demod_freq_hz=demod,
        lo_phase_rad=(-common_lo) % two_pi,
        demod_phase_rad=common_demod,
        efficiency=eff_b,
    )
    return eprmux.ChainScenario(
        source=source,
        omega1_hz=centre - demod,
        omega2_hz=centre + demod,
        alice=alice,
        bob=bob,
        splitter=splitter,
        alice_path_loss=loss_a,
        bob_path_loss=loss_b,
    )


class Chains:
    """Seeded single-channel chains and measurement fits.

    One round: 48 seeded chains (16 of each splitter kind), the 4 fault
    witnesses, and 12 fits on a jittered grid of feasible (I, E) targets.
    """

    n_chains = 48
    fit_grid = (4, 3)

    def __init__(self, eprmux, seed: int) -> None:
        self.eprmux = eprmux
        rng = np.random.default_rng(seed)
        self.chains = [
            _random_chain(
                eprmux,
                rng,
                _KINDS[k % 3],
                rng.uniform(*_LO_SUM_DEG),
                rng.uniform(*_DEMOD_DIFF_DEG),
            )
            for k in range(self.n_chains)
        ]
        witness_rng = np.random.default_rng(_WITNESS_SEED)
        sweep = [
            _random_chain(
                eprmux,
                witness_rng,
                _KINDS[k % 3],
                witness_rng.uniform(0.0, 360.0),
                witness_rng.uniform(0.0, 360.0),
            )
            for k in range(max(_WITNESSES) + 1)
        ]
        self.chains += [sweep[k] for k in _WITNESSES]
        self.targets = []
        n_i, n_e = self.fit_grid
        for a in range(n_i):
            target_i = 0.2 + 0.7 * (a + rng.uniform(0.1, 0.9)) / n_i
            e_lo = (2.0 * target_i / (1.0 + target_i**2)) ** 2
            e_hi = 4.0 * target_i**2
            for b in range(n_e):
                share = 0.1 + 0.8 * (b + rng.uniform(0.1, 0.9)) / n_e
                self.targets.append((target_i, e_lo + share * (e_hi - e_lo)))
        self.references: dict[int, dict] = {}
        self.seen: dict = {}

    def _reference(self, k: int, report) -> dict:
        ref = self.references.get(k)
        if ref is None:
            result = self.eprmux.run_chain(self.chains[k])
            site_a = (result.alice_x, result.alice_xp)
            site_b = (result.bob_x, result.bob_xp)
            ref = checks.chain_reference(result.state.cov, site_a, site_b)
            spec = self.eprmux.build_synthesis_spec(result, (report.theta_a, report.theta_b))
            ref["model"] = (spec.model_inseparability, spec.model_epr)
            self.references[k] = ref
        return ref

    def run_round(self, ctx: Context) -> None:
        for k, scenario in enumerate(self.chains):
            try:
                rep = ctx.timed(("chain", k), 1, self.eprmux.evaluate_scenario, scenario)
            except Exception as exc:  # an operation that raises has failed
                ctx.record(f"chain {k}", [f"raised {exc!r}"])
                continue
            ref = self._reference(k, rep)
            problems = checks.chain_problems(
                rep.inseparability, rep.epr_product, rep.ppt_eigenvalue, ref
            )
            problems += checks.mismatch_problems(
                "the synthesis spec", (rep.inseparability, rep.epr_product), ref["model"]
            )
            ctx.record(f"chain {k}", problems)
            ctx.incorrect(
                f"chain {k}",
                _repeatable(self.seen, ("chain", k), (rep.inseparability, rep.epr_product)),
            )
        for k, (target_i, target_e) in enumerate(self.targets):
            try:
                fit = ctx.timed(("fit", k), 1, self.eprmux.fit_to_measurements, target_i, target_e)
            except Exception as exc:
                ctx.record(f"fit {k}", [f"raised {exc!r}"])
                continue
            ctx.record(
                f"fit {k}",
                checks.fit_problems(target_i, target_e, fit.pump_parameter, fit.efficiency),
            )
            ctx.incorrect(
                f"fit {k}",
                _repeatable(self.seen, ("fit", k), (fit.pump_parameter, fit.efficiency)),
            )


# ------------------------------------------------------------------ multiplex


class Multiplex:
    """Plans of 6 to 100 channels, validated without and with cavities.

    One round plans and validates every rung of the ladder once per
    splitter setting; the work unit is one validated channel.
    """

    ladder = (6, 12, 25, 50, 100)

    def __init__(self, eprmux, seed: int) -> None:
        self.eprmux = eprmux
        rng = np.random.default_rng(seed)
        self.lower = rng.uniform(3e6, 5e6)
        self.detbw = rng.uniform(4e5, 6e5)
        # A guard of at least 20 kHz: with none, validate_plan rejects the
        # adjacent channels of about a quarter of lower edges (see README).
        self.guard = rng.uniform(2e4, 1e5)
        self.demod = rng.uniform(1.5e5, 2.5e5)
        self.hwhm = rng.uniform(1.5e5, 2.5e5)
        self.pump = rng.uniform(0.5, 0.75)
        self.source_hwhm = rng.uniform(10e6, 15e6)
        self.source = eprmux.OpaSource(
            pump_parameter=self.pump, cavity_hwhm_hz=self.source_hwhm
        )
        pitch = 2.0 * self.detbw + self.guard
        self.rungs = []
        for n in self.ladder:
            upper = self.lower + n * pitch - self.guard + 0.5 * self.detbw
            for hwhm in (None, self.hwhm):
                self.rungs.append((n, (self.lower, upper), hwhm))
        self.references: dict = {}
        self.seen: dict = {}

    def _cavity_reference(self, rung: int, channel) -> dict:
        key = (rung, channel.index)
        ref = self.references.get(key)
        if ref is None:
            e = self.eprmux
            w1, w2 = channel.pair_frequencies_hz
            scenario = e.ChainScenario(
                source=self.source,
                omega1_hz=w1,
                omega2_hz=w2,
                alice=e.HomodyneChannel(lo_shift_hz=-channel.center_hz, demod_freq_hz=channel.demod_hz),
                bob=e.HomodyneChannel(lo_shift_hz=+channel.center_hz, demod_freq_hz=channel.demod_hz),
                splitter=e.FilterCavity(detuning_hz=-channel.center_hz, hwhm_hz=self.hwhm),
            )
            result = e.run_chain(scenario)
            ref = checks.chain_reference(
                result.state.cov,
                (result.alice_x, result.alice_xp),
                (result.bob_x, result.bob_xp),
            )
            self.references[key] = ref
        return ref

    def _plan_and_validate(self, band, hwhm):
        plan = self.eprmux.plan_multiplex(band, self.detbw, guard_hz=self.guard, demod_hz=self.demod)
        return plan, self.eprmux.validate_plan(plan, self.source, splitter_hwhm_hz=hwhm)

    def run_round(self, ctx: Context) -> None:
        for r, (n, band, hwhm) in enumerate(self.rungs):
            label = f"{n} channels, splitter hwhm {hwhm}"
            try:
                plan, checked = ctx.timed(r, n, self._plan_and_validate, band, hwhm)
            except Exception as exc:
                ctx.record(label, [f"raised {exc!r}"], count=n)
                continue
            centres = [ch.center_hz for ch in plan.channels]
            problems = checks.centre_problems(
                centres, checks.packing_centres(self.lower, self.detbw, self.guard, n)
            )
            if problems or len(checked.reports) != n:
                ctx.record(label, problems or ["reports missing"], count=n)
                continue
            for ch, rep in zip(plan.channels, checked.reports):
                if hwhm is None:
                    expected = 0.5 * sum(
                        checks.squeezed_variance(self.pump, self.source_hwhm, 1.0, w)
                        for w in ch.pair_frequencies_hz
                    )
                    problems = []
                    if abs(rep.inseparability - expected) > checks.EXACT_TOL:
                        problems = [f"I = {rep.inseparability!r}, mean squeezed variance {expected!r}"]
                else:
                    problems = checks.chain_problems(
                        rep.inseparability,
                        rep.epr_product,
                        rep.ppt_eigenvalue,
                        self._cavity_reference(r, ch),
                    )
                ctx.record(f"{label}, channel {ch.index}", problems)
            ctx.incorrect(
                label,
                _repeatable(
                    self.seen,
                    r,
                    tuple((rep.inseparability, rep.epr_product) for rep in checked.reports),
                ),
            )


# ----------------------------------------------------------------- montecarlo


class MonteCarlo:
    """One 10-s Monte-Carlo trial of the fitted headline chain per round.

    The work unit is one second of synthesized record; trial ``k`` of the
    run draws its records from seed ``1000 * seed + k``.
    """

    duration_s = 10.0

    def __init__(self, eprmux, seed: int) -> None:
        self.eprmux = eprmux
        self.seed = seed
        fit = eprmux.fit_to_measurements(0.41, 0.64)
        self.pump, self.efficiency = fit.pump_parameter, fit.efficiency
        self.scenario = fit.scenario
        self.dsp = eprmux.DspConfig(duration_s=self.duration_s)
        # A long validation run builds the demodulation carriers of its
        # record length once, on its first trial; build them here, so that
        # every timed trial is a steady one and the cost shows in setup_s.
        eprmux.mcdsp.demodulate_and_filter(np.zeros(self.dsp.n_samples), self.dsp)
        self.seen: dict = {}

    def run_round(self, ctx: Context) -> None:
        trial_seed = 1000 * self.seed + ctx.rounds
        try:
            run = ctx.timed(
                "trial",
                self.duration_s,
                self.eprmux.run_montecarlo,
                self.scenario,
                self.dsp,
                n_trials=1,
                seed=trial_seed,
            )
        except Exception as exc:
            ctx.record(f"trial seed {trial_seed}", [f"raised {exc!r}"])
            return
        expect_i, expect_e = checks.lumped_criteria(self.pump, self.efficiency)
        problems = checks.mismatch_problems(
            "the closed form",
            (run.spec.model_inseparability, run.spec.model_epr),
            (expect_i, expect_e),
        )
        for t in run.trials:
            problems += checks.mc_trial_problems(
                t.inseparability, t.sigma_inseparability, t.epr_product, t.sigma_epr,
                expect_i, expect_e,
            )
        ctx.record(f"trial seed {trial_seed}", problems, count=len(run.trials) or 1)
        ctx.incorrect(
            "synthesis spec",
            _repeatable(self.seen, "spec", (run.spec.s_aa, run.spec.s_bb, run.spec.s_ab)),
        )


# ------------------------------------------------------------------------ cli


def _lumped_config(pump: float, efficiency: float) -> dict:
    """A config of the symmetric lumped-loss channel, as ``eprmux fit`` writes."""

    def channel(lo_shift: float) -> dict:
        return {
            "lo_shift_hz": lo_shift,
            "demod_freq_hz": 2e5,
            "lo_phase_rad": 0.0,
            "demod_phase_rad": 0.0,
            "efficiency": efficiency,
            "path_loss": 0.0,
        }

    return {
        "scenario": {
            "source": {
                "pump_parameter": pump,
                "bandwidth_hz": math.inf,
                "bandwidth_convention": "fwhm",
                "efficiency": 1.0,
                "added_classical_noise": 0.0,
                "noise_cutoff_hz": 4e6,
            },
            "alice": channel(-7e6),
            "bob": channel(7e6),
            "resolution_bandwidth_hz": 1e5,
            "compensate_dispersion": True,
            "splitter": {"kind": "perfect", "center_hz": -7e6, "halfwidth_hz": 1e6},
        },
        "seed": 0,
    }


def _yaml_load(text: str):
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


class Cli:
    """Fresh ``eprmux`` processes: simulate, fit, plan --validate, montecarlo.

    One round runs each command once; the work unit is one process.  The
    montecarlo command runs the config's default 10 trials of 1-s records.
    """

    min_rounds = 2

    def __init__(self, eprmux, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pump = rng.uniform(0.4, 0.75)
        self.efficiency = rng.uniform(0.5, 0.9)
        config = self.workdir / "channel.yaml"
        config.write_text(
            yaml.safe_dump(_lumped_config(self.pump, self.efficiency), sort_keys=False),
            encoding="utf-8",
        )
        self.target_i = rng.uniform(0.3, 0.6)
        e_lo = (2.0 * self.target_i / (1.0 + self.target_i**2)) ** 2
        self.target_e = e_lo + rng.uniform(0.3, 0.9) * (4.0 * self.target_i**2 - e_lo)
        self.commands = {
            "simulate": ["simulate", str(config)],
            "fit": ["fit", "--target-i", repr(self.target_i), "--target-e", repr(self.target_e)],
            # A fixed band: with no guard interval, validate_plan rejects
            # the adjacent channels of about a quarter of lower edges.
            "plan": [
                "plan", "--band", "4e6:10e6", "--detbw", "5e5", "--validate",
                "--splitter-hwhm", "2e5",
            ],
            "montecarlo": ["montecarlo", str(config), "--seed", str(int(rng.integers(0, 2**31)))],
        }
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        self.timings: dict[str, list] = {cmd: [] for cmd in CLI_COMMANDS}
        self.import_s: list[float] = []
        self.seen: dict = {}

    def _run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """Run one child; it is killed if the run would pass its time limit."""
        start = time.perf_counter()
        limit = max(1.0, _TIME_LIMIT_S - (_AGE_AT_TOP + start - _TOP))
        proc = subprocess.run(
            argv, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=limit
        )
        return proc, time.perf_counter() - start

    def _child(self, command: str, traced: bool) -> list[str]:
        if not traced:
            shim = "import sys; from eprmux.cli import main; sys.exit(main())"
            return [sys.executable, "-c", shim, *self.commands[command]]
        stats = self.workdir / f"{command}.trace.json"
        return [sys.executable, str(HERE / "cli_traced.py"), str(stats), *self.commands[command]]

    def _problems(self, command: str, stdout: str) -> list[str]:
        data = _yaml_load(stdout)
        if command == "simulate":
            ent = data["entanglement"]
            return checks.mismatch_problems(
                "the closed form",
                (ent["inseparability"], ent["epr_product"]),
                checks.lumped_criteria(self.pump, self.efficiency),
            )
        if command == "fit":
            sc = data["scenario"]
            return checks.fit_problems(
                self.target_i,
                self.target_e,
                sc["source"]["pump_parameter"],
                sc["alice"]["efficiency"],
            )
        if command == "plan":
            centres = [ch["center_hz"] for ch in data["channels"]]
            return checks.centre_problems(centres, checks.packing_centres(4e6, 5e5, 0.0, 6))
        mc = data["montecarlo"]
        want_i, want_e = checks.lumped_criteria(self.pump, self.efficiency)
        problems = []
        for t in mc["trials"]:
            problems += checks.mc_trial_problems(
                t["inseparability"], t["sigma_inseparability"],
                t["epr_product"], t["sigma_epr"], want_i, want_e,
            )
        return problems

    def run_round(self, ctx: Context) -> None:
        if ctx.tracer is not None:
            probe = "import time; t = time.perf_counter(); import eprmux; print(repr(time.perf_counter() - t))"
            proc, _ = self._run([sys.executable, "-c", probe])
            if proc.returncode == 0:
                self.import_s.append(float(proc.stdout))
        for command in CLI_COMMANDS:
            try:
                proc, wall = self._run(self._child(command, ctx.tracer is not None))
            except subprocess.TimeoutExpired:
                ctx.record(command, ["timed out"])
                continue
            ctx.add_time(command, 1, wall)
            if proc.returncode != 0:
                ctx.record(command, [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"])
                continue
            try:
                problems = self._problems(command, proc.stdout)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            ctx.record(command, problems)
            # Reports with a fixed seed must be byte-identical from call to call.
            ctx.incorrect(command, _repeatable(self.seen, command, proc.stdout))
            elapsed = next(
                (float(line.split()[1]) for line in proc.stderr.splitlines() if line.startswith("elapsed ")),
                math.nan,
            )
            self.timings[command].append((wall, elapsed))
            if ctx.tracer is not None:
                stats = self.workdir / f"{command}.trace.json"
                ctx.tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
                stats.unlink()

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def layer_metrics(self) -> dict[str, float]:
        out = {"cli.import_s": statistics.median(self.import_s) if self.import_s else 0.0}
        for command, runs in self.timings.items():
            walls = [w for w, _ in runs]
            elapsed = [e for _, e in runs]
            out[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
            out[f"cli.{command}.elapsed_s"] = statistics.median(elapsed) if elapsed else 0.0
            out[f"cli.{command}.startup_s"] = (
                statistics.median(w - e for w, e in runs) if runs else 0.0
            )
        return out


# ----------------------------------------------------------------------- main

WORKLOADS = {"chains": Chains, "multiplex": Multiplex, "montecarlo": MonteCarlo, "cli": Cli}


def _layer_metrics(tracer, rounds: int, workload) -> dict[str, float]:
    """Per-layer figures per round; 0 for a layer the workload does not run."""
    fits = tracer.calls.get("criteria.fit_to_measurements", 0)
    in_fits = tracer.nested.get("criteria.fit_to_measurements>criteria.evaluate_scenario", 0)
    values = {}
    for name in PER_LAYER:
        function, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.self_s.get(function, 0.0) / rounds
        elif kind == "calls":
            values[name] = tracer.calls.get(function, 0) / rounds
        elif kind == "calls_per_fit":
            values[name] = in_fits / fits if fits else 0.0
        else:
            values[name] = tracer.counters.get(name, 0) / rounds
    if isinstance(workload, Cli):
        values.update(workload.layer_metrics())
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eprmux benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    eprmux = _import_eprmux()
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    workload = WORKLOADS[args.workload](eprmux, args.seed)
    setup_s = _AGE_AT_TOP + time.perf_counter() - _TOP

    ctx = Context(tracer)
    min_rounds = getattr(workload, "min_rounds", 1)
    began = time.perf_counter()
    try:
        while ctx.rounds < min_rounds or time.perf_counter() - began < args.seconds:
            workload.run_round(ctx)
            ctx.rounds += 1
    finally:
        if isinstance(workload, Cli):
            workload.close()

    who = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    ops_per_s = ctx.ops_per_s()
    for line in ctx.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {ctx.rounds} rounds, "
        f"{ctx.attempted} attempted, {ctx.failed} failed, ops_per_s {ops_per_s:.6g}, "
        f"setup_s {setup_s:.4f}, peak_rss_mb {peak_rss_mb:.1f}",
        file=sys.stderr,
    )
    if tracer is not None:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in _layer_metrics(tracer, ctx.rounds, workload).items()
        }
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(
            json.dumps({"rounds": ctx.rounds, **tracer.snapshot()}, indent=1), encoding="utf-8"
        )
    else:
        e2e = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": ctx.correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
