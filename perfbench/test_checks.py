"""Tests of the benchmark's own checks: each one must reject a wrong output.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
They use hand-built states and closed forms only, so they need numpy but
not the eprmux package.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracer import LayerTracer

R = 0.5  # squeezing parameter of the hand-built two-mode squeezed vacuum
SITE_A = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
SITE_B = (np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))


def tmsv_cov(r: float = R) -> np.ndarray:
    """Two-mode squeezed vacuum: X_A - X_B and Xp_A + Xp_B squeezed to e^{-2r}."""
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])


@pytest.fixture(scope="module")
def reference():
    return checks.chain_reference(tmsv_cov(), SITE_A, SITE_B)


def test_brute_force_finds_the_known_optimum(reference):
    v, ta, tb = checks.brute_force_angles(tmsv_cov(), SITE_A, SITE_B)
    assert v == pytest.approx(2 * math.exp(-2 * R), abs=1e-12)
    assert math.cos(ta + tb) == pytest.approx(1.0, abs=1e-12)
    assert reference["inseparability"] == pytest.approx(math.exp(-2 * R), abs=1e-12)
    # E = (cosh 2r - sinh^2 2r / cosh 2r)^2 = 1 / cosh^2 2r for this state
    assert reference["epr_product"] == pytest.approx(1 / math.cosh(2 * R) ** 2, abs=1e-12)
    assert reference["min_uncertainty_eigenvalue"] == pytest.approx(0.0, abs=1e-12)


def test_correct_report_passes(reference):
    ppt = math.exp(-2 * R)
    assert checks.chain_problems(math.exp(-2 * R), 1 / math.cosh(2 * R) ** 2, ppt, reference) == []


def test_site_angle_shifted_by_pi_is_caught(reference):
    # Shifting one site by pi flips its X: the report then holds V(X_A + X_B).
    wrong_i, wrong_e = checks.criteria_at(tmsv_cov(), SITE_A, SITE_B, math.pi, 0.0)
    assert wrong_i == pytest.approx(math.exp(2 * R))
    assert checks.chain_problems(wrong_i, wrong_e, 0.5, reference)


def test_perturbed_criteria_are_caught(reference):
    good_i, good_e = math.exp(-2 * R), 1 / math.cosh(2 * R) ** 2
    assert checks.chain_problems(good_i + 1e-5, good_e, 0.5, reference)
    assert checks.chain_problems(good_i, good_e * (1 + 1e-5), 0.5, reference)


def test_entangled_report_without_ppt_violation_is_caught(reference):
    assert checks.chain_problems(math.exp(-2 * R), 1 / math.cosh(2 * R) ** 2, 1.0, reference)


def test_unphysical_state_is_caught():
    ref = checks.chain_reference(0.5 * np.eye(4), SITE_A, SITE_B)
    assert ref["min_uncertainty_eigenvalue"] < 0
    assert checks.chain_problems(ref["inseparability"], ref["epr_product"], 0.5, ref)


def test_mismatch_with_another_computation_is_caught():
    assert checks.mismatch_problems("spec", (0.41, 0.64), (0.41, 0.64)) == []
    assert checks.mismatch_problems("spec", (0.41, 0.64), (0.41 + 1e-6, 0.64))
    assert checks.mismatch_problems("spec", (0.41, 0.64), (0.41, 0.64 - 1e-6))
    assert checks.mismatch_problems("spec", (11.25, 0.64), (0.71, 0.64))


def test_lumped_closed_form_reproduces_the_headline_config():
    # pump and efficiency of configs/single_channel.yaml, fitted to (0.41, 0.64)
    i, e = checks.lumped_criteria(0.6726131998356917, 0.613504388926401)
    assert i == pytest.approx(0.41, abs=1e-12)
    assert e == pytest.approx(0.64, abs=1e-12)


def test_fit_checks():
    i, e = checks.lumped_criteria(0.6, 0.8)
    assert checks.fit_problems(i, e, 0.6, 0.8) == []
    assert checks.fit_problems(i, e, 0.6 + 1e-4, 0.8)
    assert checks.fit_problems(i, e, 0.6, 0.8 - 1e-4)


def test_splitterless_reference_is_the_mean_squeezed_variance():
    flat = checks.squeezed_variance(0.6, math.inf, 1.0, 7e6)
    assert flat == pytest.approx(checks.lumped_criteria(0.6, 1.0)[0])
    assert checks.squeezed_variance(0.6, 12.5e6, 1.0, 7e6) > flat


def test_packing_checks():
    want = checks.packing_centres(4e6, 5e5, 1e5, 6)
    assert want[:2] == [4.5e6, 5.6e6]
    assert checks.centre_problems(list(want), want) == []
    assert checks.centre_problems(want[:-1], want)
    assert checks.centre_problems([w + 1.0 for w in want], want)


def test_monte_carlo_trial_checks():
    assert checks.mc_trial_problems(0.41, 0.01, 0.64, 0.02, 0.40, 0.63) == []
    assert checks.mc_trial_problems(0.50, 0.01, 0.64, 0.02, 0.40, 0.64)
    assert checks.mc_trial_problems(0.41, 0.01, 0.90, 0.02, 0.41, 0.64)
    assert checks.mc_trial_problems(0.41, 0.0, 0.64, 0.02, 0.41, 0.64)


def test_differing_outputs_are_caught():
    seen = {}
    assert run._repeatable(seen, "montecarlo", "report: 1\n") == []
    assert run._repeatable(seen, "montecarlo", "report: 1\n") == []
    assert run._repeatable(seen, "montecarlo", "report: 2\n")


def test_context_counts_failed_operations():
    ctx = run.Context(None)
    ctx.record("a", [])
    ctx.record("b", ["wrong"], count=3)
    ctx.incorrect("c", [])
    assert (ctx.attempted, ctx.failed, ctx.correct) == (4, 3, True)
    ctx.incorrect("d", ["differs"])
    assert not ctx.correct


def test_tracer_subtracts_child_time():
    tracer = LayerTracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer._wrap("m.inner", inner)

    def outer():
        traced_inner()
        time.sleep(0.01)

    traced_outer = tracer._wrap("m.outer", outer)
    traced_outer()  # disabled: nothing recorded
    assert tracer.calls == {"m.inner": 0, "m.outer": 0}
    tracer.enabled = True
    traced_outer()
    assert tracer.calls == {"m.inner": 1, "m.outer": 1}
    assert tracer.nested == {"m.outer>m.inner": 1}
    assert 0.015 < tracer.self_s["m.inner"] < 0.2
    assert 0.005 < tracer.self_s["m.outer"] < tracer.self_s["m.inner"]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
