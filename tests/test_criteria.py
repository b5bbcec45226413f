"""Tests for the entanglement criteria, angle search, and measurement fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprmux.criteria import (
    ConvergenceError,
    EntanglementReport,
    InfeasibleTargetError,
    JointSecondMoments,
    duan_inseparability,
    epr_product_from_variances,
    evaluate_chain,
    evaluate_scenario,
    extract_moments,
    fit_to_measurements,
    optimize_duan_angles,
    lumped_channel_scenario,
    reid_epr,
)
from eprmux.gaussian import project_quadrature
from eprmux.mcdsp import build_synthesis_spec
from eprmux.optics import (
    ChainScenario,
    FilterCavity,
    HomodyneChannel,
    OpaSource,
    PerfectSplitter,
    run_chain,
)


def ideal_scenario(s, efficiency=1.0):
    """Symmetric flat-source scenario with squeezed variance s."""
    x = (1 - math.sqrt(s)) / (1 + math.sqrt(s))
    return lumped_channel_scenario(x, efficiency)


class TestMoments:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            JointSecondMoments(
                v_xa=0.0, v_xpa=1.0, v_xb=1.0, v_xpb=1.0, c_x=0.0, c_xp=0.0
            )

    def test_rejects_unphysical_correlation(self):
        with pytest.raises(ValueError, match="Cauchy"):
            JointSecondMoments(
                v_xa=1.0, v_xpa=1.0, v_xb=1.0, v_xpb=1.0, c_x=1.5, c_xp=0.0
            )

    def test_extract_requires_orthogonal_site_quadratures(self):
        scen = ideal_scenario(0.25)
        res = run_chain(scen)
        with pytest.raises(ValueError, match="orthogonal"):
            extract_moments(res.state, res.alice_x, res.alice_x, res.bob_x, res.bob_xp)

    def test_extract_matches_direct_projection(self):
        res = run_chain(ideal_scenario(0.25))
        m = extract_moments(res.state, res.alice_x, res.alice_xp, res.bob_x, res.bob_xp)
        assert m.v_xa == pytest.approx(
            project_quadrature(res.state, res.alice_x), rel=1e-12
        )
        assert m.matrix.shape == (4, 4)
        assert m.matrix[0, 2] == pytest.approx(m.c_x, rel=1e-12)


class TestClosedForms:
    def test_duan_formula(self):
        m = JointSecondMoments(
            v_xa=1.2, v_xpa=1.1, v_xb=0.9, v_xpb=1.3, c_x=0.7, c_xp=-0.8
        )
        expected = 0.25 * ((1.2 + 0.9 - 1.4) + (1.1 + 1.3 - 1.6))
        assert duan_inseparability(m) == pytest.approx(expected, rel=1e-12)

    def test_reid_gains_beat_grid_search(self):
        m = JointSecondMoments(
            v_xa=1.4, v_xpa=1.6, v_xb=1.1, v_xpb=0.9, c_x=0.9, c_xp=-0.75
        )
        e, g_x, g_xp = reid_epr(m)
        gains = np.linspace(-3, 3, 12001)
        var_x = m.v_xa - 2 * gains * m.c_x + gains**2 * m.v_xb
        var_xp = m.v_xpa + 2 * gains * m.c_xp + gains**2 * m.v_xpb
        assert e <= var_x.min() * var_xp.min() + 1e-12
        assert g_x == pytest.approx(gains[var_x.argmin()], abs=1e-3)
        assert g_xp == pytest.approx(gains[var_xp.argmin()], abs=1e-3)

    @given(st.floats(0.02, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_pure_identities(self, s):
        """For a pure symmetric pair, I equals s and E its harmonic form."""
        scen = ideal_scenario(s)
        rep = evaluate_scenario(scen)
        assert rep.inseparability == pytest.approx(s, rel=1e-10, abs=1e-12)
        expected_e = (2.0 / (s + 1.0 / s)) ** 2
        assert rep.epr_product == pytest.approx(expected_e, rel=1e-10)

    def test_epr_product_from_variances_matches_reid(self):
        rep = evaluate_scenario(ideal_scenario(0.3, efficiency=0.8))
        direct = epr_product_from_variances(rep.effective_v_sq, rep.effective_v_anti)
        assert rep.epr_product == pytest.approx(direct, rel=1e-10)

    def test_vacuum_reports_unity(self):
        rep = evaluate_scenario(lumped_channel_scenario(0.0, 1.0))
        assert rep.inseparability == pytest.approx(1.0, rel=1e-12)
        assert rep.epr_product == pytest.approx(1.0, rel=1e-12)
        assert rep.ppt_eigenvalue == pytest.approx(1.0, rel=1e-12)


class TestAngleSearch:
    def test_recovers_known_optimum(self):
        res = run_chain(ideal_scenario(0.1))
        best = optimize_duan_angles(
            res.state.cov,
            (res.alice_x, res.alice_xp),
            (res.bob_x, res.bob_xp),
        )
        # Upper/lower pairs anticorrelate in X, so the optimum sits on the
        # valley theta_a + theta_b = pi.
        assert (best.theta_a + best.theta_b) % math.pi == pytest.approx(
            0.0, abs=1e-5
        ) or (best.theta_a + best.theta_b) == pytest.approx(math.pi, abs=1e-5)
        # V(X_A - X_B) at the optimum; two squeezed variances of 0.1 each.
        assert best.v_diff == pytest.approx(0.2, rel=1e-9)

    def test_beats_dense_grid(self):
        src = OpaSource(0.55, cavity_hwhm_hz=12.5e6)
        alice = HomodyneChannel(lo_shift_hz=-7e6, demod_freq_hz=2e5, lo_phase_rad=0.37)
        bob = HomodyneChannel(lo_shift_hz=+7e6, demod_freq_hz=2e5, lo_phase_rad=1.1)
        scen = ChainScenario(
            source=src,
            omega1_hz=6.8e6,
            omega2_hz=7.2e6,
            alice=alice,
            bob=bob,
            splitter=FilterCavity(detuning_hz=-7e6, hwhm_hz=0.75e6),
        )
        res = run_chain(scen)
        best = optimize_duan_angles(
            res.state.cov, (res.alice_x, res.alice_xp), (res.bob_x, res.bob_xp)
        )
        angles = np.linspace(0, math.pi, 721)
        floor = math.inf
        for ta in angles:
            ua = math.cos(ta) * res.alice_x + math.sin(ta) * res.alice_xp
            for tb in angles:
                ub = math.cos(tb) * res.bob_x + math.sin(tb) * res.bob_xp
                d = ua - ub
                floor = min(floor, float(d @ res.state.cov @ d))
        assert best.v_diff <= floor + 1e-9

    def test_report_angles_reproduce_inseparability(self):
        rep = evaluate_scenario(ideal_scenario(0.2, efficiency=0.7))
        res = run_chain(ideal_scenario(0.2, efficiency=0.7))
        ta, tb = rep.theta_a, rep.theta_b
        a_x = math.cos(ta) * res.alice_x + math.sin(ta) * res.alice_xp
        b_x = math.cos(tb) * res.bob_x + math.sin(tb) * res.bob_xp
        a_xp = -math.sin(ta) * res.alice_x + math.cos(ta) * res.alice_xp
        b_xp = -math.sin(tb) * res.bob_x + math.cos(tb) * res.bob_xp
        s2 = 1 / math.sqrt(2)
        v_d = project_quadrature(res.state, s2 * (a_x - b_x))
        v_s = project_quadrature(res.state, s2 * (a_xp + b_xp))
        assert (v_d + v_s) / 2 == pytest.approx(rep.inseparability, rel=1e-9)


def random_chain(rng, kind):
    """Random single-channel chain with every LO and demod phase uniform.

    Uniform phases put some optimal valleys next to 0 and pi, where the
    reported angles must not wrap one site's X onto -X.
    """
    centre = rng.uniform(3e6, 12e6)
    demod = rng.uniform(50e3, 500e3)
    source = OpaSource(
        pump_parameter=rng.uniform(0.1, 0.8),
        cavity_hwhm_hz=rng.uniform(5e6, 25e6),
        efficiency=rng.uniform(0.8, 1.0),
        added_classical_noise=rng.uniform(0.0, 0.2),
    )
    if kind == "none":
        loss_a = loss_b = rng.uniform(0.0, 0.2)
        eff_a = eff_b = rng.uniform(0.7, 1.0)
        splitter = None
    else:
        loss_a, loss_b = rng.uniform(0.0, 0.2, 2)
        eff_a, eff_b = rng.uniform(0.7, 1.0, 2)
        if kind == "perfect":
            splitter = PerfectSplitter(
                center_hz=-centre, halfwidth_hz=demod * rng.uniform(1.5, 5.0)
            )
        else:
            splitter = FilterCavity(
                detuning_hz=-centre,
                hwhm_hz=demod * rng.uniform(0.5, 3.0),
                loss=rng.uniform(0.0, 0.05),
            )
    lo_a, demod_a, lo_b, demod_b = rng.uniform(0.0, 2 * math.pi, 4)
    return ChainScenario(
        source=source,
        omega1_hz=centre - demod,
        omega2_hz=centre + demod,
        alice=HomodyneChannel(
            lo_shift_hz=-centre,
            demod_freq_hz=demod,
            lo_phase_rad=lo_a,
            demod_phase_rad=demod_a,
            efficiency=eff_a,
        ),
        bob=HomodyneChannel(
            lo_shift_hz=+centre,
            demod_freq_hz=demod,
            lo_phase_rad=lo_b,
            demod_phase_rad=demod_b,
            efficiency=eff_b,
        ),
        splitter=splitter,
        alice_path_loss=loss_a,
        bob_path_loss=loss_b,
    )


def brute_force_v_diff(cov, site_a, site_b):
    """Least V(X_A - X_B) over [0, 2 pi)^2: a 1-degree grid, then zooms.

    Uses the general quadratic form, without assuming any structure.
    """
    d = np.stack([site_a[0], site_a[1], -site_b[0], -site_b[1]], axis=1)
    q = d.T @ cov @ d

    def v(ta, tb):
        c = np.stack([np.cos(ta), np.sin(ta), np.cos(tb), np.sin(tb)])
        return np.einsum("i...,ij,j...->...", c, q, c)

    step = math.radians(1.0)
    axis = np.arange(0.0, 2 * math.pi, step)
    values = v(*np.meshgrid(axis, axis, indexing="ij"))
    i, j = np.unravel_index(np.argmin(values), values.shape)
    ta, tb = axis[i], axis[j]
    while step > 1e-8:
        offsets = np.linspace(-step, step, 21)
        values = v(*np.meshgrid(ta + offsets, tb + offsets, indexing="ij"))
        i, j = np.unravel_index(np.argmin(values), values.shape)
        ta, tb = ta + offsets[i], tb + offsets[j]
        step /= 10.0
    return float(values[i, j])


def criteria_at(result, ta, tb):
    """(I, E, gain_x, gain_xp) with the two sites rotated by ta and tb."""
    a_x = math.cos(ta) * result.alice_x + math.sin(ta) * result.alice_xp
    a_xp = -math.sin(ta) * result.alice_x + math.cos(ta) * result.alice_xp
    b_x = math.cos(tb) * result.bob_x + math.sin(tb) * result.bob_xp
    b_xp = -math.sin(tb) * result.bob_x + math.cos(tb) * result.bob_xp
    m = extract_moments(result.state, a_x, a_xp, b_x, b_xp)
    return (duan_inseparability(m), *reid_epr(m))


class TestAngleSweep:
    def test_random_chains_match_brute_force_and_synthesis_spec(self):
        rng = np.random.default_rng(20070)
        kinds = ("none", "perfect", "cavity")
        for k in range(210):
            scen = random_chain(rng, kinds[k % 3])
            res = run_chain(scen)
            site_a = (res.alice_x, res.alice_xp)
            site_b = (res.bob_x, res.bob_xp)
            best = optimize_duan_angles(res.state.cov, site_a, site_b)
            floor = brute_force_v_diff(res.state.cov, site_a, site_b)
            assert best.v_diff == pytest.approx(floor, abs=1e-9), f"chain {k}"
            rep = evaluate_scenario(scen)
            spec = build_synthesis_spec(res, (rep.theta_a, rep.theta_b))
            assert rep.inseparability == pytest.approx(
                spec.model_inseparability, abs=1e-9
            ), f"chain {k}"

    def test_criteria_constant_along_valley(self):
        rng = np.random.default_rng(5)
        for kind in ("none", "perfect", "cavity"):
            res = run_chain(random_chain(rng, kind))
            rep = evaluate_chain(res)
            assert rep.theta_a == rep.theta_b
            assert 0.0 <= rep.theta_a < math.pi
            expected = (rep.inseparability, rep.epr_product, rep.gain_x, rep.gain_xp)
            assert criteria_at(res, rep.theta_a, rep.theta_b) == pytest.approx(
                expected, abs=1e-12
            )
            for d in (-2.5, -0.9, 0.3, 1.7, math.pi):
                moved = criteria_at(res, rep.theta_a + d, rep.theta_b - d)
                assert moved == pytest.approx(expected, abs=1e-12), (kind, d)

    def test_rejects_covariance_without_pair_structure(self):
        # One squeezed mode per site: V(X) != V(Xp) breaks q00 = q11.
        cov = np.diag([0.5, 2.0, 1.0, 1.0])
        site_a = (np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
        site_b = (np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))
        with pytest.raises(ValueError, match="q00 != q11"):
            optimize_duan_angles(cov, site_a, site_b)


class TestMonotonicity:
    def test_loss_washes_out_both_criteria(self):
        reports = [
            evaluate_scenario(ideal_scenario(0.1, efficiency=eta))
            for eta in (1.0, 0.8, 0.6, 0.4, 0.2)
        ]
        insep = [r.inseparability for r in reports]
        epr = [r.epr_product for r in reports]
        assert all(a < b for a, b in zip(insep, insep[1:]))
        assert all(a < b for a, b in zip(epr, epr[1:]))
        # Symmetric lumped loss acts linearly on I.
        assert insep[1] == pytest.approx(0.8 * 0.1 + 0.2, rel=1e-10)

    def test_duan_violation_accompanied_by_npt(self):
        for eta in (1.0, 0.75, 0.5, 0.35):
            rep = evaluate_scenario(ideal_scenario(0.15, efficiency=eta))
            assert rep.inseparability < 1.0
            assert rep.ppt_eigenvalue < 1.0


class TestFit:
    def test_headline_fit_round_trip(self):
        fit = fit_to_measurements(0.41, 0.64)
        assert fit.report.inseparability == pytest.approx(0.41, abs=1e-8)
        assert fit.report.epr_product == pytest.approx(0.64, abs=1e-8)
        assert 0 < fit.pump_parameter < 1
        assert 0 < fit.efficiency <= 1
        assert fit.residual < 1e-6

    def test_fit_grid_round_trip(self):
        for target_i in (0.3, 0.5, 0.8):
            for rel in (0.3, 0.7):
                e_lo = (2 * target_i / (1 + target_i**2)) ** 2
                e_hi = 4 * target_i**2
                target_e = e_lo + rel * (0.999 * e_hi - e_lo)
                fit = fit_to_measurements(target_i, target_e)
                assert fit.report.inseparability == pytest.approx(target_i, abs=1e-7)
                assert fit.report.epr_product == pytest.approx(target_e, abs=1e-7)

    def test_fit_recovers_known_parameters(self):
        x, eta = 0.6726, 0.6135
        rep = evaluate_scenario(lumped_channel_scenario(x, eta))
        fit = fit_to_measurements(rep.inseparability, rep.epr_product)
        assert fit.pump_parameter == pytest.approx(x, abs=1e-6)
        assert fit.efficiency == pytest.approx(eta, abs=1e-6)

    def test_vacuum_targets(self):
        fit = fit_to_measurements(1.0, 1.0)
        assert fit.pump_parameter == 0.0
        assert fit.efficiency == 1.0

    def test_epr_target_below_pure_bound_rejected(self):
        # At I = 0.41 a pure state already has the least E.
        e_pure = (2 * 0.41 / (1 + 0.41**2)) ** 2
        with pytest.raises(InfeasibleTargetError, match="attainable"):
            fit_to_measurements(0.41, 0.9 * e_pure)

    def test_epr_target_above_loss_ceiling_rejected(self):
        with pytest.raises(InfeasibleTargetError, match="attainable"):
            fit_to_measurements(0.2, 1.5)

    def test_inseparability_above_one_rejected(self):
        with pytest.raises(InfeasibleTargetError, match="inseparability"):
            fit_to_measurements(1.2, 0.5)

    def test_nonvacuum_targets_at_unit_inseparability_rejected(self):
        with pytest.raises(InfeasibleTargetError, match="vacuum"):
            fit_to_measurements(1.0, 1.5)
