"""Core state and symplectic-operation tests.

Expected values come from explicit matrix constructions done inline with
plain numpy, independent of the library code under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eprmux.gaussian import (
    GaussianState,
    InvalidStateError,
    LabelCollisionError,
    SidebandLabel,
    apply_loss,
    apply_mode_unitary,
    apply_passive,
    apply_rotation,
    apply_squeeze,
    apply_two_mode_bs,
    attach_vacuum,
    beamsplitter_op,
    mode_unitary_op,
    ppt_min_symplectic_eigenvalue,
    project_quadrature,
    rotation_op,
    squeeze_op,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
)


def two_mode_epr(r):
    """EPR state from two orthogonally squeezed modes on a 50:50 splitter."""
    st8 = vacuum(2)
    st8 = apply_squeeze(st8, 0, r)            # mode 0 squeezed in X
    st8 = apply_squeeze(st8, 1, r, angle=np.pi / 2)  # mode 1 squeezed in Xp
    return apply_two_mode_bs(st8, 0, 1, reflectivity=0.5)


class TestLabels:
    def test_overlap_same_path(self):
        a = SidebandLabel(6.8e6, 1e5)
        b = SidebandLabel(6.85e6, 1e5)
        assert a.overlaps(b)

    def test_no_overlap_across_paths(self):
        a = SidebandLabel(6.8e6, 1e5, path="t")
        b = SidebandLabel(6.8e6, 1e5, path="r")
        assert not a.overlaps(b)

    def test_carrier_overlap_rejected(self):
        with pytest.raises(ValueError):
            SidebandLabel(4e4, 1e5)

    def test_state_rejects_colliding_labels(self):
        labels = (SidebandLabel(6.8e6, 1e5), SidebandLabel(6.82e6, 1e5))
        with pytest.raises(LabelCollisionError):
            vacuum(labels)

    def test_nan_offset_rejected(self):
        with pytest.raises(ValueError):
            SidebandLabel(float("nan"), 1e5)

    @given(
        labels=st.lists(
            st.builds(
                SidebandLabel,
                # Grid offsets and widths make bands that exactly touch common.
                offset_hz=st.builds(
                    lambda sign, hz: sign * hz,
                    st.sampled_from([-1.0, 1.0]),
                    st.integers(20, 400).map(lambda k: k * 5e3) | st.floats(1e5, 2e6),
                ),
                rbw_hz=st.sampled_from([1e4, 2e4, 5e4, 1e5, 1.5e5]) | st.floats(1e3, 1.5e5),
                path=st.sampled_from(["", "t", "r"]),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_state_rejects_exactly_the_overlapping_label_sets(self, labels):
        collides = any(a.overlaps(b) for i, a in enumerate(labels) for b in labels[i + 1:])
        n = 2 * len(labels)
        if collides:
            with pytest.raises(LabelCollisionError):
                GaussianState(tuple(labels), np.zeros(n), np.eye(n))
        else:
            assert GaussianState(tuple(labels), np.zeros(n), np.eye(n)).n_modes == len(labels)


class TestStateBasics:
    def test_vacuum_cov_is_identity(self):
        state = vacuum(3)
        assert np.array_equal(state.cov, np.eye(6))
        assert np.array_equal(state.mean, np.zeros(6))

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 0.5
        with pytest.raises(InvalidStateError):
            GaussianState(
                labels=(SidebandLabel(1e6, 1e3),), mean=np.zeros(2), cov=cov
            )

    def test_validate_flags_unphysical_cov(self):
        state = GaussianState(
            labels=(SidebandLabel(1e6, 1e3),),
            mean=np.zeros(2),
            cov=0.5 * np.eye(2),  # squeezed in both quadratures at once
        )
        with pytest.raises(InvalidStateError):
            state.validate()

    def test_states_are_immutable(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 2.0

    def test_reduced_marginal(self):
        state = two_mode_epr(1.0)
        sub = state.reduced([1])
        assert sub.n_modes == 1
        assert np.allclose(sub.cov, state.cov[2:, 2:])


class TestSymplecticOps:
    def test_rotation_squeeze_bs_are_symplectic(self):
        for op in [
            rotation_op(2, 0, 0.7),
            squeeze_op(2, 1, 0.9, angle=0.3),
            beamsplitter_op(2, 0, 1, 0.37, phase=1.1),
        ]:
            assert op.symplectic_defect() < 1e-10

    def test_rotation_moves_squeezing_axis(self):
        state = apply_squeeze(vacuum(1), 0, 0.5)
        rot = apply_rotation(state, 0, np.pi / 2)
        assert rot.cov[0, 0] == pytest.approx(np.exp(1.0), rel=1e-12)
        assert rot.cov[1, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_full_reflectivity_swaps_modes(self):
        state = apply_squeeze(vacuum(2), 0, 0.8)
        swapped = apply_two_mode_bs(state, 0, 1, reflectivity=1.0)
        assert np.allclose(swapped.cov[2:, 2:], state.cov[:2, :2])
        assert np.allclose(swapped.cov[:2, :2], np.eye(2))

    def test_balanced_bs_cross_covariance(self):
        # Oracle: build the 4x4 transform by hand and conjugate explicitly.
        r = 0.7
        v_sq, v_anti = np.exp(-2 * r), np.exp(2 * r)
        cov_in = np.diag([v_sq, v_anti, v_anti, v_sq])
        tau = np.sqrt(0.5)
        m = np.array(
            [
                [tau, 0, tau, 0],
                [0, tau, 0, tau],
                [-tau, 0, tau, 0],
                [0, -tau, 0, tau],
            ]
        )
        expected = m @ cov_in @ m.T

        state = GaussianState(
            labels=(SidebandLabel(1e6, 1e3), SidebandLabel(2e6, 1e3)),
            mean=np.zeros(4),
            cov=cov_in,
        )
        out = apply_two_mode_bs(state, 0, 1, reflectivity=0.5)
        assert np.allclose(out.cov, expected, atol=1e-12)
        assert abs(out.cov[0, 2]) == pytest.approx((v_anti - v_sq) / 2, rel=1e-12)

    def test_lossless_ops_preserve_trace(self):
        state = two_mode_epr(0.9)
        tr = np.trace(state.cov)
        state2 = apply_rotation(state, 0, 1.2)
        state3 = apply_two_mode_bs(state2, 0, 1, 0.3, phase=0.4)
        assert np.trace(state3.cov) == pytest.approx(tr, rel=1e-12)

    def test_mode_unitary_requires_unitary(self):
        with pytest.raises(ValueError):
            mode_unitary_op(np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_complex_phase_acts_as_rotation(self):
        state = apply_squeeze(vacuum(1), 0, 0.5)
        theta = 0.61
        via_unitary = apply_mode_unitary(state, np.array([[np.exp(1j * theta)]]))
        via_rotation = apply_rotation(state, 0, theta)
        assert np.allclose(via_unitary.cov, via_rotation.cov, atol=1e-12)

    @given(
        theta=st.floats(-np.pi, np.pi),
        r=st.floats(0.0, 2.0),
        refl=st.floats(0.0, 1.0),
        phase=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_symplectic_form_preserved(self, theta, r, refl, phase):
        m = (
            beamsplitter_op(2, 0, 1, refl, phase).matrix
            @ squeeze_op(2, 0, r).matrix
            @ rotation_op(2, 1, theta).matrix
        )
        s = symplectic_form(2)
        assert np.max(np.abs(m @ s @ m.T - s)) < 1e-10


class TestLoss:
    def test_loss_pulls_variance_toward_vacuum(self):
        state = apply_squeeze(vacuum(1), 0, -0.5 * np.log(0.25))  # V_X = 0.25
        assert state.cov[0, 0] == pytest.approx(0.25, rel=1e-12)
        lossy = apply_loss(state, 0, 0.5)
        assert lossy.cov[0, 0] == pytest.approx(0.625, rel=1e-12)

    def test_loss_composition(self):
        state = two_mode_epr(1.1)
        a = apply_loss(apply_loss(state, 0, 0.7), 0, 0.6)
        b = apply_loss(state, 0, 0.42)
        assert np.max(np.abs(a.cov - b.cov)) < 1e-12

    def test_full_loss_yields_vacuum_mode(self):
        state = two_mode_epr(1.0)
        dead = apply_loss(state, 1, 0.0)
        assert np.allclose(dead.cov[2:, 2:], np.eye(2), atol=1e-12)
        assert np.allclose(dead.cov[:2, 2:], 0.0, atol=1e-12)

    def test_loss_scales_mean(self):
        state = GaussianState(
            labels=(SidebandLabel(1e6, 1e3),),
            mean=np.array([2.0, -1.0]),
            cov=np.eye(2),
        )
        lossy = apply_loss(state, 0, 0.49)
        assert np.allclose(lossy.mean, [1.4, -0.7])

    @given(
        eta1=st.floats(0.0, 1.0),
        eta2=st.floats(0.0, 1.0),
        r=st.floats(0.0, 1.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_loss_keeps_state_physical(self, eta1, eta2, r):
        state = apply_loss(apply_loss(two_mode_epr(r), 0, eta1), 1, eta2)
        state.validate(tol=1e-9)


def numbered_labels(count):
    return tuple(SidebandLabel((k + 1) * 1e6, 1e3) for k in range(count))


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    """Thermal modes, squeezed along random axes, mixed and displaced."""
    nu = np.repeat(1.0 + rng.exponential(0.5, n), 2)
    state = GaussianState(numbered_labels(n), rng.normal(0.0, 2.0, 2 * n), np.diag(nu))
    for mode in range(n):
        r, angle = rng.uniform(0.0, 1.2), rng.uniform(0.0, np.pi)
        state = apply_squeeze(state, mode, r, angle)
    return apply_mode_unitary(state, random_unitary(rng, n))


def unitary_dilation(state, transfer):
    """Output of the contraction ``transfer`` as part of a unitary on more modes.

    With ``A`` the transfer padded to k x k and ``A = W S V^dagger``, the
    unitary ``[[A, W C W^dagger], [V C V^dagger, -A^dagger]]``,
    ``C = sqrt(1 - S^2)``, acts on the input modes, vacuum padding and k
    vacuum ancillas; the first m modes of its output are the channel's.
    """
    m, n = transfer.shape
    k = max(m, n)
    a = np.zeros((k, k), dtype=complex)
    a[:m, :n] = transfer
    w, s, vh = np.linalg.svd(a)
    c = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    d_out = (w * c) @ w.conj().T
    d_in = (vh.conj().T * c) @ vh
    u = np.block([[a, d_out], [d_in, -a.conj().T]])
    big = attach_vacuum(state, numbered_labels(2 * k)[n:])
    return apply_mode_unitary(big, u).reduced(range(m))


class TestPassive:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 4),
        norm=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_its_unitary_dilation(self, seed, n, m, norm):
        rng = np.random.default_rng(seed)
        state = random_state(rng, n)
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        transfer = norm * g / np.linalg.svd(g, compute_uv=False)[0]
        out = apply_passive(state, transfer, numbered_labels(m))
        ref = unitary_dilation(state, transfer)
        assert out.labels == ref.labels
        scale = max(1.0, float(np.max(np.abs(ref.cov))))
        assert np.max(np.abs(out.cov - ref.cov)) <= 1e-12 * scale
        assert np.max(np.abs(out.mean - ref.mean)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(ref.mean)))
        )
        out.validate()

    def test_identity_leaves_state_unchanged_bit_for_bit(self):
        state = random_state(np.random.default_rng(3), 3)
        out = apply_passive(state, np.eye(3), state.labels)
        np.testing.assert_array_equal(out.cov, state.cov)
        np.testing.assert_array_equal(out.mean, state.mean)

    @pytest.mark.parametrize(
        "transfer",
        [
            [[1.0, 0.0], [0.0, 1.0 + 1e-6]],
            # Each entry is below 1, but the two inputs add up in one output.
            [[0.8, 0.8]],
            [[0.6], [0.6j], [0.6]],
        ],
    )
    def test_non_contraction_rejected(self, transfer):
        transfer = np.array(transfer)
        state = random_state(np.random.default_rng(4), transfer.shape[1])
        with pytest.raises(ValueError, match="contraction"):
            apply_passive(state, transfer, numbered_labels(transfer.shape[0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_passive(vacuum(2), np.eye(3), numbered_labels(3))
        with pytest.raises(ValueError):
            apply_passive(vacuum(2), np.eye(2), numbered_labels(3))


class TestProjection:
    def test_vacuum_projection_is_unity(self):
        state = vacuum(2)
        c = np.zeros(4)
        c[0] = 1.0
        assert project_quadrature(state, c) == 1.0
        c = np.array([0.5, 0.5, 0.5, 0.5])
        assert project_quadrature(state, c) == pytest.approx(1.0, abs=1e-12)

    def test_epr_difference_quadrature(self):
        r = 0.8
        state = two_mode_epr(r)
        c = np.zeros(4)
        c[0], c[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        # Oracle: direct quadratic form on the frozen covariance.
        expected = float(c @ state.cov @ c)
        assert project_quadrature(state, c) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(np.exp(-2 * r), rel=1e-10)

    def test_unnormalized_vector_rejected(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            project_quadrature(state, np.array([1.0, 1.0]))

    def test_orthogonal_sum_quadrature(self):
        r = 0.8
        state = two_mode_epr(r)
        c = np.zeros(4)
        c[1], c[3] = 1 / np.sqrt(2), 1 / np.sqrt(2)
        assert project_quadrature(state, c) == pytest.approx(np.exp(-2 * r), rel=1e-10)


class TestSymplecticSpectrum:
    def test_vacuum_spectrum(self):
        assert np.allclose(symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])

    def test_thermal_spectrum(self):
        assert symplectic_eigenvalues(3.0 * np.eye(2))[0] == pytest.approx(3.0)

    def test_squeezed_vacuum_stays_minimum_uncertainty(self):
        cov = np.diag([0.1, 10.0])
        assert symplectic_eigenvalues(cov)[0] == pytest.approx(1.0, rel=1e-10)


class TestPartialTranspose:
    def test_epr_min_eigenvalue_equals_squeezed_variance(self):
        for r in [0.2, 0.7, 1.3]:
            state = two_mode_epr(r)
            nu = ppt_min_symplectic_eigenvalue(state, [0], [1])
            assert nu == pytest.approx(np.exp(-2 * r), rel=1e-9)

    def test_product_state_not_flagged(self):
        state = apply_squeeze(vacuum(2), 0, 0.5)
        nu = ppt_min_symplectic_eigenvalue(state, [0], [1])
        assert nu >= 1.0 - 1e-9

    def test_symmetric_under_choice_of_part(self):
        state = two_mode_epr(0.9)
        nu_a = ppt_min_symplectic_eigenvalue(state, [0], [1])
        nu_b = ppt_min_symplectic_eigenvalue(state, [1], [0])
        assert nu_a == pytest.approx(nu_b, rel=1e-10)

    def test_invalid_state_rejected(self):
        state = GaussianState(
            labels=(SidebandLabel(1e6, 1e3), SidebandLabel(2e6, 1e3)),
            mean=np.zeros(4),
            cov=0.3 * np.eye(4),
        )
        with pytest.raises(InvalidStateError):
            ppt_min_symplectic_eigenvalue(state, [0], [1])

    def test_bad_partitions_rejected(self):
        state = two_mode_epr(0.5)
        with pytest.raises(ValueError):
            ppt_min_symplectic_eigenvalue(state, [0], [0])
        with pytest.raises(ValueError):
            ppt_min_symplectic_eigenvalue(state, [0], [])

    def test_duan_violation_implies_npt(self):
        # Fixed-axis inseparability below 1 must always come with nu < 1.
        # Counter-rotating the two modes keeps the correlated axes aligned
        # with X/Xp, so the fixed-axis combination stays informative.
        rng = np.random.default_rng(7)
        diff = np.zeros(4)
        summ = np.zeros(4)
        diff[0], diff[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        summ[1], summ[3] = 1 / np.sqrt(2), 1 / np.sqrt(2)
        hits = 0
        for _ in range(1000):
            state = two_mode_epr(rng.uniform(0.0, 1.5))
            theta = rng.uniform(-0.4, 0.4)
            state = apply_rotation(state, 0, theta)
            state = apply_rotation(state, 1, -theta)
            state = apply_loss(state, 0, rng.uniform(0.3, 1.0))
            state = apply_loss(state, 1, rng.uniform(0.3, 1.0))
            i_val = 0.5 * (
                float(diff @ state.cov @ diff) + float(summ @ state.cov @ summ)
            )
            if i_val < 1:
                hits += 1
                nu = ppt_min_symplectic_eigenvalue(state, [0], [1])
                assert nu < 1.0
        assert hits > 100  # the scan must actually exercise entangled states


class TestAttachVacuum:
    def test_attach_extends_with_identity(self):
        state = two_mode_epr(0.6)
        big = attach_vacuum(state, [SidebandLabel(9e6, 1e3)])
        assert big.n_modes == 3
        assert np.allclose(big.cov[:4, :4], state.cov)
        assert np.allclose(big.cov[4:, 4:], np.eye(2))
        assert np.allclose(big.cov[:4, 4:], 0.0)

    def test_mode_lookup_by_offset_and_path(self):
        labels = (
            SidebandLabel(-6.8e6, 1e5, path="t"),
            SidebandLabel(-6.8e6, 1e5, path="r"),
        )
        state = vacuum(labels)
        assert state.mode_index(-6.8e6, path="r") == 1
        with pytest.raises(KeyError):
            state.mode_index(6.8e6)
