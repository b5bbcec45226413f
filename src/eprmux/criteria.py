"""Entanglement criteria: two-party inseparability, EPR product, and fits.

All quantities follow the vacuum-unit convention of :mod:`eprmux.gaussian`.
The inseparability of a pair of fields is

    I = ( V(X_A - X_B) + V(Xp_A + Xp_B) ) / 4,

entangled below 1, with the quadrature angles chosen to minimize
``V(X_A - X_B)``.  The EPR product is

    E = min_g V(X_A - g X_B) * min_gp V(Xp_A + gp Xp_B),

demonstrating the paradox below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, ppt_min_symplectic_eigenvalue
from .optics import ChainResult, ChainScenario, HomodyneChannel, OpaSource, PerfectSplitter, run_chain

__all__ = [
    "InfeasibleTargetError",
    "JointSecondMoments",
    "EntanglementReport",
    "OptimalAngles",
    "duan_inseparability",
    "reid_epr",
    "extract_moments",
    "optimize_duan_angles",
    "evaluate_chain",
    "evaluate_scenario",
    "FitResult",
    "fit_to_measurements",
    "epr_product_from_variances",
    "lumped_channel_scenario",
]


class InfeasibleTargetError(ValueError):
    """Requested measurement targets lie outside the model's reach."""


@dataclass(frozen=True)
class JointSecondMoments:
    """Second moments of the four measured quadratures (X_A, Xp_A, X_B, Xp_B).

    ``c_x`` is Cov(X_A, X_B) and ``c_xp`` is Cov(Xp_A, Xp_B); the full 4x4
    matrix, when present, uses the ordering above.
    """

    v_xa: float
    v_xpa: float
    v_xb: float
    v_xpb: float
    c_x: float
    c_xp: float
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("v_xa", "v_xpa", "v_xb", "v_xpb"):
            if not getattr(self, name) > 0:
                raise ValueError(f"variance {name} must be positive")
        tol = 1e-9
        if self.c_x**2 > self.v_xa * self.v_xb * (1 + tol):
            raise ValueError("c_x violates the Cauchy-Schwarz bound")
        if self.c_xp**2 > self.v_xpa * self.v_xpb * (1 + tol):
            raise ValueError("c_xp violates the Cauchy-Schwarz bound")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (4, 4):
                raise ValueError(f"moments matrix must be 4x4, got {m.shape}")
            if np.max(np.abs(m - m.T)) > 1e-9 * max(1.0, np.max(np.abs(m))):
                raise ValueError("moments matrix must be symmetric")
            eigs = np.linalg.eigvalsh((m + m.T) / 2)
            if eigs.min() < -1e-9 * max(1.0, eigs.max()):
                raise ValueError("moments matrix is not positive semidefinite")
            m = (m + m.T) / 2
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)


def duan_inseparability(moments: JointSecondMoments) -> float:
    """Inseparability I of the measured pair; entangled below 1."""
    v_diff = moments.v_xa + moments.v_xb - 2.0 * moments.c_x
    v_sum = moments.v_xpa + moments.v_xpb + 2.0 * moments.c_xp
    return 0.25 * (v_diff + v_sum)


def reid_epr(moments: JointSecondMoments) -> tuple[float, float, float]:
    """EPR product with optimal inference gains.

    Returns:
        ``(E, gain_x, gain_xp)`` where gain_x minimizes
        ``V(X_A - g X_B)`` and gain_xp minimizes ``V(Xp_A + g Xp_B)``.
    """
    gain_x = moments.c_x / moments.v_xb
    var_x = moments.v_xa - moments.c_x**2 / moments.v_xb
    gain_xp = -moments.c_xp / moments.v_xpb
    var_xp = moments.v_xpa - moments.c_xp**2 / moments.v_xpb
    return var_x * var_xp, gain_x, gain_xp


def epr_product_from_variances(v_sq: float, v_anti: float) -> float:
    """E of a symmetric pair with given squeezed/antisqueezed variances.

    For a symmetric two-party state the conditional variance equals
    ``v_sq * v_anti / mean``, so ``E = (v_sq * v_anti / mean)**2`` with
    ``mean = (v_sq + v_anti) / 2``.
    """
    mean_v = (v_sq + v_anti) / 2.0
    return (v_sq * v_anti / mean_v) ** 2


def _rot90(coeffs: np.ndarray) -> np.ndarray:
    out = np.empty_like(coeffs)
    out[0::2] = -coeffs[1::2]
    out[1::2] = coeffs[0::2]
    return out


def _check_site(u: np.ndarray, v: np.ndarray, name: str) -> None:
    for c in (u, v):
        if abs(float(c @ c) - 1.0) > 1e-9:
            raise ValueError(f"{name} projections must be normalized")
    ju = _rot90(u)
    if min(np.max(np.abs(v - ju)), np.max(np.abs(v + ju))) > 1e-9:
        raise ValueError(
            f"{name} X and Xp projections are not orthogonal quadratures"
        )


def extract_moments(
    state: GaussianState,
    alice_x: np.ndarray,
    alice_xp: np.ndarray,
    bob_x: np.ndarray,
    bob_xp: np.ndarray,
) -> JointSecondMoments:
    """Second moments of four quadrature projections on one state.

    The two projections of each site must be normalized orthogonal
    quadratures (the Xp vector equal to the X vector rotated by 90 degrees
    in every mode's phase space, up to overall sign).
    """
    _check_site(alice_x, alice_xp, "alice")
    _check_site(bob_x, bob_xp, "bob")
    basis = np.stack([alice_x, alice_xp, bob_x, bob_xp])
    m = basis @ state.cov @ basis.T
    return JointSecondMoments(
        v_xa=float(m[0, 0]),
        v_xpa=float(m[1, 1]),
        v_xb=float(m[2, 2]),
        v_xpb=float(m[3, 3]),
        c_x=float(m[0, 2]),
        c_xp=float(m[1, 3]),
        matrix=m,
    )


@dataclass(frozen=True)
class OptimalAngles:
    """Result of the quadrature-angle optimization.

    ``v_diff`` is the minimized difference variance ``V(X_A - X_B)`` of the
    two unit-normalized site quadratures; two vacua give 2.
    """

    theta_a: float
    theta_b: float
    v_diff: float


def optimize_duan_angles(
    cov: np.ndarray,
    site_a: tuple[np.ndarray, np.ndarray],
    site_b: tuple[np.ndarray, np.ndarray],
) -> OptimalAngles:
    """Quadrature angles minimizing V(X_A - X_B), in closed form.

    Args:
        cov: Covariance matrix of the measured state.
        site_a, site_b: Pairs ``(u0, u1)`` of projection vectors at angle 0
            and 90 degrees for each site; the projection at angle t is
            ``cos(t) u0 + sin(t) u1``.

    The difference variance is the quadratic form ``q = g^T cov g`` in
    ``(cos ta, sin ta, cos tb, sin tb)``.  A stationary sideband pair gives
    it the structure ``q00 = q11``, ``q22 = q33``, ``q01 = q23 = 0``,
    ``q13 = -q02`` and ``q12 = q03`` (the circularity that
    :func:`eprmux.mcdsp.build_synthesis_spec` also asserts), so that

        V(ta, tb) = q00 + q22 + 2 (q02 cos(ta + tb) + q03 sin(ta + tb)).

    The minimum ``q00 + q22 - 2 hypot(q02, q03)`` is reached on the whole
    valley ``ta + tb = s`` with ``s = (atan2(q03, q02) + pi) mod 2 pi``;
    the reported point is ``ta = tb = s / 2``, both in ``[0, pi)``.  I, E
    and the inference gains are the same everywhere on the valley.

    Raises:
        ValueError: if ``q`` lacks the stationary-pair structure, naming
            the largest defect.
    """
    g = np.stack([site_a[0], site_a[1], -site_b[0], -site_b[1]], axis=1)
    q = g.T @ np.asarray(cov, dtype=float) @ g
    defects = {
        "q00 != q11": abs(q[0, 0] - q[1, 1]),
        "q22 != q33": abs(q[2, 2] - q[3, 3]),
        "q01 != 0": abs(q[0, 1]),
        "q23 != 0": abs(q[2, 3]),
        "q13 != -q02": abs(q[1, 3] + q[0, 2]),
        "q12 != q03": abs(q[1, 2] - q[0, 3]),
    }
    worst = max(defects, key=defects.get)
    if defects[worst] > 1e-9 * max(1.0, float(np.max(np.abs(q)))):
        raise ValueError(
            f"difference variance lacks the stationary-pair structure: {worst} "
            f"(defect {defects[worst]:.3e})"
        )
    valley = (math.atan2(q[0, 3], q[0, 2]) + math.pi) % (2.0 * math.pi)
    v_diff = q[0, 0] + q[2, 2] - 2.0 * math.hypot(q[0, 2], q[0, 3])
    return OptimalAngles(
        theta_a=valley / 2.0, theta_b=valley / 2.0, v_diff=float(v_diff)
    )


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement figures of one evaluated channel."""

    inseparability: float
    epr_product: float
    gain_x: float
    gain_xp: float
    theta_a: float
    theta_b: float
    effective_v_sq: float
    effective_v_anti: float
    ppt_eigenvalue: float
    moments: JointSecondMoments


def evaluate_chain(result: ChainResult) -> EntanglementReport:
    """Entanglement report for a propagated chain.

    The local-oscillator phases of both sites are first tuned to minimize
    ``V(X_A - X_B)`` by :func:`optimize_duan_angles`; the reported angles
    are offsets from the scenario's LO phases, at the documented point
    ``theta_a = theta_b`` of the optimal valley.
    """
    state = result.state
    best = optimize_duan_angles(
        state.cov,
        (result.alice_x, result.alice_xp),
        (result.bob_x, result.bob_xp),
    )
    ta, tb = best.theta_a, best.theta_b
    a_x = math.cos(ta) * result.alice_x + math.sin(ta) * result.alice_xp
    a_xp = -math.sin(ta) * result.alice_x + math.cos(ta) * result.alice_xp
    b_x = math.cos(tb) * result.bob_x + math.sin(tb) * result.bob_xp
    b_xp = -math.sin(tb) * result.bob_x + math.cos(tb) * result.bob_xp
    moments = extract_moments(state, a_x, a_xp, b_x, b_xp)
    epr, gain_x, gain_xp = reid_epr(moments)
    mean_x = (moments.v_xa + moments.v_xb) / 2.0
    modes_a = tuple(result.alice_modes)
    modes_b = tuple(result.bob_modes)
    reduced = state.reduced(modes_a + modes_b)
    nu = ppt_min_symplectic_eigenvalue(
        reduced, range(len(modes_a)), range(len(modes_a), len(modes_a) + len(modes_b))
    )
    return EntanglementReport(
        inseparability=duan_inseparability(moments),
        epr_product=epr,
        gain_x=gain_x,
        gain_xp=gain_xp,
        theta_a=ta,
        theta_b=tb,
        effective_v_sq=mean_x - moments.c_x,
        effective_v_anti=mean_x + moments.c_x,
        ppt_eigenvalue=nu,
        moments=moments,
    )


def evaluate_scenario(scenario: ChainScenario) -> EntanglementReport:
    """Run a chain scenario and evaluate the entanglement criteria."""
    return evaluate_chain(run_chain(scenario))


def lumped_channel_scenario(
    pump_parameter: float,
    efficiency: float,
    center_hz: float = 7e6,
    demod_hz: float = 2e5,
    rbw_hz: float = 1e5,
) -> ChainScenario:
    """Symmetric single-channel scenario used by the measurement fit.

    A frequency-flat effective source and an ideal frequency router keep the
    two parties exactly symmetric, so the lumped ``efficiency`` is the only
    imperfection.  LOs sit at -/+``center_hz`` and both parties demodulate
    at ``demod_hz``.
    """
    source = OpaSource(
        pump_parameter=pump_parameter, cavity_hwhm_hz=math.inf, efficiency=1.0
    )
    alice = HomodyneChannel(
        lo_shift_hz=-center_hz, demod_freq_hz=demod_hz, efficiency=efficiency
    )
    bob = HomodyneChannel(
        lo_shift_hz=+center_hz, demod_freq_hz=demod_hz, efficiency=efficiency
    )
    return ChainScenario(
        source=source,
        omega1_hz=center_hz - demod_hz,
        omega2_hz=center_hz + demod_hz,
        alice=alice,
        bob=bob,
        splitter=PerfectSplitter(center_hz=-center_hz, halfwidth_hz=5 * demod_hz),
        rbw_hz=rbw_hz,
    )


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting the model to measured (I, E) values."""

    pump_parameter: float
    efficiency: float
    scenario: ChainScenario
    report: EntanglementReport
    residual: float


# Residual norm the measurement fit meets on its whole domain.
_FIT_TOL = 1e-6
# Largest pump parameter the fit reaches: a pure-source squeezed variance of
# about -46 dB.  A seeded sweep of fit targets meets _FIT_TOL up to this cap;
# from about 0.999 on the pure state fails GaussianState.validate.
_PUMP_MAX = 0.99
# Pure-source squeezed variance at the cap, the least inseparability fitted.
_V_SQ_MIN = ((1.0 - _PUMP_MAX) / (1.0 + _PUMP_MAX)) ** 2


def _edge_tol(bound: float) -> float:
    """How far outside ``bound`` a fit target may lie and be moved onto it.

    A millionth of the bound covers the forward model's rounding (6e-10 of
    the I floor at the cap).  An absolute 1e-9 alone would accept a target a
    third below the pure-state floor near the I floor, where E is about 3e-9.
    """
    return min(1e-9, 1e-6 * bound)


def _feasibility_bounds(target_i: float) -> tuple[float, float]:
    """Attainable E band ``[e_pure, e_cap]`` at inseparability ``target_i``.

    The fit's domain is the pump ``x`` in ``[0, _PUMP_MAX]`` and the lumped
    efficiency ``eta`` in ``(0, 1]``.  With the pure-source variance
    ``v_sq0(x) = ((1 - x) / (1 + x))**2`` the model gives
    ``I = 1 - eta (1 - v_sq0)``, so ``I`` spans ``[v_sq0(_PUMP_MAX), 1]``.
    At fixed ``I``, E rises with the pump: the pure source (``eta = 1``,
    ``v_anti = 1 / I``) gives the floor ``e_pure = (2 I / (1 + I**2))**2``,
    and the capped pump with ``eta(I) = (1 - I) / (1 - v_sq0(_PUMP_MAX))``,
    i.e. ``v_anti = 1 + (1 - I) / v_sq0(_PUMP_MAX)``, gives the top.
    """
    e_pure = (2.0 * target_i / (1.0 + target_i**2)) ** 2
    e_cap = epr_product_from_variances(target_i, 1.0 + (1.0 - target_i) / _V_SQ_MIN)
    return e_pure, e_cap


def fit_to_measurements(target_i: float, target_e: float) -> FitResult:
    """Pump parameter and lumped efficiency reproducing (I, E), in closed form.

    Under the symmetric lumped-loss model of :func:`lumped_channel_scenario`
    ``I`` is the effective squeezed variance and
    ``sqrt(E) = 2 I v_anti / (I + v_anti)``.  With ``a = 1 - I`` and
    ``b = v_anti - 1`` the loss enters both as ``a = eta (1 - v_sq0)`` and
    ``b = eta (1 / v_sq0 - 1)``, so ``v_sq0 = a / b`` and

        x = (sqrt(b) - sqrt(a)) / (sqrt(b) + sqrt(a)),    eta = a b / (b - a).

    ``b = (sqrt(E) (1 + I) - 2 I) / (2 I - sqrt(E))`` keeps its accuracy
    at both edges of the E band.  At the pure-state floor ``b = a / I``,
    where ``b - a`` can round away, the fit is the pure source ``eta = 1``,
    ``x = a / (1 + sqrt(I))**2`` (the vacuum at ``I = 1``).  The domain is
    the one of :func:`_feasibility_bounds`; a target outside it by less
    than :func:`_edge_tol` of the bound it breaks is moved onto that bound.
    One forward evaluation gives the report and the residual, which stays
    below ``_FIT_TOL`` on the whole domain.

    Raises:
        InfeasibleTargetError: if the target lies outside the domain, naming
            the bound it breaks.
    """
    if not _V_SQ_MIN - _edge_tol(_V_SQ_MIN) <= target_i <= 1.0 + _edge_tol(1.0):
        raise InfeasibleTargetError(
            f"inseparability target must lie in [{_V_SQ_MIN:.6g}, 1], got "
            f"{target_i}; the floor is the pure source at the pump cap "
            f"{_PUMP_MAX} ({-10.0 * math.log10(_V_SQ_MIN):.1f} dB)"
        )
    i = min(max(target_i, _V_SQ_MIN), 1.0)
    e_lo, e_hi = _feasibility_bounds(i)
    if not e_lo - _edge_tol(e_lo) <= target_e <= e_hi + _edge_tol(e_hi):
        if i == 1.0:
            raise InfeasibleTargetError(
                "inseparability 1 admits only the vacuum with E = 1"
            )
        bound = (
            f"below the pure-state floor {e_lo:.6g}"
            if target_e < e_lo
            else f"above the ceiling {e_hi:.6g} of the pump cap {_PUMP_MAX}"
        )
        raise InfeasibleTargetError(
            f"EPR target {target_e} outside the attainable range "
            f"[{e_lo:.6g}, {e_hi:.6g}] at inseparability {target_i}: {bound}"
        )
    root_e = math.sqrt(min(max(target_e, e_lo), e_hi))
    a = 1.0 - i
    b = (root_e * (1.0 + i) - 2.0 * i) / (2.0 * i - root_e)
    if b - a > a * b:
        eta = a * b / (b - a)
        x = (math.sqrt(b) - math.sqrt(a)) / (math.sqrt(b) + math.sqrt(a))
    else:
        # The pure-state floor, where b - a rounds away; I = 1 is the vacuum.
        eta = 1.0
        x = a / (1.0 + math.sqrt(i)) ** 2
    scenario = lumped_channel_scenario(x, eta)
    report = evaluate_scenario(scenario)
    return FitResult(
        pump_parameter=x,
        efficiency=eta,
        scenario=scenario,
        report=report,
        residual=math.hypot(
            report.inseparability - target_i, report.epr_product - target_e
        ),
    )
