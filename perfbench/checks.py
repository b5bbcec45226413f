"""Reference computations the benchmark holds eprmux's outputs against.

Nothing here imports eprmux.  Every function restates a quantity from its
definition (a brute-force search, a closed form of the lumped-loss model,
the packing formula of the planner) so that a fault in the program cannot
hide inside its own reference.  Each ``*_problems`` function returns a list
of human-readable problems; an empty list means the output passed.

Conventions follow the package: quadratures are interleaved
``(x1, p1, x2, p2, ...)``, vacuum variance is 1, and a site's quadrature at
angle ``t`` is ``cos(t) u0 + sin(t) u1`` for its 0 and 90 degree projection
vectors ``(u0, u1)``.
"""

from __future__ import annotations

import math

import numpy as np

# A reported criterion that misses the brute-force optimum by more than this
# is wrong.  Correct chains agree to about 1e-12; the angle-reduction fault
# misses by 1e-3 or more.
CRITERION_TOL = 1e-6
# The fit stops once the residual norm is below 1e-6.
FIT_TOL = 1e-6
# Closed forms and the planner's own arithmetic agree to rounding.
EXACT_TOL = 1e-9
# A Monte-Carlo trial further than this many of its own standard errors
# from the closed form is wrong; a correct estimator gets there with
# probability below 1e-14 per trial.
MC_SIGMAS = 8.0


def symplectic_form(n_modes: int) -> np.ndarray:
    s = np.zeros((2 * n_modes, 2 * n_modes))
    idx = np.arange(n_modes)
    s[2 * idx, 2 * idx + 1] = 1.0
    s[2 * idx + 1, 2 * idx] = -1.0
    return s


def min_uncertainty_eigenvalue(cov: np.ndarray) -> float:
    """Smallest eigenvalue of ``cov + iS``; a physical state has it >= 0."""
    cov = np.asarray(cov, dtype=float)
    return float(np.linalg.eigvalsh(cov + 1j * symplectic_form(cov.shape[0] // 2)).min())


def _site(u0: np.ndarray, u1: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = math.cos(t), math.sin(t)
    return c * u0 + s * u1, -s * u0 + c * u1


def brute_force_angles(
    cov: np.ndarray,
    site_a: tuple[np.ndarray, np.ndarray],
    site_b: tuple[np.ndarray, np.ndarray],
    grid: int = 360,
    zooms: int = 8,
) -> tuple[float, float, float]:
    """Minimum of ``V(X_A - X_B)`` over ``[0, 2pi)^2`` by exhaustive search.

    A full grid over both angles, then repeated finer grids around the best
    point, each spanning two cells of the previous one.  Returns
    ``(v_min, theta_a, theta_b)``.
    """
    g = np.stack([site_a[0], site_a[1], -site_b[0], -site_b[1]], axis=1)
    q = g.T @ np.asarray(cov, dtype=float) @ g

    def values(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
        w = np.stack(np.broadcast_arrays(np.cos(ta), np.sin(ta), np.cos(tb), np.sin(tb)), -1)
        return np.einsum("...i,ij,...j->...", w, q, w)

    step = 2.0 * math.pi / grid
    axis = np.arange(grid) * step
    v = values(axis[:, None], axis[None, :])
    i, j = np.unravel_index(np.argmin(v), v.shape)
    ta, tb = float(axis[i]), float(axis[j])
    for _ in range(zooms):
        local = np.linspace(-step, step, 21)
        v = values(ta + local[:, None], tb + local[None, :])
        i, j = np.unravel_index(np.argmin(v), v.shape)
        ta, tb = ta + float(local[i]), tb + float(local[j])
        step /= 10.0
    return float(values(np.array(ta), np.array(tb))), ta, tb


def criteria_at(
    cov: np.ndarray,
    site_a: tuple[np.ndarray, np.ndarray],
    site_b: tuple[np.ndarray, np.ndarray],
    theta_a: float,
    theta_b: float,
) -> tuple[float, float]:
    """Inseparability and EPR product with the two sites at the given angles.

    ``I = (V(X_A - X_B) + V(Xp_A + Xp_B)) / 4`` (Duan et al., PRL 84, 2722)
    and ``E = min_g V(X_A - g X_B) * min_g V(Xp_A + g Xp_B)`` (Reid, PRA 40,
    913), each minimum taken in closed form over the inference gain.
    """
    cov = np.asarray(cov, dtype=float)
    xa, pa = _site(*site_a, theta_a)
    xb, pb = _site(*site_b, theta_b)
    d, s = xa - xb, pa + pb
    insep = 0.25 * (d @ cov @ d + s @ cov @ s)
    cond_x = xa @ cov @ xa - (xa @ cov @ xb) ** 2 / (xb @ cov @ xb)
    cond_p = pa @ cov @ pa - (pa @ cov @ pb) ** 2 / (pb @ cov @ pb)
    return float(insep), float(cond_x * cond_p)


def chain_reference(
    cov: np.ndarray,
    site_a: tuple[np.ndarray, np.ndarray],
    site_b: tuple[np.ndarray, np.ndarray],
) -> dict:
    """Brute-force optimum criteria and physicality of one detector state."""
    _, ta, tb = brute_force_angles(cov, site_a, site_b)
    insep, epr = criteria_at(cov, site_a, site_b, ta, tb)
    return {
        "inseparability": insep,
        "epr_product": epr,
        "min_uncertainty_eigenvalue": min_uncertainty_eigenvalue(cov),
    }


def chain_problems(
    inseparability: float, epr_product: float, ppt_eigenvalue: float, reference: dict
) -> list[str]:
    """Compare one evaluated chain with its brute-force reference."""
    problems = []
    if abs(inseparability - reference["inseparability"]) > CRITERION_TOL:
        problems.append(
            f"I = {inseparability!r}, brute force over [0, 2pi)^2 gives "
            f"{reference['inseparability']!r}"
        )
    if abs(epr_product - reference["epr_product"]) > CRITERION_TOL * max(1.0, abs(epr_product)):
        problems.append(
            f"E = {epr_product!r}, brute force gives {reference['epr_product']!r}"
        )
    if inseparability < 1.0 - EXACT_TOL and not ppt_eigenvalue < 1.0:
        problems.append(f"I = {inseparability!r} < 1 but PPT eigenvalue {ppt_eigenvalue!r} >= 1")
    if reference["min_uncertainty_eigenvalue"] < -EXACT_TOL:
        problems.append(
            f"cov + iS has eigenvalue {reference['min_uncertainty_eigenvalue']!r} < 0"
        )
    return problems


def mismatch_problems(
    reference: str, got: tuple[float, float], want: tuple[float, float]
) -> list[str]:
    """A reported ``(I, E)`` must equal another computation of it."""
    if all(abs(g - w) <= EXACT_TOL * max(1.0, abs(w)) for g, w in zip(got, want)):
        return []
    return [f"(I, E) = ({got[0]!r}, {got[1]!r}), {reference} gives ({want[0]!r}, {want[1]!r})"]


def lumped_criteria(pump: float, efficiency: float) -> tuple[float, float]:
    """``(I, E)`` of the symmetric lumped-loss channel in closed form.

    A flat two-mode squeezed source with pump ``x`` has squeezed and
    antisqueezed variances ``1 -/+ 4x / (1 +/- x)^2``; a loss ``eta`` pulls
    both toward 1.  Then ``I = v_sq`` and ``E = (v_sq v_anti / mean)^2``.
    """
    v_sq = 1.0 - efficiency * 4.0 * pump / (1.0 + pump) ** 2
    v_anti = 1.0 + efficiency * 4.0 * pump / (1.0 - pump) ** 2
    mean = (v_sq + v_anti) / 2.0
    return v_sq, (v_sq * v_anti / mean) ** 2


def fit_problems(
    target_i: float, target_e: float, pump: float, efficiency: float
) -> list[str]:
    """The fitted ``(x, eta)`` must reproduce the targets in closed form."""
    got_i, got_e = lumped_criteria(pump, efficiency)
    if abs(got_i - target_i) > FIT_TOL or abs(got_e - target_e) > FIT_TOL:
        return [
            f"fit (x={pump!r}, eta={efficiency!r}) gives (I, E) = ({got_i!r}, {got_e!r}) "
            f"in closed form, targets ({target_i!r}, {target_e!r})"
        ]
    return []


def squeezed_variance(
    pump: float, source_hwhm_hz: float, efficiency: float, omega_hz: float
) -> float:
    """Squeezed variance of a below-threshold source at one Fourier frequency."""
    d2 = (omega_hz / source_hwhm_hz) ** 2
    return 1.0 - efficiency * 4.0 * pump / ((1.0 + pump) ** 2 + d2)


def packing_centres(
    lower_hz: float, detbw_hz: float, guard_hz: float, n: int
) -> list[float]:
    """Channel centres ``lower + B + i (2B + g)``."""
    return [lower_hz + detbw_hz + i * (2.0 * detbw_hz + guard_hz) for i in range(n)]


def centre_problems(centres: list[float], expected: list[float]) -> list[str]:
    if len(centres) != len(expected):
        return [f"{len(centres)} channels planned, packing formula gives {len(expected)}"]
    for i, (got, want) in enumerate(zip(centres, expected)):
        if abs(got - want) > 1e-12 * want:
            return [f"channel {i} centred at {got!r} Hz, packing formula gives {want!r}"]
    return []


def mc_trial_problems(
    inseparability: float,
    sigma_inseparability: float,
    epr_product: float,
    sigma_epr: float,
    expected_i: float,
    expected_e: float,
) -> list[str]:
    """A trial must lie within ``MC_SIGMAS`` of its own errors of the model."""
    problems = []
    for name, got, sigma, want in (
        ("I", inseparability, sigma_inseparability, expected_i),
        ("E", epr_product, sigma_epr, expected_e),
    ):
        if not sigma > 0:
            problems.append(f"trial {name} has non-positive sigma {sigma!r}")
        elif abs(got - want) > MC_SIGMAS * sigma:
            problems.append(
                f"trial {name} = {got!r} +- {sigma!r} is {abs(got - want) / sigma:.1f} "
                f"sigma from the closed form {want!r}"
            )
    return problems
