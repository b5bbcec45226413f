"""Gaussian states of labeled sideband modes and symplectic operations on them.

Conventions
-----------
Quadratures are ordered mode by mode as (X_1, Xp_1, X_2, Xp_2, ...), where X
is the amplitude-like quadrature and Xp the phase-like one.  The vacuum state
has unit variance in every quadrature, which fixes the commutator to
[X, Xp] = 2i and the uncertainty relation to ``cov + i*S >= 0`` with S the
symplectic form built from ``[[0, 1], [-1, 0]]`` blocks.  All variances in
this package are therefore expressed in units of the vacuum noise.

States are immutable: every operation returns a new state and never mutates
its input, so states may be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LabelCollisionError",
    "InvalidStateError",
    "SidebandLabel",
    "GaussianState",
    "SymplecticOp",
    "symplectic_form",
    "vacuum",
    "rotation_op",
    "squeeze_op",
    "beamsplitter_op",
    "mode_unitary_op",
    "apply_symplectic",
    "apply_rotation",
    "apply_squeeze",
    "apply_two_mode_bs",
    "apply_mode_unitary",
    "apply_loss",
    "attach_vacuum",
    "project_quadrature",
    "symplectic_eigenvalues",
    "ppt_min_symplectic_eigenvalue",
]

_SYM_TOL = 1e-12


class LabelCollisionError(ValueError):
    """Two mode labels on the same path overlap in frequency."""


class InvalidStateError(ValueError):
    """A covariance matrix violates symmetry or the uncertainty relation."""


@dataclass(frozen=True)
class SidebandLabel:
    """Identifies one narrowband sideband mode of a beam.

    Args:
        offset_hz: Signed Fourier frequency of the mode relative to the
            optical carrier.
        rbw_hz: Resolution bandwidth of the mode.  Two modes on the same
            path whose bands overlap are considered the same physical mode
            and may not coexist in one state.
        path: Spatial branch tag.  The source beam uses ``""``; a frequency
            splitter assigns distinct tags to its output branches, so equal
            offsets may coexist on different paths.
    """

    offset_hz: float
    rbw_hz: float
    path: str = ""

    def __post_init__(self) -> None:
        if not self.rbw_hz > 0:
            raise ValueError(f"rbw_hz must be positive, got {self.rbw_hz}")
        if not abs(self.offset_hz) > self.rbw_hz / 2:  # NaN offsets too
            raise ValueError(
                f"mode at {self.offset_hz} Hz with rbw {self.rbw_hz} Hz "
                "would overlap the carrier"
            )

    def overlaps(self, other: "SidebandLabel") -> bool:
        """True if the two labels describe overlapping bands on one path."""
        if self.path != other.path:
            return False
        gap = abs(self.offset_hz - other.offset_hz)
        return gap < (self.rbw_hz + other.rbw_hz) / 2


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form for the interleaved ordering."""
    s = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        s[2 * k, 2 * k + 1] = 1.0
        s[2 * k + 1, 2 * k] = -1.0
    return s


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of a set of sideband modes.

    The covariance is symmetric with vacuum normalized to the identity.
    Construction checks symmetry and label disjointness; the (more costly)
    uncertainty-relation check runs on demand via :meth:`validate`.
    """

    labels: tuple[SidebandLabel, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        n = 2 * len(labels)
        mean = np.asarray(self.mean, dtype=float).reshape(n)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (n, n):
            raise InvalidStateError(
                f"covariance shape {cov.shape} does not match {len(labels)} modes"
            )
        scale = max(1.0, float(np.max(np.abs(cov)))) if n else 1.0
        if n and np.max(np.abs(cov - cov.T)) > 1e-9 * scale:
            raise InvalidStateError("covariance matrix is not symmetric")
        cov = (cov + cov.T) / 2
        # Bands that overlap on a path imply overlapping frequency neighbours.
        ordered = sorted(labels, key=lambda lab: (lab.path, lab.offset_hz))
        for a, b in zip(ordered, ordered[1:]):
            if a.overlaps(b):
                raise LabelCollisionError(f"overlapping mode labels {a} and {b}")
        mean = mean.copy()
        cov = cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def mode_index(self, offset_hz: float, path: str = "", rtol: float = 1e-9) -> int:
        """Index of the mode at the given frequency offset on the given path."""
        for k, lab in enumerate(self.labels):
            if lab.path != path:
                continue
            tol = max(abs(offset_hz), abs(lab.offset_hz), 1.0) * rtol
            if abs(lab.offset_hz - offset_hz) <= tol:
                return k
        raise KeyError(f"no mode at {offset_hz} Hz on path {path!r}")

    def validate(self, tol: float = 1e-9) -> None:
        """Check the uncertainty relation cov + i*S >= 0.

        Raises:
            InvalidStateError: if the smallest eigenvalue of ``cov + i*S``
                is below ``-tol``.
        """
        s = symplectic_form(self.n_modes)
        eigs = np.linalg.eigvalsh(self.cov + 1j * s)
        if eigs.min() < -tol:
            raise InvalidStateError(
                f"uncertainty relation violated: min eigenvalue {eigs.min():.3e}"
            )

    def reduced(self, modes: Sequence[int]) -> "GaussianState":
        """Marginal state of the given modes (partial trace over the rest)."""
        modes = list(modes)
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate mode indices in reduction")
        idx = np.array([2 * m + q for m in modes for q in (0, 1)], dtype=int)
        return GaussianState(
            labels=tuple(self.labels[m] for m in modes),
            mean=self.mean[idx],
            cov=self.cov[np.ix_(idx, idx)],
        )


def vacuum(labels: Iterable[SidebandLabel] | int) -> GaussianState:
    """Vacuum state for the given labels (or for n anonymous modes)."""
    if isinstance(labels, int):
        # Placeholder frequencies 1, 2, ... MHz; real chains attach meaningful ones.
        labels = (SidebandLabel(float((k + 1) * 1e6), 1e3) for k in range(labels))
    labels = tuple(labels)
    n = 2 * len(labels)
    return GaussianState(labels=labels, mean=np.zeros(n), cov=np.eye(n))


@dataclass(frozen=True)
class SymplecticOp:
    """A linear symplectic transformation of the quadrature vector."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"symplectic matrix must be square even-dim, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def symplectic_defect(self) -> float:
        """Max-norm deviation of M S M^T from S."""
        s = symplectic_form(self.n_modes)
        return float(np.max(np.abs(self.matrix @ s @ self.matrix.T - s)))


def rotation_op(n_modes: int, mode: int, theta: float) -> SymplecticOp:
    """Phase-space rotation of one mode by angle theta."""
    m = np.eye(2 * n_modes)
    c, s = np.cos(theta), np.sin(theta)
    m[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2] = [[c, -s], [s, c]]
    return SymplecticOp(m)


def squeeze_op(n_modes: int, mode: int, r: float, angle: float = 0.0) -> SymplecticOp:
    """Single-mode squeezer: X -> exp(-r) X along the given axis.

    With ``angle = 0`` the X variance becomes exp(-2r) and Xp exp(+2r).
    """
    m = np.eye(2 * n_modes)
    core = np.diag([np.exp(-r), np.exp(r)])
    if angle:
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        core = rot @ core @ rot.T
    m[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2] = core
    return SymplecticOp(m)


def _realify(u: np.ndarray) -> np.ndarray:
    """2n x 2n real quadrature matrix of an n x n complex mode transform."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    m = np.zeros((2 * n, 2 * n))
    a, b = u.real, u.imag
    m[0::2, 0::2] = a
    m[0::2, 1::2] = -b
    m[1::2, 0::2] = b
    m[1::2, 1::2] = a
    return m


def mode_unitary_op(u: np.ndarray) -> SymplecticOp:
    """Symplectic op realizing a unitary mixing of annihilation operators.

    Args:
        u: Complex unitary matrix acting on the vector of mode operators.

    Raises:
        ValueError: if ``u`` is not unitary.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"mode transform must be square, got shape {u.shape}")
    defect = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if defect > 1e-10:
        raise ValueError(f"mode transform is not unitary (defect {defect:.3e})")
    return SymplecticOp(_realify(u))


def beamsplitter_op(
    n_modes: int,
    mode_a: int,
    mode_b: int,
    reflectivity: float,
    phase: float = 0.0,
) -> SymplecticOp:
    """Beam splitter mixing two modes.

    Args:
        reflectivity: Power reflectivity r**2 in [0, 1].
        phase: Phase of the reflected amplitude.

    The transmitted amplitude is ``sqrt(1 - reflectivity)``; reflectivity 1
    swaps the modes up to phase.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must lie in [0, 1], got {reflectivity}")
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    tau = np.sqrt(1.0 - reflectivity)
    rho = np.sqrt(reflectivity) * np.exp(1j * phase)
    u2 = np.array([[tau, rho], [-np.conj(rho), tau]])
    u = np.eye(n_modes, dtype=complex)
    u[np.ix_([mode_a, mode_b], [mode_a, mode_b])] = u2
    return mode_unitary_op(u)


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Return the state transformed by a symplectic operation."""
    if op.n_modes != state.n_modes:
        raise ValueError(
            f"operation acts on {op.n_modes} modes, state has {state.n_modes}"
        )
    m = op.matrix
    return replace(state, mean=m @ state.mean, cov=m @ state.cov @ m.T)


def apply_rotation(state: GaussianState, mode: int, theta: float) -> GaussianState:
    return apply_symplectic(state, rotation_op(state.n_modes, mode, theta))


def apply_squeeze(
    state: GaussianState, mode: int, r: float, angle: float = 0.0
) -> GaussianState:
    return apply_symplectic(state, squeeze_op(state.n_modes, mode, r, angle))


def apply_two_mode_bs(
    state: GaussianState,
    mode_a: int,
    mode_b: int,
    reflectivity: float,
    phase: float = 0.0,
) -> GaussianState:
    op = beamsplitter_op(state.n_modes, mode_a, mode_b, reflectivity, phase)
    return apply_symplectic(state, op)


def apply_mode_unitary(state: GaussianState, u: np.ndarray) -> GaussianState:
    """Apply a complex unitary mode transform to the whole state."""
    if np.asarray(u).shape != (state.n_modes, state.n_modes):
        raise ValueError("mode transform shape does not match state")
    return apply_symplectic(state, mode_unitary_op(u))


def apply_loss(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Pure loss channel on one mode with power transmission eta.

    The mode's covariance block relaxes toward vacuum,
    ``cov -> eta * cov + (1 - eta) * 1``, and its mean is scaled by
    ``sqrt(eta)``.  Two consecutive losses compose multiplicatively.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {eta}")
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode index {mode} out of range")
    root = np.sqrt(eta)
    g = np.ones(2 * state.n_modes)
    g[2 * mode: 2 * mode + 2] = root
    cov = state.cov * np.outer(g, g)
    # Lost signal is replaced by vacuum on the diagonal block only.
    sl = slice(2 * mode, 2 * mode + 2)
    cov[sl, sl] += (1.0 - eta) * np.eye(2)
    return replace(state, mean=state.mean * g, cov=cov)


def attach_vacuum(state: GaussianState, labels: Iterable[SidebandLabel]) -> GaussianState:
    """Tensor fresh vacuum modes onto the state (appended at the end)."""
    labels = tuple(labels)
    if not labels:
        return state
    n_old = 2 * state.n_modes
    n_new = n_old + 2 * len(labels)
    mean = np.zeros(n_new)
    mean[:n_old] = state.mean
    cov = np.eye(n_new)
    cov[:n_old, :n_old] = state.cov
    return GaussianState(labels=state.labels + labels, mean=mean, cov=cov)


def project_quadrature(state: GaussianState, coeffs: np.ndarray) -> float:
    """Variance of a normalized linear combination of quadratures.

    Args:
        coeffs: Length-2n coefficient vector with unit Euclidean norm.  The
            normalization is required, not applied: measured quadratures must
            carry exactly one vacuum unit, so a non-normalized vector is an
            error rather than something to fix silently.

    Returns:
        The variance ``c^T cov c`` of the combination.
    """
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if c.shape[0] != 2 * state.n_modes:
        raise ValueError(
            f"coefficient vector length {c.shape[0]} does not match state"
        )
    norm_sq = float(c @ c)
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(
            f"coefficient vector must be normalized; got |c|^2 = {norm_sq!r}"
        )
    return float(c @ state.cov @ c)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The values are the moduli of the eigenvalues of ``i S^-1 cov``; each
    appears once.  A physical state has all values >= 1.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    s = symplectic_form(n)
    # S^-1 = -S for this block convention.
    eigs = np.linalg.eigvals(1j * (-s) @ cov)
    mods = np.sort(np.abs(eigs))
    return mods[::2][:n] if len(mods) else mods


def ppt_min_symplectic_eigenvalue(
    state: GaussianState,
    part_a: Sequence[int],
    part_b: Sequence[int],
    tol: float = 1e-9,
) -> float:
    """Smallest symplectic eigenvalue after partial transposition.

    Partial transposition flips the sign of every Xp quadrature of the modes
    in ``part_b``.  A value below 1 certifies entanglement across the
    bipartition.

    Args:
        part_a, part_b: Disjoint non-empty mode index sets covering the state.

    Raises:
        InvalidStateError: if the input covariance violates the uncertainty
            relation by more than ``tol``.
    """
    a, b = set(part_a), set(part_b)
    if not a or not b:
        raise ValueError("both parts of the bipartition must be non-empty")
    if a & b:
        raise ValueError("bipartition parts overlap")
    if a | b != set(range(state.n_modes)):
        raise ValueError("bipartition must cover all modes of the state")
    state.validate(tol=tol)
    flip = np.ones(2 * state.n_modes)
    for m in b:
        flip[2 * m + 1] = -1.0
    cov_pt = state.cov * np.outer(flip, flip)
    return float(symplectic_eigenvalues(cov_pt)[0])
