"""Closed-form dressed-modulator projection and effective two-qubit model.

Freezing the driven modulator in its dressed ground state projects the
modulator-Q1 coupling onto Pauli expectation values, renormalizing Q1's
local Hamiltonian.  Everything here is 2x2 linear algebra, cheap enough to
scan and root-find on without caching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootInBracket
from .params import ProtocolParams, gate_time
from .pauli import SX, SY, SZ

#: Eigenvalue scale below which the Q1 local eigenbasis is ill-defined.
DEGENERACY_TOL = 1e-12


def phase_fix(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first component above tol real-positive (deterministic gauge)."""
    for x in v:
        if abs(x) > tol:
            return v * (abs(x) / x)
    return v


@dataclass(frozen=True)
class DressedModulator:
    """Ground state of the driven-modulator Hamiltonian and its expectations."""

    omega_m_prime: float
    sx: float
    sy: float
    sz: float
    ground_state: np.ndarray
    degenerate: bool = False

    @property
    def excited_state(self) -> np.ndarray:
        """Orthogonal complement of the ground state."""
        g = self.ground_state
        return np.array([-np.conj(g[1]), np.conj(g[0])], dtype=complex)


def dress_modulator(drive_amp: float, delta_m: float) -> DressedModulator:
    """Diagonalize (drive_amp/2) sx - (delta_m/2) sz and take the ground state.

    The fully degenerate case drive_amp = delta_m = 0 returns |0> by
    convention, flagged so consumers know the projection is arbitrary.
    """
    omega_prime = math.hypot(drive_amp, delta_m)
    if omega_prime < DEGENERACY_TOL:
        g = np.array([1.0, 0.0], dtype=complex)
        return DressedModulator(0.0, 0.0, 0.0, 1.0, g, degenerate=True)
    h = 0.5 * (drive_amp * SX - delta_m * SZ)
    evals, evecs = np.linalg.eigh(h)
    g = phase_fix(evecs[:, 0])
    sx = float(np.real(g.conj() @ SX @ g))
    sy = float(np.real(g.conj() @ SY @ g))
    sz = float(np.real(g.conj() @ SZ @ g))
    return DressedModulator(float(evals[1] - evals[0]), sx, sy, sz, g)


@dataclass(frozen=True)
class DressedModel:
    """Effective two-qubit quantities at a given drive frequency."""

    omega_d: float
    modulator: DressedModulator
    omega_1_prime: float
    omega_2_prime: float
    #: Signed dressed detuning omega_1_prime - omega_2_prime (root-finding target).
    signed_detuning: float
    delta_12_prime: float
    delta_m1_prime: float
    j12_eff: float
    t_gate: float
    q1_ground: np.ndarray
    q1_excited: np.ndarray
    q2_ground: np.ndarray
    q2_excited: np.ndarray
    degenerate_q1: bool


def effective_model(p: ProtocolParams, omega_d: float) -> DressedModel:
    """Compute the full set of closed-form dressed quantities at omega_d."""
    dm, d1, d2 = p.detunings(omega_d)
    mod = dress_modulator(p.drive_amp, dm)

    w1 = math.sqrt(d1 * d1 + (p.j_m1 * mod.sx) ** 2 + (p.j_m1 * mod.sy) ** 2)
    w2 = abs(d2)
    h1 = (
        -(d1 / 2) * SZ
        + (p.j_m1 / 2) * mod.sx * SX
        + (p.j_m1 / 2) * mod.sy * SY
    )
    degenerate_q1 = w1 < DEGENERACY_TOL
    if degenerate_q1:
        g1 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
    else:
        _, evecs = np.linalg.eigh(h1)
        g1 = phase_fix(evecs[:, 0])
        e1 = phase_fix(evecs[:, 1])

    # Q2 eigenbasis of -(d2/2) sz, energy ordered; |0> is the ground state
    # for positive detuning.
    if d2 >= 0:
        g2 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
    else:
        g2 = np.array([0.0, 1.0], dtype=complex)
        e2 = np.array([1.0, 0.0], dtype=complex)

    overlap = abs(g1[0]) * abs(e1[1])
    j12_eff = overlap * p.j_12
    return DressedModel(
        omega_d=omega_d,
        modulator=mod,
        omega_1_prime=w1,
        omega_2_prime=w2,
        signed_detuning=w1 - w2,
        delta_12_prime=abs(w1 - w2),
        delta_m1_prime=abs(mod.omega_m_prime - abs(d1)),
        j12_eff=j12_eff,
        t_gate=gate_time(j12_eff),
        q1_ground=g1,
        q1_excited=e1,
        q2_ground=g2,
        q2_excited=e2,
        degenerate_q1=degenerate_q1,
    )


def signed_detuning(p: ProtocolParams, omega_d: float) -> float:
    """omega_1_prime - omega_2_prime, the quantity whose zero defines omega_d_on."""
    return effective_model(p, omega_d).signed_detuning


def signed_detuning_grid(p: ProtocolParams, omega_d: np.ndarray) -> np.ndarray:
    """Vectorized closed form of signed_detuning for root-finder pre-scans.

    Uses sx = -drive_amp/omega_m_prime, sy = 0, which is exact for the real
    driven-modulator Hamiltonian; agreement with effective_model is covered
    by tests.
    """
    omega_d = np.asarray(omega_d, dtype=float)
    dm = p.omega_m - omega_d
    d1 = p.omega_1 - omega_d
    d2 = p.omega_2 - omega_d
    wm = np.hypot(p.drive_amp, dm)
    sx = -np.divide(p.drive_amp, wm, out=np.zeros_like(wm), where=wm > 0)
    w1 = np.hypot(d1, p.j_m1 * sx)
    return w1 - np.abs(d2)


@dataclass(frozen=True)
class OnRoot:
    """Result of solving the resonance condition for the on-regime drive."""

    omega_d: float
    residual: float
    roots_found: int


def auto_bracket(p: ProtocolParams, scan_points: int = 2000) -> tuple[float, float]:
    """Bracket for omega_d_on: start just below omega_1, widen downward.

    The resonance sits below omega_1 for protocol-like parameters; geometric
    widening stops at 0.5*omega_1.  Failing that, (omega_1, omega_2]: there the
    signed detuning rises from j_m1*|sx| - (omega_2 - omega_1) to >= 0.
    """
    hi = p.omega_1
    lo = 0.9 * p.omega_1
    floor = 0.5 * p.omega_1
    while True:
        grid = np.linspace(lo, hi, scan_points)
        f = signed_detuning_grid(p, grid)
        if np.any(np.signbit(f[:-1]) != np.signbit(f[1:])):
            return (lo, hi)
        if lo <= floor:
            return (hi, p.omega_2) if p.omega_2 > hi else (floor, hi)
        lo = max(floor, hi - 2 * (hi - lo))


def solve_omega_d_on(
    p: ProtocolParams,
    bracket: tuple[float, float] | None = None,
    scan_points: int = 2000,
) -> OnRoot:
    """Find omega_d_on with delta_12_prime = 0 by pre-scan plus bisection.

    Scans the bracket on a uniform grid, bisects the lowest sign-change
    cell to 1e-14 relative width, and reports how many sign changes the
    grid saw.  Raises NoRootInBracket (with the grid minimum of the
    absolute detuning, for diagnosis) when there is no sign change.
    """
    if bracket is None:
        bracket = auto_bracket(p, scan_points)
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid bracket {bracket!r}")

    grid = np.linspace(lo, hi, scan_points)
    f = signed_detuning_grid(p, grid)
    # Exact zeros on the grid count as roots directly.
    zeros = np.flatnonzero(f == 0.0)
    changes = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    n_roots = len(changes) + len(zeros)
    if n_roots == 0:
        imin = int(np.argmin(np.abs(f)))
        raise NoRootInBracket(
            "signed dressed detuning does not change sign on "
            f"[{lo}, {hi}]; grid minimum |detuning| = {abs(f[imin]):.3e} "
            f"at omega_d = {grid[imin]:.12g}",
            grid_min=float(abs(f[imin])),
        )
    if len(zeros) and (not len(changes) or zeros[0] <= changes[0]):
        w = float(grid[zeros[0]])
        return OnRoot(w, 0.0, n_roots)

    a, b = float(grid[changes[0]]), float(grid[changes[0] + 1])
    fa = signed_detuning(p, a)
    while (b - a) > 1e-14 * max(abs(a), abs(b), 1.0):
        m = 0.5 * (a + b)
        fm = signed_detuning(p, m)
        if fm == 0.0:
            a = b = m
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    root = 0.5 * (a + b)
    return OnRoot(root, abs(signed_detuning(p, root)), n_roots)


def off_ratio(p: ProtocolParams) -> float:
    """Detuning-to-coupling ratio in the off regime; inf when j12_eff vanishes."""
    model = effective_model(p, p.omega_d_off)
    if model.j12_eff < 1e-300:
        return math.inf
    return model.delta_12_prime / model.j12_eff
