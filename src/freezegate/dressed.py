"""Closed-form dressed-modulator projection and effective two-qubit model.

Freezing the driven modulator in its dressed ground state projects the
modulator-Q1 coupling onto Pauli expectation values, renormalizing Q1's
local Hamiltonian.  Both 2x2 problems are real symmetric, (x/2) sx + (z/2) sz:
the modulator's (drive_amp/2) sx - (delta_m/2) sz and Q1's
-(delta_1/2) sz + (j_m1 sx/2) sx (sy = 0 exactly).  Their splittings,
projections and eigenvectors are closed forms in hypot(x, z) and the half
angle of atan2(x, z); no eigensolver runs, and the root solve bisects the
scalar signed detuning without building a DressedModel.  The six dressed
2-vectors have one real closed form (`dressed_vectors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootInBracket
from .params import ProtocolParams, gate_time

#: Eigenvalue scale below which the Q1 local eigenbasis is ill-defined.
DEGENERACY_TOL = 1e-12
#: Points of the uniform grid on which a bracket is pre-scanned for omega_d_on.
SCAN_POINTS = 2000


def _eigenvectors(x: float, z: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(ground, excited) of (x/2) sx + (z/2) sz for hypot(x, z) > 0.

    With t = atan2(x, z) the matrix is proportional to sin t sx + cos t sz,
    whose eigenvectors are (-sin(t/2), cos(t/2)) for the lower and
    (cos(t/2), sin(t/2)) for the upper level.  Each is scaled by |x| * (1/x)
    for x its first component above 1e-12: numpy's complex |x| / x, +-1 only
    to rounding, which every dressed state has been built with.
    """
    half = 0.5 * math.atan2(x, z)
    c, s = math.cos(half), math.sin(half)
    out = []
    for a, b in ((-s, c), (c, s)):
        lead = a if abs(a) > 1e-12 else b
        scale = abs(lead) * (1.0 / lead)
        out.append((a * scale, b * scale))
    return out[0], out[1]


def dressed_vectors(drive_amp: float, j_m1: float, delta_m: float, delta_1: float, delta_2: float) -> np.ndarray:
    """The six real dressed 2-vectors of the effective model, in closed form.

    Rows gm, em, g1, e1, g2, e2 of a (6, 2) array: the modulator's ground
    state and its orthogonal complement (-gm[1], gm[0]), Q1's eigenbasis of
    -(delta_1/2) sz + (j_m1 sx/2) sx, and Q2's of -(delta_2/2) sz, energy
    ordered.  A degenerate modulator (hypot(drive_amp, delta_m) below
    DEGENERACY_TOL) takes |0> and sx = 0, a degenerate Q1 the computational
    basis.
    """
    wm = math.hypot(drive_amp, delta_m)
    gm, sx = (1.0, 0.0), 0.0
    if wm >= DEGENERACY_TOL:
        gm, sx = _eigenvectors(drive_amp, -delta_m)[0], -drive_amp / wm
    x1 = j_m1 * sx
    g1, e1 = (1.0, 0.0), (0.0, 1.0)
    if math.hypot(delta_1, x1) >= DEGENERACY_TOL:
        g1, e1 = _eigenvectors(x1, -delta_1)
    g2 = (1.0, 0.0) if delta_2 >= 0 else (0.0, 1.0)
    return np.array((gm, (-gm[1], gm[0]), g1, e1, g2, g2[::-1]))


def dressed_bases(points: list[ProtocolParams], drives: list[float]) -> np.ndarray:
    """(n, 3, 2, 2) real: the modulator, Q1 and Q2 bases of each point at its drive.

    Each 2x2 holds `dressed_vectors`' [ground, excited] as columns.  It is
    the one source of the dressed bases of a Floquet sweep and of a
    channel stack.
    """
    v = np.array([dressed_vectors(p.drive_amp, p.j_m1, *p.detunings(w)) for p, w in zip(points, drives)])
    return v.reshape(-1, 3, 2, 2).swapaxes(-1, -2)


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
    """Ground state of (drive_amp/2) sx - (delta_m/2) sz, in closed form.

    Its Bloch vector is (-drive_amp, 0, delta_m)/omega_m_prime.  The fully
    degenerate case drive_amp = delta_m = 0 returns |0> by convention,
    flagged so consumers know the projection is arbitrary.
    """
    gm = dressed_vectors(drive_amp, 0.0, delta_m, 0.0, 0.0)[0].astype(complex)
    return _modulator(drive_amp, delta_m, gm)


def _modulator(drive_amp: float, delta_m: float, gm: np.ndarray) -> DressedModulator:
    """The DressedModulator whose ground state is `dressed_vectors`' gm."""
    omega_prime = math.hypot(drive_amp, delta_m)
    if omega_prime < DEGENERACY_TOL:
        return DressedModulator(0.0, 0.0, 0.0, 1.0, gm, degenerate=True)
    return DressedModulator(omega_prime, -drive_amp / omega_prime, 0.0, delta_m / omega_prime, gm)


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
    gm, _, g1, e1, g2, e2 = dressed_vectors(p.drive_amp, p.j_m1, dm, d1, d2).astype(complex)
    mod = _modulator(p.drive_amp, dm, gm)
    # Q1's renormalized Hamiltonian -(d1/2) sz + (j_m1 sx/2) sx.
    w1 = math.hypot(d1, p.j_m1 * mod.sx)
    w2 = abs(d2)
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
        degenerate_q1=w1 < DEGENERACY_TOL,
    )


def signed_detuning(p: ProtocolParams, omega_d: float) -> float:
    """omega_1_prime - omega_2_prime, the quantity whose zero defines omega_d_on.

    Scalar closed form, equal bit for bit to effective_model's field.
    """
    dm, d1, d2 = p.detunings(omega_d)
    wm = math.hypot(p.drive_amp, dm)
    sx = -p.drive_amp / wm if wm >= DEGENERACY_TOL else 0.0
    return math.hypot(d1, p.j_m1 * sx) - abs(d2)


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
    sx = -np.divide(p.drive_amp, wm, out=np.zeros_like(wm), where=wm >= DEGENERACY_TOL)
    w1 = np.hypot(d1, p.j_m1 * sx)
    return w1 - np.abs(d2)


@dataclass(frozen=True)
class OnRoot:
    """Result of solving the resonance condition for the on-regime drive."""

    omega_d: float
    residual: float


def auto_bracket(p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Pre-scan for omega_d_on: start just below omega_1, widen downward.

    The resonance sits below omega_1 for protocol-like parameters; geometric
    widening stops at 0.5*omega_1.  Failing that, (omega_1, omega_2]: there the
    signed detuning rises from j_m1*|sx| - (omega_2 - omega_1) to >= 0.
    Returns the chosen bracket's grid, from lo to hi, and the signed
    detuning on it.
    """
    hi = p.omega_1
    lo = 0.9 * p.omega_1
    floor = 0.5 * p.omega_1
    while True:
        grid = np.linspace(lo, hi, SCAN_POINTS)
        f = signed_detuning_grid(p, grid)
        if np.any(np.signbit(f[:-1]) != np.signbit(f[1:])):
            return grid, f
        if lo <= floor:  # lo == floor: (floor, hi) is the grid just scanned
            if p.omega_2 > hi:
                grid = np.linspace(hi, p.omega_2, SCAN_POINTS)
                f = signed_detuning_grid(p, grid)
            return grid, f
        lo = max(floor, hi - 2 * (hi - lo))


def solve_omega_d_on(p: ProtocolParams) -> OnRoot:
    """Find omega_d_on with delta_12_prime = 0 by pre-scan plus bisection.

    Takes `auto_bracket`'s scan and bisects the lowest sign-change cell to
    1e-14 relative width.  Raises NoRootInBracket (with the grid minimum of
    the absolute detuning, for diagnosis) when there is no sign change, or
    when the detuning is zero on the whole grid (e.g. j_m1 = 0 and
    omega_2 = omega_1), where no drive frequency is singled out.
    """
    grid, f = auto_bracket(p)
    lo, hi = float(grid[0]), float(grid[-1])
    if not f.any():
        raise NoRootInBracket(
            f"signed dressed detuning is identically zero on [{lo}, {hi}]: "
            "no drive frequency is singled out",
            grid_min=0.0,
        )
    # Exact zeros on the grid count as roots directly.
    zeros = np.flatnonzero(f == 0.0)
    changes = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    if not len(changes) and not len(zeros):
        imin = int(np.argmin(np.abs(f)))
        raise NoRootInBracket(
            "signed dressed detuning does not change sign on "
            f"[{lo}, {hi}]; grid minimum |detuning| = {abs(f[imin]):.3e} "
            f"at omega_d = {grid[imin]:.12g}",
            grid_min=float(abs(f[imin])),
        )
    if len(zeros) and (not len(changes) or zeros[0] <= changes[0]):
        w = float(grid[zeros[0]])
        return OnRoot(w, 0.0)

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
    return OnRoot(root, abs(signed_detuning(p, root)))


def off_ratio(p: ProtocolParams) -> float:
    """Detuning-to-coupling ratio in the off regime; inf when j12_eff vanishes."""
    model = effective_model(p, p.omega_d_off)
    if model.j12_eff < 1e-300:
        return math.inf
    return model.delta_12_prime / model.j12_eff
