"""Closed-form dressed-modulator projection and effective two-qubit model.

Freezing the driven modulator in its dressed ground state projects the
modulator-Q1 coupling onto Pauli expectation values, renormalizing Q1's
local Hamiltonian.  Both 2x2 problems are real symmetric, (x/2) sx + (z/2) sz:
the modulator's (drive_amp/2) sx - (delta_m/2) sz and Q1's
-(delta_1/2) sz + (j_m1 sx/2) sx (sy = 0 exactly).  Their splittings,
projections and eigenvectors are closed forms in hypot(x, z) and the half
angle of atan2(x, z); no eigensolver runs.  The on drive is a root of a
cubic in omega_d, polished by bisecting the scalar signed detuning without
building a DressedModel (`solve_omega_d_on`).  The six dressed 2-vectors
have one real closed form (`dressed_vectors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootInBracket
from .params import ProtocolParams, gate_time

#: Eigenvalue scale below which the Q1 local eigenbasis is ill-defined.
DEGENERACY_TOL = 1e-12
#: Points of the uniform grid on which `auto_bracket` pre-scans a window.
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
    """Vectorized closed form of signed_detuning, for `auto_bracket`'s pre-scans.

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


def _windows(p: ProtocolParams) -> list[tuple[float, float]]:
    """The search windows for omega_d_on, in the order they are tried.

    [lo, omega_1] for lo = 0.9, 0.8, 0.6 and 0.5 omega_1: the resonance sits
    below omega_1 for protocol-like parameters, and the window widens
    geometrically down to the floor 0.5*omega_1.  Then [omega_1, omega_2]
    when omega_2 > omega_1: there the signed detuning rises from
    j_m1*|sx| - (omega_2 - omega_1) to >= 0.
    """
    hi = p.omega_1
    lo = 0.9 * hi
    floor = 0.5 * hi
    out = [(lo, hi)]
    while lo > floor:
        lo = max(floor, hi - 2 * (hi - lo))
        out.append((lo, hi))
    if p.omega_2 > hi:
        out.append((hi, p.omega_2))
    return out


def auto_bracket(p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """Pre-scan the `_windows` of omega_d_on on a uniform grid each.

    Stops at the first window whose grid has a sign change of the signed
    detuning, else after the last.  Returns that window's grid, from lo to
    hi, and the signed detuning on it.
    """
    for lo, hi in _windows(p):
        grid = np.linspace(lo, hi, SCAN_POINTS)
        f = signed_detuning_grid(p, grid)
        if np.any(np.signbit(f[:-1]) != np.signbit(f[1:])):
            break
    return grid, f


def _cubic_roots(p: ProtocolParams) -> list[float]:
    """The real drives at which the squared resonance condition holds, ascending.

    Both sides of hypot(delta_1, j_m1*sx) = |delta_2| are >= 0, so squaring
    adds no root, and with sx = -A/hypot(A, delta_m) the condition reads
    (delta_1^2 - delta_2^2)(A^2 + delta_m^2) + j_m1^2 A^2 = 0.  With
    u = omega_d - omega_m, a = omega_1 - omega_2, c = omega_1 + omega_2 -
    2 omega_m and A = drive_amp, that is the monic cubic
    u^3 - (c/2) u^2 + A^2 u - A^2 (c/2 + j_m1^2/(2a)) = 0, solved in
    trigonometric or hyperbolic form for t = u - c/6, the root of the
    depressed cubic t^3 + P t + Q = 0.  A = 0 adds the root u = 0, where
    the detuning does not change sign; a = 0 (omega_1 = omega_2) has no
    cubic, and no roots are returned.  The coefficients are scaled by a
    power of two, 2^k ~ max(|c|/2, A, j_m1), which leaves their rounding as
    it is and keeps extreme parameters from overflowing.
    """
    half_c = 0.5 * (p.omega_1 - p.omega_m) + 0.5 * (p.omega_2 - p.omega_m)
    k = min(math.frexp(max(abs(half_c), p.drive_amp, p.j_m1))[1], 1023)
    a = math.ldexp(p.omega_1 - p.omega_2, -k)
    if a == 0.0:
        return []
    amp, j, s = math.ldexp(p.drive_amp, -k), math.ldexp(p.j_m1, -k), math.ldexp(half_c, -k) / 3.0
    pp = amp * amp - 3.0 * s * s
    q = -2.0 * s * s * s - amp * amp * (2.0 * s + j * j / (2.0 * a))
    if pp == 0.0:
        ts = [math.copysign(abs(q) ** (1.0 / 3.0), -q)]
    elif pp > 0.0:
        r = 2.0 * math.sqrt(pp / 3.0)
        ts = [-r * math.sinh(math.asinh(1.5 * q / pp * math.sqrt(3.0 / pp)) / 3.0)]
    else:
        r = 2.0 * math.sqrt(-pp / 3.0)
        x = 1.5 * q / pp * math.sqrt(-3.0 / pp)
        if abs(x) <= 1.0:
            phi = math.acos(x) / 3.0
            ts = [r * math.cos(phi - 2.0 * math.pi * n / 3.0) for n in range(3)]
        else:
            ts = [-math.copysign(r, q) * math.cosh(math.acosh(abs(x)) / 3.0)]
    scale = math.ldexp(1.0, k)
    return sorted(p.omega_m + (t + s) * scale for t in ts)


def _polish(p: ProtocolParams, w: float, reach: float) -> OnRoot | None:
    """Bisect the sign change of the signed detuning at the cubic root w.

    The bracket is w - h or w + h against w itself, with h = 1e-10 max(|w|, 1)
    doubled while neither end changes sign, up to `reach`; None when none
    does (a root the detuning only touches).  An exact zero at w is the
    root, with residual 0.  Bisects to 1e-14 relative width.
    """
    fw = signed_detuning(p, w)
    if fw == 0.0:
        return OnRoot(w, 0.0)
    h = 1e-10 * max(abs(w), 1.0)
    while True:
        if h > reach:
            return None
        fa = signed_detuning(p, w - h)
        if (fa < 0) != (fw < 0):
            a, b = w - h, w
            break
        if (signed_detuning(p, w + h) < 0) != (fw < 0):
            a, fa, b = w, fw, w + h
            break
        h *= 2
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


def solve_omega_d_on(p: ProtocolParams) -> OnRoot:
    """Find omega_d_on, where delta_12_prime = 0, from the roots of a cubic.

    The candidates are the real roots of `_cubic_roots`' cubic
    u^3 - (c/2) u^2 + A^2 u - A^2 (c/2 + j_m1^2/(2a)) = 0.  The root is the
    lowest candidate at which the signed detuning changes sign in the first
    of [0.9 omega_1, omega_1], [0.8 omega_1, omega_1], [0.6 omega_1,
    omega_1] and [0.5 omega_1, omega_1] that holds one, else the lowest in
    (omega_1, omega_2] when omega_2 > omega_1 (`_windows`), bisected to
    1e-14 relative width (`_polish`).  Without one, raises NoRootInBracket
    with `auto_bracket`'s pre-scan minimum of the absolute detuning, for
    diagnosis; also when the detuning is zero on the whole scan (e.g.
    j_m1 = 0 and omega_2 = omega_1), where no drive frequency is singled out.
    A sign change outside every window is not taken: a point whose detuning
    changes sign only above omega_1 with omega_2 <= omega_1, or only below
    the 0.5 omega_1 floor, raises NoRootInBracket.
    """
    windows = _windows(p)
    roots = _cubic_roots(p)
    ranked = []
    for i, w in enumerate(roots):
        k = next((k for k, (lo, hi) in enumerate(windows) if lo <= w <= hi), None)
        if k is not None:
            # The polish widens its bracket at most halfway to another root.
            gaps = [abs(w - v) for v in roots[:i] + roots[i + 1 :]]
            ranked.append((k, w, 0.5 * min(gaps) if gaps else max(abs(w), 1.0)))
    for _, w, reach in sorted(ranked):
        root = _polish(p, w, reach)
        if root is not None:
            return root

    grid, f = auto_bracket(p)
    lo, hi = float(grid[0]), float(grid[-1])
    if not f.any():
        raise NoRootInBracket(
            f"signed dressed detuning is identically zero on [{lo}, {hi}]: "
            "no drive frequency is singled out",
            grid_min=0.0,
        )
    imin = int(np.argmin(np.abs(f)))
    raise NoRootInBracket(
        "signed dressed detuning does not change sign on "
        f"[{lo}, {hi}]; grid minimum |detuning| = {abs(f[imin]):.3e} "
        f"at omega_d = {grid[imin]:.12g}",
        grid_min=float(abs(f[imin])),
    )


def off_ratio(p: ProtocolParams) -> float:
    """Detuning-to-coupling ratio in the off regime; inf when j12_eff vanishes."""
    model = effective_model(p, p.omega_d_off)
    if model.j12_eff < 1e-300:
        return math.inf
    return model.delta_12_prime / model.j12_eff
