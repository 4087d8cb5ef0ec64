"""The benchmark's own references, written independently of the package.

* Closed forms of the dressed detuning omega_1' - omega_2', of j12_eff and
  of the off-regime detuning Delta'_off.  The driven modulator's ground
  state has <sigma_x> = -A / sqrt(A^2 + delta_m^2) and <sigma_y> = 0, so
  Q1's renormalized splitting is sqrt(delta_1^2 + (j_m1 <sigma_x>)^2).  The
  Q1 eigenbasis is rotated by the angle alpha with cos(alpha) =
  -delta_1 / omega_1', so the exchange matrix element between |g1> and
  |e1> is j_12 cos^2(alpha/2) = j_12 (1 + delta_1/omega_1') / 2.
* A single-period propagator U(tau) from scipy's DOP853 integrator on a
  lab Hamiltonian built entry by entry from bit flips, not from `kron`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

#: DOP853 tolerances of the U(tau) reference.
RTOL = 1e-12
ATOL = 1e-12


def dressed_closed_form(p, omega_d: float) -> tuple[float, float]:
    """(omega_1' - omega_2', j12_eff) at drive frequency omega_d."""
    dm = p.omega_m - omega_d
    d1 = p.omega_1 - omega_d
    d2 = p.omega_2 - omega_d
    sx = -p.drive_amp / math.hypot(p.drive_amp, dm)
    w1 = math.hypot(d1, p.j_m1 * sx)
    return w1 - abs(d2), p.j_12 * 0.5 * (1.0 + d1 / w1)


def off_detuning(p) -> float:
    """Delta'_off = |omega_1' - omega_2'| at the off drive."""
    return abs(dressed_closed_form(p, p.omega_d_off)[0])


def off_ratio(p) -> float:
    det, j12_eff = dressed_closed_form(p, p.omega_d_off)
    return abs(det) / j12_eff


def root_above_omega_1(p, width: float = 0.01, points: int = 20001) -> float | None:
    """Bisected zero of the closed-form detuning on (omega_1, omega_1 + width], or None."""
    grid = p.omega_1 + width * np.linspace(0.0, 1.0, points)[1:]
    f = np.array([dressed_closed_form(p, w)[0] for w in grid])
    change = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    if not len(change):
        return None
    a, b = float(grid[change[0]]), float(grid[change[0] + 1])
    fa = dressed_closed_form(p, a)[0]
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = dressed_closed_form(p, m)[0]
        if m in (a, b) or fm == 0.0:
            break
        if (fm < 0) == (fa < 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def _bits(idx: int) -> tuple[int, int, int]:
    return (idx >> 2) & 1, (idx >> 1) & 1, idx & 1


def lab_hamiltonian_parts(p) -> tuple[np.ndarray, np.ndarray]:
    """(static part, drive operator) of the lab Hamiltonian, entry by entry.

    Basis index (b_m b_1 b_2), modulator most significant; sigma_z|0> = |0>.
    sigma_x on a qubit flips its bit: M is bit 2, Q1 bit 1, Q2 bit 0.
    """
    h0 = np.zeros((8, 8))
    hd = np.zeros((8, 8))
    for i in range(8):
        bm, b1, b2 = _bits(i)
        h0[i, i] = -0.5 * (
            p.omega_m * (1 - 2 * bm) + p.omega_1 * (1 - 2 * b1) + p.omega_2 * (1 - 2 * b2)
        )
        h0[i, i ^ 0b110] += p.j_m1
        h0[i, i ^ 0b011] += p.j_12
        hd[i, i ^ 0b100] = 1.0
    return h0, hd


def u_tau_dop853(p, omega_d: float) -> np.ndarray:
    """U(tau) for tau = 2 pi / omega_d from dU/dt = -i H(t) U, DOP853."""
    h0, hd = lab_hamiltonian_parts(p)
    tau = 2 * math.pi / omega_d

    def rhs(t, y):
        h = h0 + (p.drive_amp * math.cos(omega_d * t)) * hd
        return (-1j * (h @ y.reshape(8, 8))).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, tau),
        np.eye(8, dtype=complex).ravel(),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.y[:, -1].reshape(8, 8)


def u_tau_tolerance(cfg) -> float:
    """Allowed max-entry deviation of the package's U(tau) from DOP853.

    About fifteen times the deviation measured at BASELINE and OPTIMIZED:
    midpoint/256 is off by 5.4e-6 to 6.7e-6 and scales as steps^-2;
    magnus4/512 is off by ~7e-12, the reference's own accuracy, so its
    steps^-4 scaling is floored at 1e-10.
    """
    n = cfg.steps_per_period
    if cfg.method == "midpoint":
        return 1e-4 * (256 / n) ** 2
    return 1e-10 * max(1.0, (512 / n) ** 4)
