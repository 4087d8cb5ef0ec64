"""Time-ordered propagation of the periodically driven lab-frame Hamiltonian.

Two integrators are available, both built from exact exponentials of real
symmetric step Hamiltonians (batched real eigendecompositions):

* ``midpoint``: piecewise-constant exponential at the step midpoint
  (second order), the robust default.
* ``magnus4``: fourth-order commutator-free Magnus scheme using the two
  Gauss-Legendre nodes per step.

Steps are multiplied out pairwise in time order (about log2(N) batched
products).  One period is folded twice:

* H(tau - t) = H(t) makes each step the transpose of its mirror image about
  tau/2 (for ``magnus4`` the mirror swaps the Gauss-node factors), so
  U(tau) = V^T V with V = U(tau/2, 0).
* The drive flips sign over half a period, and the parity
  P = Z_M Z_1 Z_2 commutes with every static term and anticommutes with
  the drive operator, so H(tau/2 - t) = P H(t) P.  Each step of V is then
  P (mirror step)^T P about tau/4, and V = P W^T P W with W = U(tau/4, 0).

With 4 | N a period costs N/4 steps; N = 2 mod 4 folds only once and odd
N integrates the whole period.

At j_12 = 0, Q2 decouples exactly: H(t) = H_M1(t) x I + I x (-omega_2/2) sz_2.
Only the 4x4 modulator-Q1 factor is then integrated, with the same step
kernel and product, and Q2 contributes its diagonal phase; this serves the
j_12-free reference evolution U0 of every channel.

Long evolutions exploit periodicity: U(n*tau + s, 0) = U(s, 0) U(tau)^n,
so a full gate (~1e4 periods) costs one single-period propagator plus a
logarithmic number of matrix multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import StepTooCoarse
from .params import ProtocolParams
from .pauli import (
    PAIR_XM,
    PARITY,
    lab_drive_operator,
    lab_static,
    pair_static,
    unitarity_defect,
)

_SQRT3 = math.sqrt(3.0)
# Commutator-free 4th-order weights for the two Gauss-node Hamiltonians.
_CF4_X1 = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_X2 = (3.0 + 2.0 * _SQRT3) / 12.0

METHODS = ("midpoint", "magnus4")

# P X P for the diagonal parity P is the entrywise product with these signs.
_PARITY_SIGNS = np.outer(np.diag(PARITY), np.diag(PARITY))


@dataclass(frozen=True)
class PropagatorConfig:
    steps_per_period: int = 256
    method: str = "midpoint"
    unitarity_tol: float = 1e-10
    #: When set, propagation re-runs at half step and raises StepTooCoarse
    #: if the result moves by more than convergence_tol.
    convergence_check: bool = False
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if self.steps_per_period < 1:
            raise ValueError("steps_per_period must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def _batched_expm_herm(hs: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for a stack of real symmetric matrices, via a real eigh."""
    w, v = np.linalg.eigh(hs)
    return (v * np.exp(-1j * dt * w)[:, None, :]) @ v.swapaxes(-1, -2)


def _ordered_product(us: np.ndarray) -> np.ndarray:
    """us[n-1] @ ... @ us[1] @ us[0], multiplying neighbours pairwise."""
    while len(us) > 1:
        n = len(us) - len(us) % 2
        pairs = us[1:n:2] @ us[0:n:2]
        us = pairs if n == len(us) else np.concatenate((pairs, us[n:]))
    return us[0]


def interval_propagator(
    p: ProtocolParams,
    omega_d: float,
    t0: float,
    t1: float,
    nsteps: int,
    method: str = "midpoint",
) -> np.ndarray:
    """Time-ordered propagator U(t1, t0) with nsteps uniform steps.

    At j_12 = 0 this is U_M1(t1, t0) x diag(e^{+i w}, e^{-i w}) with
    w = omega_2 (t1 - t0) / 2, integrating only the 4x4 modulator-Q1 factor.
    """
    if t1 == t0:
        return np.eye(8, dtype=complex)
    decoupled = p.j_12 == 0
    h0, hd = (pair_static(p), PAIR_XM) if decoupled else (lab_static(p), lab_drive_operator())
    dt = (t1 - t0) / nsteps
    edges = t0 + dt * np.arange(nsteps)

    def drive(ts):
        return p.drive_amp * np.cos(omega_d * ts)

    if method == "midpoint":
        mids = edges + 0.5 * dt
        hs = h0[None, :, :] + drive(mids)[:, None, None] * hd[None, :, :]
        us = _batched_expm_herm(hs, dt)
    elif method == "magnus4":
        c1 = 0.5 - _SQRT3 / 6.0
        c2 = 0.5 + _SQRT3 / 6.0
        a1 = drive(edges + c1 * dt)
        a2 = drive(edges + c2 * dt)
        # Each step is exp(-i dt (x1 H1 + x2 H2)) exp(-i dt (x2 H1 + x1 H2)),
        # the later-weighted exponential acting last.
        gl = (_CF4_X1 * a1 + _CF4_X2 * a2)[:, None, None] * hd + 0.5 * h0
        gr = (_CF4_X2 * a1 + _CF4_X1 * a2)[:, None, None] * hd + 0.5 * h0
        us = _batched_expm_herm(gl, dt) @ _batched_expm_herm(gr, dt)
    else:
        raise ValueError(f"unknown method {method!r}")

    u = _ordered_product(us)
    if decoupled:
        w = 0.5 * p.omega_2 * (t1 - t0)
        return np.kron(u, np.diag([np.exp(1j * w), np.exp(-1j * w)]))
    return u


def _period(p: ProtocolParams, omega_d: float, nsteps: int, method: str) -> np.ndarray:
    """U(tau) = V^T V with V = U(tau/2, 0) = P W^T P W, W = U(tau/4, 0).

    The quarter fold needs 4 | nsteps; nsteps = 2 mod 4 integrates V
    directly, odd nsteps the whole period.
    """
    tau = 2 * math.pi / omega_d
    if nsteps % 2:
        return interval_propagator(p, omega_d, 0.0, tau, nsteps, method)
    if nsteps % 4:
        v = interval_propagator(p, omega_d, 0.0, tau / 2, nsteps // 2, method)
    else:
        w = interval_propagator(p, omega_d, 0.0, tau / 4, nsteps // 4, method)
        v = (_PARITY_SIGNS * w.T) @ w
    return v.T @ v


def single_period_propagator(
    p: ProtocolParams, omega_d: float, cfg: PropagatorConfig
) -> np.ndarray:
    """U(tau) over one drive period tau = 2 pi / omega_d."""
    u = _period(p, omega_d, cfg.steps_per_period, cfg.method)
    defect = unitarity_defect(u)
    if defect > cfg.unitarity_tol:
        raise StepTooCoarse(
            f"single-period propagator unitarity defect {defect:.3e} exceeds "
            f"tolerance {cfg.unitarity_tol:.3e}",
            change=defect,
        )
    if cfg.convergence_check:
        u2 = _period(p, omega_d, 2 * cfg.steps_per_period, cfg.method)
        change = float(np.max(np.abs(u - u2)))
        if change > cfg.convergence_tol:
            raise StepTooCoarse(
                f"halving the step changed U(tau) by {change:.3e} "
                f"(> {cfg.convergence_tol:.3e})",
                change=change,
            )
    return u


def _nearest_unitary(u: np.ndarray) -> np.ndarray:
    """Polar (nearest-unitary) factor of u: W V^dag from the SVD W S V^dag."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def _unitary_power(u: np.ndarray, n: int) -> np.ndarray:
    """u^n by repeated squaring (n >= 0)."""
    result = np.eye(u.shape[0], dtype=complex)
    base = u
    while n:
        if n & 1:
            result = base @ result
        base = base @ base
        n >>= 1
    return result


def total_propagator(
    p: ProtocolParams,
    omega_d: float,
    t_final: float,
    cfg: PropagatorConfig,
    u_tau: np.ndarray | None = None,
) -> np.ndarray:
    """U(t_final, 0), composing whole drive periods with a shortened tail.

    Periodicity of the drive makes U(n*tau + s, 0) = U(s, 0) U(tau)^n exact;
    the final partial period uses proportionally many steps of the same size.
    The power is taken of the polar factor of U(tau), so that its rounding-
    level unitarity defect is not amplified n-fold over a gate.  A caller
    that already holds U(tau) for these parameters passes it as `u_tau`.
    """
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if t_final == 0:
        return np.eye(8, dtype=complex)
    tau = 2 * math.pi / omega_d
    n_full = int(math.floor(t_final / tau + 1e-12))
    rem = t_final - n_full * tau
    if rem < 1e-12 * tau:
        rem = 0.0

    u = np.eye(8, dtype=complex)
    if n_full:
        if u_tau is None:
            u_tau = single_period_propagator(p, omega_d, cfg)
        u = _unitary_power(_nearest_unitary(u_tau), n_full)
    if rem:
        nsteps = max(1, int(math.ceil(cfg.steps_per_period * rem / tau)))
        u = interval_propagator(p, omega_d, 0.0, rem, nsteps, cfg.method) @ u
    return u


@dataclass(frozen=True)
class TrajectoryTable:
    """Uniformly sampled observables along one evolution.

    Columns, in order: time, the eight computational product-state
    populations |b_m b_1 b_2>, <sigma_z> for M/Q1/Q2, and the population
    of the rotating-frame dressed modulator ground state.
    """

    columns: tuple[str, ...]
    data: np.ndarray  # (samples, len(columns))


def export_trajectory(
    p: ProtocolParams,
    omega_d: float,
    initial: np.ndarray,
    t_final: float,
    samples: int,
    cfg: PropagatorConfig,
) -> TrajectoryTable:
    """Sample populations and spin expectations at uniform times.

    Sampling walks forward stroboscopically: whole periods reuse powers of
    the polar factor of U(tau), as in `total_propagator`; only the
    sub-period remainder is re-integrated per sample.
    """
    from .dressed import dress_modulator  # local import to keep layering flat

    if samples < 2:
        raise ValueError("samples must be >= 2")
    norm = float(np.linalg.norm(initial))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {norm} is not 1")

    tau = 2 * math.pi / omega_d
    u_tau = _nearest_unitary(single_period_propagator(p, omega_d, cfg))
    gm = dress_modulator(p.drive_amp, p.omega_m - omega_d).ground_state

    sz_diag = np.array([1.0, -1.0])
    times = np.linspace(0.0, t_final, samples)
    cols = (
        ["t"]
        + [f"pop_{i >> 2 & 1}{i >> 1 & 1}{i & 1}" for i in range(8)]
        + ["sz_m", "sz_1", "sz_2", "mod_ground_pop"]
    )
    data = np.empty((samples, len(cols)))

    u_power = np.eye(8, dtype=complex)  # U(tau)^n for the current n
    n_cur = 0
    for s, t in enumerate(times):
        n = int(math.floor(t / tau + 1e-12))
        while n_cur < n:
            u_power = u_tau @ u_power
            n_cur += 1
        rem = t - n * tau
        if rem > 1e-12 * tau:
            nsteps = max(1, int(math.ceil(cfg.steps_per_period * rem / tau)))
            u = interval_propagator(p, omega_d, 0.0, rem, nsteps, cfg.method) @ u_power
        else:
            u = u_power
        psi = u @ initial

        pops = np.abs(psi) ** 2
        pops3 = pops.reshape(2, 2, 2)
        sz_m = float(pops3.sum(axis=(1, 2)) @ sz_diag)
        sz_1 = float(pops3.sum(axis=(0, 2)) @ sz_diag)
        sz_2 = float(pops3.sum(axis=(0, 1)) @ sz_diag)
        # Modulator reduced state in the rotating frame; the frame map is
        # diagonal so only the relative |0>/|1> phase matters.
        wm = np.array([np.exp(-1j * omega_d * t / 2), np.exp(1j * omega_d * t / 2)])
        mm = (wm[:, None] * psi.reshape(2, 4))
        rho_m = mm @ mm.conj().T
        mod_pop = float(np.real(gm.conj() @ rho_m @ gm))

        data[s] = [t, *pops, sz_m, sz_1, sz_2, mod_pop]
    return TrajectoryTable(columns=tuple(cols), data=data)


def propagate(
    p: ProtocolParams,
    omega_d: float,
    t_final: float,
    cfg: PropagatorConfig,
    initial: np.ndarray,
) -> np.ndarray:
    """Evolve a normalized 8-dim state from t=0 to t_final."""
    norm = float(np.linalg.norm(initial))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {norm} is not 1")
    final = total_propagator(p, omega_d, t_final, cfg) @ initial
    if cfg.convergence_check:
        fine = replace(cfg, steps_per_period=2 * cfg.steps_per_period, convergence_check=False)
        final2 = total_propagator(p, omega_d, t_final, fine) @ initial
        change = float(np.linalg.norm(final - final2))
        if change > cfg.convergence_tol:
            raise StepTooCoarse(
                f"halving the step changed the final state by {change:.3e} "
                f"(> {cfg.convergence_tol:.3e})",
                change=change,
            )
    return final
