"""Time-ordered propagation of the periodically driven lab-frame Hamiltonian.

Two integrators are available, both built from exponentials of real
symmetric step Hamiltonians, evaluated to double precision by a batched
real Taylor polynomial of cos and sin (see `_batched_expm_herm`):

* ``midpoint``: piecewise-constant exponential at the step midpoint
  (second order), the robust default.
* ``magnus4``: fourth-order commutator-free Magnus scheme using the two
  Gauss-Legendre nodes per step.

Steps are multiplied out pairwise in time order (about log2(N) batched
products).  One period is folded twice, so the step count N per period is a
positive multiple of 4 and a period costs N/4 steps:

* H(tau - t) = H(t) makes each step the transpose of its mirror image about
  tau/2 (for ``magnus4`` the mirror swaps the Gauss-node factors), so
  U(tau) = V^T V with V = U(tau/2, 0).
* The drive flips sign over half a period, and the parity
  P = Z_M Z_1 Z_2 commutes with every static term and anticommutes with
  the drive operator, so H(tau/2 - t) = P H(t) P.  Each step of V is then
  P (mirror step)^T P about tau/4, and V = P W^T P W with W = U(tau/4, 0).

At j_12 = 0, H(t) is block-diagonal in Q2, with Q2 = |0> block
H_M1(t) - omega_2/2 and Q2 = |1> block that plus omega_2.  Only the 4x4
|0> block is then integrated, folded (with P's |0> block), factorized and
tailed; `_with_q2` joins the 8x8, the |1> block being the |0> block times
e^{-i omega_2 t}, where a propagator leaves this module.  This serves the
j_12-free reference evolution U0 of every channel.

Long evolutions exploit periodicity: U(n*tau + s, 0) = U(s, 0) U(tau)^n,
so a full gate (~1e4 periods) costs one single-period propagator and its
real Floquet factorization U(tau) = O diag(e^{i alpha}) O^T
(`floquet_factorization`); `_factorize` makes each kernel's factorization
once, alone or in a stack, and keeps it on the kernel.  Any number of
times t_i = n_i tau + s_i then cost one stacked product
O diag(e^{i n_i alpha}) O^T and one stack of tails U(s_i, 0),
each time evolved from 0 on its own.  The tail U(s, 0) is not integrated
afresh: the pairwise product that forms W keeps its levels, a binary tree
whose node i of level l is the product of the quarter's steps
[i 2^l, (i + 1) 2^l), cut at N/4.  Every grid propagator U(k dt, 0),
dt = tau/N, is then a handful of nodes: in the first quarter the aligned
nodes of the binary digits of k, in the second quarter
P conj(U((N/2 - k) dt, 0)) P V by the mirror above, and past half a
period P U(k dt - tau/2, 0) P V.  A kernel builds each grid propagator
once, on first use, from the ones it already holds (`_PeriodKernel.grid`),
and one partial step carries it from k dt to s.  A two-entry memo,
`_kernel`, keys the kernels of the last two calls on the whole
(p, omega_d, cfg), omega_d_on and omega_d_off included: enough for a
point and its j_12 = 0 reference, so U(tau), its factorization and the
grid propagators of one report share them.

A step whose Hamiltonian H has a 1-norm of H dt below _EXPM_THETA needs
no scaling.  Steps that share one static part h0, with drive values
a hd, are first bounded in closed form, dt (||h0||_1 + max |a| ||hd||_1):
below _EXPM_THETA they skip the norm pass of `_batched_expm_herm` and
are its bare Taylor polynomial, the same bits (`_static_steps`).  Kernels,
sweeps and `interval_propagator` are bounded; tails, whose static parts
are a stack, one per step, take the norm pass, which costs no more than
bounding them.

A parameter sweep needs U(tau) alone, at many points: `period_propagators`
integrates each point's W from its own steps, as a kernel does, then folds,
gates and (in `floquet_factorization`) factorizes all points as one stack,
without the memo.  What the points share is built once: their static parts
are one `lab_static` stack, and the drive terms of the steps
(`_drive_terms`) one per drive amplitude and factor size, to which each
point adds its static part.  Steps stay one point per stack: stacking the
steps of several points makes temporaries of >= 128 KiB, which glibc serves
from fresh pages (mmaps, or heap it grows and trims again), and their page
faults cost more than the batching saves.  In the benchmark harness, on a
2-core host with one BLAS thread, a pass over two 101-point sweeps with
stacked steps took 31.8 or 55-57 ms with 2-point stacks (bimodal), 55-64
ms with 3- to 8-point stacks, and 33-35 ms one point at a time; a 4-point
stack took 19,247 minor page faults per pass against 48.
A scan's channels need whole evolutions at many points: each point builds
its own kernels, and `_factorize`, `_evolve_kernels` and `_tails` take a
list of kernels, so the factorizations, whole-period powers and partial
steps of all points are stacks; each member is rounded as it is alone.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StepTooCoarse
from .params import ProtocolParams
from .pauli import PARITY, XM, lab_static, unitarity_defect

_SQRT3 = math.sqrt(3.0)
# Commutator-free 4th-order weights for the two Gauss-node Hamiltonians.
_CF4_X1 = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_X2 = (3.0 + 2.0 * _SQRT3) / 12.0

METHODS = ("midpoint", "magnus4")
#: Largest unitarity defect of U(tau) that `single_period_propagator` accepts.
_UNITARITY_TOL = 1e-10
#: Largest entry of |U - U^T| that `floquet_factorization` accepts; the
#: fold makes every U(tau) exactly symmetric.
_SYMMETRY_TOL = 1e-12
#: Phase rotations e^{i phi} of `floquet_factorization`, tried in turn: phi
#: a multiple of pi/8, coarsest first.  Any 8 eigenphases leave an arc of
#: >= pi/4 free, and one of these phis puts 0 at least pi/16 inside it.
_CAYLEY_ROTATIONS = (1.0,) + tuple(
    cmath.exp(1j * k * math.pi / 8) for k in (8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
)
#: Largest cos(beta) over the eigenphases beta of e^{i phi} U that
#: `floquet_factorization` accepts: every beta at least 0.15 from 0 (below
#: the pi/16 that one shift reaches).
_CAYLEY_COS_LIMIT = math.cos(0.15)
#: Largest entry of |U O - O diag(o^T U o)| that `floquet_factorization`
#: accepts; the operating points' factorizations reach ~1e-14.
_FACTOR_RESIDUAL_TOL = 1e-9

#: Largest 1-norm of a step's H dt / 2^s that `_batched_expm_herm` expands
#: in its degree-9 Taylor polynomial without squaring.
_EXPM_THETA = 0.1148
# Coefficients of (Y, Y^2), Y = X^2, in the two parts of
# cos X - 1 = (-Y/2! + Y^2/4!) + Y^2 (-Y/6! + Y^2/8!) and of
# 1 - sin X / X = (Y/3! - Y^2/5!) + Y^2 (Y/7! - Y^2/9!).
_TAYLOR_ROWS = np.array(
    [
        [-1 / math.factorial(2), 1 / math.factorial(4)],
        [-1 / math.factorial(6), 1 / math.factorial(8)],
        [1 / math.factorial(3), -1 / math.factorial(5)],
        [1 / math.factorial(7), -1 / math.factorial(9)],
    ]
)

# P X P for the diagonal parity P is the entrywise product with these signs,
# by the size of X: the 8x8 system or the Q2 = |0> block integrated at j_12 = 0.
_PARITY_SIGNS = {8: np.outer(np.diag(PARITY), np.diag(PARITY))}
_PARITY_SIGNS[4] = _PARITY_SIGNS[8][0::2, 0::2].copy()
# Real identity and ones of the largest step matrix, sliced to a step's size:
# building them per call costs more than a single step's own products.
_EYE = np.eye(8)
_ONES = np.ones(8)
for _a in (_EYE, _ONES):
    _a.flags.writeable = False
del _a


@dataclass(frozen=True)
class PropagatorConfig:
    #: Integrator steps per drive period, a positive multiple of 4: only the
    #: first quarter period is integrated (see the module docstring).
    steps_per_period: int = 256
    method: str = "midpoint"

    def __post_init__(self):
        try:
            if isinstance(self.steps_per_period, bool):  # an int to Python, not a count
                raise TypeError
            n = operator.index(self.steps_per_period)
        except TypeError:
            raise ValueError(
                f"steps_per_period must be an integer, got {self.steps_per_period!r}"
            ) from None
        if n < 4 or n % 4:
            raise ValueError(f"steps_per_period must be >= 4 and a multiple of 4, got {n}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")


def _batched_expm_herm(hs: np.ndarray, dt) -> np.ndarray:
    """exp(-i H dt) for a stack of real symmetric matrices, in real arithmetic.

    `dt` is one step size for the whole stack or one per matrix.  With
    X = H dt, exp(-i X) = cos X - i sin X.  Each matrix takes the smallest
    scaling exponent s that brings the 1-norm of X / 2^s to at most
    _EXPM_THETA, so it is rounded the same whatever its stack-mates; cos
    and sin of X / 2^s are their Taylor series through degree 8 and 9,
    evaluated in Y = (X / 2^s)^2 with real products only
    (Paterson-Stockmeyer), and the complex result is squared s times.
    The neglected terms have degree >= 10 in X / 2^s, so their 1-norm is at
    most sum_{j >= 10} theta^j / j! <= theta^10 / 10! / (1 - theta / 11)
    = 1.107e-16 < 2^-53 at theta = _EXPM_THETA (Higham, SIAM J. Matrix
    Anal. Appl. 26, 1179 (2005)).  Each squaring doubles the rounding-level
    unitarity defect, so after any squaring one Newton-Schulz step
    U (3 - U^dag U) / 2 takes U back to its polar factor to second order.

    Raises np.linalg.LinAlgError for a non-finite H dt.
    """
    x = _times_dt(hs, dt)
    n = x.shape[-1]
    # Row sums of |X| are its column sums: X is symmetric.
    row_norms = np.abs(x).reshape(-1, n) @ _ONES[:n]
    norm = float(row_norms.max()) if len(row_norms) else 0.0
    if not math.isfinite(norm):
        raise np.linalg.LinAlgError("non-finite step Hamiltonian")
    squarings = max(0, math.frexp(norm / _EXPM_THETA)[1])
    if not squarings:
        return _taylor_expm(x)
    s = np.maximum(0, np.frexp(row_norms.reshape(x.shape[:-1]).max(axis=-1) / _EXPM_THETA)[1])
    u = _taylor_expm(x * np.ldexp(1.0, -s)[:, None, None])
    for r in range(squarings):
        i = np.flatnonzero(s > r)
        u[i] = u[i] @ u[i]
    i = np.flatnonzero(s)
    u[i] = u[i] @ (1.5 * _EYE[:n, :n] - 0.5 * (u[i].conj().swapaxes(-1, -2) @ u[i]))
    return u


def _times_dt(hs: np.ndarray, dt) -> np.ndarray:
    """The stack H dt for one step size `dt` or one per matrix."""
    if isinstance(dt, float) and math.isfinite(dt):
        return hs * dt
    with np.errstate(invalid="ignore"):  # inf * 0 is rejected by the caller as non-finite
        return hs * np.reshape(dt, (-1, 1, 1))


def _taylor_expm(x: np.ndarray) -> np.ndarray:
    """exp(-i X) = cos X - i sin X for a stack of real symmetric X of 1-norm <= _EXPM_THETA.

    The Taylor half of `_batched_expm_herm`, with neither scaling nor squaring.
    """
    n = x.shape[-1]
    powers = np.empty((2,) + x.shape)
    np.matmul(x, x, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    # The four parts of _TAYLOR_ROWS; the two high parts are multiplied by Y^2.
    parts = (_TAYLOR_ROWS @ powers.reshape(2, -1)).reshape((4,) + x.shape)
    upper = powers[1] @ parts[1::2]
    # Real part cos X, imaginary part -sin X = X (1 - sin X / X) - X.
    u = np.empty(x.shape, dtype=complex)
    np.add(parts[0] + upper[0], _EYE[:n, :n], out=u.real)
    np.subtract(x @ (parts[2] + upper[1]), x, out=u.imag)
    return u


def _product_tree(us: np.ndarray) -> list[np.ndarray]:
    """Levels of the pairwise time-ordered product of us[0], us[1], ...

    Node i of level l is us[b - 1] @ ... @ us[a] over the steps
    [a, b) = [i 2^l, min((i + 1) 2^l, len(us))): level 0 is `us`, each
    level multiplies neighbours of the one below, and the last level holds
    the whole product alone.
    """
    levels = [us]
    while len(us) > 1:
        n = len(us) - len(us) % 2
        pairs = us[1:n:2] @ us[0:n:2]
        us = pairs if n == len(us) else np.concatenate((pairs, us[n:]))
        levels.append(us)
    return levels


def _ordered_product(us: np.ndarray) -> np.ndarray:
    """us[n-1] @ ... @ us[1] @ us[0]: the top of `_product_tree`."""
    return _product_tree(us)[-1][0]


def _factor_hamiltonian(p: ProtocolParams, h0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(static part, drive operator) of the integrated factor of H(t).

    `h0` is the point's `lab_static(p)`.  The factor is the 4x4 Q2 = |0>
    block of the lab Hamiltonian at j_12 = 0, where H(t) is block-diagonal
    in Q2, and the full 8x8 system otherwise.
    """
    return (h0[0::2, 0::2], XM[0::2, 0::2]) if p.j_12 == 0 else (h0, XM)


def _norm1(a: np.ndarray) -> float:
    """The 1-norm of a symmetric matrix: its largest row sum of |a|."""
    return float((np.abs(a) @ _ONES[: len(a)]).max())


def _drive_terms(
    hd: np.ndarray, drive_amp, omega_d, edges: np.ndarray, dt, method: str
) -> tuple[tuple[np.ndarray, ...], list[np.ndarray]]:
    """The drive parts of the step Hamiltonians of `_step_exponentials`, and their coefficients.

    One stack c_k hd per exponential of a step: c_k = a_k, the drive at the
    midpoint, or the Gauss-node weighted x1 a1 + x2 a2 and x2 a1 + x1 a2
    for ``magnus4``.
    """

    def drive(ts):
        return drive_amp * np.cos(omega_d * ts)

    if method == "midpoint":
        coefs = [drive(edges + 0.5 * dt)]
    elif method == "magnus4":
        a1 = drive(edges + (0.5 - _SQRT3 / 6.0) * dt)
        a2 = drive(edges + (0.5 + _SQRT3 / 6.0) * dt)
        coefs = [_CF4_X1 * a1 + _CF4_X2 * a2, _CF4_X2 * a1 + _CF4_X1 * a2]
    else:
        raise ValueError(f"unknown method {method!r}")
    return tuple(c[:, None, None] * hd for c in coefs), coefs


def _drive_bound(coefs: list[np.ndarray], hd: np.ndarray) -> float:
    """max |c| ||hd||_1: a bound on the 1-norms of the drive terms c hd of `_drive_terms`."""
    return float(np.abs(coefs).max()) * _norm1(hd)


def _static_steps(
    h0: np.ndarray, terms: tuple[np.ndarray, ...], drive_bound: float | None, dt, method: str
) -> np.ndarray:
    """Step exponentials of the static part h0 plus the drive terms of `_drive_terms`.

    Each step Hamiltonian is h0 + a hd at the midpoint; for ``magnus4`` a
    step is exp(-i dt (x1 H1 + x2 H2)) exp(-i dt (x2 H1 + x1 H2)), the
    later-weighted exponential acting last, of (x1 a1 + x2 a2) hd + h0 / 2
    and (x2 a1 + x1 a2) hd + h0 / 2.  Given `drive_bound` (`_drive_bound`),
    max |dt| (||h0'||_1 + drive_bound), h0' = h0 or h0 / 2, bounds every
    step's 1-norm of H dt; the margin 1e-12 covers the rounding of both
    sides.  Below _EXPM_THETA no step of `_batched_expm_herm` would be
    scaled, so the norm pass is skipped and each step is its bare Taylor
    polynomial, the same bits.  Without a bound every step takes the norm
    pass.
    """
    if method == "midpoint":
        hs = (h0 + terms[0],)
        static = h0
    else:
        static = 0.5 * h0
        hs = (terms[0] + static, terms[1] + static)
    unscaled = False
    if drive_bound is not None:
        dt_max = abs(dt) if isinstance(dt, float) else float(np.abs(dt).max())
        unscaled = dt_max * (_norm1(static) + drive_bound) * (1 + 1e-12) < _EXPM_THETA
    us = [_taylor_expm(_times_dt(h, dt)) if unscaled else _batched_expm_herm(h, dt) for h in hs]
    return us[0] if len(us) == 1 else us[0] @ us[1]


def _step_exponentials(
    h0: np.ndarray, hd: np.ndarray, drive_amp, omega_d, edges: np.ndarray, dt, method: str
) -> np.ndarray:
    """Step exponentials U(edges + dt, edges) of h0 + drive_amp cos(omega_d t) hd.

    `h0`, `drive_amp`, `omega_d` and `dt` are each one value for every step
    or one per step (`h0` then a stack), so the steps of several parameter
    points can share one call.  Steps that share one h0 are bounded in
    closed form (`_static_steps`); a stack of h0 (the tails) is not.
    """
    terms, coefs = _drive_terms(hd, drive_amp, omega_d, edges, dt, method)
    bound = _drive_bound(coefs, hd) if h0.ndim == 2 else None
    return _static_steps(h0, terms, bound, dt, method)


def _with_q2(omega_2, u: np.ndarray, duration) -> np.ndarray:
    """The 8x8 propagator(s) over `duration` from the integrated factor's u.

    An 8x8 u is returned as it is.  A 4x4 u is the Q2 = |0> block of the
    j_12 = 0 system, whose Q2 = |1> block of H(t) is the |0> block plus
    omega_2, so its |1> block is u e^{-i omega_2 duration}.  For one u or a
    stack with one duration (and one omega_2, or one for all) each.
    """
    if u.shape[-1] == 8:
        return u
    out = np.zeros(u.shape[:-2] + (8, 8), dtype=complex)
    out[..., 0::2, 0::2] = u
    out[..., 1::2, 1::2] = u * np.exp(-1j * (omega_2 * np.asarray(duration)))[..., None, None]
    return out


def interval_propagator(
    p: ProtocolParams,
    omega_d: float,
    t0: float,
    t1: float,
    nsteps: int,
    method: str = "midpoint",
) -> np.ndarray:
    """Time-ordered 8x8 propagator U(t1, t0) with nsteps uniform steps.

    At j_12 = 0 only the Q2 = |0> block is integrated (`_with_q2`).
    """
    if t1 == t0:
        return np.eye(8, dtype=complex)
    dt = (t1 - t0) / nsteps
    edges = t0 + dt * np.arange(nsteps)
    h0, hd = _factor_hamiltonian(p, lab_static(p))
    steps = _step_exponentials(h0, hd, p.drive_amp, omega_d, edges, dt, method)
    return _with_q2(p.omega_2, _ordered_product(steps), t1 - t0)


def _quarter_period(omega_d: float, cfg: PropagatorConfig) -> tuple[float, np.ndarray]:
    """The step size dt = tau/N and the starts of the first quarter period's N/4 steps."""
    dt = 2 * math.pi / omega_d / cfg.steps_per_period
    return dt, dt * np.arange(cfg.steps_per_period // 4)


def _fold(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = U(tau/2, 0) = P W^T P W and U(tau) = V^T V for a stack of W = U(tau/4, 0).

    P is the parity of W's size (`_PARITY_SIGNS`).
    """
    v = (_PARITY_SIGNS[w.shape[-1]] * w.swapaxes(-1, -2)) @ w
    return v, v.swapaxes(-1, -2) @ v


def _unitarity_gate(defect: float, index: int | None = None) -> None:
    """Raise StepTooCoarse when U(tau)'s unitarity defect exceeds _UNITARITY_TOL."""
    if not defect <= _UNITARITY_TOL:  # a NaN defect fails too
        at = "" if index is None else f" at sweep index {index}"
        raise StepTooCoarse(
            f"single-period propagator unitarity defect {defect:.3e} exceeds "
            f"tolerance {_UNITARITY_TOL:.3e}{at}"
        )


class _PeriodKernel:
    """One period's step exponentials, U(tau) and the grid propagators U(k dt, 0).

    Everything is of the integrated factor's size (`_factor_hamiltonian`):
    8x8, or the 4x4 Q2 = |0> block at j_12 = 0.  The integrated segment is
    [0, tau/4], N/4 steps.  Their pairwise product tree (`_product_tree`),
    whose top is W, is kept: each grid propagator is built from its nodes
    and V, once per kernel (`grid`).  `floquet` is None until `_factorize`
    sets U(tau)'s factorization.  `_kernel` memoizes kernels on their
    arguments (p, omega_d, cfg), so all arrays are read-only.
    """

    def __init__(self, p: ProtocolParams, omega_d: float, cfg: PropagatorConfig):
        self.p, self.omega_d = p, omega_d
        self.nsteps, self.method = cfg.steps_per_period, cfg.method
        self.dt, edges = _quarter_period(omega_d, cfg)
        self.h0, self.hd = _factor_hamiltonian(p, lab_static(p))
        steps = _step_exponentials(self.h0, self.hd, p.drive_amp, omega_d, edges, self.dt, self.method)
        self.tree = _product_tree(steps)
        (self.v,), (self.u_tau,) = _fold(self.tree[-1])
        for a in (*self.tree, self.h0, self.v, self.u_tau):
            a.flags.writeable = False
        self.floquet = None
        self.grids: dict[int, np.ndarray] = {}

    def grid(self, k: int) -> np.ndarray:
        """The read-only grid propagator U(k dt, 0), 0 <= k <= N, kept in `grids`.

        With m = N/4 and 2^l the lowest set bit of k: for 0 < k <= m, the
        tree's node over the steps [k - 2^l, k) times U((k - 2^l) dt, 0),
        so U(k dt, 0) is the aligned nodes of k's binary digits multiplied
        highest first.  For m < k <= 2m, P conj(U((2m - k) dt, 0)) P V:
        V = U(2m dt, k dt) U(k dt, 0), and U(2m dt, k dt) is the mirror
        P U((2m - k) dt, 0)^T P.  Past half a period, P U((k - 2m) dt, 0) P V.
        A grid propagator thus costs at most log2(m) + 2 products the first
        time, none after.
        """
        u = self.grids.get(k)
        if u is None:
            m, signs = self.nsteps // 4, _PARITY_SIGNS[len(self.h0)]
            if k == 0:
                u = np.eye(len(self.h0), dtype=complex)
            elif k <= m:
                low = k & -k
                node = self.tree[low.bit_length() - 1][(k - low) // low]
                u = node @ self.grid(k - low) if k > low else node
            elif k <= 2 * m:
                u = (signs * np.conj(self.grid(2 * m - k))) @ self.v
            else:
                u = (signs * self.grid(k - 2 * m)) @ self.v
            u.flags.writeable = False
            self.grids[k] = u
        return u


def _factorize(kernels: list[_PeriodKernel]) -> tuple[np.ndarray, np.ndarray]:
    """Factorize the U(tau) of several kernels as one stack, setting each kernel's `floquet`.

    This is the only place a kernel's factorization is made.  The kernels
    share the factor size (all at j_12 = 0 or all coupled), and one
    `floquet_factorization` call takes the stack of their U(tau), so each
    kernel's `floquet` is the one it builds alone.  Returns that call's
    read-only (alpha, modes).  The caller gates each U(tau) first.
    """
    alpha, modes = floquet_factorization(np.array([k.u_tau for k in kernels]))
    for a in (alpha, modes):
        a.flags.writeable = False
    for k, f in zip(kernels, zip(alpha, modes)):
        k.floquet = f
    return alpha, modes


def _tails(kernels: list[_PeriodKernel], owner: np.ndarray, rems: np.ndarray) -> np.ndarray:
    """U(rems[i], 0) of kernels[owner[i]]'s factor, 0 <= rems[i] < tau, as one stack.

    Each tail is the kernel's grid propagator U(k dt, 0) (`_PeriodKernel.grid`),
    k = min(floor(rem / dt), N), then one partial step from k dt to rem.
    The partial steps of all tails run through one batched step
    exponential, so a tail is the same whether it comes alone or in a
    stack.  The kernels share the method and the factor size.
    """
    starts, grids = [], []
    for o, rem in zip(owner.tolist(), rems.tolist()):
        kernel = kernels[o]
        k = min(math.floor(rem / kernel.dt), kernel.nsteps)
        starts.append(k * kernel.dt)
        grids.append(kernel.grid(k))
    starts = np.array(starts)
    h0 = np.array([k.h0 for k in kernels])[owner]
    drive_amp, omega_d = np.array([(k.p.drive_amp, k.omega_d) for k in kernels])[owner].T
    partial = _step_exponentials(
        h0, kernels[0].hd, drive_amp, omega_d, starts, rems - starts, kernels[0].method
    )
    return partial @ np.array(grids)


#: The period memo, keyed on the frozen (p, omega_d, cfg); called positionally,
#: since a keyword makes another key.
_kernel = functools.lru_cache(maxsize=2)(_PeriodKernel)


def single_period_propagator(
    p: ProtocolParams, omega_d: float, cfg: PropagatorConfig
) -> np.ndarray:
    """The read-only 8x8 U(tau) over one drive period tau = 2 pi / omega_d.

    It is the U(tau) of the memoized `_kernel(p, omega_d, cfg)`, joined
    afresh from the kernel's Q2 = |0> block at j_12 = 0 (`_with_q2`).
    Raises StepTooCoarse when its unitarity defect exceeds _UNITARITY_TOL.
    """
    u_tau = _kernel(p, omega_d, cfg).u_tau
    u = _with_q2(p.omega_2, u_tau, 2 * math.pi / omega_d)
    u.flags.writeable = False
    _unitarity_gate(unitarity_defect(u))
    return u


def period_propagators(
    points: list[ProtocolParams], omega_d: float, cfg: PropagatorConfig
) -> np.ndarray:
    """U(tau) of each parameter point, as one read-only (n, 8, 8) stack.

    Each point's quarter-period propagator W comes from its own steps, as
    in a period kernel, but what the points share is made once: their
    static parts are one `lab_static` stack, and the drive terms of the
    steps (`_drive_terms`) are made once per drive amplitude and factor
    size.  The W of each factor size are folded as one stack, and those of
    the j_12 = 0 points joined to 8x8 (`_with_q2`), so each U(tau) is
    `single_period_propagator`'s bit for bit; the unitarity defects of all
    points are one stacked product.  The period memo is neither read nor
    filled: a sweep needs no tails.  Raises StepTooCoarse, naming the first
    failing index, when a defect exceeds _UNITARITY_TOL as in
    `single_period_propagator`.
    """
    dt, edges = _quarter_period(omega_d, cfg)
    drives, w = {}, []
    for p, static in zip(points, lab_static(points)):
        h0, hd = _factor_hamiltonian(p, static)
        key = (p.drive_amp, len(hd))
        if key not in drives:
            terms, coefs = _drive_terms(hd, p.drive_amp, omega_d, edges, dt, cfg.method)
            drives[key] = terms, _drive_bound(coefs, hd)
        w.append(_ordered_product(_static_steps(h0, *drives[key], dt, cfg.method)))
    u = np.empty((len(points), 8, 8), dtype=complex)
    for size in {len(a) for a in w}:
        idx = [i for i, a in enumerate(w) if len(a) == size]
        omega_2 = np.array([points[i].omega_2 for i in idx])
        u[idx] = _with_q2(omega_2, _fold(np.array([w[i] for i in idx]))[1], 2 * math.pi / omega_d)
    for i, defect in enumerate(unitarity_defect(u).tolist()):
        _unitarity_gate(defect, i)
    u.flags.writeable = False
    return u


def floquet_factorization(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases alpha in [-pi, pi) and real orthogonal modes O of U = O diag(e^{i alpha}) O^T.

    U must be a symmetric unitary, as every single-period propagator is
    (U(tau) = V^T V, see the module docstring): its real and imaginary
    parts A, B commute, so one real orthogonal O diagonalizes both (the
    time-reversal-invariant class of Floquet operators).  With
    W = e^{i phi} U = A + i B, the Cayley matrix (I - A)^-1 B is real
    symmetric with eigenvalues cot(beta / 2) on the same O, beta the
    eigenphases of W; one real `eigh` of it gives O.  cot(beta / 2) is
    monotone in beta, so distinct eigenphases keep distinct modes.  alpha
    is the phase of each mode's Rayleigh quotient o^T U o, which ignores
    the rounding-level departure of |e^{i alpha}| from 1, so the powers
    O diag(e^{i n alpha}) O^T are those of U's polar factor.  phi is the
    first of _CAYLEY_ROTATIONS whose modes diagonalize U to
    _FACTOR_RESIDUAL_TOL with every beta = alpha + phi at least 0.15 from 0
    (_CAYLEY_COS_LIMIT), where I - A is singular; phi = 0 serves every
    operating point (their eigenphases sit >= 2.8 rad from 0).

    U may be a stack (..., n, n), factorized member by member in stacked
    `solve` and `eigh` calls: each member gets the rotation and the result
    it would get alone, and only the members a rotation fails try the next.

    Raises ValueError unless U is finite and symmetric to _SYMMETRY_TOL,
    and np.linalg.LinAlgError when no rotation factorizes it (U is not
    unitary).
    """
    asym = float(np.abs(u - u.swapaxes(-1, -2)).max())
    if not asym <= _SYMMETRY_TOL:  # a NaN fails too
        raise ValueError(f"Floquet operator is not finite and symmetric: max |U - U^T| = {asym:.3e}")
    n = u.shape[-1]
    us = u.reshape(-1, n, n)
    ok, lam, modes = _cayley_modes(us, _CAYLEY_ROTATIONS[0])
    if not ok.all():
        todo = np.flatnonzero(~ok)
        for rotation in _CAYLEY_ROTATIONS[1:]:
            if not len(todo):
                break
            ok, lam_r, modes_r = _cayley_modes(us[todo], rotation)
            lam[todo[ok]], modes[todo[ok]] = lam_r[ok], modes_r[ok]
            todo = todo[~ok]
        if len(todo):
            raise np.linalg.LinAlgError(
                "no Cayley shift factorizes U: it is not a symmetric unitary"
            )
    return _principal_phases(lam).reshape(u.shape[:-1]), modes.reshape(u.shape)


def _cayley_modes(us: np.ndarray, rotation: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accepted, Rayleigh quotients, modes) of a stack of U at one phase rotation.

    A stacked `solve` that meets an exactly singular I - A is retried
    member by member; the singular members are not accepted.
    """
    w = us if rotation == 1.0 else us * rotation
    try:
        c = np.linalg.solve(_EYE[: us.shape[-1], : us.shape[-1]] - w.real, w.imag)
    except np.linalg.LinAlgError:  # an eigenphase of W at exactly 0
        if len(us) == 1:
            rejected = np.zeros(1, dtype=bool)
            return rejected, np.empty(us.shape[:-1], dtype=complex), np.empty(us.shape)
        parts = [_cayley_modes(u[None], rotation) for u in us]
        return tuple(np.concatenate(a) for a in zip(*parts))
    modes = np.linalg.eigh(0.5 * (c + c.swapaxes(-1, -2)))[1]
    um = us @ modes
    lam = (um * modes).sum(axis=-2)  # Rayleigh quotients o^T U o
    # The margin is read from the Rayleigh quotients, not from the Cayley
    # eigenvalues: an eigenphase of W at 0 to rounding makes its block of
    # the Cayley matrix 0 / 0, arbitrary but not necessarily large.
    ok = ((lam if rotation == 1.0 else lam * rotation).real.max(axis=-1) <= _CAYLEY_COS_LIMIT) & (
        np.abs(um - modes * lam[:, None, :]).max(axis=(-2, -1)) <= _FACTOR_RESIDUAL_TOL
    )
    return ok, lam, modes


def _principal_phases(lam: np.ndarray) -> np.ndarray:
    """Phases in [-pi, pi) of nonzero complex numbers."""
    alpha = np.angle(lam)  # in (-pi, pi]
    alpha[alpha >= math.pi] = -math.pi
    return alpha


def _check_t_final(t_final: float) -> None:
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < 0:
        raise ValueError("t_final must be >= 0")


def _whole_periods(times, tau):
    """Whole drive periods n in each time t = n tau + s, 0 <= s < tau (to rounding)."""
    return np.floor(times / tau + 1e-12)


def _evolve_kernels(
    kernels: list[_PeriodKernel], owner: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """8x8 U(times[i], 0) of kernels[owner[i]] for finite times >= 0, stacked.

    Periodicity of the drive makes U(n*tau + s, 0) = U(s, 0) U(tau)^n exact.
    With each kernel's factorization U(tau) = O diag(e^{i alpha}) O^T
    (`_PeriodKernel.floquet`), all times with n > 0 whole periods get
    O diag(e^{i n alpha}) O^T in one stacked product, and a time with
    n = 0 the identity.  Once some time spans a whole period, one
    `_factorize` call factorizes the kernels that still lack it, so a
    kernel is factorized once, alone or in a stack.  Each power is unitary
    to the orthogonality of O, so the rounding-level unitarity defect of
    U(tau) is not amplified n-fold over a gate, and each time is evolved
    from 0 on its own.  The tails U(s, 0) then come in one stack from
    `_tails`.  All of this is of the kernels' factor size, and at
    j_12 = 0 `_with_q2` joins each 8x8 U(t, 0) last.  The caller gates the
    U(tau) of every kernel that reaches a whole period.
    """
    tau = 2 * math.pi / np.array([k.omega_d for k in kernels])[owner]
    n = _whole_periods(times, tau)
    out = np.repeat(np.eye(len(kernels[0].u_tau), dtype=complex)[None], len(times), axis=0)
    whole = n > 0
    if whole.any():
        todo = [k for k in kernels if k.floquet is None]
        if todo:
            _factorize(todo)
        alpha, modes = (np.array(f)[owner[whole]] for f in zip(*(k.floquet for k in kernels)))
        phases = np.exp(1j * n[whole, None, None] * alpha[..., None, :])
        out[whole] = (modes * phases) @ modes.swapaxes(-1, -2)
    rems = times - n * tau
    tail = rems >= 1e-12 * tau
    if tail.any():
        out[tail] = _tails(kernels, owner[tail], rems[tail]) @ out[tail]
    return _with_q2(np.array([k.p.omega_2 for k in kernels])[owner], out, times)


def _evolve(
    p: ProtocolParams, omega_d: float, times: np.ndarray, cfg: PropagatorConfig
) -> np.ndarray:
    """U(t, 0) for each of the finite times t >= 0, in any order, stacked.

    One period kernel serves every time (`_evolve_kernels`).  U(tau)
    passes `single_period_propagator`'s unitarity gate before its first
    power.
    """
    kernel = _kernel(p, omega_d, cfg)
    if np.any(_whole_periods(times, 2 * math.pi / omega_d) > 0):
        single_period_propagator(p, omega_d, cfg)
    return _evolve_kernels([kernel], np.zeros(len(times), dtype=int), times)


def total_propagator(
    p: ProtocolParams, omega_d: float, t_final: float, cfg: PropagatorConfig
) -> np.ndarray:
    """U(t_final, 0): whole drive periods, then a shortened tail (see `_evolve`)."""
    _check_t_final(t_final)
    return _evolve(p, omega_d, np.array([t_final]), cfg)[0]


def rotating_ground_population(
    gm: np.ndarray, omega_d: float, times: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """<g_m|rho_m|g_m> of each lab-frame 8-vector state, in the rotating frame.

    `states[i]` is read at `times[i]`.  The frame map is diagonal, so only
    the relative |0>/|1> phase of the modulator matters, and
    <g_m|rho_m|g_m> = sum_j |<g_m|psi_j>|^2 over the Q1Q2 columns psi_j.
    """
    wm = np.exp(np.outer(times, [-0.5j * omega_d, 0.5j * omega_d]))
    mm = wm[:, :, None] * states.reshape(len(states), 2, 4)
    return np.sum(np.abs(gm.conj() @ mm) ** 2, axis=1)


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

    Each sample's state is U(t, 0) @ initial from one stacked evolution
    (see `_evolve`), and the observables are evaluated on the whole stack
    of states at once.
    """
    from .dressed import dressed_vectors  # local import to keep layering flat

    if samples < 2:
        raise ValueError("samples must be >= 2")
    norm = float(np.linalg.norm(initial))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {norm} is not 1")

    _check_t_final(t_final)
    times = np.linspace(0.0, t_final, samples)
    states = _evolve(p, omega_d, times, cfg) @ np.asarray(initial, dtype=complex)

    pops = np.abs(states) ** 2
    pops3 = pops.reshape(samples, 2, 2, 2)
    sz_diag = np.array([1.0, -1.0])
    sz = np.column_stack(
        [pops3.sum(axis=axes) @ sz_diag for axes in ((2, 3), (1, 3), (1, 2))]
    )
    gm = dressed_vectors(p.drive_amp, p.j_m1, *p.detunings(omega_d))[0]
    mod_pop = rotating_ground_population(gm, omega_d, times, states)

    cols = (
        ["t"]
        + [f"pop_{i >> 2 & 1}{i >> 1 & 1}{i & 1}" for i in range(8)]
        + ["sz_m", "sz_1", "sz_2", "mod_ground_pop"]
    )
    data = np.column_stack([times, pops, sz, mod_pop])
    return TrajectoryTable(columns=tuple(cols), data=data)

