"""Floquet quasienergy spectra, branch tracking, and avoided-crossing gaps.

Quasienergies come from the eigenphases of the single-period propagator
U(tau) mapped to the principal branch (-omega_d/2, omega_d/2].  The drive
is cos(omega_d t) and every operator is real, so U(tau) is symmetric and
its Floquet modes are real and orthogonal; both come from one real
factorization (`propagate.floquet_factorization`).  A sweep builds every
point's U(tau) in one stack (`propagate.period_propagators`) and
factorizes the whole stack in one call.  Branches are continued
across the sweep by maximal eigenvector overlap and labeled by their
dominant dressed product state |a_m b_1 c_2>; the overlaps of all
consecutive points, the dressed product bases of all points (one kron of
`dressed.dressed_bases`, which a channel stack labels with too) and their
overlaps with the modes are one stack each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .dressed import dressed_bases
from .errors import BranchNotFound, BranchTrackingAmbiguous
from .params import ProtocolParams
from .pauli import kron
from .propagate import PropagatorConfig, floquet_factorization, period_propagators

#: Branch-continuation overlaps below this are flagged as crossing windows.
CONTINUITY_FLOOR = 0.5
#: Below this the continuation is considered unresolvable.
AMBIGUITY_FLOOR = 0.2

SWEEPABLE = ("omega_1", "omega_2", "j_m1", "j_12", "drive_amp")

#: Labels of the dressed product states, in `dressed_product_basis`' column
#: order; the first four are the modulator-ground ("gm ...") ones.
LABELS = tuple(f"{a}m {b}1 {c}2" for a in "ge" for b in "ge" for c in "ge")


def principal_quasienergies(u: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies in (-omega_d/2, omega_d/2] and the Floquet modes at t=0.

    U = O diag(e^{-i eps tau}) O^T from `floquet_factorization`: the modes
    are the columns of the real orthogonal O, orthonormal even through
    near-degeneracies, and eps = -alpha / tau for the eigenphases alpha in
    [-pi, pi).  A stack (..., 8, 8) of U gives stacks of both.  U must be
    symmetric (every single-period propagator is); a non-symmetric or
    non-finite U raises ValueError.
    """
    alpha, modes = floquet_factorization(u)
    return -alpha / tau, modes


def dressed_product_basis(
    p: ProtocolParams, omega_d: float
) -> tuple[list[str], np.ndarray]:
    """Dressed single-qubit product states and their labels.

    Returns (labels, columns) where column k is the 8-vector for label k,
    e.g. "gm g1 e2": kron of the modulator, Q1 and Q2 bases of
    `dressed.dressed_bases`, as a sweep builds them.
    """
    b = dressed_bases([p], [omega_d])[0]
    return list(LABELS), kron(b[0], b[1], b[2])


@dataclass(frozen=True)
class FloquetSpectrum:
    sweep_name: str
    sweep_values: np.ndarray
    omega_d: float
    #: (n_points, 8) quasienergies, column = tracked branch.
    quasienergies: np.ndarray
    #: Branch labels assigned at the first sweep point.
    labels: list[str]
    #: (n_points, 8) overlap with the frozen-modulator subspace.
    modulator_weight: np.ndarray
    #: Sweep indices where some continuation overlap dropped below 0.5.
    flagged_points: list[int]

    def branch(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BranchNotFound(
                f"branch {label!r} not present; have {self.labels}"
            ) from None


def floquet_spectrum(
    p: ProtocolParams,
    omega_d: float,
    sweep_name: str,
    grid: np.ndarray,
    cfg: PropagatorConfig,
) -> FloquetSpectrum:
    """Quasienergy branches of U(tau) along a monotone parameter sweep.

    All points' U(tau) come in one `period_propagators` stack and are
    factorized in one `principal_quasienergies` call.  The overlaps of
    consecutive points' modes are one stacked product; the dressed bases
    are one kron of every point's closed-form bases (`dressed_bases`),
    and their overlaps with the ordered modes one product.  Besides those
    closed forms, only the greedy branch assignment walks the points in
    order.

    Raises ConfigError, before any propagator, when a grid value makes an
    invalid parameter point (e.g. a negative qubit frequency), and
    StepTooCoarse, before any branch is continued, when some point's U(tau)
    fails the unitarity gate.
    """
    if sweep_name not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}")
    grid = np.asarray(grid, dtype=float)
    d = np.diff(grid)
    if len(grid) < 2 or not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("sweep grid must be strictly monotone with >= 2 points")
    points = [dc_replace(p, **{sweep_name: float(v)}) for v in grid]
    for pi in points:
        pi.validate()

    eps, vecs = principal_quasienergies(
        period_propagators(points, omega_d, cfg), 2 * math.pi / omega_d
    )
    # raw[i - 1][b, c] = |<mode b at i - 1 | mode c at i>|^2, as the factorization orders them.
    raw = np.abs(vecs[:-1].swapaxes(-1, -2) @ vecs[1:]) ** 2
    orders = [np.argsort(eps[0]).tolist()]
    flagged: list[int] = []
    for i in range(1, len(grid)):  # rows in point i - 1's branch order
        orders.append(_greedy_order(raw[i - 1, orders[-1]], i, flagged))
    orders = np.array(orders)
    quasi = np.take_along_axis(eps, orders, axis=1)
    vecs = np.take_along_axis(vecs, orders[:, None, :], axis=2)
    b = dressed_bases(points, [omega_d] * len(points))
    ov = np.abs(kron(b[:, 0], b[:, 1], b[:, 2]).swapaxes(-1, -2) @ vecs) ** 2
    return FloquetSpectrum(
        sweep_name=sweep_name,
        sweep_values=grid,
        omega_d=omega_d,
        quasienergies=quasi,
        labels=[LABELS[k] for k in np.argmax(ov[0], axis=0)],
        modulator_weight=ov[:, :4].sum(axis=1),
        flagged_points=flagged,
    )


def _greedy_order(ov: np.ndarray, index: int, flagged: list[int]) -> list[int]:
    """Greedy maximal-overlap assignment of current to previous branches.

    ov[b, c] is the overlap of previous branch b with current column c; the
    result is, per branch, its column.  Flags `index` below CONTINUITY_FLOOR
    and raises BranchTrackingAmbiguous below AMBIGUITY_FLOOR.
    """
    values = ov.ravel().tolist()
    order = [-1] * 8
    taken = [False] * 8
    assigned = 0
    worst = 1.0
    # Assign pairs in globally decreasing overlap order; a conflict means
    # the winning column was already claimed by a stronger overlap.
    for f in np.argsort(ov, axis=None)[::-1].tolist():
        b, c = divmod(f, 8)
        if order[b] >= 0 or taken[c]:
            continue
        order[b] = c
        taken[c] = True
        worst = min(worst, values[f])
        assigned += 1
        if assigned == 8:
            break
    if worst < AMBIGUITY_FLOOR:
        raise BranchTrackingAmbiguous(
            f"branch continuation overlap {worst:.3f} at sweep index {index} "
            "is too small to resolve",
            grid_index=index,
        )
    if worst < CONTINUITY_FLOOR:
        flagged.append(index)
    return order


def _circular_separation(a: np.ndarray, b: np.ndarray, omega_d: float) -> np.ndarray:
    """Distance between quasienergies on the principal-branch circle."""
    d = np.abs(a - b)
    return np.minimum(d, omega_d - d)


def avoided_crossing_gap(spec: FloquetSpectrum, branch_a: str, branch_b: str) -> float:
    """Minimum separation of two branches over the sweep, parabola-refined."""
    ia, ib = spec.branch(branch_a), spec.branch(branch_b)
    sep = _circular_separation(
        spec.quasienergies[:, ia], spec.quasienergies[:, ib], spec.omega_d
    )
    k = int(np.argmin(sep))
    if 0 < k < len(sep) - 1:
        y0, y1, y2 = sep[k - 1], sep[k], sep[k + 1]
        denom = y0 - 2 * y1 + y2
        if denom > 0:
            # Parabolic vertex through three uniform samples.
            delta = 0.5 * (y0 - y2) / denom
            if -1 <= delta <= 1:
                return float(y1 - 0.25 * (y0 - y2) * delta)
    return float(sep[k])


def branch_separation_at(
    spec: FloquetSpectrum, branch_a: str, branch_b: str, value: float
) -> float:
    """Separation of two branches at the sweep value closest to `value`."""
    ia, ib = spec.branch(branch_a), spec.branch(branch_b)
    k = int(np.argmin(np.abs(spec.sweep_values - value)))
    return float(
        _circular_separation(
            spec.quasienergies[k, ia], spec.quasienergies[k, ib], spec.omega_d
        )
    )
