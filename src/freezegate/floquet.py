"""Floquet quasienergy spectra, branch tracking, and avoided-crossing gaps.

Quasienergies come from the eigenphases of the single-period propagator
U(tau) mapped to the principal branch (-omega_d/2, omega_d/2].  The drive
is cos(omega_d t) and every operator is real, so U(tau) is symmetric and
its Floquet modes are real and orthogonal; both come from one real
factorization (`propagate.floquet_factorization`).  A sweep builds every
point's U(tau) in one stack (`propagate.period_propagators`) and
factorizes the whole stack in one call.  One greedy one-to-one overlap
assignment continues the branches across the sweep and labels them with
distinct dressed product states |a_m b_1 c_2>; the overlaps of all
consecutive points, the dressed product bases of all points (one kron of
`dressed.dressed_bases`, which a channel stack labels with too) and their
overlaps with the modes are one stack each.  Where every mode's largest
overlap with the next point's modes exceeds CONTINUITY_FLOOR, the greedy
assignment is the per-mode argmax, and those steps take one stacked
argmax; only the ambiguous steps walk the greedy.
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
    #: A permutation of LABELS, by `_greedy_assignment` at the first sweep point.
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
    and their overlaps with the ordered modes one product.  A step whose
    every largest overlap exceeds CONTINUITY_FLOOR is continued by one
    stacked argmax (`_branch_orders`); only the other, ambiguous steps walk
    the greedy branch assignment, in order.

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
    orders, flagged = _branch_orders(np.argsort(eps[0]).tolist(), raw)
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
        labels=[LABELS[k] for k in _greedy_assignment(ov[0].T)],
        modulator_weight=ov[:, :4].sum(axis=1),
        flagged_points=flagged,
    )


def _greedy_assignment(ov: np.ndarray) -> list[int]:
    """Per row of ov, its column: pairs (b, c) are taken in globally
    decreasing ov[b, c], skipping a pair whose row or column is taken.  The
    one rule that matches modes: it continues and labels a sweep's
    branches, and labels a channel's modes (`channel._dressed_modes`)."""
    n = len(ov)
    order, taken, left = [-1] * n, [False] * n, n
    for f in np.argsort(ov, axis=None)[::-1].tolist():
        b, c = divmod(f, n)
        if order[b] < 0 and not taken[c]:
            order[b], taken[c] = c, True
            left -= 1
            if not left:
                break
    return order


def _branch_orders(first: list[int], raw: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Each point's branch order, and the flagged sweep indices.

    `first` orders point 0's modes; raw[i - 1][b, c] is the overlap of mode
    b at point i - 1 with mode c at point i.  Point i's order continues
    point i - 1's by `_greedy_order`.  Where every row's largest overlap
    exceeds CONTINUITY_FLOOR, it is the strict largest of its row and of
    its column (every row and column of raw sums to 1), so the greedy is
    the per-row argmax: the argmaxes of all such steps come from one
    stacked call, and only the other steps walk the greedy.
    """
    nearest = raw.argmax(axis=-1)
    one_shot = (raw.max(axis=-1) > CONTINUITY_FLOOR).all(axis=-1)
    one_shot &= (np.sort(nearest, axis=-1) == np.arange(raw.shape[-1])).all(axis=-1)
    nearest, one_shot = nearest.tolist(), one_shot.tolist()
    orders, flagged = [first], []
    for i in range(1, len(raw) + 1):  # rows in point i - 1's branch order
        if one_shot[i - 1]:
            orders.append([nearest[i - 1][b] for b in orders[-1]])
        else:
            orders.append(_greedy_order(raw[i - 1, orders[-1]], i, flagged))
    return orders, flagged


def _greedy_order(ov: np.ndarray, index: int, flagged: list[int]) -> list[int]:
    """The continuation: `_greedy_assignment` of current to previous branches.

    ov[b, c] is the overlap of previous branch b with current column c; the
    result is, per branch, its column.  Flags `index` below CONTINUITY_FLOOR
    and raises BranchTrackingAmbiguous below AMBIGUITY_FLOOR.
    """
    order = _greedy_assignment(ov)
    worst = min(row[c] for row, c in zip(ov.tolist(), order))
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


def _pair_separation(spec: FloquetSpectrum, branch_a: str, branch_b: str) -> np.ndarray:
    """Separation of two branches at every sweep point."""
    q, ia, ib = spec.quasienergies, spec.branch(branch_a), spec.branch(branch_b)
    return _circular_separation(q[:, ia], q[:, ib], spec.omega_d)


def avoided_crossing_gap(spec: FloquetSpectrum, branch_a: str, branch_b: str) -> float:
    """Minimum separation of two branches over the sweep, parabola-refined.

    An unresolved minimum keeps its sampled value: at the sweep's edge,
    between equal neighbours, or where the vertex falls below 0 (a coarsely
    sampled V-shaped crossing), so the gap is never negative.
    """
    sep = _pair_separation(spec, branch_a, branch_b)
    k = int(np.argmin(sep))
    if 0 < k < len(sep) - 1:
        y0, y1, y2 = sep[k - 1], sep[k], sep[k + 1]
        denom = y0 - 2 * y1 + y2
        if denom > 0:
            # Parabolic vertex through three uniform samples, |delta| <= 1/2.
            delta = 0.5 * (y0 - y2) / denom
            vertex = y1 - 0.25 * (y0 - y2) * delta
            if vertex >= 0:
                return float(vertex)
    return float(sep[k])


def branch_separation_at(
    spec: FloquetSpectrum, branch_a: str, branch_b: str, value: float
) -> float:
    """Separation of two branches at the sweep value closest to `value`.

    Raises ValueError when `value` lies outside the sweep's range.
    """
    lo, hi = spec.sweep_values.min(), spec.sweep_values.max()
    if not lo <= value <= hi:
        raise ValueError(f"value {value} lies outside the sweep [{lo}, {hi}]")
    sep = _pair_separation(spec, branch_a, branch_b)
    return float(sep[np.argmin(np.abs(spec.sweep_values - value))])
