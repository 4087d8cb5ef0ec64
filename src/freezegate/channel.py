"""Effective two-qubit channel extraction and iSWAP fidelity metrics.

The channel is obtained ab initio in the dressed frame of the driven
modulator-Q1 pair.  With j_12 = 0 the lab propagator U0(t) factorizes into
a modulator-Q1 part and a diagonal Q2 part; the Floquet modes of the
modulator-Q1 part (eigenvectors of its single-period propagator, the
stroboscopic dressed frame of Bukov, D'Alessio & Polkovnikov, Adv. Phys.
64, 139 (2015)) are the exactly frozen dressed states.  Each mode is
labelled by its dominant dressed product state |a_m b_1> and tensored with
Q2's local eigenbasis.  The channel on Q1Q2 is the interaction-picture
evolution U0(t)^dag U(t) between these modes, started with the modulator
in its dressed ground mode and with the modulator label traced out.  At
j_12 = 0 it is the identity at any time, so what it scores is the
exchange gate itself rather than a modulator-Q1 hybridization beat.

Kraus operators follow directly from slicing the 8x8 interaction-picture
propagator by modulator label, which is algebraically identical to
evolving a purified (reference x system) state.

`extract_channel` also takes a sequence of points, one duration each, and
builds their channels as stacks: only the drive and the two period kernels
of each point are per point; the dressed bases, the Floquet
factorizations, the mode labels, the whole-period powers, the tails and
the Kraus operators are one stack each, and each channel keeps a
read-only view of its Kraus operators.  Every step is elementwise or one
small product per point, so each point's channel is bit for bit the one
it gets alone, and a point that fails returns its exception in its slot
without touching the others.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dressed import DressedModel, dressed_bases, effective_model, solve_omega_d_on
from .errors import ConfigError, DegenerateDressedModes, NoRootInBracket, StepTooCoarse
from .floquet import _circular_separation
from .params import ProtocolParams
from .pauli import kron
from .propagate import (
    PropagatorConfig,
    _check_t_final,
    _evolve_kernels,
    _factorize,
    _kernel,
    rotating_ground_population,
    single_period_propagator,
    total_propagator,
)

DIM = 4  # Q1Q2 Hilbert-space dimension
#: Smallest quasienergy splitting of the j_12-free modulator-Q1 Floquet
#: modes, in units of j_12, that keeps their labels.  Measured: 1.21 at
#: the closest point any test or benchmark workload scores (criterion 6's
#: optimizer at j_m1 = 1.2 j_12), 0.12 at drive_amp = 0, omega_d = omega_m.
DEGENERATE_GAP = 0.35
#: Smallest population lead, over the next product state, of the label of a
#: mode the channel starts in (|gm g1>, |gm e1>).  Measured: 0.985 at the
#: closest point any test or `reproduce --quick` scores, 0 at drive_amp = 0,
#: omega_d = omega_m, j_m1 = 0.008.  Modulator-excited labels are not held
#: to it: the reference's Q1 basis is the modulator-ground one, their leads
#: fall to 0.003 at points the optimizer tests visit, and they order only
#: the rows of the leakage Kraus operator K_1, which moves the Choi
#: infidelity by at most (4/5)(1 - ||K_0||_F^2 / 4) + trace_defect (see
#: `_dressed_modes`).
AMBIGUOUS_LEAD = 0.5
#: Every assignment of the DIM reference states to DIM modes, one per row.
_PERMUTATIONS = np.array(list(itertools.permutations(range(DIM))))
_OFF_DIAGONAL = ~np.eye(DIM, dtype=bool)
_ROWS = np.arange(DIM)[:, None]


def iswap_unitary() -> np.ndarray:
    """iSWAP on Q1Q2: |01> -> i |10>, |10> -> i |01>.

    The +i convention matches the sign of the exchange matrix element
    between the phase-fixed dressed modes of `extract_channel` (the -i
    variant, this matrix's conjugate, scores strictly lower fidelity at
    the calibrated operating point).
    """
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[3, 3] = 1.0
    u[1, 2] = u[2, 1] = 1.0j
    return u


def resolve_omega_d(p: ProtocolParams, regime: str) -> float:
    """Drive frequency of a regime: omega_d_off, or omega_d_on (solved if unset)."""
    if regime == "off":
        return p.omega_d_off
    if regime == "on":
        if p.omega_d_on is None:
            return solve_omega_d_on(p).omega_d
        return p.omega_d_on
    raise ValueError(f"regime must be 'on' or 'off', got {regime!r}")


def compensation_gates(p: ProtocolParams, omega_d: float) -> tuple[np.ndarray, DressedModel]:
    """Local pre-gate B = B1 x B2 and the dressed model it comes from.

    B rotates the computational basis of each qubit into its local dressed
    eigenbasis.  `modulator_return` prepares |g_m> x B|k> with it;
    `extract_channel` does not use it: it works in the Floquet-mode frame
    and labels the modes with `dressed.dressed_bases`.
    """
    model = effective_model(p, omega_d)
    b1 = np.column_stack([model.q1_ground, model.q1_excited])
    b2 = np.column_stack([model.q2_ground, model.q2_excited])
    return kron(b1, b2), model


@dataclass(frozen=True)
class TwoQubitChannel:
    """CPTP map on Q1Q2 as its Kraus operators, a read-only (operators, 4, 4) array.

    The Choi matrix and the diagnostics are computed from them on access.
    """

    kraus: np.ndarray

    @property
    def choi(self) -> np.ndarray:
        """sum_k |w_k><w_k| with |w_k> = sum_i |i> x K_k|i>: trace 4 for a TP map."""
        w = self.kraus.swapaxes(-1, -2).reshape(-1, DIM * DIM)
        return w.T @ w.conj()

    @property
    def trace_defect(self) -> float:
        """max |sum_k K_k^dag K_k - I|, zero for a trace-preserving map."""
        k = self.kraus
        return float(np.abs(np.einsum("kai,kaj->ij", k.conj(), k) - np.eye(DIM)).max())

    @property
    def min_choi_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.choi)[0])


def channel_from_kraus(kraus: list[np.ndarray]) -> TwoQubitChannel:
    ks = np.array(kraus, dtype=complex)
    ks.flags.writeable = False
    return TwoQubitChannel(ks)


def unitary_channel(u: np.ndarray) -> TwoQubitChannel:
    return channel_from_kraus([np.asarray(u, dtype=complex)])


def _best_assignment(weights: np.ndarray) -> np.ndarray:
    """order maximizing sum_i weights[i, order[i]] over all permutations.

    Exhaustive over the 24 permutations of 4: wherever the optimum is
    unique, this is the linear sum assignment.  `weights` may be a stack
    (..., 4, 4), with one order per member.
    """
    scores = weights[..., np.arange(DIM), _PERMUTATIONS].sum(axis=-1)
    return _PERMUTATIONS[np.argmax(scores, axis=-1)]


def _dressed_modes(
    alpha: np.ndarray, modes: np.ndarray, points: list[ProtocolParams], drives: list[float]
) -> tuple[np.ndarray, list[DegenerateDressedModes | None]]:
    """Floquet modes of the j_12-free system, as 8x8 columns |a_m b_1 c_2>, for a stack of points.

    Q2 is a spectator at j_12 = 0, so the Q2 = |0> block of U0(tau) is the
    modulator-Q1 single-period propagator up to a global phase.  `alpha`
    and `modes` are, per point, that 4x4 block's factorization
    O diag(e^{i alpha}) O^T: the j_12 = 0 period kernel integrates only the
    block, and `propagate._factorize` factorizes it.  On the full 8x8,
    modes such as |gm g1 e2> and |gm e1 g2> are degenerate at the on drive
    and a factorization would mix them.  The
    real modes are assigned one to one to the dressed product states
    kron([gm, em], B1), from the point's `dressed_bases` at its drive, so
    that the summed overlap magnitude is largest (`_best_assignment`), each
    mode's phase is fixed so that its overlap is real-positive, and each is
    tensored with Q2's eigenbasis B2.  Every step is elementwise or one
    small product per point, so each point's modes are the ones it gets
    alone.

    Returns the stack of modes and, per point, None or the
    DegenerateDressedModes it raises: when j_12 != 0 and two quasienergies
    of the block lie within DEGENERATE_GAP * j_12 of each other, the
    exchange does not resolve them, and their labels are arbitrary; and
    when a modulator-ground mode's label leads the next product state by
    less than AMBIGUOUS_LEAD in population, the reference itself does not
    tell the labels apart.

    The modulator-excited labels are matched against |em> x B1, although
    B1 is Q1's eigenbasis with the modulator in its ground state, so they
    can be even mixes.  They order (and phase) only the rows of the leakage Kraus
    operator K_1 = m[1] of `extract_channel`.  For any such row change,
    |tr(T^dag K_1)|^2 / 20 <= ||K_1||_F^2 / 5 by Cauchy-Schwarz, and
    ||K_0||_F^2 + ||K_1||_F^2 = 4 to the trace defect, so the Choi
    infidelity against a target T moves by at most
    (4/5)(1 - ||K_0||_F^2 / 4) + trace_defect: a fraction of the leakage.
    """
    bases = dressed_bases(points, drives)
    # Complex, so that the phase fix below divides in complex arithmetic:
    # conj(x) / |x| is x * (1/|x|), +-1 only to rounding, the gauge every
    # channel's modes are built in (as `dressed._eigenvectors`' states).
    ref = kron(bases[:, 0], bases[:, 1]).astype(complex)
    ov = ref.conj().swapaxes(-1, -2) @ modes  # (point, reference, mode)
    order = _best_assignment(np.abs(ov))
    # ov and modes with their columns in label order, point by point.
    at = np.arange(len(points))[:, None, None], _ROWS, order[:, None, :]
    ov, modes = ov[at], modes[at]
    omega_d = np.array(drives)[:, None]
    eps = alpha * (omega_d / (2 * math.pi))  # quasienergies up to sign
    seps = _circular_separation(eps[:, :, None], eps[:, None, :], omega_d[:, :, None])
    gaps = seps[:, _OFF_DIAGONAL].min(axis=-1)
    # Reference populations of the modes labelled |gm g1> and |gm e1>.
    pops = np.abs(ov[:, :, :2]) ** 2
    leads = (np.diagonal(pops, axis1=1, axis2=2) - np.sort(pops, axis=-2)[:, -2]).min(axis=-1)
    errors = []
    for gap, lead, p in zip(gaps.tolist(), leads.tolist(), points):
        error, j = None, p.j_12
        if j != 0 and gap < DEGENERATE_GAP * abs(j):
            error = DegenerateDressedModes(
                f"modulator-Q1 quasienergies {gap:.3e} apart, below "
                f"{DEGENERATE_GAP} * j_12 = {DEGENERATE_GAP * abs(j):.3e}",
                gap=gap,
            )
        elif j != 0 and lead < AMBIGUOUS_LEAD:
            error = DegenerateDressedModes(
                f"a modulator-ground Floquet mode leads its next dressed label "
                f"by {lead:.3e} in population, below {AMBIGUOUS_LEAD}",
                gap=gap,
            )
        errors.append(error)
    phases = np.diagonal(ov, axis1=1, axis2=2)
    with np.errstate(divide="ignore", invalid="ignore"):  # only at points that raise
        modes = modes * (phases.conj() / np.abs(phases))[:, None, :]
    return kron(modes, bases[:, 2]), errors


#: What a point of `extract_channel`'s stack raises alone, returned in its slot.
POINT_ERRORS = (NoRootInBracket, StepTooCoarse, DegenerateDressedModes)


def extract_channel(
    p: ProtocolParams | Sequence[ProtocolParams],
    regime: str,
    duration: float | Sequence[float],
    cfg: PropagatorConfig,
) -> TwoQubitChannel | list[TwoQubitChannel | Exception]:
    """Ab initio Q1Q2 channel for one regime and duration, in the dressed frame.

    With V the labelled Floquet modes of the j_12-free system (see
    `_dressed_modes`) and V_gm its modulator-ground columns, the Kraus
    operators are the modulator-label slices of V^dag U0(t)^dag U(t) V_gm.
    The j_12-free single-period propagator is factorized once and serves
    both V and U0(t).

    `p` may also be a sequence of points, with `duration` a sequence of one
    duration each.  The result is then a list holding, per point, its
    channel or the POINT_ERRORS exception it raises alone; the other
    points are scored exactly as they are alone.  Each point gets its own
    root (if unset) and two period kernels (p and its j_12 = 0 reference),
    each gated by `single_period_propagator`; the dressed bases,
    factorizations, dressed labels, whole periods, tails and Kraus
    operators of all points are stacks.  An unknown regime, or a negative
    or non-finite duration, raises ValueError for the whole call.
    """
    if isinstance(p, ProtocolParams):
        (ch,) = _channels([p], regime, [duration], cfg)
        if isinstance(ch, Exception):
            raise ch
        return ch
    return _channels(list(p), regime, list(duration), cfg)


def _channels(
    points: list[ProtocolParams], regime: str, durations: list[float], cfg: PropagatorConfig
) -> list[TwoQubitChannel | Exception]:
    """`extract_channel` over a sequence of points (see there)."""
    if len(durations) != len(points):
        raise ValueError(f"{len(points)} points but {len(durations)} durations")
    for d in durations:
        _check_t_final(d)
    out: list = [None] * len(points)
    index, drives, v, u0, times = _reference_evolutions(points, regime, durations, cfg, out)
    # Per labelled point: the gated kernel of p itself, at j_12 != 0.
    keep, kernels = [], []
    for n, (i, omega_d) in enumerate(zip(index, drives)):
        p = points[i]
        if p.j_12 != 0:
            try:
                single_period_propagator(p, omega_d, cfg)
            except StepTooCoarse as exc:
                out[i] = exc
                continue
            kernels.append(_kernel(p, omega_d, cfg))
        keep.append(n)
    if not keep:
        return out
    if len(keep) < len(index):
        index, v, u0, times = [index[n] for n in keep], v[keep], u0[keep], times[keep]
    u = u0
    if kernels:
        coupled = [points[i].j_12 != 0 for i in index]
        u = u0.copy()
        u[coupled] = _evolve_kernels(kernels, np.arange(len(kernels)), times[coupled])
    vh = v.conj().swapaxes(-1, -2)
    m = (vh @ u0.conj().swapaxes(-1, -2) @ u @ v[..., :DIM]).reshape(-1, 2, DIM, DIM)
    m.flags.writeable = False
    for i, kraus in zip(index, m):
        out[i] = TwoQubitChannel(kraus)
    return out


def _reference_evolutions(
    points: list[ProtocolParams],
    regime: str,
    durations: list[float],
    cfg: PropagatorConfig,
    out: list,
) -> tuple[list[int], list[float], np.ndarray, np.ndarray, np.ndarray]:
    """The j_12 = 0 half of `_channels`, up to U0(t): its kernels die on return.

    Per point: the drive and the gated j_12 = 0 kernel; then, as stacks,
    the labelled modes V (`_dressed_modes`) and U0 at each duration.  A
    point that fails gets its exception in `out`.  Returns, for the
    labelled points, their indices, drives, V, U0 and durations.
    """
    live = []
    for i, p in enumerate(points):
        try:
            omega_d = resolve_omega_d(p, regime)
            p0 = p.with_(j_12=0.0)
            single_period_propagator(p0, omega_d, cfg)
        except POINT_ERRORS as exc:
            out[i] = exc
        else:
            kernel = _kernel(p0, omega_d, cfg)
            live.append((i, omega_d, kernel))
    if not live:
        return [], [], None, None, None
    index, drives, refs = zip(*live)
    v, errors = _dressed_modes(*_factorize(refs), [points[i] for i in index], drives)
    labelled = []
    for n, (i, error) in enumerate(zip(index, errors)):
        if error is None:
            labelled.append(n)
        else:
            out[i] = error
    if len(labelled) < len(index):
        index, drives, refs = ([a[n] for n in labelled] for a in (index, drives, refs))
        v = v[labelled]
    times = np.array([durations[i] for i in index])
    u0 = _evolve_kernels(refs, np.arange(len(refs)), times) if refs else None
    return index, drives, v, u0, times


def avg_fidelity_choi(ch: TwoQubitChannel, target: np.ndarray) -> float:
    """Average gate fidelity (d F_e + 1)/(d + 1) against the unitary `target` T.

    F_e = sum_k |tr(T^dag K_k)|^2 / d^2 (Nielsen, Phys. Lett. A 303, 249
    (2002)) is the Choi formula <Phi_T|J|Phi_T> / d, with |Phi_T> =
    (I x T)|Phi> and |Phi> maximally entangled, read off the Kraus
    operators.
    """
    amps = ch.kraus.reshape(-1, DIM * DIM) @ np.asarray(target, dtype=complex).conj().ravel()
    f_e = float(np.sum(np.abs(amps) ** 2)) / DIM**2
    return (DIM * f_e + 1.0) / (DIM + 1.0)


@dataclass(frozen=True)
class HaarEstimate:
    mean: float
    stderr: float
    samples: int


def haar_average_fidelity(
    ch: TwoQubitChannel, target: np.ndarray, samples: int, seed: int
) -> HaarEstimate:
    """Monte-Carlo average of state fidelity over Haar-random pure inputs.

    Each input is a normalized complex Gaussian vector (real parts drawn
    before imaginary parts, sample by sample); its fidelity is
    sum_k |<psi| T^dag K_k |psi>|^2 over the Kraus operators K_k.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    z = np.random.default_rng(seed).standard_normal((samples, 2, DIM))
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    scored = np.asarray(target, dtype=complex).conj().T @ ch.kraus
    amps = np.einsum("ksj,sj->ks", psi.conj() @ scored, psi)
    fids = np.sum(np.abs(amps) ** 2, axis=0)
    stderr = float(fids.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return HaarEstimate(float(fids.mean()), stderr, samples)


def avg_fidelity_haar(
    p: ProtocolParams,
    samples: int,
    seed: int,
    cfg: PropagatorConfig,
    duration: float,
) -> HaarEstimate:
    """Full-pipeline Monte-Carlo average fidelity against the iSWAP target."""
    ch = extract_channel(p, "on", duration, cfg)
    return haar_average_fidelity(ch, iswap_unitary(), samples, seed)


def modulator_return(
    p: ProtocolParams, regime: str, duration: float, cfg: PropagatorConfig
) -> float:
    """Rotating-frame |g_m> population at `duration`, averaged over inputs |g_m> x B|k>.

    One minus it is the freezing error of the uncoupled product state; each
    input is read out as `export_trajectory`'s `mod_ground_pop`.
    """
    omega_d = resolve_omega_d(p, regime)
    b, model = compensation_gates(p, omega_d)
    gm = model.modulator.ground_state
    finals = (total_propagator(p, omega_d, duration, cfg) @ kron(gm[:, None], b)).T
    return float(np.mean(rotating_ground_population(gm, omega_d, np.full(DIM, duration), finals)))


#: The `method`s of `fidelity_report`: the Choi formula and a Haar Monte-Carlo estimate.
FIDELITY_METHODS = ("choi-formula", "haar-monte-carlo")


@dataclass(frozen=True)
class FidelityReport:
    """On/off performance numbers of one parameter point.

    `infidelity` scores the channel between the Floquet modes of the driven
    modulator-Q1 pair (`extract_channel`), while `modulator_return` is
    measured from the uncoupled product state |g_m> x B|psi>
    (`modulator_return`), so the two describe different initial states.
    """

    avg_fidelity: float
    infidelity: float
    off_ratio: float
    t_gate: float
    omega_d_on: float
    modulator_return: float
    method: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def fidelity_report(
    p: ProtocolParams,
    cfg: PropagatorConfig,
    method: str = "choi-formula",
    haar_samples: int = 1000,
    seed: int = 0,
) -> FidelityReport:
    """End-to-end on/off performance numbers for one parameter point.

    An unknown `method`, or `haar_samples` < 1 for the Haar estimate,
    raises ValueError before the root solve; a zero j12_eff at the on
    drive, whose gate time is infinite, raises ConfigError before any
    period kernel is built.
    """
    from .dressed import off_ratio as off_ratio_fn

    if method not in FIDELITY_METHODS:
        raise ValueError(f"unknown fidelity method {method!r}")
    if method == "haar-monte-carlo" and haar_samples < 1:
        raise ValueError("haar_samples must be >= 1")
    p = p.with_(omega_d_on=resolve_omega_d(p, "on"))
    t_gate = effective_model(p, p.omega_d_on).t_gate
    if not math.isfinite(t_gate):
        raise ConfigError(f"j12_eff is zero at omega_d_on = {p.omega_d_on!r}: the gate time is infinite")
    ch = extract_channel(p, "on", t_gate, cfg)
    if method == "choi-formula":
        fbar = avg_fidelity_choi(ch, iswap_unitary())
    else:
        fbar = haar_average_fidelity(ch, iswap_unitary(), haar_samples, seed).mean
    return FidelityReport(
        avg_fidelity=fbar,
        infidelity=1.0 - fbar,
        off_ratio=off_ratio_fn(p),
        t_gate=t_gate,
        omega_d_on=p.omega_d_on,
        modulator_return=modulator_return(p, "on", t_gate, cfg),
        method=method,
    )
