"""Parameter scans, joint optimization, and the gate-time trade-off sweep.

The objective everywhere is the interaction-on infidelity of the
dressed-frame channel (`channel.extract_channel`) against the iSWAP
target; the off regime is summarized by the closed-form
detuning-to-coupling ratio.

A scan scores its grid as one stack (`evaluate_points`): the root solve
runs once per distinct resonance input, the dressed model once per
distinct on-point, and the channels of all distinct on-points are one
`extract_channel` call; only the off ratio is per point.  A grid over
j_12 thus shares one root, and a grid over omega_d_off one root and one
channel.  The optimizer scores one point at a time (`evaluate_point`, a
stack of one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import avg_fidelity_choi, extract_channel, iswap_unitary
from .dressed import effective_model, off_ratio, solve_omega_d_on
from .errors import ConfigError, NoRootInBracket
from .params import ProtocolParams
from .propagate import PropagatorConfig

SCANNABLE = ("j_m1", "drive_amp", "omega_2", "j_12", "omega_d_off")
#: The fields `solve_omega_d_on` reads; with j_12 added, every field the
#: on-drive model and channel read.
_ROOT_FIELDS = ("omega_m", "omega_1", "omega_2", "j_m1", "drive_amp")
#: Couplings are searched in log coordinates; the rest stay linear.
LOG_SCALED = ("j_m1", "j_12")

#: Objective value assigned to points where the pipeline fails.
PENALTY = 1.0
#: Fewest objective evaluations `optimize_joint` accepts.
MIN_BUDGET = 50
#: The optimizer's default search config (second-order midpoint) and the
#: config that re-scores its result: fourth order, because optimized points
#: can sit at infidelities where second-order discretization bias would bury
#: the physics.
SEARCH_CFG = PropagatorConfig(steps_per_period=128)
FINAL_CFG = PropagatorConfig(steps_per_period=512, method="magnus4")
#: Restarted simplex searches per `gate_time_sweep` point.
SWEEP_RESTARTS = 6


@dataclass(frozen=True)
class ScanSpec:
    varied: str
    grid: tuple[float, ...]
    baseline: ProtocolParams

    def __post_init__(self):
        if self.varied not in SCANNABLE:
            raise ValueError(f"varied must be one of {SCANNABLE}, got {self.varied!r}")
        if len(self.grid) < 2:
            raise ValueError("grid must have at least 2 points")


@dataclass(frozen=True)
class PointResult:
    """Pipeline outputs for one parameter point (error recorded, not raised)."""

    params: ProtocolParams
    omega_d_on: float = math.nan
    t_gate: float = math.nan
    infidelity_on: float = math.nan
    off_ratio: float = math.nan
    error: str = ""


def _bits(p: ProtocolParams, fields: tuple[str, ...]) -> tuple[str, ...]:
    """The exact float bits of `fields`: -0.0 and 0.0 stay apart."""
    return tuple(float(getattr(p, name)).hex() for name in fields)


def evaluate_points(points: list[ProtocolParams], cfg: PropagatorConfig) -> list[PointResult]:
    """Solve each point's on-resonance, run its gate, score fidelity and off-ratio.

    Points equal, bit for bit, in _ROOT_FIELDS share one root solve (or
    its NoRootInBracket); points equal in those and j_12, i.e. in every
    field but omega_d_off, share one on-drive dressed model and one
    channel (or its exception).  The channels of all distinct on-points
    are one `extract_channel` call over the stack.  Each row keeps its own
    params and off ratio.  A point that fails becomes its own error row,
    and every other row is the one the point gets alone.
    """
    rows: list = [None] * len(points)
    roots: dict = {}  # _ROOT_FIELDS bits -> OnRoot or NoRootInBracket
    members: dict = {}  # _ROOT_FIELDS and j_12 bits -> index into models, None if j12_eff is 0
    on_points, models, scored = [], [], []
    for i, p in enumerate(points):
        key = _bits(p, _ROOT_FIELDS)
        if key not in roots:
            try:
                roots[key] = solve_omega_d_on(p)
            except NoRootInBracket as exc:
                roots[key] = exc
        root = roots[key]
        if isinstance(root, NoRootInBracket):
            rows[i] = PointResult(p, error=f"{type(root).__name__}: {root}")
            continue
        key += _bits(p, ("j_12",))
        if key not in members:
            p_on = p.with_(omega_d_on=root.omega_d)
            model = effective_model(p_on, root.omega_d)
            members[key] = None
            if math.isfinite(model.t_gate):
                members[key] = len(models)
                on_points.append(p_on)
                models.append(model)
        n = members[key]
        if n is None:
            rows[i] = PointResult(p, root.omega_d, math.inf, error="j12_eff is zero")
        else:
            scored.append((i, n))
    if not scored:
        return rows
    channels = extract_channel(on_points, "on", [m.t_gate for m in models], cfg)
    target = iswap_unitary()
    infidelities = [
        None if isinstance(ch, Exception) else 1.0 - avg_fidelity_choi(ch, target)
        for ch in channels
    ]
    for i, n in scored:
        ch, model = channels[n], models[n]
        if isinstance(ch, Exception):
            rows[i] = PointResult(points[i], error=f"{type(ch).__name__}: {ch}")
        else:
            p_on = points[i].with_(omega_d_on=model.omega_d)
            rows[i] = PointResult(
                params=p_on,
                omega_d_on=model.omega_d,
                t_gate=model.t_gate,
                infidelity_on=infidelities[n],
                off_ratio=off_ratio(p_on),
            )
    return rows


def evaluate_point(p: ProtocolParams, cfg: PropagatorConfig) -> PointResult:
    """`evaluate_points` of one point."""
    return evaluate_points([p], cfg)[0]


def _map(fn, jobs: int, items: list) -> list:
    """list(map(fn, items)), spread over min(jobs, len(items)) worker processes.

    jobs = 1 or a single item runs in this process.  Raises ValueError,
    before any call, when jobs < 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(items))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # kept off the package's import path

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return list(map(fn, items))


@dataclass(frozen=True)
class ScanTable:
    varied: str
    rows: tuple[PointResult, ...]

    @property
    def infidelities(self) -> np.ndarray:
        return np.array([r.infidelity_on for r in self.rows])


def run_scan(spec: ScanSpec, cfg: PropagatorConfig, jobs: int = 1) -> ScanTable:
    """Evaluate the pipeline along one-parameter grid; failures become rows.

    The grid is scored as one `evaluate_points` stack, or with jobs > 1 as
    min(jobs, len(grid)) contiguous chunks, one stack per worker process.
    omega_d_on is solved at every point; `spec.baseline.omega_d_on` is ignored.

    Raises ConfigError, before scoring any point, when a grid value makes
    an invalid parameter point (e.g. a negative drive amplitude).
    """
    points = [replace(spec.baseline, **{spec.varied: float(v)}) for v in spec.grid]
    for p in points:
        p.validate()
    n, parts = len(points), min(jobs, len(points))
    chunks = [points[k * n // parts : (k + 1) * n // parts] for k in range(parts)]
    rows = _map(functools.partial(evaluate_points, cfg=cfg), jobs, chunks)
    return ScanTable(varied=spec.varied, rows=tuple(r for chunk in rows for r in chunk))


@dataclass
class OptResult:
    best_params: ProtocolParams
    best_infidelity: float
    off_ratio: float
    t_gate: float
    evaluations: int
    converged: bool
    trace: list[tuple[ProtocolParams, float]] = field(repr=False, default_factory=list)


def _encode(p: ProtocolParams, free: tuple[str, ...]) -> np.ndarray:
    out = []
    for name in free:
        v = getattr(p, name)
        out.append(math.log10(v) if name in LOG_SCALED else v)
    return np.array(out)


def _decode(x: np.ndarray, p: ProtocolParams, free: tuple[str, ...]) -> ProtocolParams:
    updates = {}
    for name, xi in zip(free, x):
        updates[name] = 10.0**xi if name in LOG_SCALED else float(xi)
    return replace(p, **updates)


#: Initial-simplex edge lengths in encoded (log10 for couplings) coordinates.
_COARSE_SCALE = {"j_m1": 0.05, "j_12": 0.05, "drive_amp": 5e-3, "omega_2": 2e-5}
#: Polish-stage simplex; omega_2 below the fast fringe spacing of the objective.
_FINE_SCALE = {"j_m1": 2e-3, "j_12": 2e-3, "drive_amp": 1e-4, "omega_2": 3e-7}
#: Working-hierarchy margin: restarts do not start j_m1 below this multiple
#: of j_12 (the switching condition keeps j_m1 at least comparable to j_12).
_HIERARCHY_MARGIN = 1.2


def _restart_ladder(
    baseline: ProtocolParams,
    x0: np.ndarray,
    free: tuple[str, ...],
    restarts: int,
) -> list[np.ndarray]:
    """Initial points for the restarted simplex search.

    The dominant residual error grows as j_m1^2 (modulator-Q1 hybridization),
    so restarts walk j_m1 down a geometric ladder from the baseline to the
    hierarchy floor ~j_12, instead of sampling blind perturbations.  The
    operating Q2 frequency offset tracks the freezing-induced Q1 shift,
    which carries the same j_m1^2 scaling, so omega_2's offset is co-scaled.
    More than one restart therefore needs j_m1 in the free set.
    """
    starts = [x0]
    if restarts > 1:
        i_jm1 = free.index("j_m1")
        lo = math.log10(_HIERARCHY_MARGIN * baseline.j_12)
        lo = min(lo, x0[i_jm1])  # never start above the baseline coupling
        for k in range(1, restarts):
            x = x0.copy()
            x[i_jm1] = x0[i_jm1] + (lo - x0[i_jm1]) * k / (restarts - 1)
            if "omega_2" in free:
                i = free.index("omega_2")
                f = 10.0 ** (x[i_jm1] - x0[i_jm1])
                x[i] = 1.0 + (x0[i] - 1.0) * f * f
            starts.append(x)
    return starts


def _simplex(x: np.ndarray, free: tuple[str, ...], scale: dict) -> np.ndarray:
    edges = np.diag([scale[n] for n in free])
    return np.vstack([x, x + edges])


def optimize_joint(
    baseline: ProtocolParams,
    free: tuple[str, ...] = ("j_m1", "j_12", "drive_amp", "omega_2"),
    budget: int = 400,
    cfg: PropagatorConfig = SEARCH_CFG,
    final_cfg: PropagatorConfig = FINAL_CFG,
    restarts: int = 4,
) -> OptResult:
    """Minimize the on-infidelity by restarted Nelder-Mead simplex search.

    Couplings are searched in log10 coordinates.  Each restart runs a coarse
    simplex from a start on the j_m1 ladder (see _restart_ladder) with
    int(0.6 * budget) // restarts calls of the objective; the best point
    then gets a fine-simplex polish with the rest of the budget.  `budget`
    is a hard cap: `evaluations`, the number of distinct points scored,
    never exceeds it.  Search evaluations use `cfg` (possibly reduced
    resolution); the returned best_infidelity is re-evaluated at `final_cfg`
    so it is never a stale cached value.  omega_d_on is solved at every
    point scored; `baseline.omega_d_on` is ignored.

    Raises ConfigError, before any evaluation, when a free coupling is not
    positive, or j_12 is not and restarts > 1 (the j_m1 ladder's floor).
    """
    for name in free:
        if name not in ("j_m1", "j_12", "drive_amp", "omega_2"):
            raise ValueError(f"cannot optimize over {name!r}")
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be >= {MIN_BUDGET}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if restarts > 1 and "j_m1" not in free:
        raise ValueError("restarts > 1 walk the j_m1 ladder, so free must contain 'j_m1'")
    per_run = int(0.6 * budget) // restarts
    if per_run < 1:
        raise ValueError(f"restarts must be <= {int(0.6 * budget)} at budget {budget}")
    for name in free:
        value = getattr(baseline, name)
        if name in LOG_SCALED and not value > 0:
            raise ConfigError(f"{name} must be > 0 to be searched in log10, got {value}")
    if restarts > 1 and not baseline.j_12 > 0:
        raise ConfigError(
            f"j_12 must be > 0 for restarts > 1 (the j_m1 restart ladder ends at "
            f"{_HIERARCHY_MARGIN} * j_12), got {baseline.j_12}"
        )
    polish_fev = budget - restarts * per_run
    import scipy.optimize  # the only scipy use; kept off the package's import path

    cache: dict[tuple, float] = {}
    trace: list[tuple[ProtocolParams, float]] = []

    def objective(x: np.ndarray) -> float:
        p = _decode(x, baseline, free)
        key = tuple(round(getattr(p, n), 12) for n in free)
        if key in cache:
            return cache[key]
        # Search stays inside the protocol's working hierarchy; points
        # outside it take the penalty without paying for a propagation.
        if p.hierarchy_warnings():
            value = PENALTY
        else:
            res = evaluate_point(p, cfg)
            value = PENALTY if res.error else res.infidelity_on
        cache[key] = value
        trace.append((p, value))
        return value

    x0 = _encode(baseline, free)
    best_x, best_val = x0, math.inf
    converged = False

    def nelder_mead(start, scale, maxfev, xatol, fatol):
        # Nelder-Mead stops after exactly maxfev objective calls; cached
        # points count there but not in `evaluations`.
        nonlocal best_x, best_val, converged
        r = scipy.optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "initial_simplex": _simplex(start, free, scale),
                "maxfev": maxfev,
                "xatol": xatol,
                "fatol": fatol,
            },
        )
        if r.fun < best_val:
            best_x, best_val = r.x, float(r.fun)
        converged = converged or bool(r.success)

    for start in _restart_ladder(baseline, x0, free, restarts):
        nelder_mead(start, _COARSE_SCALE, per_run, xatol=1e-12, fatol=1e-14)
    nelder_mead(best_x, _FINE_SCALE, polish_fev, xatol=1e-13, fatol=1e-15)

    best_params = _decode(best_x, baseline, free)
    final = evaluate_point(best_params, final_cfg)
    best_infidelity = PENALTY if final.error else final.infidelity_on
    return OptResult(
        best_params=final.params if not final.error else best_params,
        best_infidelity=best_infidelity,
        off_ratio=final.off_ratio,
        t_gate=final.t_gate,
        evaluations=len(trace),
        converged=converged,
        trace=trace,
    )


def gate_time_sweep(
    j12_grid: np.ndarray,
    baseline: ProtocolParams,
    budget: int = 500,
    cfg: PropagatorConfig = SEARCH_CFG,
    final_cfg: PropagatorConfig = FINAL_CFG,
    jobs: int = 1,
) -> list[OptResult]:
    """For each native coupling value, optimize the remaining knobs.

    j_12 and omega_d_off stay fixed per point; {j_m1, drive_amp, omega_2}
    are optimized by `optimize_joint` with SWEEP_RESTARTS restarts and
    `budget` evaluations per point.  Returns one OptResult per grid value
    (failed points carry the penalty objective).  omega_d_on is solved at
    every point scored; `baseline.omega_d_on` is ignored.
    """
    j12_grid = np.asarray(j12_grid, dtype=float)
    if not np.all(np.isfinite(j12_grid)):
        raise ValueError("j12_grid must be finite")
    if np.any(j12_grid <= 0) or np.any(np.diff(j12_grid) <= 0):
        raise ValueError("j12_grid must be positive and strictly increasing")
    points = [replace(baseline, j_12=float(j)) for j in j12_grid]
    search = functools.partial(
        optimize_joint, free=("j_m1", "drive_amp", "omega_2"), budget=budget, cfg=cfg,
        final_cfg=final_cfg, restarts=SWEEP_RESTARTS,
    )
    return _map(search, jobs, points)
