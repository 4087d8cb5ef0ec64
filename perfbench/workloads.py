"""The three workloads: fixed inputs built from the seed, and one pass over them.

Every call into the package goes through a module attribute
(``fscan.run_scan``, ``channel.fidelity_report``, ...), so the traced pass
sees it once `tracer.instrument` has rebound the aliases.  All work runs
in this process (``run_scan(..., jobs=1)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from freezegate import channel, dressed, floquet, propagate
from freezegate import scan as fscan
from freezegate.params import BASELINE, OPTIMIZED
from freezegate.propagate import PropagatorConfig

CFG = PropagatorConfig(steps_per_period=256)
FINE = PropagatorConfig(steps_per_period=512, method="magnus4")

#: The figure-3 grids of `reproduce --quick` and acceptance criterion 5.
SCAN_GRIDS = {
    "j_m1": np.geomspace(0.0015, 0.008, 15),
    "drive_amp": np.linspace(0.04, 0.12, 15),
    "omega_2": np.linspace(1.0008, 1.0024, 15),
    "j_12": np.geomspace(2e-5, 5e-4, 15),
    "omega_d_off": np.linspace(1.002, 1.006, 15),
}

#: The omega_2 sweep of figures 2b/2c and acceptance criterion 3.
FLOQUET_GRID = np.linspace(1.0012, 1.0022, 101)

HAAR_SAMPLES = 1000
TRAJECTORY_SAMPLES = 200


def gate_points(seed: int) -> list[tuple[str, Any, int]]:
    """(label, params, Haar sample seed) for OPTIMIZED, BASELINE and criterion 4's points.

    The five further points are the ones acceptance criterion 4 draws from
    its generator seeded with 42.  They are fixed rather than drawn from
    `seed`: a report's cost depends on the point through the partial
    period at the end of its gate (0 to 1 period of steps in each of three
    propagators), so fresh points per seed would spread the pass time by
    ~10% between seeds.  The seed picks the Haar samples.
    """
    rng = np.random.default_rng(42)
    points = [("OPTIMIZED", OPTIMIZED), ("BASELINE", BASELINE)]
    for k in range(5):
        points.append(
            (
                f"criterion4[{k}]",
                BASELINE.with_(
                    omega_2=1.0 + rng.uniform(8e-4, 3e-3),
                    j_m1=rng.uniform(2e-3, 6e-3),
                    drive_amp=rng.uniform(0.05, 0.1),
                ),
            )
        )
    haar_seeds = np.random.default_rng(seed).integers(2**31, size=len(points))
    return [(label, p, int(s)) for (label, p), s in zip(points, haar_seeds)]


# ------------------------------------------------------------------ scan


def scan_inputs(seed: int) -> list[fscan.ScanSpec]:
    return [
        fscan.ScanSpec(name, tuple(float(v) for v in grid), BASELINE)
        for name, grid in SCAN_GRIDS.items()
    ]


def scan_run(specs) -> list[fscan.ScanTable]:
    return [fscan.run_scan(spec, CFG, jobs=1) for spec in specs]


def scan_ops(tables) -> tuple[int, int]:
    rows = [r for t in tables for r in t.rows]
    return len(rows), sum(1 for r in rows if r.error)


def scan_signature(tables) -> np.ndarray:
    rows = [r for t in tables for r in t.rows]
    return np.array([[r.omega_d_on, r.infidelity_on, r.off_ratio] for r in rows])


# --------------------------------------------------------------- floquet


@dataclass(frozen=True)
class FloquetOutput:
    root: Any
    on: Any
    off: Any


def floquet_inputs(seed: int) -> np.ndarray:
    return FLOQUET_GRID


def floquet_run(grid) -> FloquetOutput:
    root = dressed.solve_omega_d_on(BASELINE)
    on = floquet.floquet_spectrum(BASELINE, root.omega_d, "omega_2", grid, CFG)
    off = floquet.floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
    return FloquetOutput(root, on, off)


def floquet_ops(out) -> tuple[int, int]:
    return 2, 0


def floquet_signature(out) -> np.ndarray:
    return np.concatenate([out.on.quasienergies.ravel(), out.off.quasienergies.ravel()])


# ------------------------------------------------------------------ gate


@dataclass(frozen=True)
class GateOutput:
    #: (label, params, Haar seed, Choi report at FINE, Haar report at CFG)
    reports: list
    omega_d: float
    t_gate: float
    initial: np.ndarray
    trajectory: Any


def gate_inputs(seed: int):
    return gate_points(seed)


def trajectory_initial(model) -> np.ndarray:
    """|gm e1 g2> from the dressed single-qubit states."""
    return np.kron(model.modulator.ground_state, np.kron(model.q1_excited, model.q2_ground))


def gate_run(points) -> GateOutput:
    reports = [
        (
            label,
            p,
            haar_seed,
            channel.fidelity_report(p, FINE),
            channel.fidelity_report(p, CFG, "haar-monte-carlo", HAAR_SAMPLES, haar_seed),
        )
        for label, p, haar_seed in points
    ]
    omega_d = dressed.solve_omega_d_on(BASELINE).omega_d
    model = dressed.effective_model(BASELINE, omega_d)
    initial = trajectory_initial(model)
    table = propagate.export_trajectory(
        BASELINE, omega_d, initial, model.t_gate, TRAJECTORY_SAMPLES, CFG
    )
    return GateOutput(reports, omega_d, model.t_gate, initial, table)


def gate_ops(out) -> tuple[int, int]:
    return 2 * len(out.reports) + 1, 0


def gate_signature(out) -> np.ndarray:
    fids = [r.infidelity for *_, choi, haar in out.reports for r in (choi, haar)]
    return np.concatenate([fids, out.trajectory.data.ravel()])


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], Any]
    run: Callable[[Any], Any]
    ops: Callable[[Any], tuple[int, int]]
    signature: Callable[[Any], np.ndarray]


WORKLOADS = {
    "scan": Workload(scan_inputs, scan_run, scan_ops, scan_signature),
    "floquet": Workload(floquet_inputs, floquet_run, floquet_ops, floquet_signature),
    "gate": Workload(gate_inputs, gate_run, gate_ops, gate_signature),
}
