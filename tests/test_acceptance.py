"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers at the pinned tolerances.

The printed lines bypass pytest capture so they always appear in the run
log; the asserts carry the same numbers.
"""

import math
import sys

import numpy as np
import pytest
import scipy.linalg

from freezegate.channel import (
    avg_fidelity_choi,
    extract_channel,
    fidelity_report,
    haar_average_fidelity,
    iswap_unitary,
    unitary_channel,
)
from freezegate.dressed import effective_model, off_ratio, solve_omega_d_on
from freezegate.floquet import (
    avoided_crossing_gap,
    branch_separation_at,
    floquet_spectrum,
)
from freezegate.params import BASELINE, OPTIMIZED, ProtocolParams
from freezegate.pauli import build_lab_hamiltonian, frame_map, unitarity_defect
from freezegate.propagate import (
    PropagatorConfig,
    interval_propagator,
    single_period_propagator,
    total_propagator,
)
from freezegate.scan import ScanSpec, gate_time_sweep, run_scan

CFG = PropagatorConfig(steps_per_period=256)
FINE = PropagatorConfig(steps_per_period=512, method="magnus4")


def report(capfd, n: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        sys.stdout.write(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {detail}\n")
        sys.stdout.flush()


def test_criterion_1_optimized_operating_point(capfd):
    rep = fidelity_report(OPTIMIZED, FINE)
    ok_i = rep.infidelity <= 2e-5
    ok_r = abs(rep.off_ratio - 474.2) <= 0.01 * 474.2
    ok = ok_i and ok_r
    report(
        capfd,
        1,
        ok,
        f"optimized point: infidelity_on={rep.infidelity:.4g} "
        f"(require <= 2e-5), off_ratio={rep.off_ratio:.4g} "
        f"(require 474.2 +- 1%)",
    )
    assert ok_r, f"off_ratio {rep.off_ratio} outside 474.2 +- 1%"
    assert ok_i, f"infidelity_on {rep.infidelity} exceeds 2e-5"


def test_criterion_2_effective_detuning_asymptotics(capfd):
    lo = effective_model(BASELINE, -100.0).delta_12_prime
    hi = effective_model(BASELINE, 100.0).delta_12_prime
    root = solve_omega_d_on(BASELINE)
    res = effective_model(BASELINE, root.omega_d).delta_12_prime
    ok_asym = abs(lo - 0.0017) < 1e-5 and abs(hi - 0.0017) < 1e-5
    ok_root = res < 1e-10
    ok = ok_asym and ok_root
    report(
        capfd,
        2,
        ok,
        f"asymptotes delta_12'(-100)={lo:.6g}, delta_12'(+100)={hi:.6g} "
        f"(require 0.0017 +- 1e-5); residual at root {res:.3g} (require < 1e-10)",
    )
    assert ok_asym
    assert ok_root


def test_criterion_3_floquet_avoided_crossing(capfd):
    root = solve_omega_d_on(BASELINE)
    j12_eff_on = effective_model(BASELINE, root.omega_d).j12_eff
    grid = np.linspace(1.0012, 1.0022, 101)
    spec_on = floquet_spectrum(BASELINE, root.omega_d, "omega_2", grid, CFG)
    gap = avoided_crossing_gap(spec_on, "gm g1 e2", "gm e1 g2")
    ok_gap = abs(gap - 2 * j12_eff_on) <= 0.05 * 2 * j12_eff_on

    spec_off = floquet_spectrum(BASELINE, BASELINE.omega_d_off, "omega_2", grid, CFG)
    sep = branch_separation_at(spec_off, "gm g1 e2", "gm e1 g2", BASELINE.omega_2)
    ok_sep = sep > 20 * gap
    ok = ok_gap and ok_sep
    report(
        capfd,
        3,
        ok,
        f"on gap={gap:.6g} vs 2*j12_eff={2 * j12_eff_on:.6g} (require within 5%); "
        f"off separation={sep:.6g} vs 20*gap={20 * gap:.6g} (require >)",
    )
    assert ok_gap
    assert ok_sep, f"off separation {sep} is only {sep / gap:.1f}x the on gap"


def test_criterion_4_fidelity_oracles(capfd):
    ch = unitary_channel(iswap_unitary())
    f_exact = avg_fidelity_choi(ch, iswap_unitary())
    ok_exact = abs(f_exact - 1.0) < 1e-12
    f_id = avg_fidelity_choi(unitary_channel(np.eye(4)), iswap_unitary())
    ok_id = abs(f_id - 0.4) < 1e-12

    rng = np.random.default_rng(42)
    ok_haar = True
    worst = 0.0
    for _ in range(5):
        p = BASELINE.with_(
            omega_2=1.0 + rng.uniform(8e-4, 3e-3),
            j_m1=rng.uniform(2e-3, 6e-3),
            drive_amp=rng.uniform(0.05, 0.1),
        )
        root = solve_omega_d_on(p)
        p = p.with_(omega_d_on=root.omega_d)
        t_gate = effective_model(p, root.omega_d).t_gate
        chan = extract_channel(p, "on", t_gate, CFG)
        exact = avg_fidelity_choi(chan, iswap_unitary())
        est = haar_average_fidelity(chan, iswap_unitary(), samples=1000, seed=7)
        sigmas = abs(est.mean - exact) / max(est.stderr, 1e-15)
        worst = max(worst, sigmas)
        ok_haar = ok_haar and sigmas <= 3.0
    ok = ok_exact and ok_id and ok_haar
    report(
        capfd,
        4,
        ok,
        f"iSWAP self-fidelity err={abs(f_exact - 1.0):.2g}, identity-vs-iSWAP "
        f"err={abs(f_id - 0.4):.2g} (require < 1e-12); Haar vs Choi worst "
        f"deviation {worst:.2f} sigma over 5 points (require <= 3)",
    )
    assert ok_exact
    assert ok_id
    assert ok_haar


QUOTED_OPTIMA = {"j_m1": 0.0036, "drive_amp": 0.07, "omega_2": 1.0016, "j_12": 1e-4}
SCAN_GRIDS = {
    "j_m1": np.geomspace(0.0015, 0.008, 15),
    "drive_amp": np.linspace(0.04, 0.12, 15),
    "omega_2": np.linspace(1.0008, 1.0024, 15),
    "j_12": np.geomspace(2e-5, 5e-4, 15),
    "omega_d_off": np.linspace(1.002, 1.006, 15),
}


def test_criterion_5_scan_trends(capfd):
    details = []
    failures = []
    for name, grid in SCAN_GRIDS.items():
        spec = ScanSpec(name, tuple(float(v) for v in grid), BASELINE)
        table = run_scan(spec, CFG)
        infid = table.infidelities
        finite = np.isfinite(infid)
        # off-suppression requirement holds near the operating point of each
        # scan (within one grid cell of the quoted value), not at the far
        # edges of the grid where e.g. large j_12 trivially lowers the ratio
        operating = QUOTED_OPTIMA.get(name, BASELINE.omega_d_off)
        kq_r = int(np.argmin(np.abs(grid - operating)))
        r_near = table.rows[kq_r].off_ratio if finite[kq_r] else math.nan
        if not r_near > 200.0:
            failures.append(f"{name}: off_ratio at operating point {r_near:.3g}")
        if name == "omega_d_off":
            vals = infid[finite]
            rel = float((vals.max() - vals.min()) / vals.min())
            details.append(f"omega_d_off spread={rel:.2g}")
            if rel >= 0.01:
                failures.append(f"omega_d_off scan not flat: {rel:.3g}")
            continue
        k = int(np.nanargmin(np.where(finite, infid, np.inf)))
        kq = int(np.argmin(np.abs(grid - QUOTED_OPTIMA[name])))
        details.append(f"{name}: min at {grid[k]:.6g} ({abs(k - kq)} cells from quoted)")
        if not (0 < k < len(grid) - 1):
            failures.append(f"{name}: minimum at grid edge")
        elif abs(k - kq) > 1:
            failures.append(
                f"{name}: minimum {grid[k]:.6g} is {abs(k - kq)} cells from "
                f"quoted {QUOTED_OPTIMA[name]}"
            )
    ok = not failures
    report(capfd, 5, ok, "; ".join(details) + (f" | failing: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_6_gate_time_tradeoff(capfd):
    j12_grid = np.geomspace(1.5e-5, 1.2e-4, 5)
    results = gate_time_sweep(
        j12_grid,
        BASELINE,
        budget=300,
        cfg=PropagatorConfig(steps_per_period=128),
        final_cfg=PropagatorConfig(steps_per_period=256, method="magnus4"),
    )
    ts = np.array([r.t_gate for r in results])
    infs = np.array([r.best_infidelity for r in results])
    offs = np.array([r.off_ratio for r in results])
    order = np.argsort(ts)
    mono = bool(np.all(np.diff(infs[order]) < 0))
    coef = np.polyfit(ts, offs, 1)
    resid = offs - np.polyval(coef, ts)
    r2 = float(1 - resid @ resid / np.sum((offs - offs.mean()) ** 2))
    ok = mono and r2 > 0.95
    report(
        capfd,
        6,
        ok,
        f"infidelity vs t_gate monotone decreasing: {mono} "
        f"(I={np.array2string(infs[order], precision=2)}); off_ratio linear "
        f"fit R^2={r2:.4f} (require > 0.95)",
    )
    assert mono, f"infidelity not monotone in t_gate: {infs[order]}"
    assert r2 > 0.95


def test_criterion_7_numerical_invariants(capfd):
    omega_d = 1.004
    tau = 2 * math.pi / omega_d
    failures = []

    u = total_propagator(BASELINE, omega_d, 5000.0, CFG)
    if unitarity_defect(u) >= 1e-10:
        failures.append(f"unitarity {unitarity_defect(u):.2g}")

    ch = extract_channel(BASELINE, "off", 3000.0, CFG)
    if ch.min_choi_eigenvalue <= -1e-10 or ch.trace_defect >= 1e-9:
        failures.append(
            f"Choi min-eig {ch.min_choi_eigenvalue:.2g}, TP defect "
            f"{ch.trace_defect:.2g}"
        )

    # frame consistency: decoupled lab evolution conjugated into the
    # rotating frame equals the exact rotating-frame evolution
    p0 = ProtocolParams(j_m1=0.0, j_12=0.0, drive_amp=0.0)
    from freezegate.pauli import build_rotating_hamiltonian

    t100 = 100 * tau
    u_rot = frame_map(omega_d, t100) @ scipy.linalg.expm(
        -1j * build_lab_hamiltonian(p0, omega_d, 0.0) * t100
    )
    frame_err = np.max(
        np.abs(u_rot - scipy.linalg.expm(-1j * build_rotating_hamiltonian(p0, omega_d) * t100))
    )
    if frame_err >= 1e-10:
        failures.append(f"frame consistency {frame_err:.2g}")

    # compensation self-test: j_12 = 0 channel is identity-like
    p = BASELINE.with_(j_12=0.0, omega_d_on=solve_omega_d_on(BASELINE).omega_d)
    t_gate = effective_model(BASELINE, p.omega_d_on).t_gate
    f_self = avg_fidelity_choi(extract_channel(p, "on", t_gate, CFG), np.eye(4))
    if f_self <= 1.0 - 1e-3:
        failures.append(f"self-test fidelity {f_self:.6f}")

    # stroboscopic consistency
    u_tau = single_period_propagator(BASELINE, omega_d, CFG)
    strobe_err = 0.0
    for n in (1, 10, 100):
        diff = total_propagator(BASELINE, omega_d, n * tau, CFG) - np.linalg.matrix_power(u_tau, n)
        strobe_err = max(strobe_err, float(np.max(np.abs(diff))))
    if strobe_err >= 1e-9:
        failures.append(f"stroboscopic {strobe_err:.2g}")

    # convergence orders
    ref = interval_propagator(BASELINE, omega_d, 0.0, tau, 4096, "magnus4")

    def order(method, n):
        e1 = np.linalg.norm(interval_propagator(BASELINE, omega_d, 0.0, tau, n, method) - ref, 2)
        e2 = np.linalg.norm(interval_propagator(BASELINE, omega_d, 0.0, tau, 2 * n, method) - ref, 2)
        return math.log2(e1 / e2)

    o_mid = order("midpoint", 64)
    o_mag = order("magnus4", 16)
    if not (1.8 < o_mid < 2.3):
        failures.append(f"midpoint order {o_mid:.2f}")
    if not (3.5 < o_mag < 4.6):
        failures.append(f"magnus4 order {o_mag:.2f}")

    ok = not failures
    report(
        capfd,
        7,
        ok,
        "unitarity/Choi/frame/self-test/stroboscopic/convergence all within "
        f"tolerance; orders midpoint={o_mid:.2f}, magnus4={o_mag:.2f}"
        + (f" | failing: {failures}" if failures else ""),
    )
    assert ok, failures
