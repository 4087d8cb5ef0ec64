"""Output checks, run outside the timed passes.

Each check compares a workload's outputs with the benchmark's own
references (`reference`) or with a property the method must have; none
compares with stored output.  Every function returns a list of failure
messages, empty when the outputs pass.  The `check_*` entry points also
return the largest deviation of the package's U(tau) from the DOP853
reference over the points they sample.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from freezegate import channel
from freezegate.floquet import avoided_crossing_gap, branch_separation_at
from freezegate.params import BASELINE
from freezegate.propagate import single_period_propagator, total_propagator
from workloads import CFG, FINE, HAAR_SAMPLES

ROOT_RESIDUAL = 1e-10
REL_TOL = 1e-9
#: A Haar estimate must lie within this many of its standard errors of the
#: Choi-formula value.  3 is the usual bound for one comparison, but a gate
#: run makes seven, with Haar samples drawn afresh for every seed, and a
#: comparison of two commits takes dozens of runs: at 3 a correct program
#: fails 0.27% of the comparisons, i.e. some run in most commit comparisons.
#: At 5 the false-alarm rate is 6e-7 per comparison, while a wrong channel
#: (identity for iSWAP) misses by thousands of standard errors.
HAAR_Z_MAX = 5.0
#: Acceptance criterion 1: on-infidelity at OPTIMIZED (magnus4/512).
OPTIMIZED_INFIDELITY_MAX = 2e-5
#: Criterion 3's gap tolerance, and the allowed gap between the Floquet off
#: separation and the closed-form Delta'_off (measured 0.6%).
GAP_REL_TOL = 0.05
OFF_SEPARATION_REL_TOL = 0.02
SZ2_FINAL_MAX = -0.99
#: Rows of the scan whose U(tau) is compared with DOP853.
SCAN_U_TAU_SAMPLES = 3
#: Sweep points per Floquet spectrum whose U(tau) is compared with DOP853.
FLOQUET_U_TAU_SAMPLES = 2


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def root_failures(label: str, p, omega_d: float) -> list[str]:
    """omega_d must zero the closed-form dressed detuning."""
    residual = abs(reference.dressed_closed_form(p, omega_d)[0])
    if not residual < ROOT_RESIDUAL:
        return [f"{label}: root residual {residual:.3g} at omega_d={omega_d!r} (require < {ROOT_RESIDUAL})"]
    return []


def off_ratio_failures(label: str, p, value: float) -> list[str]:
    expected = reference.off_ratio(p)
    if not _rel(value, expected) < REL_TOL:
        return [f"{label}: off_ratio {value!r} != closed form {expected!r}"]
    return []


def infidelity_failures(label: str, value: float) -> list[str]:
    if not 0.0 < value < 1.0:
        return [f"{label}: infidelity {value!r} outside (0, 1)"]
    return []


def u_tau_failures(label: str, p, omega_d: float, cfgs) -> tuple[list[str], float]:
    """Compare U(tau) at each config with DOP853; return failures and the worst deviation."""
    ref = reference.u_tau_dop853(p, omega_d)
    failures, worst = [], 0.0
    for cfg in cfgs:
        err = float(np.max(np.abs(single_period_propagator(p, omega_d, cfg) - ref)))
        worst = max(worst, err)
        tol = reference.u_tau_tolerance(cfg)
        if not err <= tol:
            failures.append(
                f"{label}: U(tau) {cfg.method}/{cfg.steps_per_period} off DOP853 by "
                f"{err:.3g} (allow {tol:.3g})"
            )
    return failures, worst


def no_root_failures(label: str, p, error: str) -> list[str]:
    """An error row must be the root-bracket fault, with the root above omega_1."""
    if not error.startswith("NoRootInBracket"):
        return [f"{label}: unexpected error {error!r}"]
    root = reference.root_above_omega_1(p)
    if root is None:
        return [f"{label}: NoRootInBracket but no closed-form root above omega_1 either"]
    return []


# ------------------------------------------------------------------ scan


def check_scan(tables, seed: int) -> tuple[list[str], float]:
    failures = []
    ok_rows = []
    for table in tables:
        for k, row in enumerate(table.rows):
            label = f"scan {table.varied}[{k}]"
            if row.error:
                failures += no_root_failures(label, row.params, row.error)
                continue
            ok_rows.append((label, row))
            failures += root_failures(label, row.params, row.omega_d_on)
            failures += off_ratio_failures(label, row.params, row.off_ratio)
            failures += infidelity_failures(label, row.infidelity_on)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(ok_rows), size=min(SCAN_U_TAU_SAMPLES, len(ok_rows)), replace=False)
    worst = 0.0
    for i in sorted(picks):
        label, row = ok_rows[i]
        f, err = u_tau_failures(label, row.params, row.omega_d_on, (CFG,))
        failures += f
        worst = max(worst, err)
    return failures, worst


# --------------------------------------------------------------- floquet


def quasienergy_failures(label: str, quasi: np.ndarray, omega_d: float) -> list[str]:
    """Each point's quasienergies sum to 0 mod omega_d (H is traceless) and are principal."""
    failures = []
    half = omega_d / 2
    total = quasi.sum(axis=1)
    wrapped = np.abs((total + half) % omega_d - half)
    if not np.all(wrapped < 1e-9):
        failures.append(f"{label}: quasienergy sum off 0 mod omega_d by {wrapped.max():.3g}")
    if not (np.all(quasi > -half) and np.all(quasi <= half)):
        failures.append(f"{label}: quasienergies outside (-omega_d/2, omega_d/2]")
    return failures


def gap_failures(gap: float, j12_eff: float) -> list[str]:
    if not _rel(gap, 2 * j12_eff) <= GAP_REL_TOL:
        return [f"floquet: on gap {gap:.6g} not within 5% of 2*j12_eff = {2 * j12_eff:.6g}"]
    return []


def off_separation_failures(sep: float, delta_off: float) -> list[str]:
    if not _rel(sep, delta_off) <= OFF_SEPARATION_REL_TOL:
        return [f"floquet: off separation {sep:.6g} not within 2% of Delta'_off = {delta_off:.6g}"]
    return []


def check_floquet(out, seed: int) -> tuple[list[str], float]:
    failures = root_failures("floquet on drive", BASELINE, out.root.omega_d)
    for label, spec in (("floquet on", out.on), ("floquet off", out.off)):
        failures += quasienergy_failures(label, spec.quasienergies, spec.omega_d)
    j12_eff = reference.dressed_closed_form(BASELINE, out.root.omega_d)[1]
    failures += gap_failures(avoided_crossing_gap(out.on, "gm g1 e2", "gm e1 g2"), j12_eff)
    sep = branch_separation_at(out.off, "gm g1 e2", "gm e1 g2", BASELINE.omega_2)
    failures += off_separation_failures(sep, reference.off_detuning(BASELINE))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for label, spec in (("floquet on", out.on), ("floquet off", out.off)):
        for k in sorted(rng.choice(len(spec.sweep_values), FLOQUET_U_TAU_SAMPLES, replace=False)):
            p = BASELINE.with_(**{spec.sweep_name: float(spec.sweep_values[k])})
            f, err = u_tau_failures(f"{label}[{k}]", p, spec.omega_d, (CFG,))
            failures += f
            worst = max(worst, err)
    return failures, worst


# ------------------------------------------------------------------ gate


def haar_failures(label: str, mean: float, stderr: float, exact: float) -> list[str]:
    """A Haar estimate must agree with the Choi formula within HAAR_Z_MAX standard errors."""
    z = abs(mean - exact) / max(stderr, 1e-15)
    if not z <= HAAR_Z_MAX:
        return [
            f"{label}: Haar {mean:.8g} +- {stderr:.3g} is {z:.3g} SE from Choi {exact:.8g}"
        ]
    return []


def optimized_failures(infidelity: float) -> list[str]:
    if not infidelity <= OPTIMIZED_INFIDELITY_MAX:
        return [f"gate OPTIMIZED: infidelity {infidelity:.4g} exceeds {OPTIMIZED_INFIDELITY_MAX}"]
    return []


def trajectory_failures(table, t_gate: float, final_pops: np.ndarray) -> list[str]:
    """Populations sum to 1, Q2 goes from +1 to <= -0.99, last sample = U(t_gate) psi0."""
    cols = list(table.columns)
    data = table.data
    pops = data[:, [i for i, c in enumerate(cols) if c.startswith("pop_")]]
    sz2 = data[:, cols.index("sz_2")]
    failures = []
    if not np.all(np.abs(pops.sum(axis=1) - 1.0) < 1e-10):
        failures.append(f"trajectory: populations sum off 1 by {np.abs(pops.sum(axis=1) - 1).max():.3g}")
    if not (data[0, 0] == 0.0 and _rel(data[-1, 0], t_gate) < REL_TOL):
        failures.append(f"trajectory: spans [{data[0, 0]}, {data[-1, 0]}], not [0, t_gate={t_gate}]")
    if not abs(sz2[0] - 1.0) < 1e-9:
        failures.append(f"trajectory: <sz_2>(0) = {sz2[0]:.6g}, not +1")
    if not sz2[-1] <= SZ2_FINAL_MAX:
        failures.append(f"trajectory: <sz_2>(t_gate) = {sz2[-1]:.6g} (require <= {SZ2_FINAL_MAX})")
    dev = float(np.max(np.abs(pops[-1] - final_pops)))
    if not dev < 1e-9:
        failures.append(f"trajectory: last sample off |U(t_gate) psi0|^2 by {dev:.3g}")
    return failures


def check_gate(out, seed: int) -> tuple[list[str], float]:
    failures = []
    worst = 0.0
    iswap = channel.iswap_unitary()
    for label, p, haar_seed, choi_rep, haar_rep in out.reports:
        label = f"gate {label}"
        omega_d = choi_rep.omega_d_on
        p_on = p.with_(omega_d_on=omega_d)
        failures += root_failures(label, p, omega_d)
        if haar_rep.omega_d_on != omega_d or haar_rep.t_gate != choi_rep.t_gate:
            failures.append(f"{label}: the two reports disagree on omega_d_on or t_gate")
        j12_eff = reference.dressed_closed_form(p, omega_d)[1]
        if not _rel(choi_rep.t_gate, math.pi / (2 * j12_eff)) < REL_TOL:
            failures.append(f"{label}: t_gate {choi_rep.t_gate!r} != pi/(2 j12_eff)")
        failures += off_ratio_failures(label, p, choi_rep.off_ratio)
        failures += infidelity_failures(label, choi_rep.infidelity)
        if label == "gate OPTIMIZED":
            failures += optimized_failures(choi_rep.infidelity)
        est = channel.avg_fidelity_haar(p_on, HAAR_SAMPLES, haar_seed, CFG, duration=choi_rep.t_gate)
        if est.mean != haar_rep.avg_fidelity:
            failures.append(f"{label}: Haar report {haar_rep.avg_fidelity!r} not reproducible ({est.mean!r})")
        ch = channel.extract_channel(p_on, "on", choi_rep.t_gate, CFG)
        failures += haar_failures(label, est.mean, est.stderr, channel.avg_fidelity_choi(ch, iswap))
        f, err = u_tau_failures(label, p, omega_d, (CFG, FINE))
        failures += f
        worst = max(worst, err)
    failures += root_failures("gate trajectory", BASELINE, out.omega_d)
    final = total_propagator(BASELINE, out.omega_d, out.t_gate, CFG) @ out.initial
    failures += trajectory_failures(out.trajectory, out.t_gate, np.abs(final) ** 2)
    return failures, worst


CHECKS = {"scan": check_scan, "floquet": check_floquet, "gate": check_gate}
