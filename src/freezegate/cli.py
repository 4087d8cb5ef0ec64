"""Command-line interface: config loading, figure-data regeneration, reports.

All numeric tables go out as CSV with a one-line header, reports and
configs as JSON.  Output files are written atomically (temp + rename) so
interrupted runs never leave half-written tables behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .channel import FIDELITY_METHODS, fidelity_report, resolve_omega_d
from .dressed import effective_model, solve_omega_d_on
from .errors import ConfigError, DegenerateDressedModes, NoRootInBracket, StepTooCoarse
from .floquet import SWEEPABLE, avoided_crossing_gap, branch_separation_at, floquet_spectrum
from .params import OPTIMIZED, ProtocolParams
from .propagate import PropagatorConfig, export_trajectory
from .scan import (
    FINAL_CFG, MIN_BUDGET, SCANNABLE, SEARCH_CFG, ScanSpec, gate_time_sweep, optimize_joint,
    run_scan,
)

#: Quoted reference values the reproduction pipeline checks itself against.
REFERENCE = {
    "optimized_infidelity_on": 6.359e-6,
    "optimized_off_ratio": 474.2,
    "asymptotic_detuning": 0.0017,
    "scan_optima": {"j_m1": 0.0036, "drive_amp": 0.07, "omega_2": 1.0016, "j_12": 1e-4},
}

#: Commands that solve omega_d_on at every point, so reject a config's value.
_SOLVE_OMEGA_D_ON = ("scan", "optimize", "gate-time-sweep", "reproduce")
_PARAM_FIELDS = {f.name for f in dataclasses.fields(ProtocolParams)}
_PROP_FIELDS = {f.name for f in dataclasses.fields(PropagatorConfig)}


def load_config(path: str) -> tuple[ProtocolParams, PropagatorConfig]:
    """Strictly parse a JSON config: unknown keys are errors, omega_m must be 1."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config {path}: cannot read: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = set(raw) - {"params", "propagator"}
    if unknown:
        raise ConfigError(f"config {path}: unknown top-level keys {sorted(unknown)}")
    pdict, cdict = raw.get("params", {}), raw.get("propagator", {})
    for key, section in (("params", pdict), ("propagator", cdict)):
        if not isinstance(section, dict):
            raise ConfigError(f"config {path}: {key} must be an object")

    bad = set(pdict) - _PARAM_FIELDS
    if bad:
        raise ConfigError(f"config {path}: unknown params keys {sorted(bad)}")
    if "omega_m" in pdict and pdict["omega_m"] != 1:
        raise ConfigError(
            f"config {path}: params.omega_m must be 1 (all quantities are in "
            "units of the modulator frequency)"
        )
    try:
        params = ProtocolParams(**pdict)
        params.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: params: {exc}") from exc

    bad = set(cdict) - _PROP_FIELDS
    if bad:
        raise ConfigError(f"config {path}: unknown propagator keys {sorted(bad)}")
    try:
        cfg = PropagatorConfig(**cdict)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path}: propagator: {exc}") from exc
    return params, cfg


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, default=_jsonable) + "\n")


def write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([_csv_cell(x) for x in row])
    _atomic_write(path, buf.getvalue())


def _csv_cell(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return x


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)!r}")


def _atomic_write(path: str, text: str) -> None:
    """Write text to path via a temp file and a rename; newlines as given."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output_path(directory: str, name: str) -> str:
    """Path of `name` in the output directory, which is created if missing."""
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _require(ok: bool, flag: str, value, bound: str) -> None:
    """Reject a command-line value outside its range as a ConfigError."""
    if not ok:
        raise ConfigError(f"{flag} must be {bound}, got {value}")


def _resolve(args) -> tuple[ProtocolParams, PropagatorConfig]:
    if args.config:
        params, cfg = load_config(args.config)
    else:
        params, cfg = ProtocolParams(), PropagatorConfig()
    if params.omega_d_on is not None and args.command in _SOLVE_OMEGA_D_ON:
        raise ConfigError(
            f"{args.command} solves omega_d_on at every point: "
            "remove params.omega_d_on from the config"
        )
    # numpy's generators take only non-negative seeds.
    _require(args.seed >= 0, "--seed", args.seed, ">= 0")
    _require(args.jobs >= 1, "--jobs", args.jobs, ">= 1")
    n = args.steps_per_period
    if n is not None:
        _require(n >= 4 and n % 4 == 0, "--steps-per-period", n, ">= 4 and a multiple of 4")
        cfg = dataclasses.replace(cfg, steps_per_period=n)
    if args.quick:
        cfg = dataclasses.replace(cfg, steps_per_period=min(cfg.steps_per_period, 128))
    return params, cfg


def _optimizer_configs(cfg: PropagatorConfig, quick: bool) -> tuple[PropagatorConfig, ...]:
    """Search config (cfg, at most SEARCH_CFG's steps) and final config
    (FINAL_CFG, at half its steps with --quick) of the optimizer stages."""
    steps = min(cfg.steps_per_period, SEARCH_CFG.steps_per_period)
    final = FINAL_CFG
    if quick:
        final = dataclasses.replace(FINAL_CFG, steps_per_period=FINAL_CFG.steps_per_period // 2)
    return dataclasses.replace(cfg, steps_per_period=steps), final


# ---------------------------------------------------------------- commands


def cmd_effective_model(args) -> int:
    params, _ = _resolve(args)
    omega_d = resolve_omega_d(params, args.regime)
    m = effective_model(params, omega_d)
    out = {
        "omega_d": omega_d,
        "regime": args.regime,
        "omega_m_prime": m.modulator.omega_m_prime,
        "modulator_sx": m.modulator.sx,
        "modulator_sy": m.modulator.sy,
        "modulator_sz": m.modulator.sz,
        "omega_1_prime": m.omega_1_prime,
        "omega_2_prime": m.omega_2_prime,
        "delta_12_prime": m.delta_12_prime,
        "delta_m1_prime": m.delta_m1_prime,
        "j12_eff": m.j12_eff,
        "t_gate": m.t_gate,
    }
    print(
        f"effective-model[{args.regime}]: omega_d={omega_d:.12g} "
        f"delta_12_prime={m.delta_12_prime:.6g} j12_eff={m.j12_eff:.6g} "
        f"t_gate={m.t_gate:.6g}"
    )
    if args.output:
        write_json(_output_path(args.output, "effective_model.json"), out)
    return 0


def _spectrum_rows(spec):
    header = ["sweep_value"] + [f"quasienergy_{lbl.replace(' ', '_')}" for lbl in spec.labels]
    rows = [
        [v, *spec.quasienergies[i]] for i, v in enumerate(spec.sweep_values)
    ]
    return header, rows


def _scan_rows(table):
    header = [table.varied, "infidelity_on", "off_ratio", "omega_d_on", "t_gate", "error"]
    rows = [
        [getattr(r.params, table.varied), r.infidelity_on, r.off_ratio, r.omega_d_on,
         r.t_gate, r.error]
        for r in table.rows
    ]
    return header, rows


def _sweep_rows(j12_grid, results):
    header = ["j_12", "t_gate", "infidelity_on", "off_ratio", "j_m1", "drive_amp", "omega_2"]
    rows = [
        [float(j), r.t_gate, r.best_infidelity, r.off_ratio, r.best_params.j_m1,
         r.best_params.drive_amp, r.best_params.omega_2]
        for j, r in zip(j12_grid, results)
    ]
    return header, rows


def cmd_floquet(args) -> int:
    _require(args.points >= 2, "--points", args.points, ">= 2")
    _require(math.isfinite(args.grid_min), "--grid-min", args.grid_min, "finite")
    _require(math.isfinite(args.grid_max), "--grid-max", args.grid_max, "finite")
    _require(args.grid_max != args.grid_min, "--grid-max", args.grid_max, "!= --grid-min")
    params, cfg = _resolve(args)
    omega_d = resolve_omega_d(params, args.regime)
    grid = np.linspace(args.grid_min, args.grid_max, args.points)
    spec = floquet_spectrum(params, omega_d, args.sweep, grid, cfg)
    line = f"floquet[{args.regime}]: {args.sweep} sweep, {args.points} points"
    if args.regime == "on":
        gap = avoided_crossing_gap(spec, "gm g1 e2", "gm e1 g2")
        line += f", gap(gm g1 e2 | gm e1 g2)={gap:.6g}"
    print(line)
    if args.output:
        write_csv(_output_path(args.output, "floquet.csv"), *_spectrum_rows(spec))
    return 0


def _parse_initial(tokens: str, params: ProtocolParams, omega_d: float) -> np.ndarray:
    """Product initial state from comma labels: gm/em, g1/e1, g2/e2, or 0/1."""
    parts = [t.strip() for t in tokens.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"initial state needs 3 comma-separated labels, got {tokens!r}")
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    m = effective_model(params, omega_d)
    lookup = {
        "gm": m.modulator.ground_state,
        "em": m.modulator.excited_state,
        "g1": m.q1_ground,
        "e1": m.q1_excited,
        "g2": m.q2_ground,
        "e2": m.q2_excited,
        "0": zero,
        "1": one,
    }
    factors = []
    for tok in parts:
        if tok not in lookup:
            raise ConfigError(f"unknown state label {tok!r}")
        factors.append(lookup[tok])
    return np.kron(factors[0], np.kron(factors[1], factors[2]))


def cmd_trajectory(args) -> int:
    _require(args.samples >= 2, "--samples", args.samples, ">= 2")
    if args.t_final is not None:
        ok = math.isfinite(args.t_final) and args.t_final >= 0
        _require(ok, "--t-final", args.t_final, ">= 0 and finite")
    params, cfg = _resolve(args)
    omega_d = resolve_omega_d(params, args.regime)
    initial = _parse_initial(args.initial, params, omega_d)
    t_final = args.t_final
    if t_final is None:
        on = omega_d if args.regime == "on" else resolve_omega_d(params, "on")
        t_final = effective_model(params, on).t_gate
        if not math.isfinite(t_final):
            raise ConfigError(f"j12_eff is zero at omega_d_on = {on!r}: no finite gate time for --t-final")
    table = export_trajectory(params, omega_d, initial, t_final, args.samples, cfg)
    print(
        f"trajectory[{args.regime}]: {args.samples} samples over t={t_final:.6g}, "
        f"final mod_ground_pop={table.data[-1, -1]:.6g}"
    )
    if args.output:
        write_csv(_output_path(args.output, "trajectory.csv"), list(table.columns), table.data)
    return 0


def cmd_fidelity(args) -> int:
    if args.method == "haar-monte-carlo":
        _require(args.haar_samples >= 1, "--haar-samples", args.haar_samples, ">= 1")
    params, cfg = _resolve(args)
    report = fidelity_report(
        params, cfg, method=args.method, haar_samples=args.haar_samples, seed=args.seed
    )
    print(
        f"fidelity: infidelity_on={report.infidelity:.6g} "
        f"off_ratio={report.off_ratio:.6g} t_gate={report.t_gate:.6g} "
        f"method={report.method}"
    )
    if args.output:
        write_json(_output_path(args.output, "fidelity.json"), report.to_dict())
    return 0


def cmd_scan(args) -> int:
    _require(args.points >= 2, "--points", args.points, ">= 2")
    _require(math.isfinite(args.grid_min), "--grid-min", args.grid_min, "finite")
    _require(math.isfinite(args.grid_max), "--grid-max", args.grid_max, "finite")
    if args.log:
        _require(args.grid_min > 0, "--grid-min", args.grid_min, "> 0 with --log")
        _require(args.grid_max > 0, "--grid-max", args.grid_max, "> 0 with --log")
    params, cfg = _resolve(args)
    if args.log:
        grid = np.geomspace(args.grid_min, args.grid_max, args.points)
    else:
        grid = np.linspace(args.grid_min, args.grid_max, args.points)
    spec = ScanSpec(args.varied, tuple(float(v) for v in grid), params)
    table = run_scan(spec, cfg, jobs=args.jobs)
    finite = table.infidelities[np.isfinite(table.infidelities)]
    print(
        f"scan[{args.varied}]: {args.points} points, "
        f"min infidelity_on={finite.min():.6g}" if finite.size else
        f"scan[{args.varied}]: {args.points} points, no finite results"
    )
    if args.output:
        write_csv(_output_path(args.output, "scan.csv"), *_scan_rows(table))
    return 0


def _opt_dict(r) -> dict:
    return {
        "params": dataclasses.asdict(r.best_params),
        "infidelity_on": r.best_infidelity,
        "off_ratio": r.off_ratio,
        "t_gate": r.t_gate,
        "evaluations": r.evaluations,
        "converged": r.converged,
    }


def cmd_optimize(args) -> int:
    budget = max(MIN_BUDGET, args.budget // 4) if args.quick else args.budget
    _require(budget >= MIN_BUDGET, "--budget", budget, f">= {MIN_BUDGET}")
    params, cfg = _resolve(args)
    search_cfg, final_cfg = _optimizer_configs(cfg, args.quick)
    result = optimize_joint(params, budget=budget, cfg=search_cfg, final_cfg=final_cfg)
    print(
        f"optimize: infidelity_on={result.best_infidelity:.6g} "
        f"off_ratio={result.off_ratio:.6g} evaluations={result.evaluations}"
    )
    if args.output:
        write_json(_output_path(args.output, "optimized.json"), _opt_dict(result))
    return 0


def cmd_gate_time_sweep(args) -> int:
    _require(args.points >= 1, "--points", args.points, ">= 1")
    _require(math.isfinite(args.j12_min), "--j12-min", args.j12_min, "finite")
    _require(math.isfinite(args.j12_max), "--j12-max", args.j12_max, "finite")
    _require(args.j12_min > 0, "--j12-min", args.j12_min, "> 0")
    if args.points > 1:
        _require(args.j12_max > args.j12_min, "--j12-max", args.j12_max, "> --j12-min")
    budget = max(100, args.budget // 2) if args.quick else args.budget
    _require(budget >= MIN_BUDGET, "--budget", budget, f">= {MIN_BUDGET}")
    params, cfg = _resolve(args)
    grid = np.geomspace(args.j12_min, args.j12_max, args.points)
    search_cfg, final_cfg = _optimizer_configs(cfg, args.quick)
    results = gate_time_sweep(
        grid, params, budget=budget, jobs=args.jobs, cfg=search_cfg, final_cfg=final_cfg
    )
    print(f"gate-time-sweep: {args.points} points, t_gate "
          f"{results[-1].t_gate:.6g}..{results[0].t_gate:.6g}")
    if args.output:
        write_csv(_output_path(args.output, "gate_time_sweep.csv"), *_sweep_rows(grid, results))
    return 0


# ------------------------------------------------------- full reproduction


def _check(checks: dict, name: str, ok: bool, detail: dict) -> None:
    checks[name] = {"pass": bool(ok), **detail}


def cmd_reproduce(args) -> int:
    """Regenerate all figure data and self-check against quoted values."""
    params, cfg = _resolve(args)
    out = args.output or "reproduction"
    quick = args.quick
    search_cfg, final_cfg = _optimizer_configs(cfg, quick)
    manifest: list[str] = []
    checks: dict = {}

    def stage_done(name: str) -> None:
        manifest.append(name)
        write_json(_output_path(out, "manifest.json"), {"completed": manifest})

    # --- effective-detuning curve with far-detuned endpoints
    root = solve_omega_d_on(params)
    wd_grid = np.concatenate(
        [[-100.0], np.linspace(0.9, 1.1, 201 if quick else 401), [100.0]]
    )
    rows = [[w, effective_model(params, float(w)).delta_12_prime] for w in wd_grid]
    write_csv(_output_path(out, "fig2a.csv"), ["omega_d", "delta_12_prime"], rows)
    asym = REFERENCE["asymptotic_detuning"]
    end_lo, end_hi = rows[0][1], rows[-1][1]
    res_on = effective_model(params, root.omega_d).delta_12_prime
    _check(
        checks, "fig2a_asymptotes",
        abs(end_lo - asym) < 1e-5 and abs(end_hi - asym) < 1e-5,
        {"minus": end_lo, "plus": end_hi, "reference": asym},
    )
    _check(checks, "fig2a_root_residual", res_on < 1e-10,
           {"residual": res_on, "omega_d_on": root.omega_d})
    stage_done("fig2a")

    # --- Floquet spectra, off and on
    w2_pts = 51 if quick else 101
    grid = np.linspace(1.0012, 1.0022, w2_pts)
    spec_off = floquet_spectrum(params, params.omega_d_off, "omega_2", grid, cfg)
    write_csv(_output_path(out, "fig2b.csv"), *_spectrum_rows(spec_off))
    stage_done("fig2b")
    spec_on = floquet_spectrum(params, root.omega_d, "omega_2", grid, cfg)
    write_csv(_output_path(out, "fig2c.csv"), *_spectrum_rows(spec_on))
    gap = avoided_crossing_gap(spec_on, "gm g1 e2", "gm e1 g2")
    j12_eff_on = effective_model(params, root.omega_d).j12_eff
    _check(checks, "fig2c_gap_vs_model",
           abs(gap - 2 * j12_eff_on) < 0.05 * 2 * j12_eff_on,
           {"gap": gap, "2_j12_eff": 2 * j12_eff_on})
    sep = branch_separation_at(spec_off, "gm g1 e2", "gm e1 g2", params.omega_2)
    _check(checks, "fig2b_no_crossing", sep > 20 * gap,
           {"separation": sep, "threshold": 20 * gap})
    stage_done("fig2c")

    # --- single-parameter scans
    pts = 15 if quick else 25
    scan_grids = {
        "j_m1": np.geomspace(0.0015, 0.008, pts),
        "drive_amp": np.linspace(0.04, 0.12, pts),
        "omega_2": np.linspace(1.0008, 1.0024, pts),
        "j_12": np.geomspace(2e-5, 5e-4, pts),
        "omega_d_off": np.linspace(1.002, 1.006, pts),
    }
    for tag, (name, g) in zip("abcde", scan_grids.items()):
        spec = ScanSpec(name, tuple(float(v) for v in g), params)
        table = run_scan(spec, cfg, jobs=args.jobs)
        write_csv(_output_path(out, f"fig3{tag}.csv"), *_scan_rows(table))
        infid = table.infidelities
        finite = np.isfinite(infid)
        if name == "omega_d_off":
            vals = infid[finite]
            rel = float((vals.max() - vals.min()) / vals.min()) if vals.size else math.inf
            _check(checks, "fig3e_flat", rel < 0.01, {"relative_spread": rel})
        else:
            k = int(np.nanargmin(np.where(finite, infid, np.inf)))
            quoted = REFERENCE["scan_optima"][name]
            kq = int(np.argmin(np.abs(np.asarray(g) - quoted)))
            _check(
                checks, f"fig3_{name}_minimum",
                0 < k < len(g) - 1 and abs(k - kq) <= 1,
                {"minimum_at": float(g[k]), "quoted": quoted,
                 "grid_cells_away": abs(k - kq)},
            )
        stage_done(f"fig3{tag}")

    # --- gate-time trade-off
    j12_grid = np.geomspace(1.5e-5, 1.2e-4, 5)
    results = gate_time_sweep(
        j12_grid, params, budget=300 if quick else 500, jobs=args.jobs,
        cfg=search_cfg, final_cfg=final_cfg,
    )
    write_csv(_output_path(out, "fig4.csv"), *_sweep_rows(j12_grid, results))
    ts = np.array([r.t_gate for r in results])
    infs = np.array([r.best_infidelity for r in results])
    offs = np.array([r.off_ratio for r in results])
    order = np.argsort(ts)
    mono = bool(np.all(np.diff(infs[order]) < 0))
    coef = np.polyfit(ts, offs, 1)
    resid = offs - np.polyval(coef, ts)
    r2 = float(1 - resid @ resid / np.sum((offs - offs.mean()) ** 2))
    _check(checks, "fig4_infidelity_monotone", mono,
           {"t_gate": ts.tolist(), "infidelity_on": infs.tolist()})
    _check(checks, "fig4_off_ratio_linear", r2 > 0.95, {"r_squared": r2})
    stage_done("fig4")

    # --- quoted optimized operating point
    report = fidelity_report(OPTIMIZED, final_cfg)
    write_json(_output_path(out, "optimized_point.json"),
               {"params": dataclasses.asdict(OPTIMIZED), **report.to_dict()})
    ref_i = REFERENCE["optimized_infidelity_on"]
    ref_r = REFERENCE["optimized_off_ratio"]
    _check(checks, "optimized_infidelity", report.infidelity <= 3 * ref_i,
           {"infidelity_on": report.infidelity, "reference": ref_i,
            "tolerance": "factor of 3"})
    _check(checks, "optimized_off_ratio", abs(report.off_ratio - ref_r) <= 0.01 * ref_r,
           {"off_ratio": report.off_ratio, "reference": ref_r, "tolerance": "1%"})
    stage_done("optimized_point")

    n_pass = sum(1 for c in checks.values() if c["pass"])
    summary = {
        "checks": checks,
        "passed": n_pass,
        "failed": len(checks) - n_pass,
    }
    write_json(_output_path(out, "summary.json"), summary)
    stage_done("summary")
    for name, c in checks.items():
        print(f"{'PASS' if c['pass'] else 'FAIL'} {name}")
    print(f"reproduce: {n_pass}/{len(checks)} checks passed, outputs in {out}/")
    return 0 if n_pass == len(checks) else 1


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config with params/propagator sections")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="output directory")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for scan, gate-time-sweep and reproduce")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="Haar sample seed of fidelity --method haar-monte-carlo")
    common.add_argument("--steps-per-period", type=int, default=argparse.SUPPRESS,
                        help="override integrator steps per drive period")
    common.add_argument("--quick", action="store_true", default=argparse.SUPPRESS,
                        help="reduced resolution / budget smoke mode")

    ap = argparse.ArgumentParser(
        prog="freezegate",
        description="Drive-only interaction switching for a modulator-coupled "
        "qubit pair: effective models, Floquet spectra, channel fidelities, "
        "and parameter optimization.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("effective-model", help="closed-form dressed quantities")
    p.add_argument("--regime", choices=("on", "off"), default="off")
    p.set_defaults(func=cmd_effective_model)

    p = add("floquet", help="quasienergy spectrum over a sweep")
    p.add_argument("--regime", choices=("on", "off"), default="off")
    p.add_argument("--sweep", choices=SWEEPABLE, default="omega_2")
    p.add_argument("--grid-min", type=float, default=1.0012)
    p.add_argument("--grid-max", type=float, default=1.0022)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=cmd_floquet)

    p = add("trajectory", help="time-domain observables")
    p.add_argument("--regime", choices=("on", "off"), default="on")
    p.add_argument("--initial", default="gm,e1,g2",
                   help="comma labels per qubit: gm/em, g1/e1, g2/e2, or 0/1")
    p.add_argument("--t-final", type=float, default=None,
                   help="default: the on-regime gate time")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=cmd_trajectory)

    p = add("fidelity", help="on/off performance report")
    p.add_argument("--method", choices=FIDELITY_METHODS,
                   default="choi-formula")
    p.add_argument("--haar-samples", type=int, default=1000)
    p.set_defaults(func=cmd_fidelity)

    p = add("scan", help="one-parameter performance scan")
    p.add_argument("--varied", choices=SCANNABLE, required=True)
    p.add_argument("--grid-min", type=float, required=True)
    p.add_argument("--grid-max", type=float, required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--log", action="store_true", help="geometric grid spacing")
    p.set_defaults(func=cmd_scan)

    p = add("optimize", help="joint four-parameter optimization")
    p.add_argument("--budget", type=int, default=400)
    p.set_defaults(func=cmd_optimize)

    p = add("gate-time-sweep", help="optimized trade-off vs j_12")
    p.add_argument("--j12-min", type=float, default=1.5e-5)
    p.add_argument("--j12-max", type=float, default=1.2e-4)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--budget", type=int, default=500)
    p.set_defaults(func=cmd_gate_time_sweep)

    p = add("reproduce",
            help="regenerate all figure data and self-check")
    p.set_defaults(func=cmd_reproduce)
    return ap


#: Fallbacks for the shared flags (their parser defaults are suppressed so
#: that values given before the subcommand survive the sub-parse).
_FLAG_DEFAULTS = {
    "config": None,
    "output": None,
    "jobs": 1,
    "seed": 0,
    "steps_per_period": None,
    "quick": False,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for key, value in _FLAG_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoRootInBracket, StepTooCoarse, DegenerateDressedModes) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
