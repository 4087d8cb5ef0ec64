#!/usr/bin/env python3
"""Benchmark of freezegate: scan, floquet and gate workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

One run builds the workload's inputs from the seed, runs one warm-up pass
and checks its outputs against the benchmark's own references (outside
the timing), then repeats whole passes until `--seconds` have elapsed.

* ``--trace 0``: untraced passes only; prints the end-to-end metrics
  (set-up time, median wall and CPU time per pass, peak RSS).  Times are
  scaled to a nominal host speed by the calibration blocks of `calibrate`,
  timed around each measurement.
* ``--trace 1``: untraced and traced passes alternate; prints the
  per-layer metrics (times scaled like the end-to-end ones), the tracing
  overhead, and writes the unscaled spans to ``perfbench/out/``.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A failed output check, or a
checkout without the package sources, exits nonzero without it.
"""

from __future__ import annotations

import os

#: BLAS threads.  One thread per process: on a shared two-core host the
#: OpenBLAS default of one thread per core spins a second core for no
#: wall-time gain on 8x8 matrices, and makes the timings track the load of
#: other processes.  Set before numpy is imported, and inherited by the
#: set-up subprocesses.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibration, scaled

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fresh interpreters timed per run for setup_s (after one untimed import
#: that leaves the bytecode cache warm); the median is reported.
SETUP_REPEATS = 5
SETUP_CODE = "import freezegate.scan, freezegate.floquet, freezegate.channel"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics: (name, unit) with name "<module>.<function>.<stat>"
#: read from the traced passes, or a counter.
PER_LAYER = (
    ("dressed.solve_omega_d_on.calls", "count"),
    ("dressed.solve_omega_d_on.total_ms", "ms"),
    ("dressed.signed_detuning.calls", "count"),
    ("dressed.effective_model.calls", "count"),
    ("dressed.effective_model.self_ms", "ms"),
    ("propagate.interval_propagator.calls", "count"),
    ("propagate.interval_propagator.self_ms", "ms"),
    ("propagate.steps", "count"),
    ("propagate.us_per_step", "us"),
    ("propagate.single_period_propagator.calls", "count"),
    ("propagate.single_period_propagator.total_ms", "ms"),
    ("propagate.total_propagator.calls", "count"),
    ("propagate.total_propagator.self_ms", "ms"),
    ("propagate.export_trajectory.self_ms", "ms"),
    ("propagate.u_tau_err", "abs"),
    ("pauli.lab_static.calls", "count"),
    ("pauli.lab_static.self_ms", "ms"),
    ("floquet.floquet_spectrum.self_ms", "ms"),
    ("floquet.principal_quasienergies.self_ms", "ms"),
    ("floquet.dressed_product_basis.self_ms", "ms"),
    ("channel.extract_channel.calls", "count"),
    ("channel.extract_channel.self_ms", "ms"),
    ("channel.haar_average_fidelity.self_ms", "ms"),
    ("channel.modulator_return.total_ms", "ms"),
    ("channel.compensation_gates.self_ms", "ms"),
    ("scan.evaluate_point.calls", "count"),
    ("scan.evaluate_point.total_ms", "ms"),
    ("scan.run_scan.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "floquet", "gate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_seconds(calibration) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    before = calibration.block()[0]
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, stdin=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = calibration.block()[0]
        if i:
            times.append((scaled(elapsed, before, after), elapsed))
        before = after
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


def layer_metrics(pass_stats: list[dict], counters: list[dict], u_tau_err: float, overhead: float) -> dict:
    """Median over traced passes of each per-layer metric."""
    per_pass = []
    for stats, count in zip(pass_stats, counters):
        values = {}
        for name, _ in PER_LAYER:
            module, _, rest = name.partition(".")
            func, _, stat = rest.rpartition(".")
            if func:
                values[name] = stats.get(f"{module}.{func}", {}).get(stat, 0)
        values["propagate.steps"] = count.get("propagate.steps", 0)
        steps = values["propagate.steps"]
        values["propagate.us_per_step"] = (
            1e3 * stats.get("propagate.interval_propagator", {}).get("self_ms", 0.0) / steps
            if steps
            else 0.0
        )
        per_pass.append(values)
    units = dict(PER_LAYER)
    out = {}
    for name in per_pass[0]:
        value = statistics.median(v[name] for v in per_pass)
        out[name] = int(value) if units[name] == "count" else value
    out["propagate.u_tau_err"] = u_tau_err
    out["trace.overhead_pct"] = overhead
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freezegate" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    from checks import CHECKS
    from tracer import Tracer, instrument, layer_stats
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    calibration = Calibration()
    calibration.block()
    setup_s, setup_raw = setup_seconds(calibration) if not args.trace else (None, None)
    inputs = wl.inputs(args.seed)

    warm = wl.run(inputs)
    expected = wl.signature(warm)
    failures, u_tau_err = CHECKS[args.workload](warm, args.seed)
    if failures:
        for f in failures:
            print(f"CHECK FAILED: {f}", file=sys.stderr)
        return 1

    tracer = Tracer()
    before = calibration.block()
    raw = {False: [], True: []}  # traced -> [(wall, cpu)] per pass, seconds
    norm = {False: [], True: []}  # the same at nominal host speed
    pass_stats, pass_counters, all_spans = [], [], []
    attempted = failed = 0
    modes = (False, True) if args.trace else (False,)
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in modes:
            if traced:
                tracer.reset()
            with instrument(tracer) if traced else contextlib.nullcontext():
                w0, c0 = time.perf_counter(), time.process_time()
                out = wl.run(inputs)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            after = calibration.block()
            speed = scaled(1.0, before[0], after[0])
            raw[traced].append((wall, cpu))
            norm[traced].append((wall * speed, scaled(cpu, before[1], after[1])))
            before = after
            a, f = wl.ops(out)
            attempted += a
            failed += f
            if not np.allclose(wl.signature(out), expected, rtol=1e-9, atol=1e-12, equal_nan=True):
                print("CHECK FAILED: a timed pass differs from the checked pass", file=sys.stderr)
                return 1
            if traced:
                pass_stats.append(
                    {
                        name: {**st, "total_ms": st["total_ms"] * speed, "self_ms": st["self_ms"] * speed}
                        for name, st in layer_stats(tracer.spans).items()
                    }
                )
                pass_counters.append(dict(tracer.counters))
                all_spans.append(tracer.spans)
        if time.perf_counter() >= deadline:
            break

    def median(samples, i):
        return statistics.median(x[i] for x in samples)

    if args.trace:
        overhead = 100.0 * (median(norm[True], 0) / median(norm[False], 0) - 1.0)
        values = layer_metrics(pass_stats, pass_counters, u_tau_err, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": median(norm[False], 0),
            "cpu_s": median(norm[False], 1),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"spans-{stem}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": all_spans}, fh)
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(raw[False])} untraced passes"
          + (f", {len(raw[True])} traced passes" if args.trace else ""))
    print(f"  operations attempted {attempted}, failed {failed}")
    print(f"  unscaled medians: pass wall {median(raw[False], 0):.6g} s, CPU {median(raw[False], 1):.6g} s"
          + (f"; setup {setup_raw:.6g} s" if setup_raw is not None else ""))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
