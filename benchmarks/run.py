#!/usr/bin/env python3
"""climex benchmark: one workload per run, a closed loop with one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/`` of
the same checkout.  A run sets up (timed as ``setup_s`` in fresh
interpreters), runs one warm-up unit, then runs units back to back for
``--seconds`` and at least the workload's ``min_units``, and checks the
outputs.  The second-to-last stdout line is a report with every figure
the workload has; the last line is the result object named in
BENCHMARK.json.  ``--trace 1`` instead runs every unit twice, untraced
and with a span around every call into the package, checks that both
computed the same outputs, and reports per-layer figures and the
tracing overhead.  ``--workload all``
runs every workload in turn in a child process and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import COMPUTED, NullTracer, Tracer, per_layer_metrics

# one client in one process: the BLAS/OpenMP pools get one thread, set
# in main() before anything imports numpy; child processes inherit it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("sweep-accuracy", "listener", "injection-detect",
                  "cli-default")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# figures the report carries beyond BENCHMARK.json's end-to-end list
REPORT_UNITS = {
    "unit_p10_ms": "ms",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "failed_frac": "frac",
    "f_d_err_med_hz": "Hz",
    "phi_test_err_med_rad": "rad",
    "rho_err_med_m": "m",
    "key_match_frac": "frac",
    "key_refused_frac": "frac",
    "listener_contrast": "ratio",
    "plain_beat_err_med_hz": "Hz",
    "protected_beat_err_med_hz": "Hz",
    "detect_hit_frac": "frac",
    "clean_fp_frac": "frac",
    "oracle_flag_frac": "frac",
    "process_cycle_ms": "ms",
}


def make_workload(name: str, seed: int, work_dir: str):
    sys.path.insert(0, str(SRC))
    import climex
    if Path(climex.__file__).resolve().parent != SRC / "climex":
        raise RuntimeError(f"climex imported from {climex.__file__}, "
                           f"not from {SRC}")
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, work_dir)


def run_unit(wl, tr, i: int):
    """One unit and its wall time.  A unit that raises is recorded as
    None; the loop goes on."""
    t0 = time.perf_counter()
    try:
        with tr.unit(i, wl.unit_layer):
            outcome = wl.unit(i, tr)
    except Exception:
        sys.stderr.write(f"unit {i} raised:\n{traceback.format_exc()}")
        outcome = None
    return outcome, time.perf_counter() - t0


def run_units(wl, seconds: float, min_units: int):
    """Closed loop: each unit starts when the previous one has ended,
    until ``seconds`` have passed and at least ``min_units`` are done."""
    outcomes, durations = [], []
    start = time.perf_counter()
    while (len(outcomes) < min_units
           or time.perf_counter() - start < seconds):
        outcome, dt = run_unit(wl, NullTracer(), len(outcomes))
        outcomes.append(outcome)
        durations.append(dt)
    return outcomes, durations, time.perf_counter() - start


def bad_units(outcomes) -> set:
    return {i for i, o in enumerate(outcomes) if o is None or not o.ok}


def outputs_digest(outcomes) -> str:
    text = "\n".join("FAILED" if o is None else o.out for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe_setup(args) -> float:
    """Median set-up time over fresh interpreters: import, config build
    and the first warm-up unit, as a user of the package pays them."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        r = subprocess.run(cmd, capture_output=True, text=True, check=False,
                           timeout=PROBE_TIMEOUT_S)
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{r.stderr}")
        times.append(json.loads(r.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def timed_run(args, spec, wl, setup_s: float):
    outcomes, durations, elapsed = run_units(wl, args.seconds, wl.min_units)
    fin = wl.finish(outcomes, NullTracer())
    failed = bad_units(outcomes) | fin.failed
    refused = {i for i, o in enumerate(outcomes)
               if o is not None and o.data.get("refused")}
    n = len(outcomes)
    ms = sorted(d * 1000.0 for d in durations)
    values = {
        "setup_s": setup_s,
        "units_per_s": n / elapsed,
        "unit_p10_ms": ms[max(0, -(-n // 10) - 1)],      # nearest rank
        "unit_p50_ms": statistics.median(ms),
        # highest percentile with at least ten samples beyond it
        "unit_tail_ms": ms[n - 11] if n >= 20 else None,
        "failed_frac": len(failed | refused) / n,
        "peak_rss_mb": peak_rss_mb(),
        **fin.metrics,
    }
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units = dict(gated, **{k: u for k, u in REPORT_UNITS.items()
                           if k in values})
    first = outcomes[:wl.min_units]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "units": n, "failed_units": len(failed),
        "key_refused_units": len(refused),
        "metrics": with_units(values, units),
        "unit_tail_pct": 100.0 * (n - 10) / n if n >= 20 else None,
        "checks": fin.checks,
        "outputs_sha256": outputs_digest(first), "outputs_units": len(first),
        "env": environment(),
    }
    result = {"correct": not failed and all(fin.checks.values()),
              "attempted": n, "failed": len(failed),
              "metrics": with_units(values, gated)}
    return report, result


def traced_run(args, spec, wl):
    """Each unit runs twice back to back, untraced and traced, in
    alternating order, so both runs of a unit see the same machine
    state; the pair must compute identical outputs."""
    null, tr = NullTracer(), Tracer()
    untraced, traced, d_untraced, d_traced = [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        i = len(traced)
        order = (null, tr) if i % 2 == 0 else (tr, null)
        for tracer in order:
            outcome, dt = run_unit(wl, tracer, i)
            outs, ds = ((traced, d_traced) if tracer is tr
                        else (untraced, d_untraced))
            outs.append(outcome)
            ds.append(dt)
    n = len(traced)
    differ = {i for i in range(n) if untraced[i] is None or traced[i] is None
              or untraced[i].out != traced[i].out}
    fin = wl.finish(traced, tr)
    failed = bad_units(untraced) | bad_units(traced) | differ | fin.failed
    values = per_layer_metrics(tr, n)
    values["trace.overhead_frac"] = sum(d_traced) / sum(d_untraced) - 1.0
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    checks = dict(fin.checks, traced_outputs_equal_untraced=not differ)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "units": n, "failed_units": len(failed),
        "metrics": with_units(values, units), "computed": list(COMPUTED),
        "checks": checks,
        "outputs_sha256": outputs_digest(traced[:wl.min_units]),
        "outputs_units": min(n, wl.min_units),
        "env": environment(),
    }
    result = {"correct": not failed and all(checks.values()),
              "attempted": n, "failed": len(failed),
              "metrics": with_units(values, units)}
    return report, result


def run_workload(args) -> int:
    t0 = time.perf_counter()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.setup_probe:
            make_workload(args.workload, args.seed, work_dir).unit(
                0, NullTracer())
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
            return 0
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        setup_s = None if args.trace else probe_setup(args)
        wl = make_workload(args.workload, args.seed, work_dir)
        wl.unit(0, NullTracer())                      # warm-up
        if args.trace:
            report, result = traced_run(args, spec, wl)
        else:
            report, result = timed_run(args, spec, wl, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass                                      # another run's dir
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        r = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(r.stderr)
        lines = r.stdout.splitlines()
        if r.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {r.returncode}")
            ok = False
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} units={report['units']} "
              f"failed={result['failed']} "
              f"outputs_sha256={report['outputs_sha256'][:16]}")
        for metric, m in report["metrics"].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:28s} {value:>14s} {m['unit']}")
        if report.get("unit_tail_pct") is not None:
            print(f"  {'(unit_tail_ms percentile)':28s} "
                  f"{report['unit_tail_pct']:>14.4g} %")
        for check, passed in report["checks"].items():
            print(f"  check {check}: {'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "climex" / "__init__.py").is_file():
        print(f"no climex package under {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
