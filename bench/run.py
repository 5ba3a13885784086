"""Benchmark of the torque-stirap package: one workload per invocation.

    python3 bench/run.py --workload delay-scan --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  It drives the package in-process through ``cli.parse_config`` and
``cli.run``, repeats passes over the seeded requests until ``--seconds`` of
timed work is done, checks every op's output against an independent
reference outside the timed region, and prints one JSON object as the last
line of stdout:

``--trace 0``
    the end-to-end metrics of BENCHMARK.json, with every timing but
    ``setup_s`` given at reference speed (see calibration.py);
``--trace 1``
    the per-layer metrics, in raw seconds: an untraced run, then a traced
    run of the same length that wraps the package's boundaries (see
    tracing.py), then one cProfile pass for attribution.

A human-readable table goes to stderr; a report (environment, raw and
scaled timings, per-op results, verify check values) and, for traced runs,
the spans and the cProfile top-20 go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters whose set-up time gives the ``setup_s`` median.
SETUP_PROBES = 7

#: Requests profiled in the cProfile pass.
PROFILE_REQUESTS = 20

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "request_p50_ms": ("ms", "lower"),
    "request_p90_ms": ("ms", "lower"),
    "max_err": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_MODULES = ("cli", "analysis", "dynamics", "quantum", "systems", "pulses", "verify")


def load_package():
    """Import torque_stirap from this checkout's ``src/``, nowhere else."""
    if not (SRC / "torque_stirap" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {m: importlib.import_module(f"torque_stirap.{m}") for m in _MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "torque_stirap":
        raise SystemExit(f"error: torque_stirap imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def execute(pkg, request, out_path):
    """One request through the CLI entry points; returns its duration."""
    text = json.dumps(dict(request.config, out=str(out_path)))
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        config = pkg.cli.parse_config(text, {}, request.experiment)
        pkg.cli.run(config)
        return time.perf_counter() - t0


def set_up(name, seed, tiny):
    """Import, input generation and the first warm-up call, timed."""
    t0 = time.perf_counter()
    pkg = load_package()
    import workloads

    wl = workloads.WORKLOADS[name]()
    requests = wl.requests(seed, tiny)
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    wl.warm_up(pkg, requests, out_dir / "warmup.out", execute)
    return time.perf_counter() - t0, pkg, wl, requests, out_dir


def probe_setup(name, seed, tiny):
    """Set-up time of a fresh interpreter (so imports are cold)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(pkg, wl, requests, seconds, out_dir, tracer=None, scaled=False):
    """Passes over ``requests`` for about ``seconds`` of timed work: as many
    as the first pass says fit, at least one.  Each request is checked right
    after it, outside the timed region.

    With ``scaled``, a block of the workload's reference loop
    (calibration.py) is timed before the first request and after each one,
    and every request time is also scaled to reference speed by the two
    blocks around it."""
    out_path = out_dir / ("output.json" if requests[0].experiment == "verify" else "output.csv")
    passes, latencies, ops = [], [], []
    ref_passes, ref_latencies = [], []
    calibrate = scaled and (
        lambda: calibration.block(wl.calibration_mode, wl.calibration_calls))
    before = calibrate() if calibrate else None
    wanted = None
    while True:
        gc.collect()  # start every pass from the same heap state
        pass_time = pass_ref = 0.0
        for request in requests:
            wl.before_request(pkg)
            if tracer is not None:
                tracer.op += 1
            try:
                dt = execute(pkg, request, out_path)
            except Exception as exc:  # a failed request fails its ops; the run goes on
                ops.extend(wl.failed_ops(pkg, request, f"{type(exc).__name__}: {exc}"))
                continue
            latencies.append(dt)
            pass_time += dt
            if calibrate:
                after = calibrate()
                ref_dt = dt * (before[1] + after[1]) / (before[0] + after[0])
                ref_latencies.append(ref_dt)
                pass_ref += ref_dt
                before = after
            try:
                ops.extend(wl.check(pkg, request, out_path))
            except (OSError, ValueError, KeyError) as exc:
                ops.extend(wl.failed_ops(pkg, request, f"unreadable output: {exc}"))
        passes.append(pass_time)
        ref_passes.append(pass_ref)
        if wanted is None:
            wanted = max(1, round(seconds / pass_time)) if pass_time > 0 else 1
        if len(passes) >= wanted or not latencies:
            return SimpleNamespace(passes=passes, latencies=latencies, ops=ops,
                                   ref_passes=ref_passes, ref_latencies=ref_latencies)


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def end_to_end(wl, run, setup_samples, peak_rss_mb):
    """End-to-end metrics; timings other than set-up at reference speed."""
    lat = run.ref_latencies
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(run.ref_passes),
        "ops_per_s": len(run.ops) / len(run.passes) / statistics.median(run.ref_passes),
        "request_p50_ms": 1e3 * statistics.median(lat),
        "request_p90_ms": 1e3 * _quantile(lat, 0.9),
        "max_err": wl.max_err(run.ops),
        "peak_rss_mb": peak_rss_mb,
    }


def profile_pass(pkg, wl, requests, out_dir, path):
    """cProfile one pass, pool threads included; writes the top 20 by self time."""
    import cProfile
    import pstats
    import threading

    profiles = []

    def start_in_thread(frame, event, arg):
        prof = cProfile.Profile()
        profiles.append(prof)
        prof.enable()

    main = cProfile.Profile()
    threading.setprofile(start_in_thread)
    main.enable()
    try:
        measure(pkg, wl, requests[:PROFILE_REQUESTS], 0.0, out_dir)
    finally:
        main.disable()
        threading.setprofile(None)
    stream = io.StringIO()
    stats = pstats.Stats(main, stream=stream)
    for prof in profiles:
        stats.add(prof)
    stats.sort_stats("tottime").print_stats(20)
    path.write_text(stream.getvalue(), encoding="utf-8")


def environment(pkg):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "torque_stirap").glob("*.py")):
        digest.update(path.read_bytes())
    import numpy

    thread_cap = getattr(pkg.analysis, "thread_cap", None)
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pool_workers": thread_cap() if thread_cap is not None else None,
        "TORQUE_STIRAP_THREADS": os.environ.get("TORQUE_STIRAP_THREADS"),
    }


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line, report)."""
    setup_samples = [probe_setup(name, seed, tiny) for _ in range(SETUP_PROBES)]
    own_setup, pkg, wl, requests, out_dir = set_up(name, seed, tiny)
    plain = measure(pkg, wl, requests, seconds, out_dir, scaled=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(wl, plain, setup_samples, peak_rss_mb)
    ops = list(plain.ops)
    report = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(pkg),
        "setup_samples_s": setup_samples,
        "own_setup_s": own_setup,
        "passes_s": plain.passes,
        "passes_ref_s": plain.ref_passes,
        "requests": len(plain.latencies),
        "raw": {
            "wall_s": statistics.median(plain.passes),
            "request_p50_ms": 1e3 * statistics.median(plain.latencies),
            "request_p90_ms": 1e3 * _quantile(plain.latencies, 0.9),
        },
        "end_to_end": e2e,
    }
    metrics = e2e
    units = END_TO_END
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.instrument(tracer, pkg):
            traced = measure(pkg, wl, requests, seconds, out_dir, tracer)
        ops += traced.ops
        metrics = tracing.layer_metrics(tracer, len(traced.passes))
        metrics["trace.wall_s"] = statistics.median(traced.passes)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - report["raw"]["wall_s"]
        units = tracing.LAYER_METRICS
        spans_path = out_dir / f"spans-seed{seed}.json"
        spans_path.write_text(json.dumps(tracing.span_records(tracer)), encoding="utf-8")
        profile_path = out_dir / f"profile-seed{seed}.txt"
        profile_pass(pkg, wl, requests, out_dir, profile_path)
        report.update(per_layer=metrics, traced_passes_s=traced.passes,
                      spans=str(spans_path), profile=str(profile_path))
    failed = sum(not op.ok for op in ops)
    report["failed_frac"] = failed / len(ops) if ops else 1.0
    report["failures"] = [op.note for op in ops if not op.ok][:20]
    report["verify_values"] = {op.name: op.value for op in plain.ops if op.name}
    result = {
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    report["result"] = result
    (out_dir / f"report-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8")
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("delay-scan", "trajectory", "area-scan-adaptive", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_s = set_up(args.workload, args.seed, args.tiny)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result, report = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    for key, m in result["metrics"].items():
        print(f"{args.workload:>20}  {key:<32} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for key, value in report["raw"].items():
        print(f"{args.workload:>20}  raw {key:<28} {value:>14.6g}", file=sys.stderr)
    print(f"{args.workload:>20}  {'failed_frac':<32} {report['failed_frac']:>14.6g} "
          f"({result['failed']}/{result['attempted']} ops)", file=sys.stderr)
    for check, value in report["verify_values"].items():
        print(f"{args.workload:>20}  verify value {check:<26} {value:>14.6g}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
