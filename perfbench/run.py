"""Run one driverid benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Set-up (imports, the seeded log and,
for score-online, the trained models) runs three times in child processes
and must give byte-identical files.  The workload's pass then repeats for
about ``--seconds`` seconds in this process.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones, plus the tracing
overhead.  Metric lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check failed or the
checkout has no ``src/driverid`` to measure.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: fixed summation order and no contention with other
# processes on the machine.  Must be set before numpy is imported.
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

if not (ROOT / "src" / "driverid" / "__init__.py").is_file():
    sys.exit(f"no driverid package under {ROOT / 'src'}: run from the root of a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

import tracing
import workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int,
                        help="log rows instead of the workload's own count (the smoke test "
                             "uses a small one)")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, int(-(-len(ordered) * q // 100)) - 1)] if ordered else 0.0


def blas_threads() -> int | None:
    """Threads the numpy BLAS will use, read from the library when it says."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(args, rows: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "rows": rows,
        "seconds": args.seconds,
    }


def set_up(args, workload, rows: int, work: Path) -> tuple[list[float], list[str]]:
    """Run set-up SETUP_REPEATS times; return wall times and check failures."""
    times, digests, failures = [], [], []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        target.mkdir(parents=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", "0", "--rows", str(rows),
                   "--setup-into", str(target)]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up of {args.workload} failed (exit {done.returncode})")
        digests.append({f.name: workloads.sha256_file(str(f)) for f in sorted(target.iterdir())})
    for i, other in enumerate(digests[1:], start=1):
        if other != digests[0]:
            failures.append(f"set-up {i} wrote different files than set-up 0 for the same seed")
    return times, failures


def measure(workload, seconds: float, trace: bool):
    """Repeat passes for about ``seconds``.

    With ``trace``, passes alternate untraced/traced.  Returns the untraced
    passes, the traced passes, the tracer and each traced pass's span range,
    and the peak RSS in MB through the first pass.  Later passes can raise
    the process peak by how the allocator reuses freed memory, which
    depends on the data rather than on the code; a fresh process running
    one pass is what a user sees.
    """
    tracer = tracing.Tracer() if trace else None
    plain, traced, ranges = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            first = len(tracer.spans)
            tracer.request += 1
            with tracer.installed():
                p = workload.run(tracer)
            traced.append(p)
            ranges.append((first, len(tracer.spans)))
        else:
            p = workload.run()
            plain.append(p)
            if len(plain) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        enough = not trace or len(traced) >= 1
        # Stop when a pass as long as the last one would overrun ``seconds``.
        if enough and time.perf_counter() - start + p.seconds > seconds:
            break
    return plain, traced, tracer, ranges, peak_rss_mb


END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "windows_per_s")
KINDS = ("zeror", "naive_bayes", "logreg", "knn", "svm", "reptree", "adaboost")
LAYERS = ("ingest", "features", "evaluate", "models", "pipeline")

# Per-layer metrics: name -> (unit, better).  Sums over one pass unless noted.
PER_LAYER = {
    "ingest.load_dataset_s": ("s", "lower"),
    "ingest.rows": ("count", "higher"),
    "ingest.filter_labels_s": ("s", "lower"),
    "features.select_features_s": ("s", "lower"),
    "features.extract_windows_s": ("s", "lower"),
    "features.windows": ("count", "higher"),
    "features.dropped_windows": ("count", "lower"),
    "features.normalizer_s": ("s", "lower"),
    "features.matrix_to_csv_s": ("s", "lower"),
    "evaluate.fold_assignments_s": ("s", "lower"),
    "evaluate.confusion_s": ("s", "lower"),
    **{f"evaluate.cross_validate_s.{k}": ("s", "lower") for k in KINDS},
    **{
        f"models.{k}.{m}": (unit, "lower")
        for k in KINDS
        for m, unit in (("fit_s", "s"), ("fit_max_s", "s"), ("predict_s", "s"),
                        ("predict_call_p50_ms", "ms"), ("predict_call_p99_ms", "ms"))
    },
    "models.load_model_s": ("s", "lower"),
    "models.knn.distance_evals": ("count", "lower"),
    "models.logreg.epochs": ("count", "lower"),
    "models.reptree.nodes": ("count", "lower"),
    "pipeline.prepare_matrix_s": ("s", "lower"),
    "pipeline.write_report_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Span name -> per-layer metric that sums its durations.
SPAN_SUMS = {
    "ingest.load_dataset": "ingest.load_dataset_s",
    "ingest.filter_labels": "ingest.filter_labels_s",
    "features.select_features": "features.select_features_s",
    "features.extract_windows": "features.extract_windows_s",
    "features.fit_normalizer": "features.normalizer_s",
    "features.apply_normalizer": "features.normalizer_s",
    "features.matrix_to_csv": "features.matrix_to_csv_s",
    "evaluate.fold_assignments": "evaluate.fold_assignments_s",
    "evaluate.confusion_from_predictions": "evaluate.confusion_s",
    "models.load_model": "models.load_model_s",
    "pipeline.prepare_matrix": "pipeline.prepare_matrix_s",
    "pipeline.write_report": "pipeline.write_report_s",
    **{f"models.{k}.fit": f"models.{k}.fit_s" for k in KINDS},
    **{f"models.{k}.predict": f"models.{k}.predict_s" for k in KINDS},
}
# Span counter -> per-layer metric: summed, or averaged over the spans.
COUNT_SUMS = {"rows": "ingest.rows", "windows": "features.windows",
              "dropped_windows": "features.dropped_windows",
              "distance_evals": "models.knn.distance_evals"}
COUNT_MEANS = {"epochs": "models.logreg.epochs", "nodes": "models.reptree.nodes"}


def pass_layers(spans: list[list], self_times: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (call percentiles excluded)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    means: dict[str, list] = {}
    for span, own in zip(spans, self_times):
        name, duration, counts = span[0], span[2] - span[1], span[5] or {}
        out[f"{name.split('.')[0]}.self_s"] += own
        if name in SPAN_SUMS:
            out[SPAN_SUMS[name]] += duration
        if name.endswith(".fit"):
            key = name[:-len("fit")] + "fit_max_s"
            out[key] = max(out[key], duration)
        if name == "evaluate.cross_validate":
            out[f"evaluate.cross_validate_s.{counts['kind']}"] += duration
        for key, value in counts.items():
            if key in COUNT_SUMS:
                out[COUNT_SUMS[key]] += value
            elif key in COUNT_MEANS:
                means.setdefault(COUNT_MEANS[key], []).append(value)
    for key, values in means.items():
        out[key] = sum(values) / len(values)
    out["trace.spans"] = len(spans)
    return out


def layer_metrics(plain, traced, tracer, ranges) -> dict[str, float]:
    own = tracing.self_times(tracer.spans)
    per_pass = [pass_layers(tracer.spans[lo:hi], own[lo:hi]) for lo, hi in ranges]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in PER_LAYER}
    calls: dict[str, list[float]] = {}
    for span in tracer.spans:
        if span[0].endswith(".predict"):
            calls.setdefault(span[0], []).append(1e3 * (span[2] - span[1]))
    for name, values in calls.items():
        metrics[f"{name}_call_p50_ms"] = percentile(values, 50)
        metrics[f"{name}_call_p99_ms"] = percentile(values, 99)
    metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                   - statistics.median(p.seconds for p in plain))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    rows = args.rows or workload.rows

    if args.setup_into:
        os.chdir(args.setup_into)
        workload.setup(args.seed, rows)
        return 0

    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, setup_failures = set_up(args, workload, rows, work)
        os.chdir(work / "setup0")
        workload.load()
        plain, traced, tracer, ranges, peak_rss_mb = measure(
            workload, args.seconds, bool(args.trace))
        passes = plain + traced
        workload.check(passes)
        # Traced and untraced passes run the same code on the same input.
        if traced and traced[0].digest != plain[0].digest:
            traced[0].fail("traced pass output differs from the untraced pass output")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = setup_failures + [f for p in passes for f in p.failures]
    if setup_failures:
        failed = max(failed, 1)
    run_s = statistics.median(p.seconds for p in plain)
    latencies = [ms for p in plain for ms in p.latencies_ms]
    summary = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # A rate over the whole run: the host's fast and slow spells, a few
        # seconds each, average out in the total but can flip a median of
        # sub-second passes.
        "windows_per_s": (sum(p.windows for p in plain) / sum(p.seconds for p in plain), "1/s"),
        "accuracy_mean_pct": (plain[0].accuracy, "%"),
        "score_p50_ms": (percentile(latencies, 50) if latencies else None, "ms"),
        "score_p99_ms": (percentile(latencies, 99) if latencies else None, "ms"),
        "error_rate": (failed / attempted, "ratio"),
    }
    if args.trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name][0]}
            for name, value in layer_metrics(plain, traced, tracer, ranges).items()
        }
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary.items()
                   if name in END_TO_END}

    env = environment(args, rows)
    record = {
        "env": env,
        "passes": {"untraced": len(plain), "traced": len(traced), "windows": plain[0].windows,
                   "score_samples": len(latencies)},
        "pass_seconds": {"untraced": [p.seconds for p in plain],
                         "traced": [p.seconds for p in traced]},
        "setup_seconds": setup_times,
        "digest": plain[0].digest,
        "summary": {name: {"value": v, "unit": u} for name, (v, u) in summary.items()},
        "failures": failures,
        "metrics": metrics,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(str(results / f"{stem}.spans.json"))

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"passes {record['passes']}  output sha256 {record['digest']}")
    for name, (value, unit) in summary.items():
        if value is not None:
            print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
