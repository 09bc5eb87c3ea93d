"""Run one strokesim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bundled_serial --seed 1 --seconds 55 --trace 0

Run it from the root of a strokesim checkout: it imports the package from
``src/`` and keeps its scratch files under ``.bench_work/``, which it removes
on exit.  Standard output ends with two JSON lines: the full report
(environment, checks, output digests, every metric), then the result, with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``), with the names
and units listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy

import analysis
import workloads as wl

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYERS = ("config", "population", "risk", "engine", "montecarlo", "stats", "cli")


def environment(workers: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "start_method": multiprocessing.get_context().get_start_method(),
        "workers": workers,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    ledger = wl.Ledger()
    workers = wl.WORKLOADS[name] or os.cpu_count() or 1
    config = wl.write_inputs(work, seed)

    # A traced run alternates untraced and traced passes within the budget.
    levels = ("boundary", "layer") if trace else ("boundary",)
    tracers = wl.run_passes(ledger, config, seed, work, seconds, workers, levels)
    tracer, passes = tracers["boundary"]
    end_to_end: dict[str, float] = {}
    samples: list[dict[str, float]] = []
    if not ledger.failed:
        tree = analysis.SpanTree(tracer.spans)
        samples = [analysis.pass_end_to_end(tree, p) for p in passes]
        end_to_end = analysis.per_run(samples)
        end_to_end["peak_rss_mb"] = wl.peak_rss_mb()
    # pool size as the executor was created; 1 when runs stay in-process
    actual_workers = max(tracer.pool_sizes, default=1)

    per_layer: dict[str, float] = {}
    if trace and not ledger.failed:
        per_layer = traced_metrics(*tracers["layer"], end_to_end, ledger)

    digests = {}
    if not ledger.failed:
        digests = wl.digest_check(ledger, config, seed, work, workers,
                                  passes[0].tag.get("digests"))
    metrics = end_to_end if not trace else per_layer
    manifest = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    return {
        "benchmark": "strokesim",
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(actual_workers),
        "passes": {level: len(ps) for level, (_, ps) in tracers.items()},
        "replications_per_pass": wl.RUNS * len(analysis.SCENARIOS),
        "checks": ledger.checks,
        "errors": ledger.errors,
        "digests": digests,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
        "end_to_end": end_to_end,
        "end_to_end_per_pass": samples,
        "per_layer": per_layer,
        "result": {
            "correct": ledger.correct and set(metrics) == set(units),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items() if k in metrics},
        },
    }


def traced_metrics(tracer, passes, untraced: dict[str, float], ledger) -> dict[str, float]:
    tree = analysis.SpanTree(tracer.spans)
    first = passes[0].tag
    m = analysis.layer_metrics(tree, passes)
    m["population.agents"] = first["agents"]
    m["population.households"] = first["households"]
    m["population.csv_mb"] = first["csv_mb"]
    m.update(wl.model_counts(first["rows"]))
    traced = analysis.per_run([analysis.pass_end_to_end(tree, p) for p in passes])
    m["trace.overhead_total_s"] = traced["total_s"] - untraced["total_s"]
    m["trace.overhead_replications_per_s"] = (
        traced["replications_per_s"] - untraced["replications_per_s"])

    errors = tree.nesting_errors()
    ledger.check("spans_nest", not errors, errors=errors[:10])
    silent = [layer for layer in LAYERS
              if not any(v > 0 for k, v in m.items() if k.startswith(layer + "."))]
    ledger.check("every_layer_reports", not silent, silent=silent)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for this long (at least the minimum of passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "strokesim" / "__init__.py").is_file():
        print("error: run from the root of a strokesim checkout (no src/strokesim here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    result = report.pop("result")
    for name, entry in result["metrics"].items():
        print(f"{name:<48} {entry['value']:>14.6g} {entry['unit']}")
    for name, check in report["checks"].items():
        print(f"check {name:<42} {'ok' if check['ok'] else 'FAILED'}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
