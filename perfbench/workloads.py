"""Workloads: generated inputs, timed passes through the CLI, output checks.

Every pass runs the user's whole journey through ``strokesim.cli.main``:
``generate`` (population CSV), a read-back of that CSV, ``calibrate`` and
``run``.  Workloads differ only in worker count.  Each timed operation is
one span; checks run between operations, outside them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.resources
import io
import json
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import analysis
from tracing import Span, Tracer

SCENARIOS = analysis.SCENARIOS


RUNS = 2        # replications per scenario in each pass
MIN_PASSES = 3  # passes per trace level in a run, however long they take

# workers per workload; None: one per core, as `strokesim run` defaults
WORKLOADS = {"bundled_serial": 1, "bundled_pool": None}


@dataclass
class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, dict] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def op(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def check(self, name: str, ok: bool, **detail) -> None:
        prior = self.checks.get(name)
        if prior is None or prior["ok"]:
            self.checks[name] = {"ok": bool(ok), **detail}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks.values())


def _bundled(name: str) -> dict:
    return json.loads(importlib.resources.files("strokesim").joinpath("data", name).read_text())


def write_inputs(work: Path, seed: int) -> Path:
    """Experiment config for this seed; returns its path."""
    experiment = _bundled("experiment_ie.json")
    experiment["experiment"]["base_seed"] = seed
    path = work / "experiment.json"
    path.write_text(json.dumps(experiment, indent=2))
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(tracer: Tracer, ledger: Ledger, argv: list[str]) -> bool:
    """One `strokesim` command as a span; stdout and stderr are kept out of
    the benchmark's own output."""
    from strokesim import cli

    sink = io.StringIO()
    try:
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:
        ledger.errors.append(f"strokesim {argv[0]}: {traceback.format_exc()}")
        return False
    if code != 0:
        ledger.errors.append(f"strokesim {argv[0]} exited {code}: {sink.getvalue()}")
    return code == 0


def _fingerprint(pop) -> dict:
    from strokesim.risk import feature_matrix

    return {
        "ids": np.array([a.id for a in pop.agents]),
        "households": np.array([a.household_id for a in pop.agents]),
        "features": feature_matrix(pop.agents),
        "risk": np.array([a.five_year_risk for a in pop.agents]),
    }


def _read_runs(path: Path) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            rows.setdefault(row["scenario"], []).append(row)
    return rows


def _check_baseline(ledger: Ledger, cfg, pop, baseline: list[float]) -> None:
    """Simulated baseline mean against the closed-form expectation.

    The standard error is the one the closed form implies: with frozen
    risks the stroke count is a sum of independent Bernoullis, so its
    variance is sum q(1-q).  That keeps the nominal 3-SE false-alarm rate
    at any run count; the sample SE is recorded beside it.
    """
    from strokesim.risk import expected_stroke_count

    expected = expected_stroke_count(cfg.ensemble, pop, cfg.horizon_days)
    daily = np.array([a.daily_risk for a in pop.agents])
    q = 1.0 - (1.0 - daily) ** cfg.horizon_days
    se = math.sqrt(float((q * (1.0 - q)).sum()) / len(baseline))
    mean = statistics.fmean(baseline)
    ledger.check("baseline_within_3se", abs(mean - expected) <= 3.0 * se,
                 simulated_mean=mean, closed_form=expected, se=se,
                 sample_se=statistics.stdev(baseline) / math.sqrt(len(baseline)),
                 runs=len(baseline))


def run_pass(tracer: Tracer, ledger: Ledger, config: Path, seed: int, out: Path,
             workers: int) -> Span:
    """One generate / read-back / calibrate / run pass, as a ``bench.pass``
    span whose tag carries what the checks and metrics need."""
    from strokesim.config import load_experiment_file, load_risk_model
    from strokesim.population import read_population_csv
    from strokesim.risk import expected_stroke_count

    out.mkdir(parents=True, exist_ok=True)
    common = ["--config", str(config), "--seed", str(seed)]
    csv_path = out / "population.csv"
    model_path = out / "risk_model.json"
    run_dir = out / "run"
    cfg = load_experiment_file(config)
    info: dict = {"replications": 0}

    with tracer.span("bench.pass", tag=info) as p:
        ok = _cli(tracer, ledger, ["generate", *common, "--out", str(csv_path)])
        ledger.op(ok)
        written = tracer.captured.pop("population.csv_write", None)
        tracer.captured.clear()
        if ok and written:
            pop = written[0][0]
            info["agents"], info["households"] = len(pop.agents), len(pop.households)
            info["csv_mb"] = csv_path.stat().st_size / 1e6
            generated = _fingerprint(pop)
            del pop, written

            try:
                with tracer.span("population.csv_read"):
                    pop = read_population_csv(csv_path)
                ledger.op(True)
                back = _fingerprint(pop)
                ledger.check("csv_read_back_exact",
                             all(np.array_equal(generated[k], back[k]) for k in generated),
                             agents=len(pop.agents))
                del pop, back
            except Exception:
                ledger.op(False)
                ledger.errors.append(f"read-back: {traceback.format_exc()}")
            del generated

        ok = _cli(tracer, ledger, ["calibrate", *common, "--out", str(model_path)])
        ledger.op(ok)
        calibrated = tracer.captured.pop("risk.calibrate", None)
        tracer.captured.clear()
        if ok and calibrated:
            (ens, pop, target), kwargs, model = calibrated
            years = kwargs["horizon_days"] / kwargs["days_per_year"]
            achieved = expected_stroke_count(model, pop, kwargs["horizon_days"]) / (
                len(pop.agents) * years)
            saved = load_risk_model(model_path).calibration_offset
            ledger.check("calibration_within_tol",
                         abs(achieved - target) <= kwargs["tol"]
                         and saved == model.calibration_offset,
                         achieved=achieved, target=target, tol=kwargs["tol"])
            del ens, pop, model, calibrated

        n_reps = RUNS * len(SCENARIOS)
        ok = _cli(tracer, ledger, ["run", *common, "--runs", str(RUNS), "--workers",
                                   str(workers), "--scenario", "all", "--out", str(run_dir)])
        built = tracer.captured.pop("population.build", None)
        tracer.captured.clear()
        rows = _read_runs(run_dir / "runs.csv") if ok else {}
        done = sum(len(v) for v in rows.values())
        ok = ok and done == n_reps
        ledger.op(ok, n_reps)
        if ok:
            info["replications"] = done
            info["rows"] = rows
            info["digests"] = {name: _sha256(run_dir / name)
                               for name in ("runs.csv", "summary.json")}
            if built:
                _check_baseline(ledger, cfg, built[2],
                                [float(r["strokes"]) for r in rows["baseline"]])
        del built
    return p


def digest_check(ledger: Ledger, config: Path, seed: int, work: Path, workers: int,
                 own: Optional[dict]) -> dict:
    """The passes' `strokesim run` again with the other worker count (one
    per core against one): the outputs must match byte for byte."""
    other = 1 if workers > 1 else (os.cpu_count() or 1)
    out = work / "digest_other"
    ok = _cli(Tracer(), ledger,  # not installed: records only the command span
              ["run", "--config", str(config), "--seed", str(seed), "--runs", str(RUNS),
               "--workers", str(other), "--scenario", "all", "--out", str(out)])
    ledger.op(ok, RUNS * len(SCENARIOS))
    theirs = {name: _sha256(out / name) if ok else None for name in ("runs.csv", "summary.json")}
    ledger.check("serial_pool_identical", own is not None and own == theirs, runs=RUNS)
    return {"serial": own, "pool": theirs} if workers <= 1 else {"serial": theirs, "pool": own}


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child (a
    pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_passes(ledger: Ledger, config: Path, seed: int, work: Path, seconds: float,
               workers: int, levels: tuple[str, ...]) -> dict[str, tuple[Tracer, list[Span]]]:
    """Rounds of one pass per trace level, within `seconds`.

    Each level has its own tracer, installed for its passes only.  Levels
    alternate inside a round, and their order flips from round to round, so
    every level sees the same stretches of the host's speed.  A run makes at
    least `MIN_PASSES` rounds, then more while the next one, as long as the
    median round so far, still ends within `seconds`.
    """
    tracers = {level: (Tracer(), []) for level in levels}
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(rounds) <= seconds):
        order = levels if len(rounds) % 2 == 0 else levels[::-1]
        began = time.perf_counter()
        for level in order:
            tracer, passes = tracers[level]
            tracer.install(level)
            try:
                passes.append(run_pass(tracer, ledger, config, seed,
                                       work / f"{level}{len(passes)}", workers))
            finally:
                tracer.uninstall()
            if ledger.failed:
                return tracers
        rounds.append(time.perf_counter() - began)
    digests = {json.dumps(p.tag.get("digests"), sort_keys=True)
               for _, passes in tracers.values() for p in passes}
    ledger.check("passes_identical", len(digests) == 1, rounds=len(rounds))
    return tracers


def model_counts(rows: dict[str, list[dict]]) -> dict[str, float]:
    """Per-replication model counts and paired stroke differences; exact
    for a given seed."""
    flat = [r for v in rows.values() for r in v]
    m = {}
    for metric, column in (("strokes", "strokes"), ("conversations", "conversations"),
                           ("reductions", "risk_reductions"),
                           ("family_reductions", "family_reductions")):
        m[f"engine.{metric}_per_rep"] = statistics.fmean(float(r[column]) for r in flat)
    base = [float(r["strokes"]) for r in rows["baseline"]]
    for scenario in SCENARIOS[1:]:
        diff = [float(r["strokes"]) - b for r, b in zip(rows[scenario], base)]
        m[f"stats.strokes_diff_sd.{scenario}"] = statistics.stdev(diff)
    return m
