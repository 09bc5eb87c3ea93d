"""Monte Carlo experiments: many replications per scenario, then t-tests.

An experiment runs a list of `Scenario` kinds on one `SimulationConfig`.
Seeds are derived per (scenario, run) index from one base seed, so every
replication is reproducible in isolation and the result does not depend
on how runs are ordered or spread across worker processes.  Each
experiment prepares its model once, before any replication runs
(`engine.prepare`: the per-year risk tables every scenario reads, the
outcome table and each agent's residual life expectancy).  Replications
run in a process pool (the prepared model is shipped to each worker
once) and are collected in task order; the first to fail cancels those
not yet started, and the first failure in task order is raised.

With common random numbers every scenario's run i uses the same seed, so
runs pair up by index and comparisons use the paired t-test; otherwise
the samples are independent and get the two-sample test (pooled, or
Welch's with `welch`).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Optional

from .engine import (
    DelayModel,
    LifeTable,
    OddsRatioTable,
    PopulationArrays,
    PreparedModel,
    RunResult,
    Scenario,
    SeverityDistribution,
    SimulationConfig,
    prepare,
    run_replication,
)
from .errors import ConfigurationError
from .files import atomic_open
from .risk import EnsembleRiskModel
from .seeds import derive_seed
from .stats import mean, paired_t_test, sample_variance, t_test

# Seed derivation uses a fixed per-scenario index, not the position in the
# configured list, so running a subset of scenarios reuses the same seeds.
SCENARIO_SEED_INDEX = {
    Scenario.BASELINE: 0,
    Scenario.CONVERSATIONS: 1,
    Scenario.CONVERSATIONS_PLUS_FAMILY: 2,
}

METRICS = ("strokes", "dalys")


@dataclass
class ExperimentConfig:
    scenarios: list[Scenario]
    simulation: SimulationConfig = SimulationConfig()  # what every scenario runs on
    base_seed: int = 42
    n_runs: int = 1000
    significance_level: float = 0.05
    workers: Optional[int] = None  # None = one per available core
    common_random_numbers: bool = False  # one seed per run index; paired tests
    welch: bool = False  # Welch's two-sample test; unused when runs are paired

    def validate(self) -> None:
        if self.n_runs < 2:
            raise ConfigurationError(f"n_runs = {self.n_runs}, need at least 2")
        if not self.scenarios:
            raise ConfigurationError("experiment: no scenarios configured")
        if Scenario.BASELINE not in self.scenarios:
            raise ConfigurationError("experiment: scenario list must include baseline")
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ConfigurationError("experiment: duplicate scenario")
        if not (0.0 < self.significance_level < 1.0):
            raise ConfigurationError("significance_level must be in (0, 1)")
        self.simulation.validate()


@dataclass
class RunMetrics:
    """The per-replication numbers that survive into runs.csv."""

    scenario: str
    run: int
    seed: int
    strokes: int
    dalys: float
    no_disability: int
    mild: int
    moderate_severe: int
    death: int
    conversations: int
    risk_reductions: int
    family_reductions: int

    @staticmethod
    def from_result(scenario: str, run: int, seed: int, res: RunResult) -> "RunMetrics":
        return RunMetrics(
            scenario=scenario, run=run, seed=seed,
            strokes=res.total_strokes, dalys=res.total_dalys, **res.strokes_by_severity,
            conversations=res.conversations, risk_reductions=res.risk_reductions,
            family_reductions=res.family_reductions,
        )


@dataclass
class ScenarioResult:
    scenario: str
    n_runs: int
    strokes_mean: float
    strokes_sd: float
    dalys_mean: float
    dalys_sd: float
    deaths_mean: float


@dataclass
class Comparison:
    """One metric of one scenario against a reference scenario."""

    reference: str
    scenario: str
    metric: str
    percent_difference: float
    percent_defined: bool
    t: float
    df: float
    p: float
    significant: bool
    degenerate: bool


@dataclass
class ExperimentSummary:
    n_runs: int
    base_seed: int
    significance_level: float
    common_random_numbers: bool
    welch: bool
    scenarios: list[ScenarioResult]
    comparisons: list[Comparison]


@dataclass
class ExperimentResult:
    summary: ExperimentSummary
    runs: dict[str, list[RunMetrics]] = field(default_factory=dict)


def percent_difference(scenario_mean: float, baseline_mean: float) -> float:
    """100 x (scenario - baseline) / baseline; 0 when the baseline is 0.

    A zero baseline makes the quantity undefined; callers that care carry
    a separate defined flag (see Comparison.percent_defined).
    """
    if baseline_mean == 0.0:
        return 0.0
    return 100.0 * (scenario_mean - baseline_mean) / baseline_mean


def worker_count(requested: Optional[int], n_tasks: int) -> int:
    """Processes to run `n_tasks` replications on: the request (one per
    usable core when None), capped at the usable cores and at the task
    count, and never below 1 (so 0 or a negative request runs serially).
    The usable cores are the CPU affinity mask (`taskset` narrows it)
    where the OS has one, else the core count."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    wanted = cores if requested is None else requested
    return max(1, min(wanted, cores, n_tasks))


# The prepared model, installed once per worker by the pool initializer.
_STATE: Optional[PreparedModel] = None


def _init_worker(model: PreparedModel) -> None:
    global _STATE
    _STATE = model


def _run_task(task: tuple[str, int, int], state: Optional[PreparedModel] = None) -> RunMetrics:
    scenario_value, run_idx, seed = task
    model = state if state is not None else _STATE
    assert model is not None
    try:
        res = run_replication(model, seed, Scenario(scenario_value))
    except Exception as exc:
        raise RuntimeError(
            f"replication failed: scenario={scenario_value} run={run_idx} seed={seed}"
        ) from exc
    return RunMetrics.from_result(scenario_value, run_idx, seed, res)


def run_experiment(
    cfg: ExperimentConfig,
    arrays: PopulationArrays,
    ens: EnsembleRiskModel,
    delay: DelayModel,
    sev: SeverityDistribution,
    ors: OddsRatioTable,
    life: LifeTable,
) -> ExperimentResult:
    """Run every configured scenario n_runs times and summarize.

    `engine.prepare` validates the models and builds every table here,
    once, before the pool starts, so every worker reads the same tables.
    Results come back in task order (scenario by scenario, run by run),
    so the summary is identical however many workers execute the runs.
    The first replication to fail cancels those not yet started, and the
    experiment raises the first failure in task order, naming the
    scenario, run and seed that failed.
    """
    cfg.validate()
    model = prepare(arrays, ens, delay, sev, ors, life, cfg.simulation)

    tasks: list[tuple[str, int, int]] = []
    for kind in cfg.scenarios:
        s_idx = SCENARIO_SEED_INDEX[kind]
        for run in range(cfg.n_runs):
            if cfg.common_random_numbers:
                seed = derive_seed(cfg.base_seed, run)
            else:
                seed = derive_seed(cfg.base_seed, s_idx, run)
            tasks.append((kind.value, run, seed))

    workers = worker_count(cfg.workers, len(tasks))
    if workers == 1:
        metrics = [_run_task(task, model) for task in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(model,)
        ) as pool:
            futures = [pool.submit(_run_task, task) for task in tasks]
            # tasks start in order: all before the first failure have started
            wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                future.cancel()
            metrics = [future.result() for future in futures]

    runs: dict[str, list[RunMetrics]] = {kind.value: [] for kind in cfg.scenarios}
    for m in metrics:
        runs[m.scenario].append(m)
    return ExperimentResult(summary=_summarize(cfg, runs), runs=runs)


def _summarize(cfg: ExperimentConfig, runs: dict[str, list[RunMetrics]]) -> ExperimentSummary:
    scenario_results = []
    samples: dict[tuple[str, str], list[float]] = {}
    for kind in cfg.scenarios:
        name = kind.value
        strokes = [float(m.strokes) for m in runs[name]]
        dalys = [m.dalys for m in runs[name]]
        deaths = [float(m.death) for m in runs[name]]
        samples[(name, "strokes")] = strokes
        samples[(name, "dalys")] = dalys
        scenario_results.append(ScenarioResult(
            scenario=name, n_runs=len(strokes),
            strokes_mean=mean(strokes), strokes_sd=math.sqrt(sample_variance(strokes)),
            dalys_mean=mean(dalys), dalys_sd=math.sqrt(sample_variance(dalys)),
            deaths_mean=mean(deaths),
        ))

    baseline = Scenario.BASELINE.value
    others = [kind.value for kind in cfg.scenarios if kind is not Scenario.BASELINE]
    pairs = [(baseline, n) for n in others] + list(itertools.combinations(others, 2))

    comparisons = []
    for ref, scen in pairs:
        for metric in METRICS:
            ref_sample = samples[(ref, metric)]
            scen_sample = samples[(scen, metric)]
            ref_mean = mean(ref_sample)
            if cfg.common_random_numbers:
                res = paired_t_test(scen_sample, ref_sample)
            else:
                res = t_test(scen_sample, ref_sample, welch=cfg.welch)
            comparisons.append(Comparison(
                reference=ref, scenario=scen, metric=metric,
                percent_difference=percent_difference(res.mean_a, ref_mean),
                percent_defined=ref_mean != 0.0,
                t=res.t, df=res.df, p=res.p,
                significant=res.p < cfg.significance_level,
                degenerate=res.degenerate,
            ))

    return ExperimentSummary(
        n_runs=cfg.n_runs, base_seed=cfg.base_seed,
        significance_level=cfg.significance_level,
        common_random_numbers=cfg.common_random_numbers,
        welch=cfg.welch,
        scenarios=scenario_results, comparisons=comparisons,
    )


# --- output files ---


def write_runs_csv(result: ExperimentResult, path) -> None:
    """One row per replication: `RunMetrics`' fields, floats by repr.
    (`attrgetter`, not `astuple`, which deep-copies every value.)"""
    names = [f.name for f in fields(RunMetrics)]
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for metrics in result.runs.values():
            writer.writerows(map(attrgetter(*names), metrics))


def write_summary_json(summary: ExperimentSummary, path) -> None:
    with atomic_open(path) as handle:
        json.dump(asdict(summary), handle, indent=2)
        handle.write("\n")


def summary_rows(
    summary: ExperimentSummary,
) -> list[tuple[str, str, float, float, Optional[Comparison]]]:
    """Each scenario's (scenario, metric, mean, sd, comparison against
    baseline) per metric, the comparison None for baseline itself: the
    rows of summary.csv and of the printed table."""
    tests = {(c.scenario, c.metric): c for c in summary.comparisons
             if c.reference == Scenario.BASELINE.value}
    return [
        (s.scenario, metric, getattr(s, f"{metric}_mean"), getattr(s, f"{metric}_sd"),
         tests.get((s.scenario, metric)))
        for s in summary.scenarios for metric in METRICS
    ]


def write_summary_csv(summary: ExperimentSummary, path) -> None:
    """One row per scenario x metric, with the vs-baseline test inline."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "scenario", "metric", "mean", "sd",
            "percent_diff_vs_baseline", "t", "df", "p", "significant",
        ])
        for scenario, metric, mean_, sd, c in summary_rows(summary):
            test = [""] * 5 if c is None else [
                c.percent_difference, c.t, c.df, c.p, int(c.significant)]
            writer.writerow([scenario, metric, mean_, sd, *test])
