"""Monte Carlo experiments: many replications per scenario, then t-tests.

Seeds are derived per (scenario, run) index from one base seed, so every
replication is reproducible in isolation and the result does not depend
on how runs are ordered or spread across worker processes.  Each
experiment scores its population into per-year risk tables
(`engine.build_risk_tables`), and tabulates the outcome model and each
agent's residual life expectancy, once, before any replication runs.
Replications run in a process pool (the population arrays and tables
are shipped to each worker once) and are merged by index before any
aggregation; the first failed replication cancels the rest and stops
the experiment.

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
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Optional

from .engine import (
    DelayModel,
    LifeTable,
    OddsRatioTable,
    OutcomeTable,
    PopulationArrays,
    RunResult,
    Scenario,
    ScenarioConfig,
    SeverityDistribution,
    build_risk_tables,
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
    scenarios: list[ScenarioConfig]
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
        kinds = [s.scenario for s in self.scenarios]
        if Scenario.BASELINE not in kinds:
            raise ConfigurationError("experiment: scenario list must include baseline")
        if len(set(kinds)) != len(kinds):
            raise ConfigurationError("experiment: duplicate scenario")
        if not (0.0 < self.significance_level < 1.0):
            raise ConfigurationError("significance_level must be in (0, 1)")
        for s in self.scenarios:
            s.validate()


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
    core when None), capped at the core count and at the task count, and
    never below 1 (so 0 or a negative request runs serially)."""
    cores = os.cpu_count() or 1
    wanted = cores if requested is None else requested
    return max(1, min(wanted, cores, n_tasks))


# Worker-process state, installed once per worker by the pool initializer.
_STATE: Optional[dict] = None


def _init_worker(state: dict) -> None:
    global _STATE
    _STATE = state


def _run_task(task: tuple[str, int, int], state: Optional[dict] = None) -> RunMetrics:
    scenario_value, run_idx, seed = task
    st = state if state is not None else _STATE
    assert st is not None
    try:
        res = run_replication(
            st["arrays"], st["tables"][scenario_value], st["scenarios"][scenario_value],
            st["outcome_table"], st["residual"], seed,
        )
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

    The models are validated and every table is built here, once,
    before the pool starts, so every replication and every worker reads
    the same tables.  Results are keyed by (scenario, run index) and
    merged in index order, so the summary is identical however many
    workers execute the runs.
    The first failing replication aborts the experiment, cancelling the
    replications still queued; the error names the scenario, run and
    seed that failed.
    """
    cfg.validate()
    for model in (delay, sev, ors, life):
        model.validate()
    tables = build_risk_tables(arrays, ens, cfg.scenarios)
    state = {
        "arrays": arrays,
        "tables": {kind.value: t for kind, t in tables.items()},
        "scenarios": {s.scenario.value: s for s in cfg.scenarios},
        "outcome_table": OutcomeTable.build(delay, sev, ors),
        "residual": life.residual_array(arrays.male, arrays.age),
    }

    tasks: list[tuple[str, int, int]] = []
    for sc in cfg.scenarios:
        s_idx = SCENARIO_SEED_INDEX[sc.scenario]
        for run in range(cfg.n_runs):
            if cfg.common_random_numbers:
                seed = derive_seed(cfg.base_seed, run)
            else:
                seed = derive_seed(cfg.base_seed, s_idx, run)
            tasks.append((sc.scenario.value, run, seed))

    workers = worker_count(cfg.workers, len(tasks))
    collected: dict[tuple[str, int], RunMetrics] = {}
    if workers == 1:
        for task in tasks:
            m = _run_task(task, state)
            collected[(m.scenario, m.run)] = m
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(state,)
        ) as pool:
            futures = [pool.submit(_run_task, task) for task in tasks]
            try:
                for fut in as_completed(futures):
                    m = fut.result()
                    collected[(m.scenario, m.run)] = m
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise

    runs = {
        sc.scenario.value: [collected[(sc.scenario.value, r)] for r in range(cfg.n_runs)]
        for sc in cfg.scenarios
    }
    return ExperimentResult(summary=_summarize(cfg, runs), runs=runs)


def _summarize(cfg: ExperimentConfig, runs: dict[str, list[RunMetrics]]) -> ExperimentSummary:
    scenario_results = []
    samples: dict[tuple[str, str], list[float]] = {}
    for sc in cfg.scenarios:
        name = sc.scenario.value
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
    others = [sc.scenario.value for sc in cfg.scenarios if sc.scenario is not Scenario.BASELINE]
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

RUNS_CSV_COLUMNS = [
    "scenario", "run", "seed", "strokes", "dalys",
    "no_disability", "mild", "moderate_severe", "death",
    "conversations", "risk_reductions", "family_reductions",
]


def write_runs_csv(result: ExperimentResult, path) -> None:
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RUNS_CSV_COLUMNS)
        for name in result.runs:
            for m in result.runs[name]:
                writer.writerow([
                    m.scenario, m.run, m.seed, m.strokes, repr(m.dalys),
                    m.no_disability, m.mild, m.moderate_severe, m.death,
                    m.conversations, m.risk_reductions, m.family_reductions,
                ])


def summary_to_dict(summary: ExperimentSummary) -> dict:
    return {
        "n_runs": summary.n_runs,
        "base_seed": summary.base_seed,
        "significance_level": summary.significance_level,
        "common_random_numbers": summary.common_random_numbers,
        "welch": summary.welch,
        "scenarios": [vars(s).copy() for s in summary.scenarios],
        "comparisons": [vars(c).copy() for c in summary.comparisons],
    }


def write_summary_json(summary: ExperimentSummary, path) -> None:
    with atomic_open(path) as handle:
        json.dump(summary_to_dict(summary), handle, indent=2)
        handle.write("\n")


def vs_baseline(summary: ExperimentSummary) -> dict[tuple[str, str], Comparison]:
    """The comparisons against baseline, by (scenario, metric)."""
    return {
        (c.scenario, c.metric): c
        for c in summary.comparisons
        if c.reference == Scenario.BASELINE.value
    }


def write_summary_csv(summary: ExperimentSummary, path) -> None:
    """One row per scenario x metric, with the vs-baseline test inline."""
    by_key = vs_baseline(summary)
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "scenario", "metric", "mean", "sd",
            "percent_diff_vs_baseline", "t", "df", "p", "significant",
        ])
        for s in summary.scenarios:
            for metric in METRICS:
                m = (s.strokes_mean, s.strokes_sd) if metric == "strokes" else (s.dalys_mean, s.dalys_sd)
                c = by_key.get((s.scenario, metric))
                test = [""] * 5 if c is None else [
                    repr(c.percent_difference), repr(c.t), repr(c.df), repr(c.p),
                    int(c.significant),
                ]
                writer.writerow([s.scenario, metric, repr(m[0]), repr(m[1]), *test])
