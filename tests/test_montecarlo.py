"""Experiment harness: seed derivation, run merging, summaries, output files."""

import csv
import importlib.resources
import json
import os
import signal
import time
from concurrent.futures import Executor, Future
from dataclasses import asdict, fields

import numpy as np
import pytest

import strokesim.engine as engine
import strokesim.montecarlo as montecarlo
from strokesim.engine import (
    DelayModel,
    LifeTable,
    OddsRatioTable,
    OutcomeTable,
    PopulationArrays,
    Scenario,
    SeverityDistribution,
    SimulationConfig,
    prepare,
    run_replication,
    year_count,
)
from strokesim.cli import SCENARIO_CHOICES
from strokesim.config import load_experiment_file
from strokesim.errors import ConfigurationError
from strokesim.montecarlo import (
    SCENARIO_SEED_INDEX,
    Comparison,
    ExperimentConfig,
    ExperimentResult,
    percent_difference,
    run_experiment,
    write_runs_csv,
    write_summary_csv,
    write_summary_json,
    worker_count,
)
from strokesim.population import Agent
from strokesim.risk import EnsembleRiskModel, LogisticModel, WeightRow
from strokesim.seeds import derive_seed
from strokesim.stats import mean, paired_t_test, t_test

from conftest import population_from_agents


# --- seed derivation ---


def test_derive_seed_deterministic_and_64bit():
    assert derive_seed(42, 1, 5) == derive_seed(42, 1, 5)
    for s in (derive_seed(0), derive_seed(42), derive_seed(2**64 - 1, 3, 999)):
        assert 0 <= s < 2**64


def test_derive_seed_sensitive_to_every_index():
    base = derive_seed(42, 1, 5)
    assert derive_seed(43, 1, 5) != base
    assert derive_seed(42, 2, 5) != base
    assert derive_seed(42, 1, 6) != base
    assert derive_seed(42, 1) != base
    assert derive_seed(42, 1, 5, 0) != base


def test_derive_seed_no_collisions_on_experiment_grid():
    seeds = {
        derive_seed(42, s_idx, run)
        for s_idx in range(3)
        for run in range(2000)
    }
    assert len(seeds) == 6000


def test_derive_seed_avalanche():
    # neighboring inputs should disagree in many output bits
    for run in range(50):
        a = derive_seed(42, 0, run)
        b = derive_seed(42, 0, run + 1)
        assert bin(a ^ b).count("1") > 10


def test_derive_seed_spreads_uniformly():
    values = [derive_seed(7, i) / 2.0**64 for i in range(4000)]
    assert abs(float(np.mean(values)) - 0.5) < 0.02


# --- percent difference ---


def test_percent_difference():
    assert percent_difference(110.0, 100.0) == pytest.approx(10.0)
    assert percent_difference(90.0, 100.0) == pytest.approx(-10.0)
    assert percent_difference(5.0, 0.0) == 0.0


# --- config validation ---


def test_experiment_config_validate():
    ExperimentConfig(base_seed=1, scenarios=list(Scenario), n_runs=2).validate()
    with pytest.raises(ConfigurationError, match="n_runs"):
        ExperimentConfig(base_seed=1, scenarios=list(Scenario), n_runs=1).validate()
    with pytest.raises(ConfigurationError, match="no scenarios"):
        ExperimentConfig(base_seed=1, scenarios=[]).validate()
    with pytest.raises(ConfigurationError, match="baseline"):
        ExperimentConfig(base_seed=1, scenarios=[Scenario.CONVERSATIONS]).validate()
    with pytest.raises(ConfigurationError, match="duplicate"):
        ExperimentConfig(base_seed=1, scenarios=[Scenario.BASELINE] * 2).validate()
    with pytest.raises(ConfigurationError, match="significance"):
        ExperimentConfig(base_seed=1, scenarios=list(Scenario),
                         significance_level=1.0).validate()
    with pytest.raises(ConfigurationError, match="high_risk_threshold"):
        ExperimentConfig(base_seed=1, scenarios=list(Scenario),
                         simulation=SimulationConfig(high_risk_threshold=0.0)).validate()


# a value other than the one each SimulationConfig field takes on a
# two-year run (the tiny experiment below), which sets the horizon only
TWO_YEARS = {"horizon_days": 730}
OTHER_VALUES = [
    ("horizon_days", 3650), ("days_per_year", 360), ("high_risk_threshold", 0.2),
    ("conversation_ages", (55, 65, 75)), ("bmi_reduction_sd_fraction", 0.25),
    ("bp_reduction_sd_fraction", 0.3),
]


@pytest.mark.parametrize("field, value", OTHER_VALUES, ids=str)
def test_experiment_config_rejects_scenarios_on_different_time_grids(tmp_path, field, value):
    # the scenarios of an experiment differ in their kind only: they share
    # the time grid the summary's tests compare over, and the schedule,
    # threshold and reduction of the one set of risk tables they all read.
    # The experiment file has one `simulation` block: a value set there is
    # the one every scenario runs on, and a block that tries to set it for
    # one scenario is rejected when the file is loaded.
    assert {f for f, _ in OTHER_VALUES} == {f.name for f in fields(SimulationConfig)}
    assert getattr(SimulationConfig(**TWO_YEARS), field) != value
    doc = json.loads(importlib.resources.files("strokesim")
                     .joinpath("data", "experiment_ie.json").read_text())
    doc["simulation"] = {**TWO_YEARS, field: value}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    experiment = load_experiment_file(path).experiment
    assert experiment.scenarios == list(Scenario)
    assert experiment.simulation == SimulationConfig(**{**TWO_YEARS, field: value})
    for section, per_scenario in (("simulation", {"conversations": {field: value}}),
                                  ("experiment", {"scenarios": [
                                      {"scenario": "conversations", field: value}]})):
        path.write_text(json.dumps({**doc, section: {**doc[section], **per_scenario}}))
        key = next(iter(per_scenario))
        with pytest.raises(ConfigurationError,
                           match=rf"exp\.json\.{section}: unknown key '{key}'$"):
            load_experiment_file(path)


# --- a small experiment everything below shares ---


def tiny_population(n=50):
    rng = np.random.default_rng(6)
    agents = []
    for i in range(n):
        a = Agent(id=i, age=int(rng.integers(45, 75)),
                  sex="female" if i % 2 else "male", region="r",
                  household_id=i // 2, employment="employed",
                  sbp=float(rng.normal(140, 15)), dbp=float(rng.normal(84, 9)),
                  bmi=float(rng.normal(29, 4)), smoker=bool(i % 3 == 0),
                  cigs_per_day=15 if i % 3 == 0 else 0)
        agents.append(a)
    households = {}
    for a in agents:
        households.setdefault(a.household_id, []).append(a.id)
    return population_from_agents(agents, households, {h: "couple" for h in households})


def tiny_ens():
    ens = EnsembleRiskModel(
        models=[LogisticModel(age_lo=0, age_hi=200, intercept=-10.0,
                              coefficients={"sbp": 0.055, "smoker": 0.6})],
        weights=[WeightRow(age_lo=0, age_hi=200, weights=[1.0])],
    )
    ens.validate()
    return ens


def tiny_life():
    return LifeTable(ages=[35, 110], female=[47.0, 2.0], male=[44.0, 2.0])


def run_tiny(cfg, delay=None, sev=None, ors=None, life=None):
    """The experiment on the tiny population, with the default delay,
    severity and odds-ratio inputs unless given."""
    return run_experiment(
        cfg, PopulationArrays.from_population(tiny_population()), tiny_ens(),
        delay or DelayModel.default(), sev or SeverityDistribution.default(),
        ors or OddsRatioTable.default(), life or tiny_life())


def make_config(**overrides):
    params = dict(base_seed=99, scenarios=list(Scenario),
                  simulation=SimulationConfig(**TWO_YEARS), n_runs=6, workers=1)
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.fixture(scope="module")
def experiment():
    return run_tiny(make_config())


def test_runs_shape_and_order(experiment):
    runs = experiment.runs
    assert set(runs) == {"baseline", "conversations", "conversations_plus_family"}
    for name, metrics in runs.items():
        assert [m.run for m in metrics] == list(range(6))
        assert all(m.scenario == name for m in metrics)


def test_every_run_reproducible_in_isolation(experiment):
    """Each row of runs must be replayable from its recorded seed alone."""
    model = prepare(PopulationArrays.from_population(tiny_population()), tiny_ens(),
                    DelayModel.default(), SeverityDistribution.default(),
                    OddsRatioTable.default(), tiny_life(), make_config().simulation)
    for name, metrics in experiment.runs.items():
        for m in metrics[:3]:
            assert m.seed == derive_seed(99, SCENARIO_SEED_INDEX[Scenario(name)], m.run)
            direct = run_replication(model, m.seed, Scenario(name))
            assert direct.total_strokes == m.strokes
            assert direct.total_dalys == m.dalys
            assert direct.conversations == m.conversations
            assert direct.strokes_by_severity["death"] == m.death


def test_repeat_experiment_identical(experiment):
    again = run_tiny(make_config())
    assert asdict(again.summary) == asdict(experiment.summary)
    assert {k: [vars(m) for m in v] for k, v in again.runs.items()} == \
           {k: [vars(m) for m in v] for k, v in experiment.runs.items()}


def test_parallel_equals_serial(experiment):
    parallel = run_tiny(make_config(workers=2))
    assert asdict(parallel.summary) == asdict(experiment.summary)
    assert {k: [vars(m) for m in v] for k, v in parallel.runs.items()} == \
           {k: [vars(m) for m in v] for k, v in experiment.runs.items()}


def usable_cores(monkeypatch, n):
    """Make `n` cores usable: the core count and, where the OS has one, the
    affinity mask."""
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_worker_count_bounds(monkeypatch):
    usable_cores(monkeypatch, 4)
    assert worker_count(None, 3000) == 4      # default: one per core
    assert worker_count(2, 3000) == 2
    assert worker_count(500, 3000) == 4       # capped at the core count
    assert worker_count(None, 3) == 3         # capped at the task count
    assert worker_count(500, 1) == 1
    assert worker_count(0, 3000) == 1         # never below one
    assert worker_count(-3, 3000) == 1
    assert worker_count(None, 0) == 1
    # no affinity mask (not Linux): the core count, 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(None, 3000) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(None, 3000) == 1
    assert worker_count(8, 3000) == 1


def test_worker_count_caps_at_the_affinity_mask(monkeypatch):
    # `taskset -c 0` on a many-core machine: one core is usable
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(None, 100) == 1
    assert worker_count(8, 100) == 1


def test_scenario_subset_reuses_seeds(experiment):
    subset_cfg = make_config(scenarios=[Scenario.BASELINE, Scenario.CONVERSATIONS_PLUS_FAMILY])
    subset = run_tiny(subset_cfg)
    for name in ("baseline", "conversations_plus_family"):
        assert [vars(m) for m in subset.runs[name]] == \
               [vars(m) for m in experiment.runs[name]]


def test_common_random_numbers_share_seeds():
    crn = run_tiny(make_config(common_random_numbers=True))
    for run in range(6):
        seeds = {name: crn.runs[name][run].seed for name in crn.runs}
        assert len(set(seeds.values())) == 1
        assert seeds["baseline"] == derive_seed(99, run)


def test_common_random_numbers_compare_with_the_paired_test():
    crn = run_tiny(make_config(common_random_numbers=True, welch=True))
    assert crn.summary.comparisons
    for c in crn.summary.comparisons:
        ref = [float(getattr(m, c.metric)) for m in crn.runs[c.reference]]
        scen = [float(getattr(m, c.metric)) for m in crn.runs[c.scenario]]
        check = paired_t_test(scen, ref)
        assert (c.t, c.df, c.p, c.degenerate) == (check.t, 5.0, check.p, check.degenerate)
        assert c.significant == (c.p < crn.summary.significance_level)


def counting_scores(monkeypatch):
    """Record the years of every table the engine scores."""
    calls = []
    original = engine._score_by_year

    def counted(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "_score_by_year", counted)
    return calls


@pytest.mark.parametrize("scenarios", [list(Scenario), [Scenario.BASELINE]],
                         ids=["shared_reduction", "baseline_only"])
def test_scoring_is_per_experiment_not_per_replication(monkeypatch, scenarios):
    # one plain and one reduced table per experiment, whichever kinds it runs
    calls = counting_scores(monkeypatch)
    sim = SimulationConfig(horizon_days=1095)
    counts = []
    for n_runs in (2, 5):
        calls.clear()
        result = run_tiny(make_config(scenarios=scenarios, simulation=sim, n_runs=n_runs))
        assert all(len(v) == n_runs for v in result.runs.values())
        counts.append(len(calls))
    years = year_count(sim)
    assert years == 3
    assert counts == [2] * 2
    assert set(calls) == {years}


def prepared_models(monkeypatch):
    """Record the model each `run_experiment` prepares."""
    models = []
    original = montecarlo.prepare

    def recorded(*args):
        models.append(original(*args))
        return models[-1]

    monkeypatch.setattr(montecarlo, "prepare", recorded)
    return models


def test_every_prepared_model_runs_every_kind(monkeypatch):
    # an experiment prepares its model from its one simulation config,
    # whichever kinds it lists: each model runs all three kinds, and each
    # kind runs the same on every model, bit for bit
    models = prepared_models(monkeypatch)
    for kinds in SCENARIO_CHOICES.values():
        run_tiny(make_config(scenarios=kinds, n_runs=2))
    assert len(models) == len(SCENARIO_CHOICES) == 4
    for seed in (5, 6):
        want = {kind: run_replication(models[-1], seed, kind) for kind in Scenario}
        assert want[Scenario.BASELINE].total_strokes > 0
        assert want[Scenario.CONVERSATIONS_PLUS_FAMILY].family_reductions > 0
        for model, kinds in zip(models, SCENARIO_CHOICES.values()):
            for kind in Scenario:
                got = run_replication(model, seed, kind)
                assert np.array_equal(got.stroke_day, want[kind].stroke_day), (kinds, kind)
                assert np.array_equal(got.severity, want[kind].severity), (kinds, kind)
                assert (np.float64(got.total_dalys).tobytes()
                        == np.float64(want[kind].total_dalys).tobytes()), (kinds, kind)


def test_outcome_table_and_residuals_are_per_experiment(monkeypatch):
    calls = []
    build, residual_array = OutcomeTable.build, LifeTable.residual_array

    def counted_build(*args, **kwargs):
        calls.append("build")
        return build(*args, **kwargs)

    def counted_residuals(self, *args, **kwargs):
        calls.append("residual_array")
        return residual_array(self, *args, **kwargs)

    monkeypatch.setattr(OutcomeTable, "build", staticmethod(counted_build))
    monkeypatch.setattr(LifeTable, "residual_array", counted_residuals)
    for n_runs in (2, 5):
        calls.clear()
        result = run_tiny(make_config(n_runs=n_runs))
        assert all(len(v) == n_runs for v in result.runs.values())
        assert sorted(calls) == ["build", "residual_array"]


def test_summary_statistics_recomputable(experiment):
    summary = experiment.summary
    for s in summary.scenarios:
        strokes = [float(m.strokes) for m in experiment.runs[s.scenario]]
        dalys = [m.dalys for m in experiment.runs[s.scenario]]
        deaths = [float(m.death) for m in experiment.runs[s.scenario]]
        assert s.n_runs == 6
        assert s.strokes_mean == pytest.approx(mean(strokes), rel=1e-12)
        assert s.dalys_mean == pytest.approx(mean(dalys), rel=1e-12)
        assert s.deaths_mean == pytest.approx(mean(deaths), rel=1e-12)
        assert s.strokes_sd == pytest.approx(float(np.std(strokes, ddof=1)), rel=1e-9)


def test_comparison_grid_and_values(experiment):
    summary = experiment.summary
    got_pairs = {(c.reference, c.scenario, c.metric) for c in summary.comparisons}
    want_pairs = set()
    for metric in ("strokes", "dalys"):
        want_pairs.add(("baseline", "conversations", metric))
        want_pairs.add(("baseline", "conversations_plus_family", metric))
        want_pairs.add(("conversations", "conversations_plus_family", metric))
    assert got_pairs == want_pairs

    for c in summary.comparisons:
        ref = [float(getattr(m, "strokes" if c.metric == "strokes" else "dalys"))
               for m in experiment.runs[c.reference]]
        scen = [float(getattr(m, "strokes" if c.metric == "strokes" else "dalys"))
                for m in experiment.runs[c.scenario]]
        check = t_test(scen, ref)
        assert c.t == check.t
        assert c.df == check.df
        assert c.p == check.p
        assert c.significant == (c.p < summary.significance_level)
        assert c.degenerate == check.degenerate
        assert c.percent_defined == (mean(ref) != 0.0)
        assert c.percent_difference == pytest.approx(
            100.0 * (mean(scen) - mean(ref)) / mean(ref), rel=1e-12)


def test_lower_scenario_mean_gives_negative_t():
    # constructed samples, not simulation output: the sign convention is fixed
    cmp_t = t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert cmp_t.t < 0


def test_welch_flag_changes_degrees_of_freedom(experiment):
    welch = run_tiny(make_config(welch=True))
    pooled_df = {(c.reference, c.scenario, c.metric): c.df
                 for c in experiment.summary.comparisons}
    for c in welch.summary.comparisons:
        assert pooled_df[(c.reference, c.scenario, c.metric)] == 10.0
        assert c.df <= 10.0
        assert c.df == pytest.approx(
            t_test([float(getattr(m, c.metric if c.metric == "dalys" else "strokes"))
                    for m in welch.runs[c.scenario]],
                   [float(getattr(m, c.metric if c.metric == "dalys" else "strokes"))
                    for m in welch.runs[c.reference]], welch=True).df)


def failing_replication(monkeypatch, *seeds, delay=0.0):
    """Make the replications with `seeds` raise, the first of them only
    after `delay` seconds; the others run as usual."""
    original = montecarlo.run_replication

    def replication(*args, **kwargs):
        if args[1] in seeds:
            time.sleep(delay if args[1] == seeds[0] else 0.0)
            raise ValueError("replication broke")
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_replication", replication)


def test_failing_replication_names_the_run(monkeypatch):
    seed = derive_seed(99, SCENARIO_SEED_INDEX[Scenario.CONVERSATIONS], 2)
    failing_replication(monkeypatch, seed)
    with pytest.raises(RuntimeError, match=rf"scenario=conversations run=2 seed={seed}$") as err:
        run_tiny(make_config())
    assert str(err.value.__cause__) == "replication broke"


BAD_MODELS = {
    "delay": (DelayModel([]), "no bands"),
    "sev": (SeverityDistribution(0.5, 0.5, 0.5, 0.0), "sum to 1.5"),
    "ors": (OddsRatioTable([]), "no rows"),
    "life": (LifeTable(ages=[110, 35], female=[2.0, 47.0], male=[2.0, 44.0]), "increasing"),
}


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_invalid_model_rejected_before_the_pool_starts(monkeypatch, name):
    def no_pool(**kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    usable_cores(monkeypatch, 2)
    model, message = BAD_MODELS[name]
    with pytest.raises(ConfigurationError, match=message):
        run_tiny(make_config(workers=2), **{name: model})


class FailFirstPool(Executor):
    """ProcessPoolExecutor stand-in that starts no process: the first task
    runs here, at submit, and every later one stays queued until cancelled.
    `map` and the context manager are `Executor`'s."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers, self.state = max_workers, initargs[0]
        self.futures = []

    def submit(self, fn, task):
        fut = Future()
        if not self.futures:
            try:
                fut.set_result(fn(task, self.state))
            except Exception as exc:
                fut.set_exception(exc)
        self.futures.append(fut)
        return fut


def test_pool_stops_at_first_failed_replication(monkeypatch):
    pools = []

    def make_pool(**kwargs):
        pools.append(FailFirstPool(**kwargs))
        return pools[-1]

    def waited(signum, frame):
        raise TimeoutError("the experiment waited on the queued replications")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", make_pool)
    usable_cores(monkeypatch, 2)
    seed = derive_seed(99, SCENARIO_SEED_INDEX[Scenario.BASELINE], 0)
    failing_replication(monkeypatch, seed)
    previous = signal.signal(signal.SIGALRM, waited)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match=rf"scenario=baseline run=0 seed={seed}$"):
            run_tiny(make_config(workers=2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    (pool,) = pools
    assert pool.max_workers == 2
    assert len(pool.futures) == 3 * 6
    assert all(fut.cancelled() for fut in pool.futures[1:])


@pytest.mark.parametrize("runs", [(2,), (1, 3)], ids=["one-failure", "two-failures"])
def test_real_pool_names_the_first_failed_replication_in_task_order(monkeypatch, runs):
    # Two worker processes.  With two failures, run 1 fails a second after
    # run 3 has, so the error names the first failure in task order, not
    # in time.  The workers see the patched replication because they are
    # forked (Linux's default start method through Python 3.13).
    seeds = [derive_seed(99, SCENARIO_SEED_INDEX[Scenario.CONVERSATIONS], r) for r in runs]
    failing_replication(monkeypatch, *seeds, delay=1.0)
    usable_cores(monkeypatch, 2)
    first = rf"scenario=conversations run={runs[0]} seed={seeds[0]}$"
    with pytest.raises(RuntimeError, match=first) as err:
        run_tiny(make_config(workers=2))
    assert "replication broke" in str(err.value.__cause__)


def test_real_pool_starts_few_replications_after_a_failure(monkeypatch, tmp_path):
    # Two worker processes: run 0 takes 2 s, run 1 fails at once, and the
    # 28 runs after them take 0.1 s each.  Collecting in task order alone
    # would wait on run 0 while the other worker starts about 20 more.
    slow, failing = (derive_seed(99, SCENARIO_SEED_INDEX[Scenario.BASELINE], r) for r in (0, 1))
    started = tmp_path / "started"
    original = montecarlo.run_replication

    def replication(*args):
        with open(started, "a") as handle:  # workers are forked: the file counts for all
            handle.write(".")
        if args[1] == failing:
            raise ValueError("replication broke")
        time.sleep(2.0 if args[1] == slow else 0.1)
        return original(*args)

    monkeypatch.setattr(montecarlo, "run_replication", replication)
    usable_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=rf"scenario=baseline run=1 seed={failing}$"):
        run_tiny(make_config(workers=2, n_runs=10))
    assert len(started.read_text()) < 10


# --- output files ---


def test_runs_csv_layout(experiment, tmp_path):
    path = tmp_path / "runs.csv"
    write_runs_csv(experiment, path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "scenario", "run", "seed", "strokes", "dalys",
        "no_disability", "mild", "moderate_severe", "death",
        "conversations", "risk_reductions", "family_reductions",
    ]
    assert len(rows) == 1 + 3 * 6
    first = dict(zip(rows[0], rows[1]))
    m = experiment.runs["baseline"][0]
    assert first["scenario"] == "baseline"
    assert int(first["run"]) == 0
    assert int(first["seed"]) == m.seed
    assert int(first["strokes"]) == m.strokes
    assert float(first["dalys"]) == m.dalys
    assert int(first["family_reductions"]) == m.family_reductions


def test_failed_write_leaves_previous_runs_csv(experiment, tmp_path):
    path = tmp_path / "runs.csv"
    write_runs_csv(experiment, path)
    before = path.read_bytes()
    # the second row raises after the header and first row are written
    broken = ExperimentResult(summary=experiment.summary,
                              runs={"baseline": [experiment.runs["baseline"][0], None]})
    with pytest.raises(AttributeError):
        write_runs_csv(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["runs.csv"]  # no temporary left


def test_failed_first_write_leaves_no_file(experiment, tmp_path):
    with pytest.raises(TypeError):
        write_summary_json(None, tmp_path / "summary.json")
    assert list(tmp_path.iterdir()) == []


def test_runs_csv_bytes_stable(experiment, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_runs_csv(experiment, a)
    write_runs_csv(experiment, b)
    assert a.read_bytes() == b.read_bytes()


def test_summary_json_round_trip(experiment, tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(experiment.summary, path)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == asdict(experiment.summary)
    assert data["n_runs"] == 6
    assert data["base_seed"] == 99
    assert {s["scenario"] for s in data["scenarios"]} == set(experiment.runs)
    for c in data["comparisons"]:
        assert set(c) == {"reference", "scenario", "metric", "percent_difference",
                          "percent_defined", "t", "df", "p", "significant", "degenerate"}


def test_summary_csv_layout(experiment, tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(experiment.summary, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 2
    header = list(rows[0])
    assert header == ["scenario", "metric", "mean", "sd",
                      "percent_diff_vs_baseline", "t", "df", "p", "significant"]
    for row in rows:
        if row["scenario"] == "baseline":
            assert row["t"] == "" and row["p"] == "" and row["significant"] == ""
        else:
            float(row["t"]), float(row["p"])
            assert row["significant"] in {"0", "1"}
    by_key = {(r["scenario"], r["metric"]): r for r in rows}
    s0 = experiment.summary.scenarios[0]
    assert float(by_key[(s0.scenario, "strokes")]["mean"]) == s0.strokes_mean
