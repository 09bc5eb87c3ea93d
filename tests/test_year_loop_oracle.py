"""The replication's year loop against the loop it replaced, draw for draw.

`reference_replication` is that earlier loop, kept as the oracle: a
full-population conversation mask from an age lookup, both risk tables
gathered for every agent with `np.where`, spillover from every household
ever notified, and arrival offsets over every stroke-free row.  It reads
its own risk tables, scored for every agent by `full_width_tables`, not
the compact ones `prepare` builds for a replication.  With
`use_skip_sampling=False` it draws one uniform per stroke-free agent per
day instead: the naive path that test_engine checks skip sampling against
in distribution.  `run_replication` tests only the
scheduled rows, reduces and spreads from that year's notified agents
only, and gives only the rows under the arrival bound the closed form;
on the same seed every field of the result must be the same,
`total_dalys` to the last bit.
"""

import importlib.resources
import json
from dataclasses import replace

import numpy as np
import pytest

from strokesim.cli import _build_population
from strokesim.config import load_experiment_file
from strokesim.engine import (
    PopulationArrays,
    RunResult,
    Scenario,
    _apply_reduction_rows,
    _first_success_offsets,
    _stroke_dalys,
    prepare,
    run_replication,
    year_count,
)
from strokesim.risk import DAYS_PER_FIVE_YEARS, FEATURE_NAMES, five_year_matrix
from test_cli import age_graded_experiment

# Fixed when the test was written.
SEEDS = (5, 23, 101)


def full_width_tables(arrays, ens, sim):
    """Every agent's five-year risk in each year of the simulation config
    `sim`, with its original factors and with `_apply_reduction_rows`
    applied to every row: `five_year_matrix` at each year's age."""
    years, n = year_count(sim), len(arrays.age)
    lowered = replace(arrays, features=arrays.features.copy())
    _apply_reduction_rows(lowered, np.arange(n), sim)
    plain, reduced = np.empty((years, n)), np.empty((years, n))
    for year in range(years):
        age = arrays.age + (year + 1)
        for table, features in ((plain, arrays.features), (reduced, lowered.features)):
            X = features.copy()
            X[:, FEATURE_NAMES.index("age")] = age
            table[year] = five_year_matrix(ens, X, age)
    return plain, reduced


def reference_replication(model, full_tables, kind, seed, use_skip_sampling=True):
    """The earlier year loop of scenario `kind` on `full_width_tables`, with
    `model`'s simulation config, arrays, outcome table and residuals, and
    with how often it re-notified an agent and notified two members of one
    household in one year, and whose factors it reduced."""
    arrays, outcome_table, residual = model.arrays, model.outcomes, model.residual
    sim = model.simulation
    plain, lowered = full_tables
    rng = np.random.default_rng(seed)
    interventions_on = kind is not Scenario.BASELINE
    spillover_on = kind is Scenario.CONVERSATIONS_PLUS_FAMILY
    n = len(arrays.age)
    years = year_count(sim)
    age_lo = int(arrays.age.min()) + 1
    schedule = np.pad(np.isin(np.arange(age_lo, int(arrays.age.max()) + years + 1),
                              sim.conversation_ages), 1)
    stroke_day = np.full(n, -1, dtype=np.int64)
    severity = np.full(n, -1, dtype=np.int64)
    notified = np.zeros(n, dtype=bool)
    reduced = np.zeros(n, dtype=bool)
    conversations = risk_reductions = family_reductions = 0
    renotified = shared = 0

    def strike(rows, days):
        stroke_day[rows] = days
        severity[rows] = [outcome_table.draw(rng)[1] for _ in range(rows.size)]

    for year in range(years):
        day = year * sim.days_per_year
        active = stroke_day < 0
        five_year = plain[year]
        if interventions_on:
            five_year = np.where(reduced, lowered[year], five_year)
            talk = (active & schedule.take(arrays.age + (year + 1) - age_lo + 1, mode="clip")
                    & (five_year > sim.high_risk_threshold))
            conversations += int(talk.sum())
            renotified += int((talk & notified).sum())
            shared += int((np.bincount(arrays.household[talk]) > 1).sum())
            notified |= talk

            own = active & notified & ~reduced
            reduced |= own
            risk_reductions += int(own.sum())
            if spillover_on:
                flagged = np.zeros(int(arrays.household.max()) + 1, dtype=bool)
                flagged[arrays.household[notified]] = True
                spill = active & ~reduced & flagged[arrays.household]
                reduced |= spill
                family_reductions += int(spill.sum())
            five_year = np.where(reduced, lowered[year], plain[year])

        window = min(sim.days_per_year, sim.horizon_days - day)
        act_rows = np.flatnonzero(active)
        if use_skip_sampling:
            u = rng.random(act_rows.size)
            offsets = _first_success_offsets(five_year[act_rows] / DAYS_PER_FIVE_YEARS, u)
            hit = offsets < window
            hit_rows = act_rows[hit]
            hit_days = day + offsets[hit].astype(np.int64)
            order = np.lexsort((hit_rows, hit_days))
            strike(hit_rows[order], hit_days[order])
        else:
            daily = five_year / DAYS_PER_FIVE_YEARS
            for d in range(day, day + window):
                act_rows = np.flatnonzero(stroke_day < 0)
                u = rng.random(act_rows.size)
                rows = act_rows[u < daily[act_rows]]
                strike(rows, np.full(rows.size, d))

    struck = np.flatnonzero(stroke_day >= 0)
    struck = struck[np.argsort(stroke_day[struck], kind="stable")]
    aged = stroke_day[struck] // sim.days_per_year + 1
    dalys = _stroke_dalys(residual[struck] - aged, severity[struck])
    result = RunResult(
        total_dalys=float(np.cumsum(dalys)[-1]) if dalys.size else 0.0,
        conversations=conversations, risk_reductions=risk_reductions,
        family_reductions=family_reductions, stroke_day=stroke_day, severity=severity,
    )
    return result, renotified, shared, reduced


def biennial_experiment(root):
    """The bundled config with a conversation every second year of age from
    36 on: over ten years each agent is seen five times, so high-risk
    agents are notified again after their reduction, and both members of a
    household are notified, in one year or in different ones."""
    doc = json.loads(importlib.resources.files("strokesim")
                     .joinpath("data", "experiment_ie.json").read_text())
    doc["simulation"]["conversation_ages"] = list(range(36, 112, 2))
    (root / "biennial.json").write_text(json.dumps(doc))
    return str(root / "biennial.json")


CONFIGS = {
    "bundled": lambda root: None,
    "age_graded": age_graded_experiment,
    "biennial": biennial_experiment,
}


@pytest.fixture(scope="module", params=list(CONFIGS))
def experiment(request, tmp_path_factory):
    path = CONFIGS[request.param](tmp_path_factory.mktemp(request.param))
    cfg = load_experiment_file() if path is None else load_experiment_file(path)
    pop = _build_population(cfg, cfg.experiment.base_seed)
    arrays = PopulationArrays.from_population(pop)
    sim = cfg.experiment.simulation
    full = full_width_tables(arrays, cfg.ensemble, sim)  # every scenario reads them
    model = prepare(arrays, cfg.ensemble, cfg.delay, cfg.severity, cfg.odds_ratios,
                    cfg.life_table, sim)
    return request.param, cfg, model, full


def assert_same_result(a, b):
    """Field by field, arrays element by element, floats bit for bit."""
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(b, name)), name
        else:
            assert value == getattr(b, name), name
            assert type(value) is type(getattr(b, name)), name
    assert np.float64(a.total_dalys).tobytes() == np.float64(b.total_dalys).tobytes()


def test_replication_matches_the_earlier_year_loop(experiment):
    name, cfg, model, full = experiment
    renotified = shared = 0
    for kind in cfg.experiment.scenarios:
        for seed in SEEDS:
            want, again, both, _ = reference_replication(model, full, kind, seed)
            assert_same_result(run_replication(model, seed, kind), want)
            assert want.total_strokes > 0
            renotified += again
            shared += both
    if name == "biennial":
        assert renotified > 0 and shared > 0


def test_every_row_a_replication_reduces_has_a_column(experiment):
    # the oracle reduces from the full-width tables and never reads `slot`;
    # each row it reduces must have a column in the compact table
    name, cfg, model, full = experiment
    for kind in cfg.experiment.scenarios:
        if kind is Scenario.BASELINE:
            continue
        slot = model.tables.slot
        ever = np.zeros(len(model.arrays.age), dtype=bool)
        for seed in range(10):
            ever |= reference_replication(model, full, kind, seed)[3]
        assert ever.any()
        assert (slot[ever] >= 0).all(), (name, kind.value)
        # the table is narrower than the population
        assert (slot < 0).any(), (name, kind.value)
