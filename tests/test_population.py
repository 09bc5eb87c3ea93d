"""Population synthesis: apportionment, households, factor assignment, CSV round trip."""

import csv
import io
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from strokesim.config import load_population_file
from strokesim.engine import (
    DelayModel,
    LifeTable,
    OddsRatioTable,
    PopulationArrays,
    Scenario,
    SeverityDistribution,
    SimulationConfig,
    prepare,
    run_replication,
)
from strokesim.errors import ConfigurationError
from strokesim.population import (
    BMI_RANGE,
    COLUMN_TYPES,
    CSV_COLUMNS,
    DAYS_PER_FIVE_YEARS,
    DBP_RANGE,
    HOUSEHOLD_SIZES,
    SBP_RANGE,
    Agent,
    DemographicSpec,
    Population,
    RegionSpec,
    RiskFactorBand,
    RiskFactorTables,
    apportion,
    assign_risk_factors,
    build_population,
    parse_age_range,
    population_stats,
    read_population_csv,
    round_half_up,
    write_population_csv,
)
from strokesim.population import _stable_argsort
from strokesim.risk import (
    EnsembleRiskModel,
    LogisticModel,
    WeightRow,
    feature_matrix,
    population_features,
)
from strokesim.seeds import derive_seed

from conftest import population_from_agents


def types_by_id(pop):
    """Each household's type under its household_id."""
    return dict(zip(pop.households, pop.household_type.tolist()))


def region(name="east", share=1.0, sex=None, age_bands=None, employment=None, households=None):
    return RegionSpec(
        name=name,
        share=share,
        sex=sex or {"female": 0.5, "male": 0.5},
        age_bands=age_bands or {"35-54": 0.5, "55-74": 0.3, "75-110": 0.2},
        employment=employment or {"employed": 0.6, "unemployed": 0.05, "inactive": 0.35},
        households=households or {"single": 0.3, "couple": 0.4, "with_children": 0.3},
    )


def flat_band(**overrides):
    params = dict(
        age_lo=35, age_hi=110,
        sbp_mean=130.0, sbp_sd=15.0, dbp_mean=80.0, dbp_sd=10.0,
        bmi_mean=27.5, bmi_sd=4.5,
        diabetes_prev=0.08, afib_prev=0.04, smoker_prev=0.2,
        cigs_per_day_mean=14.0,
    )
    params.update(overrides)
    return RiskFactorBand(**params)


def build(total=100, seed=7, **region_kwargs):
    spec = DemographicSpec(regions=[region(**region_kwargs)], total_agents=total)
    return build_population(spec, np.random.default_rng(seed))


# --- small pieces ---


def test_round_half_up_ties_go_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(3.5) == 4
    assert round_half_up(2.4) == 2
    assert round_half_up(0.0) == 0


def test_parse_age_range():
    assert parse_age_range("50-59") == (50, 59)
    assert parse_age_range("70+") == (70, 110)
    with pytest.raises(ConfigurationError):
        parse_age_range("old")


def test_apportion_exact_total_and_near_quota():
    props = {"a": 0.405, "b": 0.31, "c": 0.285}
    counts = apportion(997, props)
    assert sum(counts.values()) == 997
    for key, p in props.items():
        assert abs(counts[key] - p * 997) < 1.0


def test_apportion_degenerate_single_category():
    assert apportion(10, {"only": 1.0}) == {"only": 10}


# --- build_population ---


def test_degenerate_population_all_single():
    pop = build(total=10, households={"single": 1.0, "couple": 0.0, "with_children": 0.0})
    assert len(pop) == 10
    assert [a.id for a in pop.agents] == list(range(10))
    assert len(pop.households) == 10
    assert all(len(m) == 1 for m in pop.households.values())
    assert pop.household_type.tolist() == ["single"] * 10


def test_sex_split_even():
    pop = build(total=1000)
    females = sum(1 for a in pop.agents if a.sex == "female")
    assert abs(females - 500) <= 1


def test_ages_inside_declared_bands():
    pop = build(total=300)
    for a in pop.agents:
        assert 35 <= a.age <= 110


def test_households_sized_by_type_and_consistent():
    pop = build(total=200)
    for h, (hid, members) in enumerate(pop.households.items()):
        htype = pop.household_type[h]
        # the tail household may be cut short when the region pool runs out
        assert 1 <= len(members) <= HOUSEHOLD_SIZES[htype]
        for agent_id in members:
            assert pop.agents[agent_id].household_id == hid
            assert pop.household[agent_id] == h


def test_household_members_share_region():
    spec = DemographicSpec(
        regions=[region(name="west", share=0.5), region(name="east", share=0.5)],
        total_agents=400,
    )
    pop = build_population(spec, np.random.default_rng(3))
    for members in pop.households.values():
        regions = {pop.agents[i].region for i in members}
        assert len(regions) == 1


def test_determinism_same_seed_same_population():
    spec = DemographicSpec(regions=[region()], total_agents=150)
    a = build_population(spec, np.random.default_rng(derive_seed(42)))
    b = build_population(spec, np.random.default_rng(derive_seed(42)))
    assert [
        (x.id, x.age, x.sex, x.region, x.employment, x.household_id) for x in a.agents
    ] == [
        (x.id, x.age, x.sex, x.region, x.employment, x.household_id) for x in b.agents
    ]


@pytest.mark.parametrize("keys", [
    np.random.default_rng(5).integers(0, 4, 300) + 0.5,
    np.random.default_rng(5).integers(35, 90, 300) + np.random.default_rng(6).uniform(0, 6, 300),
    np.array([7.0]),
    np.array([], dtype=float),
], ids=["ties", "distinct", "one", "empty"])
def test_household_pool_order_is_the_stable_argsort(keys):
    # the pool order must not depend on the sort algorithm: tied keys keep
    # their draw order
    assert np.array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))


def test_invalid_proportions_rejected():
    bad = region(sex={"female": 0.6, "male": 0.6})
    spec = DemographicSpec(regions=[bad], total_agents=10)
    with pytest.raises(ConfigurationError, match="sex"):
        build_population(spec, np.random.default_rng(0))


def test_min_age_enforced():
    spec = DemographicSpec(regions=[region()], total_agents=10, min_age=20)
    with pytest.raises(ConfigurationError, match="min_age"):
        spec.validate()


# --- assign_risk_factors ---


def test_quota_prevalence_exact():
    pop = build(total=100)
    tables = RiskFactorTables(bands=[flat_band(diabetes_prev=0.25, smoker_prev=0.0)])
    assign_risk_factors(pop, tables, np.random.default_rng(5))
    assert sum(a.diabetes for a in pop.agents) == 25
    assert sum(a.smoker for a in pop.agents) == 0
    assert all(a.cigs_per_day == 0 for a in pop.agents)


def test_smokers_get_band_cigarettes():
    pop = build(total=50)
    tables = RiskFactorTables(bands=[flat_band(smoker_prev=0.5, cigs_per_day_mean=17.4)])
    assign_risk_factors(pop, tables, np.random.default_rng(5))
    smokers = [a for a in pop.agents if a.smoker]
    assert len(smokers) == 25
    assert all(a.cigs_per_day == 17 for a in smokers)


def test_continuous_draws_match_configured_normal():
    # law of large numbers on the sampler, plus a distribution shape check
    pop = build(total=100_000, households={"single": 1.0, "couple": 0.0, "with_children": 0.0})
    tables = RiskFactorTables(bands=[flat_band(sbp_mean=135.0, sbp_sd=10.0)])
    assign_risk_factors(pop, tables, np.random.default_rng(11))
    sbp = np.array([a.sbp for a in pop.agents])
    assert abs(sbp.mean() - 135.0) < 0.2
    assert abs(sbp.std() - 10.0) < 0.2

    scipy_stats = pytest.importorskip("scipy.stats")
    # bounds sit 5.5 sd away, so clamping is essentially never triggered here
    result = scipy_stats.kstest(sbp, "norm", args=(135.0, 10.0))
    assert result.pvalue > 0.01


def test_clamping_moves_draws_to_bound():
    pop = build(total=2000)
    tables = RiskFactorTables(bands=[flat_band(sbp_mean=82.0, sbp_sd=10.0)])
    assign_risk_factors(pop, tables, np.random.default_rng(2))
    sbp = np.array([a.sbp for a in pop.agents])
    assert sbp.min() == 80.0
    assert (sbp == 80.0).sum() > 0


def test_age_not_covered_by_any_band_rejected():
    pop = build(total=50)
    tables = RiskFactorTables(bands=[flat_band(age_lo=35, age_hi=40)])
    with pytest.raises(ConfigurationError, match="band covers age"):
        assign_risk_factors(pop, tables, np.random.default_rng(0))


def test_band_assignment_uses_own_band_parameters():
    spec = DemographicSpec(
        regions=[region(age_bands={"35-49": 0.5, "50-110": 0.5})], total_agents=4000
    )
    pop = build_population(spec, np.random.default_rng(9))
    tables = RiskFactorTables(bands=[
        flat_band(age_lo=35, age_hi=49, sbp_mean=110.0, sbp_sd=5.0),
        flat_band(age_lo=50, age_hi=110, sbp_mean=160.0, sbp_sd=5.0),
    ])
    assign_risk_factors(pop, tables, np.random.default_rng(9))
    young = np.array([a.sbp for a in pop.agents if a.age < 50])
    old = np.array([a.sbp for a in pop.agents if a.age >= 50])
    assert abs(young.mean() - 110.0) < 1.0
    assert abs(old.mean() - 160.0) < 1.0


# --- population_stats ---


def test_stats_divisor_n():
    pop = build(total=10, households={"single": 1.0, "couple": 0.0, "with_children": 0.0})
    pop.bmi[:] = 20.0
    pop.bmi[:2] = 30.0, 10.0
    stats = population_stats(pop)
    values = np.array([a.bmi for a in pop.agents])
    assert stats.bmi_mean == pytest.approx(values.mean(), abs=0)
    # divisor N, not N-1
    assert stats.bmi_sd == pytest.approx(math.sqrt(((values - values.mean()) ** 2).mean()), abs=0)


def test_stats_two_agents_hand_values():
    pop = build(total=2, households={"single": 1.0, "couple": 0.0, "with_children": 0.0})
    pop.bmi[:] = 20.0, 30.0
    stats = population_stats(pop)
    assert stats.bmi_mean == 25.0
    assert stats.bmi_sd == 5.0


def test_stats_identical_values_zero_sd():
    pop = build(total=5)
    pop.sbp[:] = 120.0
    stats = population_stats(pop)
    assert stats.sbp_sd == 0.0


def test_stats_match_streaming_second_pass():
    pop = build(total=3000)
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band()]), np.random.default_rng(1))
    stats = PopulationArrays.from_population(pop).stats

    # independent streaming (Welford) recomputation
    count, m, m2 = 0, 0.0, 0.0
    for a in pop.agents:
        count += 1
        delta = a.sbp - m
        m += delta / count
        m2 += delta * (a.sbp - m)
    assert stats.sbp_mean == pytest.approx(m, rel=1e-9)
    assert stats.sbp_sd == pytest.approx(math.sqrt(m2 / count), rel=1e-9)


# --- CSV round trip ---


def test_csv_round_trip_is_exact(tmp_path):
    pop = build(total=120)
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band()]), np.random.default_rng(4))
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)

    back = read_population_csv(path)
    assert len(back) == len(pop)
    for a, b in zip(pop.agents, back.agents):
        assert (a.id, a.age, a.sex, a.region, a.employment, a.household_id) == (
            b.id, b.age, b.sex, b.region, b.employment, b.household_id)
        assert (a.sbp, a.dbp, a.bmi) == (b.sbp, b.dbp, b.bmi)
        assert (a.diabetes, a.afib, a.smoker, a.cigs_per_day) == (
            b.diabetes, b.afib, b.smoker, b.cigs_per_day)
    # one str object per distinct text value, as synthesis stores them
    for name in ("sex", "region", "employment"):
        column = getattr(back, name).tolist()
        assert len(set(map(id, column))) == len(set(column))
    # the same members under each household_id (the file indexes households
    # by first row, synthesis in draw order), with the same types
    assert back.households == pop.households
    assert types_by_id(back) == types_by_id(pop)
    assert (back.household_type[back.household] == pop.household_type[pop.household]).all()


@pytest.mark.parametrize("source", ["built", "read_back"])
def test_households_group_the_agents_by_household_id(bundled_population, tmp_path, source):
    pop = bundled_population[1]
    if source == "read_back":
        write_population_csv(pop, tmp_path / "pop.csv")
        pop = read_population_csv(tmp_path / "pop.csv")
    grouped = {}
    for agent_id, hid in zip(pop.id.tolist(), pop.household_id.tolist()):
        grouped.setdefault(hid, []).append(agent_id)
    households = pop.households
    assert {hid: sorted(ids) for hid, ids in households.items()} == grouped
    # keys in household order: household h's key is the household_id of its rows
    labels = np.empty(len(pop.household_type), dtype=np.int64)
    labels[pop.household] = pop.household_id
    assert list(households) == labels.tolist()
    # each household index holds one household_id, and each id one index
    assert len(set(zip(pop.household.tolist(), pop.household_id.tolist()))) == len(grouped)


def test_csv_write_deterministic_bytes(tmp_path):
    spec = DemographicSpec(regions=[region()], total_agents=80)
    tables = RiskFactorTables(bands=[flat_band()])
    paths = []
    for name in ("one.csv", "two.csv"):
        rng = np.random.default_rng(derive_seed(123))
        pop = build_population(spec, rng)
        assign_risk_factors(pop, tables, rng)
        path = tmp_path / name
        write_population_csv(pop, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,age\n1,40\n")
    with pytest.raises(ConfigurationError, match="header"):
        read_population_csv(path)
    # a header field longer than the csv module's default field limit
    limit = csv.field_size_limit()
    path.write_text("id," + "a" * (limit + 1) + "\n1,40\n")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"population csv {path}: unexpected header ['id', 'aaa")):
        read_population_csv(path)
    assert csv.field_size_limit() == limit


def test_csv_rejects_the_old_nineteen_column_header(tmp_path):
    # files from before daily_risk and the never-set columns were dropped
    old = [*CSV_COLUMNS, "daily_risk", "remaining_life_expectancy",
           "notified_high_risk", "risk_reduced"]
    path = tmp_path / "old.csv"
    path.write_text(",".join(old) + "\n" + ",".join(["0"] * len(old)) + "\n")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"population csv {path}: unexpected header {old}")):
        read_population_csv(path)


def test_agent_and_population_store_each_fact_once():
    # daily risk and the baseline stats are derived; nothing else is stored twice
    assert [f.name for f in fields(Agent)] == [
        "id", "age", "sex", "region", "household_id", "employment", "sbp", "dbp", "bmi",
        "diabetes", "afib", "smoker", "cigs_per_day", "five_year_risk"]
    assert list(COLUMN_TYPES) == [f.name for f in fields(Agent)]
    assert [f.name for f in fields(Population)] == [
        *COLUMN_TYPES, "household", "household_type"]
    assert CSV_COLUMNS == [
        "id", "age", "sex", "region", "employment", "household_id", "household_type",
        "sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day", "five_year_risk"]


def test_read_back_population_drives_the_engine_identically(tmp_path):
    # the file numbers households by first row, synthesis in draw order.
    # Both must be the same households to the engine, in every scenario.
    pop = build(total=400, seed=21, households={"single": 0.2, "couple": 0.8})
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band(smoker_prev=0.4)]),
                        np.random.default_rng(22))
    write_population_csv(pop, tmp_path / "pop.csv")
    back = read_population_csv(tmp_path / "pop.csv")
    ens = EnsembleRiskModel([LogisticModel(0, 200, -10.0, {"sbp": 0.06, "smoker": 0.5})],
                            [WeightRow(0, 200, [1.0])])
    life = LifeTable(ages=[35, 110], female=[48.0, 1.0], male=[45.0, 1.0])
    models = [prepare(PopulationArrays.from_population(p), ens, DelayModel.default(),
                      SeverityDistribution.default(), OddsRatioTable.default(), life,
                      SimulationConfig(horizon_days=3650))
              for p in (pop, back)]
    for kind in Scenario:
        built, read = (run_replication(model, 5, kind) for model in models)
        assert built.stroke_day.tolist() == read.stroke_day.tolist()
        assert built.severity.tolist() == read.severity.tolist()
        assert built.total_dalys == read.total_dalys
        assert (built.total_strokes, built.conversations, built.risk_reductions,
                built.family_reductions) == (read.total_strokes, read.conversations,
                                             read.risk_reductions, read.family_reductions)
        assert built.total_strokes > 0
        if kind is Scenario.CONVERSATIONS_PLUS_FAMILY:
            assert built.family_reductions > 0


def test_csv_daily_risk_is_derived_from_five_year_risk(tmp_path):
    pop = build(total=50)
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band()]), np.random.default_rng(3))
    pop.five_year_risk = np.random.default_rng(9).uniform(0.0, 0.4, len(pop))
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    back = read_population_csv(path)
    assert DAYS_PER_FIVE_YEARS == 1826
    for a, b in zip(pop.agents, back.agents):
        assert b.five_year_risk == a.five_year_risk
        assert b.daily_risk == b.five_year_risk / 1826


def test_csv_writer_rejects_a_household_without_a_type(tmp_path):
    pop = build(total=6)
    pop.household_type = pop.household_type[:-1]
    path = tmp_path / "pop.csv"
    with pytest.raises(IndexError):
        write_population_csv(pop, path)
    assert not path.exists()


def _corrupt_row(tmp_path, column, value):
    """A written population CSV whose third line (second agent) has one cell
    replaced, or dropped when ``value`` is None."""
    pop = build(total=6)
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band()]), np.random.default_rng(4))
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    i = CSV_COLUMNS.index(column)
    if value is None:
        del cells[i]
    else:
        cells[i] = value
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("column, value, message", [
    ("five_year_risk", None, "14 fields, expected 15"),
    ("sbp", "high", "sbp = 'high', expected a number"),
    ("age", "4O", "age = '4O', expected an integer"),
    ("household_id", "", "household_id = '', expected an integer"),
    ("diabetes", "2", "diabetes = '2', expected 0 or 1"),
    ("smoker", "True", "smoker = 'True', expected 0 or 1"),
    ("id", "0", "id = '0' repeats line 2"),
    ("household_type", "triple",
     "household_type = 'triple', expected one of 'single', 'couple', 'with_children'"),
    # numpy's parser takes no float in an int column, and no underscore or
    # non-ASCII digit, which Python's int() and float() take
    ("age", "40.0", "age = '40.0', expected an integer"),
    ("age", "4_0", "age = '4_0', expected an integer"),
    ("age", "\u0664\u0660", "age = '\u0664\u0660', expected an integer"),
    ("sbp", "1_5.5", "sbp = '1_5.5', expected a number"),
], ids=["field_count", "non_numeric_float", "non_numeric_int", "empty_int", "flag_2",
        "flag_word", "repeated_id", "unknown_household_type", "float_in_int_column",
        "underscore_int", "arabic_indic_digits", "underscore_float"])
def test_csv_rejects_malformed_row_naming_file_and_line(tmp_path, column, value, message):
    path = _corrupt_row(tmp_path, column, value)
    where = re.escape(f"population csv {path}, line 3: {message}")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)


def test_csv_rejects_an_integer_beyond_64_bits(tmp_path):
    # the columns are int64, so the cell is bad like any other that does not parse
    path = _corrupt_row(tmp_path, "household_id", str(2**63))
    where = re.escape(f"population csv {path}, line 3: "
                      "household_id = '9223372036854775808', expected an integer")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)


@pytest.mark.parametrize("column, value, message", [
    ("age", "4O", "age = '4O', expected an integer"),
    ("id", "0", "id = '0' repeats line 2"),
    ("household_id", "{}",
     "household_id = '{}' has more members than a 'single' household holds (1)"),
], ids=["bad_cell", "repeated_id", "over_full_household"])
def test_csv_rejects_a_fault_past_the_first_block(tmp_path, column, value, message):
    # line 5000 lies in the second block of rows numpy's parser reads; "{}"
    # stands for the household_id on line 2
    pop = build(total=6000, households={"single": 1.0})
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    line_2 = lines[1].split(",")[CSV_COLUMNS.index("household_id")]
    cells = lines[4999].split(",")
    cells[CSV_COLUMNS.index(column)] = value.format(line_2)
    lines[4999] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    where = re.escape(f"population csv {path}, line 5000: {message.format(line_2)}")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)


def test_csv_rejects_a_bad_cell_counting_physical_lines(tmp_path):
    # agent 1's region spans lines 3 and 4, so agent 2 is on line 5
    pop = build(total=6)
    pop.region[1] = "two\nlines"
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    rows = path.read_bytes().decode("utf-8").split("\r\n")  # one agent each
    cells = rows[3].split(",")
    cells[CSV_COLUMNS.index("sbp")] = "high"
    rows[3] = ",".join(cells)
    path.write_bytes("\r\n".join(rows).encode("utf-8"))
    where = re.escape(f"population csv {path}, line 5: sbp = 'high', expected a number")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)


def test_csv_reads_and_rejects_past_a_field_beyond_the_csv_limit(tmp_path):
    # agent 1's region on line 3 is longer than the csv module's default
    # field limit, which numpy's parser does not have: the file reads, and a
    # bad cell on line 5 is named like any other; the limit is restored
    limit = csv.field_size_limit()
    pop = build(total=6)
    pop.region[1] = "r" * 200_000
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    assert read_population_csv(path).region.tolist() == pop.region.tolist()
    assert csv.field_size_limit() == limit
    rows = path.read_bytes().decode("utf-8").split("\r\n")  # one agent each
    cells = rows[4].split(",")
    cells[CSV_COLUMNS.index("age")] = "4O"
    rows[4] = ",".join(cells)
    path.write_bytes("\r\n".join(rows).encode("utf-8"))
    where = re.escape(f"population csv {path}, line 5: age = '4O', expected an integer")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)
    assert csv.field_size_limit() == limit


def _numpy_reads(cell, dtype):
    """Whether numpy's parser reads ``cell`` as a ``dtype``."""
    try:
        np.loadtxt(io.StringIO(f'"{cell}"'), dtype, delimiter=",", quotechar='"',
                   comments=None, ndmin=1)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("column, cell", [
    *((column, cell) for column in ("age", "sbp") for cell in (
        " 40 ", "+40", "-0", "007", "\t40", "40\u2003", "\x1c40", "\xa040", "4 0", "4\u20030",
        "40\x00", "- 4", "4_0", "\u0664\u0660", "40.0", "1e3", "", " ", "0x10")),
    *(("id", cell) for cell in ("9223372036854775807", "-9223372036854775808",
                                "9223372036854775808", "-9223372036854775809")),
    *(("sbp", cell) for cell in ("inf", "-Infinity", "nan", "1e500", ".5", "5.", "1.5f",
                                 "1_5.5", "1.\u20035", "+.5e-3", "1d5")),
])
def test_csv_names_a_bad_cell_where_numpy_rejects_it(tmp_path, column, cell):
    # the bad cell goes on line 3, a repeated id on line 6: the error names
    # line 3 exactly when numpy's parser rejects the cell
    pop = build(total=6)
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    for line, name, value in ((3, column, f'"{cell}"'), (6, "id", "0")):
        cells = lines[line - 1].split(",")
        cells[CSV_COLUMNS.index(name)] = value
        lines[line - 1] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    if _numpy_reads(cell, COLUMN_TYPES[column]):
        message = "line 6: id = '0' repeats line 2"
    else:
        expected = "an integer" if COLUMN_TYPES[column] is np.int64 else "a number"
        message = f"line 3: {column} = {cell!r}, expected {expected}"
    where = re.escape(f"population csv {path}, {message}")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)


@pytest.mark.parametrize("line", [2, 400])
def test_csv_rejects_text_that_is_not_utf8_naming_file_and_line(tmp_path, line):
    # a latin-1 region cell; line 400 lies beyond the first block a text
    # reader decodes, so its number is not the reader's
    pop = build(total=500)
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    rows = path.read_bytes().split(b"\n")
    cells = rows[line - 1].split(b",")
    cells[CSV_COLUMNS.index("region")] = "Dún".encode("latin-1")
    rows[line - 1] = b",".join(cells)
    path.write_bytes(b"\n".join(rows))
    where = re.escape(f"population csv {path}, line {line}: byte 0xfa is not UTF-8")
    with pytest.raises(ConfigurationError, match=f"{where}$"):
        read_population_csv(path)


def test_csv_rejects_inconsistent_households(tmp_path):
    # agents 2 and 5 (lines 4 and 7) share a couple; agent 0 (line 2) lives alone
    pop = build(total=6)
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]  # line n: rows[n - 1]
    hid, htype = CSV_COLUMNS.index("household_id"), CSV_COLUMNS.index("household_type")
    assert [rows[i][htype] for i in (1, 3, 6)] == ["single", "couple", "couple"]
    assert rows[3][hid] == rows[6][hid] != rows[1][hid]

    def rejects(line, column, value, message):
        cells = [list(r) for r in rows]
        cells[line - 1][CSV_COLUMNS.index(column)] = value
        path.write_text("\n".join(",".join(r) for r in cells) + "\n")
        where = re.escape(f"population csv {path}, line {line}: {message}")
        with pytest.raises(ConfigurationError, match=f"{where}$"):
            read_population_csv(path)

    couple = rows[3][hid]
    rejects(7, "household_type", "single",
            f"household_type = 'single', but household_id {couple} is 'couple' on an earlier line")
    alone = rows[1][hid]
    rejects(3, "household_id", alone,
            f"household_id = '{alone}' has more members than a 'single' household holds (1)")


def test_csv_skips_blank_lines(tmp_path):
    pop = build(total=4)
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band()]), np.random.default_rng(4))
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    path.write_text(path.read_text() + "\n")
    assert read_population_csv(path).agents == pop.agents


# --- the bundled spec at scale ---


# --- the row-by-row writer ---
#
# `write_population_csv` formats a column at a time.  This is the writer it
# replaced, one `csv.writer` row per agent; the two must write the same bytes.


def reference_write_population_csv(pop, path):
    household_types = types_by_id(pop)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for a in pop.agents:
            writer.writerow([
                a.id, a.age, a.sex, a.region, a.employment, a.household_id,
                household_types[a.household_id],
                repr(a.sbp), repr(a.dbp), repr(a.bmi),
                int(a.diabetes), int(a.afib), int(a.smoker), a.cigs_per_day,
                repr(a.five_year_risk),
            ])


def assert_writes_like_the_row_writer(pop, tmp_path):
    column, row = tmp_path / "column.csv", tmp_path / "row.csv"
    write_population_csv(pop, column)
    reference_write_population_csv(pop, row)
    assert column.read_bytes() == row.read_bytes()
    for path in (column, row):
        back = read_population_csv(path)
        assert back.agents == pop.agents
        assert types_by_id(back) == types_by_id(pop)


# a comma, a double quote, a newline, a leading space, nothing, non-ASCII text
# and a trailing NUL (which numpy's fixed-width str would drop)
AWKWARD_TEXT = ["north,east", 'the "west"', "two\nlines", " leading", "", "Dún Laoghaire",
                "r\x00"]


def awkward_population(total=90):
    """A population whose regions and employment categories are `AWKWARD_TEXT`."""
    share = 1 / len(AWKWARD_TEXT)
    spec = DemographicSpec(regions=[
        region(name=name, share=share, employment=dict.fromkeys(AWKWARD_TEXT, share))
        for name in AWKWARD_TEXT
    ], total_agents=total)
    rng = np.random.default_rng(11)
    pop = build_population(spec, rng)
    assign_risk_factors(pop, RiskFactorTables(bands=[flat_band()]), rng)
    pop.five_year_risk = rng.uniform(0.0, 0.5, len(pop))
    return pop


def test_column_writer_quotes_text_like_the_row_writer(tmp_path):
    pop = awkward_population()
    assert {a.region for a in pop.agents} == set(AWKWARD_TEXT)
    assert {a.employment for a in pop.agents} == set(AWKWARD_TEXT)
    assert_writes_like_the_row_writer(pop, tmp_path)


def test_column_writer_writes_an_empty_population_as_its_header(tmp_path):
    assert_writes_like_the_row_writer(population_from_agents([], {}, {}), tmp_path)


def test_column_writer_matches_the_row_writer_on_the_bundled_population(
        bundled_population, tmp_path):
    _, built = bundled_population
    pop = replace(built, five_year_risk=np.random.default_rng(12).uniform(0.0, 0.5, len(built)))
    assert_writes_like_the_row_writer(pop, tmp_path)


# --- the row-by-row reader ---
#
# `read_population_csv` reads a block of rows at a time with numpy's parser
# and checks the columns.  This is the reader it replaced, one `csv.reader`
# row per agent; on the files below the two must return the same columns,
# or reject with the same message.


def reference_read_population_csv(path):
    cells = {name: [] for name in COLUMN_TYPES}
    households = {}  # household_id -> [index, type, members so far]
    household = []  # each row's household index
    line_of = {}  # agent id -> its line
    flag = {"0": False, "1": True}.__getitem__
    shared = {}.setdefault  # one str per distinct text value
    parsers = {**dict.fromkeys(("id", "age", "household_id", "cigs_per_day"), (int, "an integer")),
               **dict.fromkeys(("sbp", "dbp", "bmi", "five_year_risk"), (float, "a number")),
               **dict.fromkeys(("diabetes", "afib", "smoker"), (flag, "0 or 1"))}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)

        def error(message):
            return ConfigurationError(f"population csv {path}, line {reader.line_num}: {message}")

        def bad_cell(row):
            for name, cell in zip(CSV_COLUMNS, row):
                parse, expected = parsers.get(name, (str, ""))
                try:
                    parse(cell)
                except (ValueError, KeyError):
                    return f"{name} = {cell!r}, expected {expected}"

        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ConfigurationError(f"population csv {path}: unexpected header {header}")
        for row in reader:
            if not row:  # blank line
                continue
            if len(row) != len(CSV_COLUMNS):
                raise error(f"{len(row)} fields, expected {len(CSV_COLUMNS)}")
            (aid, age, sex, region, employment, hid, htype, sbp, dbp, bmi, diabetes, afib,
             smoker, cigs, five_year) = row
            try:  # in `COLUMN_TYPES` order
                values = (int(aid), int(age), shared(sex, sex), shared(region, region),
                          int(hid), shared(employment, employment), float(sbp), float(dbp),
                          float(bmi), flag(diabetes), flag(afib), flag(smoker), int(cigs),
                          float(five_year))
            except (ValueError, KeyError):
                raise error(bad_cell(row)) from None
            agent_id, household_id = values[0], values[4]
            if agent_id in line_of:
                raise error(f"id = {aid!r} repeats line {line_of[agent_id]}")
            size = HOUSEHOLD_SIZES.get(htype)
            if size is None:
                raise error(f"household_type = {htype!r}, expected one of "
                            f"{', '.join(map(repr, HOUSEHOLD_SIZES))}")
            entry = households.get(household_id)
            if entry is None:
                households[household_id] = entry = [len(households), shared(htype, htype), 0]
            elif entry[1] != htype:
                raise error(f"household_type = {htype!r}, but household_id {hid} is "
                            f"{entry[1]!r} on an earlier line")
            if entry[2] == size:
                raise error(f"household_id = {hid!r} has more members than a {htype!r} "
                            f"household holds ({size})")
            entry[2] += 1
            line_of[agent_id] = reader.line_num
            for column, value in zip(cells.values(), values):
                column.append(value)
            household.append(entry[0])
    return Population(**{name: np.array(cells[name], dtype=dtype)
                         for name, dtype in COLUMN_TYPES.items()},
                      household=np.array(household, dtype=np.int64),
                      household_type=np.array([t for _, t, _ in households.values()],
                                              dtype=object))


def assert_reads_like_the_row_reader(path):
    """Both readers return the same columns, typed alike, with one str per
    distinct text value, and the population is returned; or both reject
    ``path`` with the same message."""
    try:
        expected = reference_read_population_csv(path)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(exc))}$"):
            read_population_csv(path)
        return None
    got = read_population_csv(path)
    for f in fields(Population):
        column, reference = getattr(got, f.name), getattr(expected, f.name)
        assert column.dtype == reference.dtype, f.name
        assert column.tolist() == reference.tolist(), f.name
    for name in ("sex", "region", "employment", "household_type"):
        column = getattr(got, name).tolist()
        assert len(set(map(id, column))) == len(set(column))
    return got


def _rewrite(path, new, edit):
    """``new``, a copy of the CSV at ``path`` with its text passed through ``edit``."""
    new.write_bytes(edit(path.read_bytes().decode("utf-8")).encode("utf-8"))
    return new


def _number_cells(text):
    """Ages written as ` 40 `, `+40` and `"40"`, and an sbp as ` 1.5e2`, on
    the first four rows with no quoted cell."""
    lines = text.split("\r\n")
    plain = [i for i, line in enumerate(lines[1:-1], 1) if '"' not in line]
    for i, (column, cell) in zip(plain, [("age", " 40 "), ("age", "+40"), ("age", '"40"'),
                                         ("sbp", " 1.5e2")]):
        cells = lines[i].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[i] = ",".join(cells)
    return "\r\n".join(lines)


def _blank_lines(text):
    """Blank lines after the header, around the second read block, and at the end."""
    lines = text.split("\r\n")
    for line in (4098, 4097, 2):
        lines.insert(min(line, len(lines)) - 1, "")
    return "\r\n".join(lines) + "\n\n"


@pytest.mark.parametrize("edit", [None, "cr_only", "blank_lines", "number_cells"])
@pytest.mark.parametrize("source", ["awkward", "bundled", "two_blocks"])
def test_reader_matches_the_row_reader(bundled_population, tmp_path, source, edit):
    if source == "awkward":
        pop = awkward_population()
    elif source == "bundled":
        pop = bundled_population[1]
    else:  # two blocks and one row, with two-line text cells either side of the first boundary
        pop = awkward_population(total=2 * 4096 + 1)
        pop.region[4095:4097] = "two\nlines"
        pop.employment[4096] = "lone\rreturn"
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    if edit is not None:
        path = _rewrite(path, tmp_path / f"{edit}.csv", {
            "cr_only": lambda text: text.replace("\r\n", "\r"),
            "blank_lines": _blank_lines, "number_cells": _number_cells}[edit])
    assert len(assert_reads_like_the_row_reader(path)) == len(pop)


@pytest.fixture(scope="module")
def bundled_population():
    spec, tables = load_population_file("strokesim:population_ie.json")
    rng = np.random.default_rng(derive_seed(42))
    pop = build_population(spec, rng)
    assign_risk_factors(pop, tables, rng)
    return spec, pop


@pytest.mark.parametrize("source", ["built", "read_back"])
def test_agent_rows_are_a_view_of_the_columns(bundled_population, tmp_path, source):
    _, built = bundled_population
    pop = replace(built, five_year_risk=np.random.default_rng(5).uniform(0.0, 0.5, len(built)))
    if source == "read_back":
        write_population_csv(pop, tmp_path / "pop.csv")
        pop = read_population_csv(tmp_path / "pop.csv")
    rows = pop.agents
    assert population_features(pop).tobytes() == feature_matrix(rows).tobytes()
    python_type = {"int64": int, "float64": float, "bool": bool, "object": str}
    for name, dtype in COLUMN_TYPES.items():
        column, values = getattr(pop, name), [getattr(a, name) for a in rows]
        assert column.dtype == dtype
        assert values == column.tolist()
        assert {type(v) for v in values} == {python_type[column.dtype.name]}
    assert [a.daily_risk for a in rows] == (pop.five_year_risk / DAYS_PER_FIVE_YEARS).tolist()
    # built at each read and kept nowhere
    rows[0].sbp = -1.0
    assert pop.agents is not rows and pop.agents[0].sbp == pop.sbp[0] != -1.0


def test_bundled_population_heads(bundled_population):
    spec, pop = bundled_population
    assert len(pop) == 22119
    assert spec.scale_factor == 100


def test_bundled_population_marginals_within_apportionment_error(bundled_population):
    spec, pop = bundled_population
    by_region = {}
    for a in pop.agents:
        by_region.setdefault(a.region, []).append(a)
    for r in spec.regions:
        agents = by_region[r.name]
        assert abs(len(agents) - r.share * len(pop)) < len(spec.regions)
        females = sum(1 for a in agents if a.sex == "female")
        assert abs(females - r.sex["female"] * len(agents)) <= len(r.sex)
        for label, p in r.age_bands.items():
            lo, hi = parse_age_range(label)
            got = sum(1 for a in agents if lo <= a.age <= hi)
            assert abs(got - p * len(agents)) <= len(r.age_bands)


def test_bundled_population_household_sizes(bundled_population):
    _, pop = bundled_population
    sizes = {}
    for members in pop.households.values():
        sizes[len(members)] = sizes.get(len(members), 0) + 1
    assert set(sizes) <= {1, 2}
    # most agents live in two-person households under the bundled mix
    in_pairs = 2 * sizes.get(2, 0) / len(pop)
    assert 0.7 < in_pairs < 0.95


# --- the per-agent reference ---
#
# `build_population` and `assign_risk_factors` draw in bulk, into columns.
# These are the per-agent forms they replaced (one generator call per agent,
# household or band field, filling `Agent` rows); the columns must hold the
# rows' values and leave the generator in the same state.


def _reference_spread(rng, counts):
    out = []
    for label, count in counts.items():
        out.extend([label] * count)
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


def reference_build_population(spec, rng):
    """Agent rows, household members and household types."""
    spec.validate()
    region_counts = apportion(spec.total_agents, {r.name: r.share for r in spec.regions})
    agents, households, household_types = [], {}, {}
    next_agent = next_household = 0
    for reg in spec.regions:
        n = region_counts[reg.name]
        if n == 0:
            continue
        sexes = _reference_spread(rng, apportion(n, reg.sex))
        bands = _reference_spread(rng, apportion(n, reg.age_bands))
        jobs = _reference_spread(rng, apportion(n, reg.employment))
        region_agents = []
        for sex, band_label, job in zip(sexes, bands, jobs):
            lo, hi = parse_age_range(band_label)
            age = int(rng.integers(lo, hi + 1))
            region_agents.append(Agent(id=next_agent, age=age, sex=sex, region=reg.name,
                                       household_id=-1, employment=job))
            next_agent += 1
        agents.extend(region_agents)
        jitter = rng.uniform(0.0, 6.0, size=n)
        pool = sorted(range(n), key=lambda i: (region_agents[i].age + jitter[i]))
        type_labels = list(reg.households)
        type_probs = np.array([reg.households[t] for t in type_labels])
        cursor = 0
        while cursor < n:
            htype = type_labels[int(rng.choice(len(type_labels), p=type_probs))]
            size = min(HOUSEHOLD_SIZES[htype], n - cursor)
            members = [region_agents[pool[cursor + k]].id for k in range(size)]
            for agent_id in members:
                agents[agent_id].household_id = next_household
            households[next_household] = members
            household_types[next_household] = htype
            next_household += 1
            cursor += size
    return agents, households, household_types


def reference_assign_risk_factors(agents, tables, rng):
    """Fill in the risk factors of ``agents``, rows built by the above."""
    tables.validate()
    for agent in agents:
        if not any(band.age_lo <= agent.age <= band.age_hi for band in tables.bands):
            raise ConfigurationError(f"no risk factor band covers age {agent.age}")
    for band in tables.bands:
        members = [a for a in agents if band.age_lo <= a.age <= band.age_hi]
        n = len(members)
        if n == 0:
            continue
        sbp = np.clip(rng.normal(band.sbp_mean, band.sbp_sd, n), *SBP_RANGE)
        dbp = np.clip(rng.normal(band.dbp_mean, band.dbp_sd, n), *DBP_RANGE)
        bmi = np.clip(rng.normal(band.bmi_mean, band.bmi_sd, n), *BMI_RANGE)
        for agent, s, d, b in zip(members, sbp, dbp, bmi):
            agent.sbp, agent.dbp, agent.bmi = float(s), float(d), float(b)
        for factor, prev in (("diabetes", band.diabetes_prev), ("afib", band.afib_prev),
                             ("smoker", band.smoker_prev)):
            marked = rng.permutation(n)[: round_half_up(prev * n)]
            for i in range(n):
                setattr(members[i], factor, False)
            for i in marked:
                setattr(members[int(i)], factor, True)
        cigs = max(1, round_half_up(band.cigs_per_day_mean))
        for agent in members:
            agent.cigs_per_day = cigs if agent.smoker else 0


def assert_same_synthesis(spec, tables, seed, primed=False):
    """Build and assign with the columns and with the reference rows from
    one seed; every column must hold the rows' values, of the rows' types,
    and the generator must end in the same state."""
    rngs = []
    for _ in range(2):
        rngs.append(np.random.default_rng(seed))
        if primed:  # leaves half of a uint32 pair cached in the bit generator
            rngs[-1].integers(0, 10)
    rng, ref_rng = rngs
    pop = build_population(spec, rng)
    households = {h: list(m) for h, m in pop.households.items()}
    agents, ref_households, ref_types = reference_build_population(spec, ref_rng)
    if tables is not None:
        assert assign_risk_factors(pop, tables, rng) is pop
        reference_assign_risk_factors(agents, tables, ref_rng)
    for name, dtype in COLUMN_TYPES.items():
        column, want = getattr(pop, name), [getattr(a, name) for a in agents]
        assert column.dtype == dtype
        assert column.tolist() == want
        # the CSV writes floats with repr, and True == 1
        assert list(map(type, column.tolist())) == list(map(type, want))
    assert pop.agents == agents
    # households are numbered in draw order, so each household index is its household_id
    assert pop.household.dtype == np.int64
    assert pop.household.tolist() == pop.household_id.tolist()
    assert pop.household_type.dtype == object
    assert list(map(type, pop.household_type.tolist())) == [str] * len(ref_types)
    assert pop.household_type.tolist() == list(ref_types.values())
    # the reference's members, in agent order (pool order is not kept)
    assert list(households.items()) == [(h, sorted(ms)) for h, ms in ref_households.items()]
    # the engine's stats, from the columns, equal the reference rows'
    ref = population_from_agents(agents, ref_households, ref_types)
    assert PopulationArrays.from_population(pop).stats == population_stats(ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return pop


MIXED_BANDS = RiskFactorTables(bands=[
    flat_band(age_lo=35, age_hi=54, sbp_mean=120.0, diabetes_prev=0.05, smoker_prev=0.3),
    flat_band(age_lo=55, age_hi=110, sbp_mean=150.0, afib_prev=0.11, cigs_per_day_mean=9.6),
])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("primed", [False, True], ids=["fresh", "primed"])
def test_batched_synthesis_matches_reference_over_regions(seed, primed):
    # region shares apportion 41 agents as 25 / 15 / 0 / 1
    spec = DemographicSpec(regions=[
        region(name="north", share=0.6),
        region(name="south", share=0.375,
               age_bands={"35-44": 0.2, "45-64": 0.5, "65+": 0.3}),
        region(name="empty", share=0.0),
        region(name="lone", share=0.025),
    ], total_agents=41)
    counts = apportion(41, {r.name: r.share for r in spec.regions})
    assert (counts["empty"], counts["lone"]) == (0, 1)
    pop = assert_same_synthesis(spec, MIXED_BANDS, seed, primed)
    assert {a.region for a in pop.agents} == {"north", "south", "lone"}


@pytest.mark.parametrize("households", [
    {"single": 1.0, "couple": 0.0, "with_children": 0.0},
    {"single": 0.0, "couple": 0.7, "with_children": 0.3},
    {"couple": 1.0},
], ids=["single_only", "no_singles", "couples_only"])
@pytest.mark.parametrize("total", [1, 2, 37, 500])
def test_batched_households_match_reference(households, total):
    spec = DemographicSpec(regions=[region(households=households)], total_agents=total)
    pop = assert_same_synthesis(spec, MIXED_BANDS, seed=total)
    if "single" not in households and total % 2:
        # an odd pool leaves the last household one member short
        assert np.bincount(pop.household)[-1] == 1
        assert HOUSEHOLD_SIZES[pop.household_type[-1]] == 2


@pytest.mark.parametrize("seed", [5, 6])
def test_batched_factors_match_reference_with_overlapping_bands(seed):
    spec = DemographicSpec(regions=[region()], total_agents=300)
    tables = RiskFactorTables(bands=[
        flat_band(age_lo=35, age_hi=70, smoker_prev=0.4, cigs_per_day_mean=20.0),
        flat_band(age_lo=60, age_hi=110, sbp_mean=160.0, smoker_prev=0.1, diabetes_prev=0.3),
        flat_band(age_lo=65, age_hi=66, bmi_mean=35.0, afib_prev=0.5),
        flat_band(age_lo=111, age_hi=120),  # covers nobody: no draws
    ])
    pop = assert_same_synthesis(spec, tables, seed)
    # the later band's draws stand where bands overlap
    overlap = [a for a in pop.agents if 60 <= a.age <= 70]
    assert overlap and all(a.cigs_per_day in (0, 14) for a in overlap)
    assert any(a.cigs_per_day == 20 for a in pop.agents if a.age < 60)


def test_batched_factors_report_first_uncovered_agent():
    pop = build(total=200)
    tables = RiskFactorTables(bands=[flat_band(age_lo=35, age_hi=60),
                                     flat_band(age_lo=70, age_hi=110)])
    first = next(a.age for a in pop.agents if 60 < a.age < 70)
    with pytest.raises(ConfigurationError, match=f"no risk factor band covers age {first}$"):
        assign_risk_factors(pop, tables, np.random.default_rng(0))


def test_batched_synthesis_matches_reference_on_bundled_config():
    spec, tables = load_population_file("strokesim:population_ie.json")
    assert_same_synthesis(spec, tables, derive_seed(42))
    small = replace(spec, total_agents=997)  # odd region sizes at a smaller scale
    assert_same_synthesis(small, tables, derive_seed(7))
