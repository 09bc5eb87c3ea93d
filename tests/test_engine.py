"""Replication engine: life table, sampling primitives, interventions, full runs."""

import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import strokesim.engine as engine
from strokesim.engine import (
    DALY_WEIGHTS,
    DISABILITY_WEIGHTS,
    DelayBand,
    DelayModel,
    LifeTable,
    OddsRatioRow,
    OddsRatioTable,
    OutcomeTable,
    PopulationArrays,
    RiskTables,
    SEVERITY_ORDER,
    Scenario,
    Severity,
    SeverityDistribution,
    SimulationConfig,
    StrokeOutcome,
    adjust_severity,
    compute_outcome,
    first_success_offset,
    _apply_reduction_rows,
    _conversation_rows,
    _current_risk,
    _first_success_offsets,
    _scheduled_rows,
    _spillover_rows,
    _stroke_dalys,
    _year_arrivals,
    build_risk_tables,
    prepare,
    run_replication,
    year_count,
    sample_delay,
    sample_severity,
)
from strokesim.config import load_experiment_file
from strokesim.errors import ConfigurationError
from strokesim.population import Agent, BaselineStats, assign_risk_factors, build_population
from strokesim.risk import (
    DAYS_PER_FIVE_YEARS,
    FEATURE_NAMES,
    EnsembleRiskModel,
    LogisticModel,
    WeightRow,
    feature_matrix,
    five_year_matrix,
)
from strokesim.seeds import derive_seed
from conftest import population_from_agents
from test_year_loop_oracle import full_width_tables, reference_replication


def agent(age=60, sex="male", household_id=0, **kwargs):
    params = dict(id=0, age=age, sex=sex, region="r",
                  household_id=household_id, employment="employed")
    params.update(kwargs)
    return Agent(**params)


def one_member(intercept, coefficients=None):
    ens = EnsembleRiskModel(
        models=[LogisticModel(age_lo=0, age_hi=200, intercept=intercept,
                              coefficients=coefficients or {})],
        weights=[WeightRow(age_lo=0, age_hi=200, weights=[1.0])],
    )
    ens.validate()
    return ens


def population_of(agents, household_types=None):
    households = {}
    for a in sorted(agents, key=lambda a: a.household_id):
        households.setdefault(a.household_id, []).append(a.id)
    types = household_types or {
        hid: "single" if len(m) == 1 else "couple" for hid, m in households.items()
    }
    return population_from_agents(agents, households, types)


class StubRng:
    """Feeds preset uniform and normal draws, in order."""

    def __init__(self, uniforms=(), normals=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        return np.array([self.uniforms.pop(0) for _ in range(size)])

    def normal(self, mean, sd, size=None):
        assert size is None
        return self.normals.pop(0)


# --- life table ---


def test_life_table_validate_errors():
    with pytest.raises(ConfigurationError, match="lengths"):
        LifeTable(ages=[50, 60], female=[30.0], male=[27.0, 20.0]).validate()
    with pytest.raises(ConfigurationError, match="increasing"):
        LifeTable(ages=[50, 50], female=[30.0, 30.0], male=[27.0, 27.0]).validate()
    with pytest.raises(ConfigurationError, match="negative"):
        LifeTable(ages=[50, 60], female=[30.0, -1.0], male=[27.0, 20.0]).validate()
    # LE collapsing faster than a year per year of age is rejected
    with pytest.raises(ConfigurationError, match="nondecreasing"):
        LifeTable(ages=[50, 60], female=[30.0, 15.0], male=[27.0, 20.0]).validate()


def test_life_table_interpolates_and_clamps():
    life = LifeTable(ages=[60, 70], female=[25.0, 17.0], male=[22.0, 15.0])
    life.validate()
    assert life.residual("female", 65) == 21.0
    assert life.residual("male", 65) == 18.5
    assert life.residual("female", 40) == 25.0   # clamp below
    assert life.residual("male", 95) == 15.0     # clamp above


def test_residual_array_matches_scalar():
    life = LifeTable(ages=[35, 60, 90], female=[48.0, 26.0, 5.0], male=[44.0, 23.0, 4.5])
    ages = np.array([35, 47, 60, 75, 90, 100])
    male = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    got = life.residual_array(male, ages)
    for i in range(len(ages)):
        sex = "male" if male[i] else "female"
        assert got[i] == life.residual(sex, int(ages[i]))


def test_residual_array_over_many_agents_matches_scalar():
    # many agents share each age, which the array form interpolates once
    life = LifeTable(ages=[35, 52, 60, 90], female=[48.3, 33.1, 26.7, 5.2],
                     male=[44.9, 30.3, 23.6, 4.5])
    rng = np.random.default_rng(4)
    ages = rng.integers(30, 115, 5000)
    male = (rng.random(ages.size) < 0.5).astype(float)
    got = life.residual_array(male, ages)
    for i in range(ages.size):
        assert got[i] == life.residual("male" if male[i] else "female", int(ages[i]))


def test_bundled_life_table_invariant_under_interpolation():
    from strokesim.config import load_life_table
    life = load_life_table("strokesim:life_table_ie.json")
    life.validate()
    for sex in ("female", "male"):
        prior = None
        for age in range(35, 111):
            total = age + life.residual(sex, age)
            if prior is not None:
                assert total >= prior - 1e-9
            prior = total


# --- config validation ---


def test_delay_model_validate_errors():
    DelayModel.default().validate()
    with pytest.raises(ConfigurationError, match="increase"):
        DelayModel([DelayBand(0.5, 0, 3, 1.5, 0.75), DelayBand(0.5, 3, 6, 4, 1)]).validate()
    with pytest.raises(ConfigurationError, match="exactly 1"):
        DelayModel([DelayBand(0.9, 0, math.inf, 1.5, 0.75)]).validate()
    with pytest.raises(ConfigurationError, match="contiguous"):
        DelayModel([DelayBand(0.5, 0, 3, 1.5, 0.75),
                    DelayBand(1.0, 4, math.inf, 8, 1)]).validate()
    with pytest.raises(ConfigurationError, match="sd"):
        DelayModel([DelayBand(1.0, 0, math.inf, 1.5, 0.0)]).validate()


def test_odds_table_validate_and_lookup():
    ors = OddsRatioTable.default()
    ors.validate()
    assert ors.row_for_delay(0.0).or_mrs_le1 == 1.66
    assert ors.row_for_delay(2.999).or_mrs_le1 == 1.66
    assert ors.row_for_delay(3.0).or_mrs_le1 == 1.15
    assert ors.row_for_delay(7.999).or_mrs_ge2 == 0.98
    assert ors.row_for_delay(8.0).or_mrs_le1 == 1.0
    assert ors.row_for_delay(1e9).or_mrs_ge2 == 1.0

    with pytest.raises(ConfigurationError, match="reference"):
        OddsRatioTable([OddsRatioRow(0.0, math.inf, 1.5, 1.2)]).validate()
    with pytest.raises(ConfigurationError, match="contiguous"):
        OddsRatioTable([OddsRatioRow(0, 3, 1.66, 1.73),
                        OddsRatioRow(4, math.inf, 1.0, 1.0)]).validate()
    with pytest.raises(ConfigurationError, match="> 0"):
        OddsRatioTable([OddsRatioRow(0, math.inf, 0.0, 1.0)]).validate()


def test_severity_distribution_validate():
    SeverityDistribution.default().validate()
    with pytest.raises(ConfigurationError, match="sum"):
        SeverityDistribution(0.5, 0.5, 0.5, 0.0).validate()
    with pytest.raises(ConfigurationError, match="outside"):
        SeverityDistribution(1.2, -0.2, 0.5, 0.5).validate()


def test_simulation_config_validate():
    SimulationConfig().validate()
    with pytest.raises(ConfigurationError, match="high_risk_threshold"):
        SimulationConfig(high_risk_threshold=0.0).validate()
    with pytest.raises(ConfigurationError, match="ascending"):
        SimulationConfig(conversation_ages=(60, 50)).validate()
    with pytest.raises(ConfigurationError, match="horizon"):
        SimulationConfig(horizon_days=0).validate()
    with pytest.raises(ConfigurationError, match="bmi_reduction"):
        SimulationConfig(bmi_reduction_sd_fraction=-0.1).validate()


# --- geometric skip sampling ---


def test_first_success_offset_hand_cases():
    # floor(log(1-u)/log(1-p)) with p = 0.5: u = 0.6 lands on day 1, u = 0.4 on day 0
    assert first_success_offset(0.5, 0.6, 365) == 1
    assert first_success_offset(0.5, 0.4, 365) == 0
    assert first_success_offset(0.0, 0.99, 365) is None
    assert first_success_offset(-0.1, 0.5, 365) is None
    assert first_success_offset(1.0, 0.0, 365) == 0
    assert first_success_offset(1.5, 0.99, 365) == 0
    # ln(0.01)/ln(0.99) = 458.2: outside a one-year window, inside a longer one
    assert first_success_offset(0.01, 0.99, 365) is None
    assert first_success_offset(0.01, 0.99, 1000) == 458


def test_first_success_offset_is_inverse_transform():
    # offset k iff (1-p)^k >= 1-u > (1-p)^(k+1)
    rng = np.random.default_rng(21)
    for _ in range(500):
        p = float(rng.uniform(1e-6, 0.999))
        u = float(rng.uniform(0.0, 0.999999))
        k = first_success_offset(p, u, 10**9)
        assert (1.0 - p) ** k >= (1.0 - u) > (1.0 - p) ** (k + 1)


def test_vector_offsets_match_scalar():
    rng = np.random.default_rng(33)
    p = np.concatenate([[0.0, 1.0, 2.0, -0.5, 1.0, 1e-300], rng.uniform(1e-8, 0.99, 100)])
    u = np.concatenate([[0.5, 0.5, 0.5, 0.5, 1.0, 0.5], rng.uniform(0.0, 0.9999, 100)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rows outside the closed form are set quietly
        out = _first_success_offsets(p, u)
    assert out[:5].tolist() == [np.inf, 0.0, 0.0, np.inf, 0.0]
    for i in range(5, p.size):
        scalar = first_success_offset(float(p[i]), float(u[i]), 10**400)  # no window: every offset
        assert out[i] == scalar


def test_skip_sample_consumes_one_uniform_even_at_zero_risk():
    assert (_first_success_offsets(np.zeros(3), np.array([0.0, 0.5, 0.99])) == np.inf).all()
    # a replication draws one uniform per stroke-free agent per year, whatever
    # the risk, so the stream layout does not depend on the scores
    pop = small_pop(n=5)
    rng = np.random.default_rng(5)
    result = run_replication(**run_args(pop, one_member(-60.0), horizon=3 * 365), rng=rng)
    assert result.total_strokes == 0
    ref = np.random.default_rng(5)
    ref.random(3 * 5)
    assert rng.random() == ref.random()


def test_skip_sample_distribution_matches_truncated_geometric():
    rng = np.random.default_rng(77)
    window = 50
    offsets = _first_success_offsets(np.full(40000, 0.05), rng.random(40000))
    counts = Counter(int(k) if k < window else None for k in offsets)
    p_none = (1 - 0.05) ** window
    assert counts[None] / 40000 == pytest.approx(p_none, abs=0.01)
    for k in (0, 1, 5, 20):
        expect = 0.05 * (1 - 0.05) ** k
        assert counts[k] / 40000 == pytest.approx(expect, abs=0.005)



@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-12, 1e-5, 0.01, 0.5, 1.0 - 2.0**-53, 1.0])
@pytest.mark.parametrize("window", [1, 365])
def test_arrival_candidate_bound_keeps_every_hit(p, window):
    # u at the year-hit boundary 1 - (1 - p)^window and a few ulps either
    # side: the bound drops no row the closed form puts inside the window,
    # and the candidates' offsets are the ones it gives over every row
    five_year = p * DAYS_PER_FIVE_YEARS
    daily = five_year / DAYS_PER_FIVE_YEARS
    edge = 1.0 - (1.0 - daily) ** window
    u = [edge]
    below = above = edge
    for _ in range(4):
        below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
        u += [below, above]
    u = np.array(sorted(x for x in u if 0.0 <= x < 1.0))
    every_row = _first_success_offsets(np.full(u.size, daily), u)
    at, offsets = _year_arrivals(np.full(u.size, five_year), u, window)
    assert at.tolist() == np.flatnonzero(every_row < window).tolist()
    assert offsets.tolist() == every_row[at].tolist()


def test_arrival_candidates_match_every_row_offsets():
    # engine-sized rows: five-year risks up to 0.9 and down to 1e-30, as
    # the tables can give, and one uniform each
    rng = np.random.default_rng(61)
    five_year = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 0.9, 50_000),
                                10.0 ** rng.uniform(-30, -1, 5_000)])
    u = np.concatenate([[0.0, 0.0], rng.random(five_year.size - 2)])
    for window in (1, 30, 365):
        every_row = _first_success_offsets(five_year / DAYS_PER_FIVE_YEARS, u)
        at, offsets = _year_arrivals(five_year, u, window)
        assert at.tolist() == np.flatnonzero(every_row < window).tolist()
        assert np.array_equal(offsets, every_row[at])
        assert at.size > 0


# --- arrival delay ---


def test_sample_delay_band_selection_boundaries():
    delay = DelayModel.default()
    # u exactly at a cumulative threshold stays in the lower band
    assert sample_delay(delay, StubRng([0.49], [2.0])) == 2.0
    assert sample_delay(delay, StubRng([0.4900001], [3.9])) == 3.9
    assert sample_delay(delay, StubRng([0.59], [3.8])) == 3.8
    assert sample_delay(delay, StubRng([0.79], [6.0])) == 6.0
    assert sample_delay(delay, StubRng([1.0], [15.5])) == 15.5


def test_sample_delay_clamps_into_band():
    delay = DelayModel.default()
    assert sample_delay(delay, StubRng([0.1], [-5.0])) == 0.0
    assert sample_delay(delay, StubRng([0.1], [10.0])) == 3.0
    # open last band caps at mean + 6 sd = 21
    assert sample_delay(delay, StubRng([0.95], [100.0])) == 21.0
    assert sample_delay(delay, StubRng([0.95], [5.0])) == 12.0


def test_sample_delay_frequencies():
    delay = DelayModel.default()
    rng = np.random.default_rng(11)
    draws = np.array([sample_delay(delay, rng) for _ in range(20000)])
    shares = [
        ((draws >= 0) & (draws < 3)).mean(),
        ((draws >= 3) & (draws < 4.5)).mean(),
        ((draws >= 4.5) & (draws < 12)).mean(),
        (draws >= 12).mean(),
    ]
    for got, want in zip(shares, (0.49, 0.10, 0.20, 0.21)):
        assert got == pytest.approx(want, abs=0.02)
    # interior means dodge the mass parked exactly on the clamp boundaries
    assert draws[(draws > 0) & (draws < 3)].mean() == pytest.approx(1.5, abs=0.05)
    assert draws[(draws > 12) & (draws < 21)].mean() == pytest.approx(15.0, abs=0.07)


# --- severity adjustment ---


def test_adjust_severity_reference_band_returns_same_object():
    base = SeverityDistribution.default()
    ors = OddsRatioTable.default()
    assert adjust_severity(base, 8.0, ors) is base
    assert adjust_severity(base, 24.0, ors) is base


def test_adjust_severity_fast_band_hand_values():
    out = adjust_severity(SeverityDistribution.default(), 1.0, OddsRatioTable.default())
    # odds(no) = 1.66 * 0.19/0.81; odds(modsev+death) = (0.46/0.54) / 1.73
    assert out.p_no == pytest.approx(0.2802559090101297, abs=1e-12)
    assert out.p_mild == pytest.approx(0.3898057751097957, abs=1e-12)
    assert out.p_modsev == pytest.approx(0.2653851671209295, abs=1e-12)
    assert out.p_death == pytest.approx(0.06455314875914503, abs=1e-12)
    # internal modsev:death ratio preserved
    assert out.p_modsev / out.p_death == pytest.approx(0.37 / 0.09, rel=1e-12)


def test_adjust_severity_middle_band_hand_values():
    out = adjust_severity(SeverityDistribution.default(), 5.0, OddsRatioTable.default())
    assert out.p_no == pytest.approx(0.21244530870199316, abs=1e-12)
    assert out.p_mild == pytest.approx(0.32253245110391054, abs=1e-12)
    assert out.p_modsev == pytest.approx(0.37403962798220786, abs=1e-12)
    assert out.p_death == pytest.approx(0.0909826122118884, abs=1e-12)


def test_adjust_severity_negative_mild_clamps_and_renormalizes():
    base = SeverityDistribution(0.5, 0.0, 0.4, 0.1)
    out = adjust_severity(base, 5.0, OddsRatioTable.default())
    assert out.p_mild == 0.0
    assert out.p_no == pytest.approx(0.5143437994126948, abs=1e-12)
    assert out.p_modsev == pytest.approx(0.3885249604698442, abs=1e-12)
    assert out.p_death == pytest.approx(0.09713124011746105, abs=1e-12)
    out.validate()


def test_adjust_severity_no_bad_mass():
    base = SeverityDistribution(0.6, 0.4, 0.0, 0.0)
    out = adjust_severity(base, 1.0, OddsRatioTable.default())
    assert out.p_no == pytest.approx(0.7134670487106017, abs=1e-12)
    assert out.p_mild == pytest.approx(0.28653295128939826, abs=1e-12)
    assert out.p_modsev == 0.0
    assert out.p_death == 0.0


def test_adjust_severity_degenerate_masses_pass_through():
    ors = OddsRatioTable.default()
    all_no = SeverityDistribution(1.0, 0.0, 0.0, 0.0)
    assert adjust_severity(all_no, 1.0, ors) is all_no
    all_bad = SeverityDistribution(0.0, 0.0, 0.5, 0.5)
    assert adjust_severity(all_bad, 1.0, ors) is all_bad


def test_adjust_severity_always_a_distribution():
    ors = OddsRatioTable.default()
    rng = np.random.default_rng(13)
    for _ in range(300):
        raw = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
        base = SeverityDistribution(*[float(x) for x in raw])
        out = adjust_severity(base, float(rng.uniform(0, 20)), ors)
        out.validate()


def test_fast_arrival_improves_outcomes():
    base = SeverityDistribution.default()
    fast = adjust_severity(base, 0.5, OddsRatioTable.default())
    assert fast.p_no > base.p_no
    assert fast.p_death < base.p_death


# --- severity draw ---


def test_sample_severity_thresholds():
    dist = SeverityDistribution.default()  # cum 0.19 / 0.54 / 0.91 / 1.0
    cases = [
        (0.18999, Severity.NO_DISABILITY),
        (0.19, Severity.MILD),
        (0.53999, Severity.MILD),
        (0.54, Severity.MODERATE_SEVERE),
        (0.90999, Severity.MODERATE_SEVERE),
        (0.91, Severity.DEATH),
        (0.99999, Severity.DEATH),
    ]
    for u, want in cases:
        assert sample_severity(dist, StubRng([u])) is want, u


def test_sample_severity_fallback_on_rounding():
    dist = SeverityDistribution(0.25, 0.25, 0.25, 0.25)
    assert sample_severity(dist, StubRng([1.0])) is Severity.DEATH


def test_sample_severity_frequencies():
    dist = SeverityDistribution.default()
    rng = np.random.default_rng(19)
    counts = Counter(sample_severity(dist, rng) for _ in range(20000))
    assert counts[Severity.NO_DISABILITY] / 20000 == pytest.approx(0.19, abs=0.015)
    assert counts[Severity.MILD] / 20000 == pytest.approx(0.35, abs=0.015)
    assert counts[Severity.MODERATE_SEVERE] / 20000 == pytest.approx(0.37, abs=0.015)
    assert counts[Severity.DEATH] / 20000 == pytest.approx(0.09, abs=0.015)


# --- the outcome kernel against the scalar oracles ---


def scalar_outcome(delay, sev, ors, rng):
    """One stroke's delay and severity from the scalar reference functions."""
    hours = sample_delay(delay, rng)
    return hours, sample_severity(adjust_severity(sev, hours, ors), rng)


def table_outcome(delay, sev, ors, rng):
    hours, k = OutcomeTable.build(delay, sev, ors).draw(rng)
    return hours, SEVERITY_ORDER[k]


def assert_same_draws(delay, sev, ors, uniforms, normals):
    """The kernel and the oracles give the same outcome and use every draw."""
    oracle, kernel = StubRng(uniforms, normals), StubRng(uniforms, normals)
    want = scalar_outcome(delay, sev, ors, oracle)
    assert table_outcome(delay, sev, ors, kernel) == want
    assert (oracle.uniforms, oracle.normals) == (kernel.uniforms, kernel.normals) == ([], [])
    return want


def cumulative(dist):
    """sample_severity's cumulative masses, summed in its order."""
    cum, out = 0.0, []
    for p in (dist.p_no, dist.p_mild, dist.p_modsev, dist.p_death):
        cum += p
        out.append(cum)
    return out


# (band uniform, normal) -> hours under the default delay model
DELAY_BOUNDARIES = [
    ((0.49, 2.0), 2.0),             # threshold exactly: the lower band
    ((0.4900001, 3.9), 3.9),
    ((0.59, 3.8), 3.8),
    ((0.79, 6.0), 6.0),
    ((1.0, 15.5), 15.5),            # the last threshold
    ((0.0, -5.0), 0.0),             # clamped to the first band's floor
    ((0.1, 10.0), 3.0),             # and to its top
    ((0.5, 1.0), 3.0),              # a band's floor
    ((0.7, 99.0), 12.0),            # a band's top
    ((0.95, 100.0), 21.0),          # the open band's cap, mean + 6 sd
    ((0.95, 5.0), 12.0),
    ((0.5, 3.0), 3.0),              # exactly on the odds-ratio bound 3.0
    ((0.7, 8.0), 8.0),              # exactly on the odds-ratio bound 8.0
    ((0.7, math.nextafter(8.0, 0.0)), math.nextafter(8.0, 0.0)),
]


@pytest.mark.parametrize("draws, hours", DELAY_BOUNDARIES)
def test_outcome_kernel_delay_boundaries(draws, hours):
    delay, sev, ors = DelayModel.default(), SeverityDistribution.default(), OddsRatioTable.default()
    u_band, normal = draws
    for u_sev in (0.0, 0.5, 0.999):
        got_hours, _ = assert_same_draws(delay, sev, ors, [u_band, u_sev], [normal])
        assert got_hours == hours


@pytest.mark.parametrize("hours", [1.0, 3.0, 5.0, 8.0, 13.0])
def test_outcome_kernel_severity_boundaries(hours):
    # u on each cumulative mass of the row's adjusted distribution, just
    # below it, and u = 1.0, which falls back on death
    delay, sev, ors = DelayModel.default(), SeverityDistribution.default(), OddsRatioTable.default()
    u_band = 0.3 if hours < 3.0 else 0.55 if hours < 4.5 else 0.7 if hours < 12.0 else 0.9
    cums = cumulative(adjust_severity(sev, hours, ors))
    cases = [0.0, 1.0] + cums[:3] + [math.nextafter(c, 0.0) for c in cums[:3]]
    seen = set()
    for u_sev in cases:
        got_hours, severity = assert_same_draws(delay, sev, ors, [u_band, u_sev], [hours])
        assert got_hours == hours
        seen.add(severity)
    assert seen == set(SEVERITY_ORDER)
    _, severity = assert_same_draws(delay, sev, ors, [u_band, 1.0], [hours])
    assert severity is Severity.DEATH


def test_outcome_kernel_hours_below_the_first_row_take_the_reference_row():
    # row_for_delay falls back on the last (reference) row below the first
    # row's delay_lo
    ors = OddsRatioTable([
        OddsRatioRow(1.0, 3.0, 1.66, 1.73),
        OddsRatioRow(3.0, 8.0, 1.15, 0.98),
        OddsRatioRow(8.0, math.inf, 1.0, 1.0),
    ])
    ors.validate()
    delay, sev = DelayModel.default(), SeverityDistribution.default()
    assert ors.row_for_delay(0.5) is ors.rows[-1]
    for hours in (0.0, 0.5, math.nextafter(1.0, 0.0), 1.0, 2.0):
        for u_sev in (0.189, 0.19, 0.3, 0.54, 0.6, 0.91, 0.95):
            assert_same_draws(delay, sev, ors, [0.2, u_sev], [hours])


def custom_outcome_models():
    """Bands whose odds-ratio rows split them, a first row starting above
    zero, a neutral middle row and a base whose mild mass clamps to 0."""
    delay = DelayModel([
        DelayBand(0.3, 0.0, 2.0, 1.0, 0.8),
        DelayBand(0.75, 2.0, 9.0, 5.0, 2.5),
        DelayBand(1.0, 9.0, math.inf, 11.0, 1.5),
    ])
    ors = OddsRatioTable([
        OddsRatioRow(0.5, 1.5, 3.0, 4.0),
        OddsRatioRow(1.5, 4.0, 1.0, 1.0),
        OddsRatioRow(4.0, 10.0, 0.8, 0.6),
        OddsRatioRow(10.0, math.inf, 1.0, 1.0),
    ])
    sev = SeverityDistribution(0.5, 0.02, 0.38, 0.1)
    for model in (delay, ors, sev):
        model.validate()
    return delay, sev, ors


def test_outcome_kernel_matches_oracles_over_a_seeded_stream():
    delay, sev, ors = custom_outcome_models()
    table = OutcomeTable.build(delay, sev, ors)
    oracle, kernel = np.random.default_rng(2024), np.random.default_rng(2024)
    rows = Counter()
    for _ in range(10_000):
        want_hours, want_severity = scalar_outcome(delay, sev, ors, oracle)
        hours, k = table.draw(kernel)
        assert (hours, SEVERITY_ORDER[k]) == (want_hours, want_severity)
        rows[ors.rows.index(ors.row_for_delay(hours))] += 1
    assert oracle.random() == kernel.random()  # the streams stay in step
    assert set(rows) == {0, 1, 2, 3}  # every row, the fallback below 0.5 included


def test_replication_matches_the_scalar_oracles_stroke_for_stroke(monkeypatch):
    delay, sev, ors = custom_outcome_models()
    pop = small_pop(n=200)
    args = run_args(pop, strong_ens(), Scenario.CONVERSATIONS_PLUS_FAMILY,
                    models=(delay, sev, ors), high_risk_threshold=0.2)

    def scalar_draw(self, rng):
        hours, severity = scalar_outcome(delay, sev, ors, rng)
        return hours, SEVERITY_ORDER.index(severity)

    fast = run_replication(**args, rng=17)
    with monkeypatch.context() as patch:
        patch.setattr(OutcomeTable, "draw", scalar_draw)
        slow = run_replication(**args, rng=17)
    assert fast.total_strokes > 20
    assert_same_result(fast, slow)


def test_replication_calls_no_scalar_reference(monkeypatch):
    # the scalar functions are the kernels' references only: a replication
    # of every scenario runs with all of them refusing
    pop = small_pop()
    args = {kind: run_args(pop, strong_ens(), kind) for kind in Scenario}

    def refuse(*args, **kwargs):
        raise AssertionError("a replication called a scalar reference")

    for name in ("compute_outcome", "sample_delay", "adjust_severity", "sample_severity",
                 "first_success_offset"):
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(StrokeOutcome, "__init__", refuse)
    for kind in Scenario:
        result = run_replication(**args[kind], rng=3)
        assert result.total_strokes > 0
        assert result.total_dalys > 0.0


# --- outcomes ---


def test_compute_outcome_death_counts_residual_years():
    out = compute_outcome(0, 120, 2.0, Severity.DEATH, 15.2)
    assert out.yll == 15.2
    assert out.yld == 0.0
    assert out.daly == 15.2
    assert out.disability_weight == 0.0
    assert (out.agent_id, out.day, out.delay_hours) == (0, 120, 2.0)


def test_compute_outcome_survivors_weight_residual_years():
    mild = compute_outcome(0, 0, 2.0, Severity.MILD, 22.0)
    assert mild.yll == 0.0
    assert mild.yld == pytest.approx(22.0 * 0.35, abs=1e-12)
    modsev = compute_outcome(0, 0, 2.0, Severity.MODERATE_SEVERE, 22.0)
    assert modsev.daly == pytest.approx(22.0 * 0.7, abs=1e-12)
    none = compute_outcome(0, 0, 2.0, Severity.NO_DISABILITY, 22.0)
    assert none.daly == 0.0


def test_compute_outcome_floors_negative_residual():
    out = compute_outcome(0, 3649, 2.0, Severity.DEATH, -2.0)
    assert out.daly == 0.0
    assert out.yll == 0.0


def test_disability_weights_table():
    assert DISABILITY_WEIGHTS[Severity.NO_DISABILITY] == 0.0
    assert DISABILITY_WEIGHTS[Severity.MILD] == 0.35
    assert DISABILITY_WEIGHTS[Severity.MODERATE_SEVERE] == 0.7
    assert Severity.DEATH not in DISABILITY_WEIGHTS
    # per residual year: the survivors' weights in SEVERITY_ORDER, then a
    # death's, which loses every residual year
    assert DALY_WEIGHTS.tolist() == [0.0, 0.35, 0.7, 1.0]


def test_stroke_dalys_match_compute_outcome():
    residual = np.array([-1e6, -2.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 22.0, 61.3])
    for k, severity in enumerate(SEVERITY_ORDER):
        got = _stroke_dalys(residual, np.full(residual.size, k))
        want = [compute_outcome(0, 0, 0.0, severity, r).daly for r in residual.tolist()]
        assert got.tolist() == want, severity
    # severities mixed in one call, each looked up on its own
    ks = np.arange(residual.size) % len(SEVERITY_ORDER)
    want = [compute_outcome(0, 0, 0.0, SEVERITY_ORDER[k], r).daly
            for k, r in zip(ks.tolist(), residual.tolist())]
    assert _stroke_dalys(residual, ks).tolist() == want


# --- intervention kernels ---


def test_hold_conversation_age_and_threshold():
    cfg = SimulationConfig()
    age = np.array([50, 50, 55, 60, 70])
    five_year = np.array([0.2, 0.1, 0.9, 0.3, 0.3])
    active = np.array([True, True, True, True, False])
    # one year: these are the ages the agents reach on its boundary
    rows = _scheduled_rows(age - 1, cfg.conversation_ages, 1)[0]
    talk = _conversation_rows(rows, five_year[rows], active[rows], cfg)
    # notified; at the threshold (strictly above only); off schedule;
    # notified; already had a stroke
    assert talk.tolist() == [0, 3]

    # the schedule against set membership, year by year: every age of a
    # span, ages far outside it, and conversation ages no agent reaches,
    # some too far out for int64 once the years are taken off
    years = 3
    age = np.concatenate([np.arange(-8, 219), [-10**6, 10**6, 10**12]])
    entry = age - years
    rng = np.random.default_rng(8)
    five_year = rng.uniform(0.0, 0.2, age.size)
    active = rng.random(age.size) < 0.9
    for ages in ((50, 60, 70, 80, 90), (0,), (0, 1, 2), (35, 150, 200),
                 (-5, 215), (-6, 216), (-10**6, 10**12), (-2**63, 2**63 - 1), ()):
        cfg = SimulationConfig(conversation_ages=ages)
        cfg.validate()
        schedule = _scheduled_rows(entry, ages, years)
        assert len(schedule) == years
        for year, rows in enumerate(schedule):
            reached = entry + year + 1
            assert rows.tolist() == np.flatnonzero(np.isin(reached, ages)).tolist(), ages
            want = active & np.isin(reached, ages) & (five_year > cfg.high_risk_threshold)
            talk = _conversation_rows(rows, five_year[rows], active[rows], cfg)
            assert talk.tolist() == np.flatnonzero(want).tolist(), (ages, year)


def reduction_arrays(agents, stats):
    return replace(PopulationArrays.from_population(population_of(agents)), stats=stats)


def column(arrays, name):
    return arrays.features[:, FEATURE_NAMES.index(name)]


def test_reduce_risk_applies_all_reductions():
    stats = BaselineStats(sbp_mean=130.0, sbp_sd=15.0, dbp_mean=80.0, dbp_sd=10.0,
                          bmi_mean=27.0, bmi_sd=4.0)
    a = agent(sbp=140.0, dbp=85.0, bmi=30.0, smoker=True, cigs_per_day=20)
    untouched = agent(sbp=140.0, dbp=85.0, bmi=30.0, smoker=True, cigs_per_day=20)
    untouched.id = 1
    arrays = reduction_arrays([a, untouched], stats)
    _apply_reduction_rows(arrays, np.array([0]), SimulationConfig())
    assert column(arrays, "smoker")[0] == 0.0
    assert column(arrays, "cigs_per_day")[0] == 0.0
    assert column(arrays, "bmi")[0] == pytest.approx(30.0 - 0.5 * 4.0)
    assert column(arrays, "sbp")[0] == pytest.approx(140.0 - 0.1 * 15.0)
    assert column(arrays, "dbp")[0] == pytest.approx(85.0 - 0.1 * 10.0)
    assert arrays.features[1].tolist() == [60.0, 1.0, 140.0, 85.0, 30.0, 0.0, 0.0, 1.0, 20.0]


def test_reduce_risk_bmi_only_above_mean_and_floors():
    stats = BaselineStats(sbp_mean=130.0, sbp_sd=500.0, dbp_mean=80.0, dbp_sd=500.0,
                          bmi_mean=27.0, bmi_sd=40.0)
    lean = agent(sbp=85.0, dbp=42.0, bmi=26.0)
    heavy = agent(bmi=27.5)
    heavy.id = 1
    arrays = reduction_arrays([lean, heavy], stats)
    _apply_reduction_rows(arrays, np.array([0, 1]), SimulationConfig())
    assert column(arrays, "bmi")[0] == 26.0   # at or below the mean: untouched
    assert column(arrays, "sbp")[0] == 80.0   # floored at the physiologic minimum
    assert column(arrays, "dbp")[0] == 40.0
    assert column(arrays, "bmi")[1] == 12.0   # 27.5 - 20 floors at the BMI minimum


def test_reduce_risk_rescores_when_given_model():
    stats = BaselineStats(130.0, 15.0, 80.0, 10.0, 27.0, 4.0)
    ens = one_member(-2.0, {"smoker": 1.0})
    arrays = reduction_arrays([agent(smoker=True)], stats)
    rows = np.array([0])
    before = five_year_matrix(ens, arrays.features[rows], arrays.age[rows])
    assert before[0] == pytest.approx(1.0 / (1.0 + math.exp(1.0)), abs=1e-12)
    _apply_reduction_rows(arrays, rows, SimulationConfig())
    after = five_year_matrix(ens, arrays.features[rows], arrays.age[rows])
    want = 1.0 / (1.0 + math.exp(2.0))
    assert after[0] == pytest.approx(want, abs=1e-12)
    assert after[0] / 1826 == pytest.approx(want / 1826.0, abs=1e-15)


def household_arrays(household_ids):
    agents = []
    for i, hh in enumerate(household_ids):
        a = agent(household_id=hh)
        a.id = i
        agents.append(a)
    return PopulationArrays.from_population(population_of(agents))


def test_family_spillover_reaches_household_not_strangers():
    arrays = household_arrays([0, 0, 1])
    spill = _spillover_rows(arrays, np.array([0]), np.full(3, -1), np.zeros(3, dtype=bool))
    # notifier not yet reduced: spillover covers it; the stranger is untouched
    assert spill.tolist() == [0, 1]


def test_family_spillover_skips_reduced_and_stroked():
    arrays = household_arrays([0, 0, 0])
    stroke_day = np.array([-1, 100, -1])        # agent 1 has had a stroke
    reduced = np.array([True, False, False])    # agent 0 has already reduced
    spill = _spillover_rows(arrays, np.array([0]), stroke_day, reduced)
    assert spill.tolist() == [2]


def test_family_spillover_gathers_interleaved_households():
    # households' rows need not be adjacent, and two notified members of
    # one household spread to it once
    arrays = household_arrays([30, 10, 30, 20, 10, 50, 30])
    none = np.zeros(7, dtype=bool)
    for talk, mates in (([0, 2], [0, 2, 6]), ([4, 6], [0, 1, 2, 4, 6]), ([5], [5]),
                        ([3, 1, 3], [1, 3, 4]), ([], [])):
        spill = _spillover_rows(arrays, np.array(talk, dtype=np.int64), np.full(7, -1), none)
        assert spill.tolist() == mates, talk


def spillover_by_households(household, talk, stroke_day, reduced):
    """`_spillover_rows` by Python sets: the stroke-free, unreduced rows of
    each household that holds a row of `talk`."""
    household, mates = household.tolist(), {}
    for row, h in enumerate(household):
        mates.setdefault(h, set()).add(row)
    return sorted(row for h in {household[t] for t in talk.tolist()} for row in mates[h]
                  if stroke_day[row] < 0 and not reduced[row])


@pytest.fixture(scope="module")
def bundled_model():
    cfg = load_experiment_file()
    rng = np.random.default_rng(derive_seed(cfg.experiment.base_seed))
    pop = assign_risk_factors(build_population(cfg.demographics, rng), cfg.risk_tables, rng)
    return prepare(PopulationArrays.from_population(pop), cfg.ensemble, cfg.delay,
                   cfg.severity, cfg.odds_ratios, cfg.life_table, cfg.experiment.simulation)


def test_spillover_rows_match_the_household_sets_on_the_bundled_population(bundled_model):
    arrays = bundled_model.arrays
    n = len(arrays.age)
    rng = np.random.default_rng(3)
    stroke_day = np.where(rng.random(n) < 0.05, 100, -1)
    reduced = rng.random(n) < 0.1
    for talk in (np.empty(0, dtype=np.int64), np.array([7, 7, 3, 7]), np.arange(n),
                 rng.integers(0, n, 500)):
        for state in ((np.full(n, -1), np.zeros(n, dtype=bool)), (stroke_day, reduced)):
            spill = _spillover_rows(arrays, talk, *state)
            assert spill.dtype == np.int64
            assert spill.tolist() == spillover_by_households(arrays.household, talk, *state)


def test_spillover_rows_match_the_household_sets_in_family_replications(bundled_model,
                                                                        monkeypatch):
    # the rows each year notifies, in the state the replication holds then
    checked = []

    def checking(arrays, talk, stroke_day, reduced):
        spill = _spillover_rows(arrays, talk, stroke_day, reduced)
        assert spill.tolist() == spillover_by_households(arrays.household, talk, stroke_day,
                                                         reduced)
        checked.append(talk.size)
        return spill

    monkeypatch.setattr(engine, "_spillover_rows", checking)
    for seed in (1, 2, 3):
        run_replication(bundled_model, seed, Scenario.CONVERSATIONS_PLUS_FAMILY)
    assert len(checked) == 3 * year_count(bundled_model.simulation) and sum(checked) > 0


# --- population arrays ---


def test_population_arrays_dense_households():
    # the arrays keep the population's own household index
    arrays = household_arrays((40, 9, 40))
    assert arrays.household.tolist() == [1, 0, 1]
    assert [f.name for f in fields(PopulationArrays)] == ["features", "age", "household", "stats"]


def test_population_arrays_rejects_empty():
    with pytest.raises(ConfigurationError, match="empty"):
        PopulationArrays.from_population(population_from_agents([], {}, {}))


# --- risk tables ---


def aging_ens():
    """Two members with age coefficients whose weights crossfade across 60,
    so every agent's score moves each simulated year."""
    ens = EnsembleRiskModel(
        models=[
            LogisticModel(age_lo=0, age_hi=59, intercept=-9.0, coefficients={
                "age": 0.05, "sbp": 0.03, "bmi": 0.02, "smoker": 0.7}),
            LogisticModel(age_lo=60, age_hi=200, intercept=-7.5, coefficients={
                "age": 0.03, "sbp": 0.02, "dbp": 0.01, "cigs_per_day": 0.02}),
        ],
        weights=[WeightRow(age_lo=0, age_hi=59, weights=[1.0, 0.0]),
                 WeightRow(age_lo=60, age_hi=200, weights=[0.3, 0.7])],
        crossfade_years=3,
    )
    ens.validate()
    return ens


def age_graded_ens():
    """Three members with age terms, blended weights crossfaded over 3
    years, as the age-graded test config reweights the bundled model."""
    ens = load_experiment_file().ensemble
    for i, member in enumerate(ens.models):
        member.coefficients["age"] = 0.02 + 0.01 * i
        member.intercept -= 1.2 + 0.6 * i
    for row, weights in zip(ens.weights, ([0.7, 0.3, 0.0], [0.2, 0.5, 0.3], [0.0, 0.4, 0.6])):
        row.weights = weights
    ens.crossfade_years = 3
    ens.validate()
    return ens


def mixed_ens():
    """The age-graded model with the age term of its first and last members
    removed: one member's probabilities move with age, two do not."""
    ens = age_graded_ens()
    for member in ens.models[::2]:
        del member.coefficients["age"]
    ens.validate()
    return ens


# each model, and whether its scores move with age
SCORING_MODELS = {
    "bundled": (lambda: load_experiment_file().ensemble, False),
    "age_graded": (age_graded_ens, True),
    "one_member": (lambda: strong_ens(), False),
    "zero_weight_band": (aging_ens, True),  # the second member weighs nothing below 57
    "mixed": (mixed_ens, True),
}


def test_risk_tables_match_scoring_at_each_years_age():
    for model in SCORING_MODELS:
        check_risk_tables_at_each_years_age(*SCORING_MODELS[model])


def reducible_by_definition(pop, plain, sim):
    """Every member of each household holding an agent at a conversation age
    in some year whose plain risk that year is above the threshold."""
    seeds = {a.household_id for i, a in enumerate(pop.agents) for year in range(len(plain))
             if a.age + year + 1 in sim.conversation_ages
             and plain[year, i] > sim.high_risk_threshold}
    return np.array([i for i, a in enumerate(pop.agents) if a.household_id in seeds],
                    dtype=np.int64)


def check_risk_tables_at_each_years_age(make, ages_move):
    pop = small_pop(n=30, seed=4)
    ens = make()
    arrays = PopulationArrays.from_population(pop)
    lowered = PopulationArrays.from_population(pop)
    _apply_reduction_rows(lowered, np.arange(30), SimulationConfig())

    # the scoring kernel on every agent at each year's age, original and
    # reduced factors; each agent scored alone agrees to rounding (a one-row
    # product may take another BLAS path)
    want = {"plain": np.empty((8, 30)), "reduced": np.empty((8, 30))}
    for year in range(8):
        ages = np.array([a.age + year + 1 for a in pop.agents])
        for name, features in (("plain", feature_matrix(pop.agents)),
                               ("reduced", lowered.features)):
            X = features.copy()
            X[:, FEATURE_NAMES.index("age")] = ages
            want[name][year] = five_year_matrix(ens, X, ages)
            for i in range(30):
                alone = five_year_matrix(ens, X[i:i + 1], ages[i:i + 1])[0]
                assert want[name][year, i] == pytest.approx(alone, rel=1e-14, abs=0.0)
    assert (np.diff(want["plain"], axis=0) != 0).all() == ages_move

    # the default threshold, then the median risk of the agents at a
    # conversation age: it leaves some households out, so the reduced table
    # is narrower than the population but not empty
    at_conversation = [want["plain"][year, i] for i, a in enumerate(pop.agents)
                       for year in range(8)
                       if a.age + year + 1 in SimulationConfig().conversation_ages]
    for threshold in (0.1, np.median(at_conversation)):
        sim = SimulationConfig(horizon_days=8 * 365, high_risk_threshold=threshold)
        tables = build_risk_tables(arrays, ens, sim)
        plain, reduced, slot = tables.plain, tables.reduced, tables.slot
        assert len(tables.scheduled) == 8

        # the reducible rows have one column each, in row order; the rest none
        rows = reducible_by_definition(pop, want["plain"], sim)
        assert slot.shape == (30,) and reduced.shape == (8, rows.size)
        assert np.flatnonzero(slot >= 0).tolist() == rows.tolist()
        assert slot[rows].tolist() == list(range(rows.size))
        assert (slot[slot < 0] == -1).all()
        if threshold != 0.1:
            assert 0 < rows.size < 30
        # bit for bit
        assert np.array_equal(plain, want["plain"])
        assert np.array_equal(reduced, want["reduced"][:, rows])
        assert (reduced < plain[:, rows]).any() or rows.size == 0


def test_risk_tables_cover_the_longest_horizon_and_each_reduction():
    # an experiment has one horizon and one reduction, which every scenario
    # shares: the tables cover each started year, and each reduction scores
    # the same reducible rows from their original factors
    arrays = PopulationArrays.from_population(small_pop(n=10))
    sim = SimulationConfig(horizon_days=3 * 365 + 1)
    assert year_count(sim) == 4
    per_reduction = {}
    for bp in (0.1, 0.3):
        cfg = replace(sim, bp_reduction_sd_fraction=bp)
        tables = build_risk_tables(arrays, strong_ens(), cfg)
        # one threshold and one list of conversation ages: the same reducible rows
        rows = np.flatnonzero(tables.slot >= 0)
        assert rows.size > 0
        assert tables.plain.shape == (4, 10)
        assert tables.reduced.shape == (4, rows.size)
        # the reduced table starts from the original factors
        lowered = PopulationArrays.from_population(small_pop(n=10))
        _apply_reduction_rows(lowered, np.arange(10), cfg)
        lowered.features[:, FEATURE_NAMES.index("age")] = lowered.age + 1
        assert np.array_equal(tables.reduced[0], five_year_matrix(
            strong_ens(), lowered.features, lowered.age + 1)[rows])
        per_reduction[bp] = tables
    weak, strong = per_reduction[0.1], per_reduction[0.3]
    assert np.array_equal(weak.slot, strong.slot)
    assert (strong.reduced <= weak.reduced).all()  # the larger bp reduction
    assert (strong.reduced < weak.reduced).any()


def test_risk_tables_share_a_reduced_table_only_for_one_threshold_and_schedule():
    # the scenarios of one experiment share one threshold and one schedule,
    # so they read one reduced table.  Two experiments that differ in
    # either reduce other rows.
    arrays = PopulationArrays.from_population(small_pop(n=40))
    sim = SimulationConfig(horizon_days=4 * 365)
    a = build_risk_tables(arrays, strong_ens(), sim)
    for change in ({"high_risk_threshold": 0.2}, {"conversation_ages": (55, 65, 75)}):
        b = build_risk_tables(arrays, strong_ens(), replace(sim, **change))
        assert not np.array_equal(a.slot, b.slot)
        # a row reducible under both has the same scores in both
        both = (a.slot >= 0) & (b.slot >= 0)
        assert both.any()
        assert np.array_equal(a.reduced[:, a.slot[both]], b.reduced[:, b.slot[both]])


def test_current_risk_reads_each_row_from_its_table():
    rng = np.random.default_rng(13)
    plain = rng.uniform(0.01, 0.5, (3, 8))
    lowered = plain * rng.uniform(0.2, 0.9, (3, 8))  # never equal to plain
    reduced = np.array([False, True, True, False, False, True, False, True])
    rows = np.array([5, 0, 1, 3, 7, 1])  # unsorted, a repeat, reduced and not mixed
    # columns for the reduced rows and row 3, which is not reduced
    reducible = np.array([1, 2, 3, 5, 7])
    slot = np.full(8, -1)
    slot[reducible] = np.arange(5)
    tables = RiskTables(plain, lowered[:, reducible], slot, ())
    none_reducible = RiskTables(plain, plain[:, :0], np.full(8, -1), ())
    before = plain.copy(), tables.reduced.copy()
    for year in range(3):
        got = _current_risk(tables, year, rows, reduced)
        want = [(lowered if reduced[i] else plain)[year, i] for i in rows]
        assert got.tolist() == want, year
    assert np.array_equal(plain, before[0]) and np.array_equal(tables.reduced, before[1])
    # no `reduced` array (baseline): every row reads plain, whatever the
    # tables hold
    for t in (tables, none_reducible):
        assert _current_risk(t, 2, rows, None).tolist() == plain[2, rows].tolist()
    for t, flags in ((tables, reduced), (tables, None), (none_reducible, None)):
        empty = _current_risk(t, 0, np.empty(0, dtype=np.int64), flags)
        assert empty.shape == (0,) and empty.dtype == np.float64


def test_run_replication_rejects_tables_that_do_not_fit():
    # a model's tables cover the years of the one config it was prepared
    # for, and every scenario kind runs on them.  That config is frozen, so
    # it cannot be changed under the tables once they are built
    pop = small_pop(n=6)
    args = run_args(pop, strong_ens(), Scenario.CONVERSATIONS, horizon=730)
    model = args["model"]
    assert model.tables.plain.shape == (year_count(model.simulation), 6) == (2, 6)
    assert model.residual.shape == (6,)
    for kind in Scenario:
        assert run_replication(model, 0, kind).total_strokes >= 0
    with pytest.raises(FrozenInstanceError):
        model.simulation.horizon_days = 1095
    with pytest.raises(FrozenInstanceError):
        model.simulation = replace(model.simulation, horizon_days=1095)


def test_every_model_has_a_column_for_each_row_it_reduces():
    # a model prepared for a higher threshold, for other conversation ages
    # or for another reduction reduces other rows, and has its own columns
    # for them: each intervention kind on it runs as the full-width oracle
    # does, and every row the oracle reduces has a column
    pop = small_pop(n=40)
    ens = strong_ens()
    fitting = run_args(pop, ens)["model"].tables
    for change in ({}, {"high_risk_threshold": 0.3}, {"conversation_ages": (55, 65, 75)},
                   {"bmi_reduction_sd_fraction": 0.25}):
        args = run_args(pop, ens, **change)
        model, slot = args["model"], args["model"].tables.slot
        if "high_risk_threshold" in change or "conversation_ages" in change:
            assert ((slot < 0) & (fitting.slot >= 0)).any()
        full = full_width_tables(model.arrays, ens, model.simulation)
        for kind in (Scenario.CONVERSATIONS, Scenario.CONVERSATIONS_PLUS_FAMILY):
            want, _, _, ever = reference_replication(model, full, kind, 0)
            assert ever.any() and (slot[ever] >= 0).all(), (change, kind)
            got = run_replication(model, 0, kind)
            assert got.risk_reductions > 0
            assert_same_result(got, want)


# --- full replications ---


def small_pop(n=40, seed=3, risk_spread=True):
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(n):
        a = agent(age=int(rng.integers(45, 80)),
                  sex="female" if i % 2 else "male",
                  household_id=i // 2,
                  sbp=float(rng.normal(135, 15)) if risk_spread else 130.0,
                  dbp=float(rng.normal(82, 9)),
                  bmi=float(rng.normal(28, 4)),
                  smoker=bool(i % 3 == 0))
        a.id = i
        a.cigs_per_day = 15 if a.smoker else 0
        agents.append(a)
    return population_of(agents)


LIFE = LifeTable(ages=[35, 110], female=[48.0, 1.0], male=[45.0, 1.0])


def run_args(pop, ens, kind=Scenario.BASELINE, horizon=3650, models=None, **sim_kwargs):
    """run_replication's arguments but the generator, by name: the model
    `prepare` builds for one `SimulationConfig`, as run_experiment does,
    and the scenario kind; `models` are (delay, sev, ors), the defaults
    when None."""
    sim = SimulationConfig(horizon_days=horizon, **sim_kwargs)
    delay, sev, ors = models or (
        DelayModel.default(), SeverityDistribution.default(), OddsRatioTable.default())
    model = prepare(PopulationArrays.from_population(pop), ens, delay, sev, ors, LIFE, sim)
    return {"model": model, "kind": kind}


def oracle_args(args, ens):
    """`reference_replication`'s arguments before the seed: the prepared
    model, the risk tables the oracle reads in place of the replication's
    (`full_width_tables`), and the scenario kind."""
    model = args["model"]
    return model, full_width_tables(model.arrays, ens, model.simulation), args["kind"]


def assert_same_result(a, b):
    """Field by field, arrays element by element."""
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(b, name)), name
        else:
            assert value == getattr(b, name), name


def strong_ens():
    # five-year risks around 0.15 to 0.5, so ten years produce real stroke counts
    return one_member(-10.0, {"sbp": 0.06, "smoker": 0.5})


def test_run_replication_deterministic_and_seed_recorded():
    pop = small_pop()
    args = run_args(pop, strong_ens())
    first = run_replication(**args, rng=1234)
    second = run_replication(**args, rng=1234)
    assert first.total_strokes > 0
    assert_same_result(first, second)

    via_generator = run_replication(**args, rng=np.random.default_rng(1234))
    assert_same_result(via_generator, first)


def test_baseline_replication_reads_plain_only():
    # every scenario of a model reads one set of tables; baseline reduces no
    # one, so it reads `plain` alone and never gathers from `reduced`
    pop = small_pop()
    model = run_args(pop, strong_ens())["model"]
    assert model.tables.reduced.size > 0
    tables = model.tables
    plain_only = replace(model, tables=replace(
        tables, reduced=np.full_like(tables.reduced, np.nan), slot=np.full_like(tables.slot, -1),
        scheduled=()))
    for seed in (3, 4):
        want = run_replication(model, seed, Scenario.BASELINE)
        assert want.total_strokes > 0
        assert_same_result(run_replication(plain_only, seed, Scenario.BASELINE), want)


def test_run_replication_does_not_mutate_inputs():
    args = run_args(small_pop(), strong_ens(), Scenario.CONVERSATIONS_PLUS_FAMILY)
    model = args["model"]
    arrays, tables = model.arrays, model.tables
    features_before, age_before = arrays.features.copy(), arrays.age.copy()
    plain_before, reduced_before = tables.plain.copy(), tables.reduced.copy()
    slot_before = tables.slot.copy()
    residual_before = model.residual.copy()
    result = run_replication(**args, rng=7)
    assert result.risk_reductions > 0
    assert result.total_strokes > 0
    assert (model.residual == residual_before).all()
    assert (arrays.features == features_before).all()
    assert (arrays.age == age_before).all()
    assert (tables.plain == plain_before).all()
    assert (tables.reduced == reduced_before).all()
    assert (tables.slot == slot_before).all()


def test_zero_risk_population_has_no_strokes():
    pop = small_pop()
    result = run_replication(**run_args(pop, one_member(-60.0)), rng=9)
    assert result.total_strokes == 0
    assert result.total_dalys == 0.0
    assert result.stroke_day.tolist() == result.severity.tolist() == [-1] * len(pop.agents)
    assert set(result.strokes_by_severity.values()) == {0}


def test_run_result_bookkeeping_consistent():
    pop = small_pop()
    result = run_replication(**run_args(pop, strong_ens()), rng=31)
    assert result.stroke_day.shape == result.severity.shape == (len(pop.agents),)
    struck = result.stroke_day >= 0
    assert result.total_strokes == int(struck.sum()) > 0
    # an agent has a severity exactly when it had a stroke, inside the horizon
    assert ((result.severity >= 0) == struck).all()
    assert set(result.severity[~struck].tolist()) == {-1}
    assert set(result.severity[struck].tolist()) <= set(range(len(SEVERITY_ORDER)))
    assert (result.stroke_day[struck] < 3650).all()
    assert sum(result.strokes_by_severity.values()) == result.total_strokes
    by_sev = Counter(SEVERITY_ORDER[k].value for k in result.severity[struck].tolist())
    assert dict(by_sev) == {k: v for k, v in result.strokes_by_severity.items() if v}
    assert list(result.strokes_by_severity) == [s.value for s in SEVERITY_ORDER]


def test_run_replication_daly_residuals_from_entry_age():
    # residual years at a stroke in year k equal LE(entry age) - (k + 1):
    # the agent ages on every boundary, day 0 included, before any stroke.
    # The total is the scalar oracle's DALYs summed in stroke order, by day
    # and then agent, and equal to the last bit.
    pop = small_pop(n=60)
    for kind in Scenario:
        result = run_replication(**run_args(pop, strong_ens(), kind), rng=2024)
        assert result.total_strokes > 0
        days = result.stroke_day.tolist()
        total, agents = 0.0, pop.agents
        for i in sorted((i for i, d in enumerate(days) if d >= 0),
                        key=lambda i: (days[i], i)):
            a = agents[i]
            residual = LIFE.residual(a.sex, a.age) - (days[i] // 365 + 1)
            severity = SEVERITY_ORDER[result.severity[i]]
            total += compute_outcome(a.id, days[i], 0.0, severity, residual).daly
        assert result.total_dalys == total, kind


def test_naive_and_skip_paths_agree_on_average():
    # the naive path is the oracle's one uniform per stroke-free agent per day
    pop = small_pop(n=200, seed=8)
    ens = strong_ens()
    args = run_args(pop, ens, horizon=365)
    oracle = oracle_args(args, ens)
    skip_totals, naive_totals = [], []
    for s in range(30):
        skip_totals.append(run_replication(**args, rng=s).total_strokes)
        naive_totals.append(reference_replication(
            *oracle, s, use_skip_sampling=False)[0].total_strokes)
    m_skip, m_naive = np.mean(skip_totals), np.mean(naive_totals)
    spread = math.sqrt((np.var(skip_totals) + np.var(naive_totals)) / 30)
    assert abs(m_skip - m_naive) < 4 * max(spread, 0.5)


# Fixed when the test was written; disjoint, so the two paths' runs are
# independent samples.
SKIP_SEEDS = range(100, 150)
NAIVE_SEEDS = range(200, 250)


def test_naive_and_skip_paths_agree_over_whole_runs():
    """Ten-year runs of every scenario: skip sampling matches the one-draw-
    per-day oracle on mean strokes and on strokes per simulated year."""
    pop = small_pop(n=300, seed=3)
    ens = strong_ens()
    for kind in Scenario:
        args = run_args(pop, ens, kind)
        oracle = oracle_args(args, ens)
        totals, per_year = [], []
        for results in ([run_replication(**args, rng=s) for s in SKIP_SEEDS],
                        [reference_replication(*oracle, s, use_skip_sampling=False)[0]
                         for s in NAIVE_SEEDS]):
            totals.append([r.total_strokes for r in results])
            days = np.concatenate([r.stroke_day for r in results])
            per_year.append(np.bincount(days[days >= 0] // 365, minlength=10))
        se = math.sqrt(sum(np.var(t, ddof=1) / len(t) for t in totals))
        assert abs(np.mean(totals[0]) - np.mean(totals[1])) < 4 * se, kind
        assert scipy.stats.chi2_contingency(per_year).pvalue > 0.001, kind


def test_baseline_scenario_never_intervenes():
    pop = small_pop()
    result = run_replication(**run_args(pop, strong_ens(), Scenario.BASELINE), rng=44)
    assert result.conversations == 0
    assert result.risk_reductions == 0
    assert result.family_reductions == 0


def couple_pop():
    """A 49-year-old with atrial fibrillation and a low-risk 45-year-old spouse."""
    risky = agent(age=49, sex="male", household_id=0, sbp=90.0, dbp=60.0, bmi=20.0,
                  afib=True)
    spouse = agent(age=45, sex="female", household_id=0, sbp=90.0, dbp=60.0, bmi=20.0)
    spouse.id = 1
    return population_of([risky, spouse])


def afib_ens():
    # afib carries the risk: lp = -4.3 + 2.2 = -2.1, five-year 0.109; the
    # factor reductions cannot touch it (sbp/dbp already at their floors,
    # bmi below the mean, nonsmoker), so the risk stays above threshold
    return one_member(-4.3, {"afib": 2.2})


def find_quiet_seed(kind):
    pop = couple_pop()
    for s in range(60):
        result = run_replication(**run_args(pop, afib_ens(), kind),
                                 rng=s)
        if result.total_strokes == 0:
            return s, result
    raise AssertionError("no stroke-free seed in range")


def test_conversations_notify_and_reduce_once():
    _, result = find_quiet_seed(Scenario.CONVERSATIONS)
    # boundary ages run 50..59, so the risky agent is seen at 50 only
    assert result.conversations == 1
    assert result.risk_reductions == 1
    assert result.family_reductions == 0


def test_repeat_conversation_age_renotifies_but_reduces_once():
    pop = couple_pop()
    for s in range(60):
        result = run_replication(
            **run_args(pop, afib_ens(), Scenario.CONVERSATIONS,
                       conversation_ages=(50, 55)), rng=s)
        if result.total_strokes == 0:
            assert result.conversations == 2
            assert result.risk_reductions == 1
            return
    raise AssertionError("no stroke-free seed in range")


def test_family_scenario_reaches_spouse():
    _, result = find_quiet_seed(Scenario.CONVERSATIONS_PLUS_FAMILY)
    assert result.conversations == 1
    assert result.risk_reductions == 1
    assert result.family_reductions == 1


def test_reductions_lower_risk_for_smokers():
    # a smoking population under conversations strokes no more than baseline
    # in expectation; check the intervention bookkeeping drives real change
    pop = small_pop(n=300, seed=12)
    ens = strong_ens()
    base_mean = np.mean([
        run_replication(**run_args(pop, ens, Scenario.BASELINE), rng=s).total_strokes
        for s in range(20)])
    conv_mean = np.mean([
        run_replication(**run_args(pop, ens, Scenario.CONVERSATIONS), rng=s).total_strokes
        for s in range(20)])
    assert conv_mean < base_mean


def test_reduction_takes_effect_in_the_year_it_happens():
    # smoking carries all the risk (five-year 0.88); quitting leaves ~1e-26.
    # Each couple's 60-year-old is notified on day 0 and reduces at once,
    # the 50-year-old spouse through spillover: no one may stroke in that year
    agents = []
    for hh in range(100):
        for j, age in enumerate((60, 50)):
            a = agent(age=age, household_id=hh, smoker=True, cigs_per_day=10)
            a.id = 2 * hh + j
            agents.append(a)
    pop = population_of(agents)
    ens = one_member(-60.0, {"smoker": 62.0})
    base = run_replication(**run_args(pop, ens, Scenario.BASELINE, horizon=365), rng=5)
    assert base.total_strokes > 10
    result = run_replication(**run_args(pop, ens, Scenario.CONVERSATIONS_PLUS_FAMILY,
                                       horizon=365, conversation_ages=(61,)), rng=5)
    assert (result.conversations, result.risk_reductions, result.family_reductions) == \
        (100, 100, 100)
    assert result.total_strokes == 0


SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_replication_imports_no_module():
    # a pool worker is a fresh fork that runs a handful of replications, so
    # a module a replication imports on first use (numpy.ma, through
    # np.unique, costs 20-30 ms) is paid again in every worker of every run
    code = """
import sys
import numpy as np
from strokesim.engine import (
    DelayModel, LifeTable, OddsRatioTable, PopulationArrays, Scenario, SeverityDistribution,
    SimulationConfig, prepare, run_replication)
from strokesim.population import COLUMN_TYPES, Population
from strokesim.risk import EnsembleRiskModel, LogisticModel, WeightRow
columns = {name: np.zeros(40, dtype=dtype) for name, dtype in COLUMN_TYPES.items()}
columns.update(id=np.arange(40), age=np.full(40, 60), sex=np.array(["male"] * 40, dtype=object),
               household_id=np.arange(40) // 2, smoker=np.ones(40, dtype=bool),
               cigs_per_day=np.full(40, 10), household=np.arange(40) // 2)
arrays = PopulationArrays.from_population(Population(
    **columns, household_type=np.array(["couple"] * 20, dtype=object)))
life = LifeTable(ages=[35, 110], female=[48.0, 1.0], male=[45.0, 1.0])
ens = EnsembleRiskModel([LogisticModel(0, 200, -1.5, {"smoker": 0.5})], [WeightRow(0, 200, [1.0])])
model = prepare(arrays, ens, DelayModel.default(), SeverityDistribution.default(),
                OddsRatioTable.default(), life, SimulationConfig(conversation_ages=(61, 63)))
np.random.default_rng(0)  # the process that forks the workers has drawn its population
before = set(sys.modules)
for kind in Scenario:
    result = run_replication(model, 3, kind)
    assert result.total_strokes > 0 and (kind is Scenario.BASELINE or result.conversations)
print(sorted(set(sys.modules) - before))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_counter_invariants_across_seeds():
    pop = small_pop(n=80, seed=5)
    ens = strong_ens()
    for s in range(12):
        for kind in Scenario:
            result = run_replication(**run_args(pop, ens, kind), rng=s)
            assert 0 <= result.total_strokes <= len(pop.agents)
            assert result.total_dalys >= 0.0
            assert result.risk_reductions <= result.conversations
            if kind is not Scenario.CONVERSATIONS_PLUS_FAMILY:
                assert result.family_reductions == 0
            if kind is Scenario.BASELINE:
                assert result.conversations == 0


def test_run_replication_validates_configs():
    # `prepare` validates the simulation config and every model once,
    # before any table is built
    pop = small_pop(n=4)
    arrays = PopulationArrays.from_population(pop)
    models = [DelayModel.default(), SeverityDistribution.default(), OddsRatioTable.default(), LIFE]
    with pytest.raises(ConfigurationError, match="high_risk_threshold = 2.0"):
        prepare(arrays, strong_ens(), *models, SimulationConfig(high_risk_threshold=2.0))
    for i, broken in enumerate((DelayModel([]), SeverityDistribution(0.5, 0.5, 0.5, 0.0),
                                OddsRatioTable([]),
                                LifeTable(ages=[50, 50], female=[1.0, 1.0], male=[1.0, 1.0]))):
        with pytest.raises(ConfigurationError):
            prepare(arrays, strong_ens(), *models[:i], broken, *models[i + 1:],
                    SimulationConfig())
