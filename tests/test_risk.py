"""Ensemble risk scoring and horizon calibration."""

import math

import numpy as np
import pytest

from strokesim.config import load_risk_model
from strokesim.errors import CalibrationError, ConfigurationError
from strokesim.population import Agent
from strokesim.risk import (
    DAYS_PER_FIVE_YEARS,
    FEATURE_NAMES,
    EnsembleRiskModel,
    LogisticModel,
    WeightRow,
    WeightTable,
    agent_features,
    calibrate_intercepts,
    coefficient_matrix,
    ensemble_score,
    expected_stroke_count,
    feature_matrix,
    five_year_matrix,
    logistic_score,
    weights_for_age,
)
from strokesim.risk import _scorer

from conftest import population_from_agents


def agent(age=60, sex="male", **kwargs):
    params = dict(id=0, age=age, sex=sex, region="r", household_id=0, employment="employed")
    params.update(kwargs)
    return Agent(**params)


def constant_model(five_year, age_lo=35, age_hi=200):
    """Member that scores every agent at the given five-year probability."""
    odds = five_year / (1.0 - five_year)
    return LogisticModel(age_lo=age_lo, age_hi=age_hi, intercept=math.log(odds), coefficients={})


def one_member(model):
    ens = EnsembleRiskModel(
        models=[model],
        weights=[WeightRow(age_lo=model.age_lo, age_hi=model.age_hi, weights=[1.0])],
    )
    ens.validate()
    return ens


def population_of(agents):
    return population_from_agents(agents, {a.id: [a.id] for a in agents},
                                  {a.id: "single" for a in agents})


# --- feature encoding ---


def test_feature_vector_order_and_sex_encoding():
    a = agent(age=63, sex="female", sbp=141.0, dbp=85.0, bmi=31.5,
              diabetes=True, afib=False, smoker=True, cigs_per_day=12)
    feats = agent_features(a)
    assert FEATURE_NAMES == (
        "age", "male", "sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day")
    assert feats == (63.0, 0.0, 141.0, 85.0, 31.5, 1.0, 0.0, 1.0, 12.0)
    assert agent_features(agent(sex="male"))[1] == 1.0


def test_feature_matrix_rows_match_agents():
    agents = [agent(age=50, sbp=120.0), agent(age=70, sex="female", sbp=150.0, smoker=True)]
    agents[1].id = 1
    mat = feature_matrix(agents)
    assert mat.shape == (2, len(FEATURE_NAMES))
    assert mat[0].tolist() == list(agent_features(agents[0]))
    assert mat[1].tolist() == list(agent_features(agents[1]))


def test_feature_matrix_equals_stacked_feature_rows():
    rng = np.random.default_rng(3)
    agents = []
    for i in range(200):
        a = agent(age=int(rng.integers(35, 110)), sex="male" if i % 3 else "female",
                  sbp=float(rng.normal(130, 15)), dbp=float(rng.normal(80, 10)),
                  bmi=float(rng.normal(27, 4)), diabetes=bool(i % 5 == 0),
                  afib=bool(i % 7 == 0), smoker=bool(i % 2))
        a.cigs_per_day = int(rng.integers(1, 30)) if a.smoker else 0
        agents.append(a)
    stacked = np.array([agent_features(a) for a in agents], dtype=float)
    assert np.array_equal(feature_matrix(agents), stacked)
    assert feature_matrix([]).shape == (0, len(FEATURE_NAMES))


# --- logistic members ---


def test_intercept_only_score_is_sigmoid_of_intercept():
    model = constant_model(0.1)
    assert logistic_score(model, agent()) == pytest.approx(0.1, abs=1e-15)


def test_coefficients_enter_linear_predictor():
    model = LogisticModel(age_lo=35, age_hi=200, intercept=-3.0, coefficients={"sbp": 0.02})
    # lp = -3 + 0.02 * 150 = 0
    assert logistic_score(model, agent(sbp=150.0)) == pytest.approx(0.5, abs=1e-15)


def test_offset_shifts_linear_predictor():
    model = LogisticModel(age_lo=35, age_hi=200, intercept=-1.0, coefficients={})
    got = logistic_score(model, agent(), offset=0.75)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(0.25)), abs=1e-15)


def test_extreme_linear_predictor_stays_inside_unit_interval():
    model = LogisticModel(age_lo=35, age_hi=200, intercept=0.0, coefficients={"sbp": 10.0})
    with np.errstate(over="raise"):
        high = logistic_score(model, agent(sbp=250.0))
        low = logistic_score(model, agent(sbp=-250.0))
    # clipped at the +-60 logit cap; sigmoid(-60) is tiny but strictly positive
    assert low == 1.0 / (1.0 + math.exp(60.0))
    assert 0.0 < low < high
    assert high == 1.0 / (1.0 + math.exp(-60.0))


def test_unknown_coefficient_name_rejected():
    model = LogisticModel(age_lo=35, age_hi=200, intercept=0.0, coefficients={"height": 1.0})
    with pytest.raises(ConfigurationError, match="height"):
        model.validate("m")


def test_risk_score_daily_conversion():
    daily = agent(five_year_risk=0.0913).daily_risk
    assert daily == pytest.approx(0.0913 / 1826, abs=1e-18)
    assert DAYS_PER_FIVE_YEARS == 1826
    assert abs(daily - 5e-5) < 1e-12


# --- ensemble weighting ---


def two_member_ensemble(crossfade=0):
    ens = EnsembleRiskModel(
        models=[constant_model(0.2, 35, 54), constant_model(0.4, 55, 110)],
        weights=[
            WeightRow(age_lo=35, age_hi=54, weights=[1.0, 0.0]),
            WeightRow(age_lo=55, age_hi=110, weights=[0.0, 1.0]),
        ],
        crossfade_years=crossfade,
    )
    ens.validate()
    return ens


def test_ensemble_averages_member_probabilities():
    ens = EnsembleRiskModel(
        models=[constant_model(0.2), constant_model(0.4)],
        weights=[WeightRow(age_lo=35, age_hi=200, weights=[0.5, 0.5])],
    )
    ens.validate()
    score = ensemble_score(ens, agent())
    assert score == pytest.approx(0.3, abs=1e-15)
    assert agent(five_year_risk=score).daily_risk == pytest.approx(0.3 / 1826, abs=1e-18)


def test_hard_handover_without_crossfade():
    ens = two_member_ensemble(crossfade=0)
    assert ensemble_score(ens, agent(age=54)) == pytest.approx(0.2, abs=1e-15)
    assert ensemble_score(ens, agent(age=55)) == pytest.approx(0.4, abs=1e-15)


def test_crossfade_blends_linearly_across_boundary():
    ens = two_member_ensemble(crossfade=2)
    expected = {53: 0.2, 54: 0.25, 55: 0.3, 56: 0.35, 57: 0.4}
    for age, value in expected.items():
        assert ensemble_score(ens, agent(age=age)) == pytest.approx(
            value, abs=1e-12), age


def test_weights_sum_to_one_everywhere():
    ens = two_member_ensemble(crossfade=3)
    for age in range(35, 111):
        w = weights_for_age(ens, age)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0).all()


def test_age_below_first_band_rejected_above_last_clamped():
    ens = two_member_ensemble()
    with pytest.raises(ConfigurationError, match="age 34"):
        weights_for_age(ens, 34)
    assert weights_for_age(ens, 150).tolist() == [0.0, 1.0]


def three_band_ensemble():
    ens = EnsembleRiskModel(
        models=[constant_model(0.1), constant_model(0.2), constant_model(0.4)],
        weights=[
            WeightRow(age_lo=35, age_hi=49, weights=[1.0, 0.0, 0.0]),
            WeightRow(age_lo=50, age_hi=64, weights=[0.2, 0.5, 0.3]),
            WeightRow(age_lo=65, age_hi=90, weights=[0.0, 0.25, 0.75]),
        ],
        crossfade_years=4,
    )
    ens.validate()
    return ens


def test_weight_matrix_rows_match_weights_for_age():
    ens = three_band_ensemble()
    # band edges, both crossfades (46..53 and 61..68), their midpoints, the
    # last band's end and ages past it, unsorted and repeated
    ages = np.array([60, 35, 45, 46, 49, 50, 53, 54, 60, 61, 64, 65, 68, 69,
                     90, 91, 120, 50, 35])
    wm = WeightTable.spanning(ens, ages).at(ages)
    assert wm.shape == (3, len(ages))
    for row, age in zip(wm.T, ages):
        assert row.tolist() == weights_for_age(ens, int(age)).tolist(), age
    assert wm[:, ages.tolist().index(50)].tolist() == [0.6, 0.25, 0.15]  # halfway at 50


def test_weight_matrix_edge_inputs():
    ens = three_band_ensemble()
    none = np.array([], dtype=int)
    assert WeightTable.spanning(ens, none).at(none).shape == (3, 0)
    fractional = np.array([47.9])
    assert WeightTable.spanning(ens, fractional).at(fractional).T.tolist() == [
        weights_for_age(ens, 47).tolist()]
    far = np.array([35, 10**12])  # no row per year up to 10**12
    assert WeightTable.spanning(ens, far).at(far)[:, 1].tolist() == \
        weights_for_age(ens, 10**12).tolist() == [0.0, 0.25, 0.75]
    with pytest.raises(ConfigurationError, match="age 34"):
        WeightTable.spanning(ens, np.array([60, 34]))


def test_validate_rejects_gapped_weight_bands():
    ens = EnsembleRiskModel(
        models=[constant_model(0.2), constant_model(0.4)],
        weights=[
            WeightRow(age_lo=35, age_hi=54, weights=[1.0, 0.0]),
            WeightRow(age_lo=56, age_hi=110, weights=[0.0, 1.0]),
        ],
    )
    with pytest.raises(ConfigurationError, match="contiguous"):
        ens.validate()


def test_validate_rejects_bad_weight_vectors():
    base = dict(models=[constant_model(0.2), constant_model(0.4)])
    with pytest.raises(ConfigurationError, match="sum to 1"):
        EnsembleRiskModel(
            weights=[WeightRow(35, 110, [0.6, 0.6])], **base).validate()
    with pytest.raises(ConfigurationError, match="negative"):
        EnsembleRiskModel(
            weights=[WeightRow(35, 110, [1.5, -0.5])], **base).validate()
    with pytest.raises(ConfigurationError, match="2 weights for"):
        EnsembleRiskModel(
            models=base["models"] + [constant_model(0.3)],
            weights=[WeightRow(35, 110, [0.5, 0.5])]).validate()


def test_validate_rejects_crossfade_wider_than_band():
    ens = EnsembleRiskModel(
        models=[constant_model(0.2), constant_model(0.4)],
        weights=[
            WeightRow(age_lo=35, age_hi=37, weights=[1.0, 0.0]),
            WeightRow(age_lo=38, age_hi=110, weights=[0.0, 1.0]),
        ],
        crossfade_years=2,
    )
    with pytest.raises(ConfigurationError, match="crossfade"):
        ens.validate()


def test_zero_weight_member_never_evaluated():
    class Bomb(LogisticModel):
        pass

    bomb = Bomb(age_lo=35, age_hi=200, intercept=float("nan"), coefficients={})
    ens = EnsembleRiskModel(
        models=[constant_model(0.25), bomb],
        weights=[WeightRow(age_lo=35, age_hi=200, weights=[1.0, 0.0])],
    )
    ens.validate()
    assert ensemble_score(ens, agent()) == pytest.approx(0.25, abs=1e-15)


# --- vector path ---


def test_five_year_matrix_matches_scalar_path():
    ens = two_member_ensemble(crossfade=2)
    ens.calibration_offset = -0.3
    agents = []
    rng = np.random.default_rng(8)
    for i in range(200):
        a = agent(age=int(rng.integers(35, 90)), sex="female" if i % 3 else "male",
                  sbp=float(rng.normal(130, 15)), dbp=float(rng.normal(80, 10)),
                  bmi=float(rng.normal(27, 4)), diabetes=bool(i % 5 == 0),
                  afib=bool(i % 11 == 0), smoker=bool(i % 4 == 0))
        a.id = i
        a.cigs_per_day = 15 if a.smoker else 0
        agents.append(a)

    feats = feature_matrix(agents)
    ages = np.array([a.age for a in agents])
    vec = five_year_matrix(ens, feats, ages)
    for i, a in enumerate(agents):
        assert vec[i] == pytest.approx(ensemble_score(ens, a), rel=1e-12)


def test_five_year_matrix_offset_override():
    ens = one_member(constant_model(0.2))
    ens.calibration_offset = 0.5
    feats = feature_matrix([agent()])
    ages = np.array([60])
    default = five_year_matrix(ens, feats, ages)
    overridden = _scorer(ens, feats, ages)(0.0)
    assert default[0] == pytest.approx(logistic_score(constant_model(0.2), agent(), 0.5))
    assert overridden[0] == pytest.approx(0.2, abs=1e-15)


def test_coefficient_matrix_layout():
    ens = two_member_ensemble()
    coefs, intercepts = coefficient_matrix(ens)
    assert coefs.shape == (2, len(FEATURE_NAMES))
    assert intercepts.tolist() == [m.intercept for m in ens.models]
    assert coefs.sum() == 0.0  # intercept-only members

    rich = one_member(LogisticModel(
        age_lo=35, age_hi=200, intercept=-2.0, coefficients={"sbp": 0.03, "male": 0.4}))
    coefs, _ = coefficient_matrix(rich)
    assert coefs[0, FEATURE_NAMES.index("sbp")] == 0.03
    assert coefs[0, FEATURE_NAMES.index("male")] == 0.4
    assert coefs[0, FEATURE_NAMES.index("age")] == 0.0


def test_refresh_risks_updates_agents_in_place():
    # population scoring writes each agent's five-year and daily risk
    from dataclasses import replace
    from types import SimpleNamespace

    from strokesim.cli import _build_population, _score
    from strokesim.config import load_experiment_file
    bundled = load_experiment_file()
    cfg = SimpleNamespace(
        demographics=replace(bundled.demographics, total_agents=300),
        risk_tables=bundled.risk_tables,
        ensemble=one_member(constant_model(0.3)),
    )
    pop = _build_population(cfg, 42)
    _score(pop, feature_matrix(pop.agents), cfg.ensemble)
    assert len(pop.agents) > 0
    for a in pop.agents:
        assert a.five_year_risk == pytest.approx(0.3, abs=1e-12)
        assert a.daily_risk == pytest.approx(0.3 / 1826, abs=1e-15)


# --- calibration ---


def test_expected_stroke_count_closed_form():
    ens = one_member(constant_model(0.2))
    pop = population_of([agent()])
    daily = 0.2 / 1826
    expected = 1.0 - (1.0 - daily) ** 3650
    assert expected_stroke_count(ens, pop, 3650) == pytest.approx(expected, rel=1e-12)


def test_calibrate_hits_analytic_offset():
    # identical agents make the offset solvable by hand:
    # d = 1 - (1 - target*years)^(1/horizon), delta = logit(1826*d) - intercept
    ens = one_member(constant_model(0.2))
    pop = population_of([agent(id=i) for i in range(10)])
    target = 0.003
    calibrated = calibrate_intercepts(ens, pop, target)

    d = 1.0 - (1.0 - target * 10.0) ** (1.0 / 3650.0)
    five = d * 1826.0
    analytic = math.log(five / (1.0 - five)) - math.log(0.2 / 0.8)
    assert calibrated.calibration_offset == pytest.approx(analytic, abs=1e-9)
    assert calibrated is not ens
    assert ens.calibration_offset == 0.0

    achieved = expected_stroke_count(calibrated, pop, 3650)
    assert achieved == pytest.approx(target * 10 * len(pop), abs=1e-9)


def test_calibrate_target_range_enforced():
    ens = one_member(constant_model(0.2))
    pop = population_of([agent()])
    for bad in (0.0, -0.001, 0.051):
        with pytest.raises(ConfigurationError, match="target"):
            calibrate_intercepts(ens, pop, bad)


def test_calibrate_unreachable_target_reports_achievable():
    # an offset of +-10 cannot push this member's risk low enough
    ens = one_member(constant_model(0.9999))
    pop = population_of([agent()])
    with pytest.raises(CalibrationError) as info:
        calibrate_intercepts(ens, pop, 0.0001)
    assert info.value.achieved > 0.0001


def test_calibrate_respects_heterogeneous_population():
    ens = one_member(LogisticModel(
        age_lo=35, age_hi=200, intercept=-6.0, coefficients={"sbp": 0.02}))
    agents = [agent(sbp=110.0 + 10.0 * i) for i in range(8)]
    for i, a in enumerate(agents):
        a.id = i
    pop = population_of(agents)
    target = 0.002
    calibrated = calibrate_intercepts(ens, pop, target)
    achieved = expected_stroke_count(calibrated, pop, 3650)
    assert achieved == pytest.approx(target * 10 * len(agents), abs=1e-6)


# --- bundled model file ---


def test_bundled_model_loads_and_validates():
    ens = load_risk_model("strokesim:risk_model_ie.json")
    assert len(ens.models) == len(ens.weights[0].weights)
    assert ens.calibration_offset != 0.0
    for model in ens.models:
        for name in ("sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day"):
            assert model.coefficients[name] >= 0.0


def test_user_model_negative_harmful_coefficient_warns(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"models": [{"age_range": [35, null], "intercept": -5.0,'
        ' "coefficients": {"sbp": -0.01}}],'
        ' "weights": [{"age_range": [35, null], "weights": [1.0]}]}'
    )
    with pytest.warns(UserWarning, match="sbp"):
        ens = load_risk_model(path)
    assert ens.models[0].coefficients["sbp"] == -0.01
