"""Config loading: defaults taken from the dataclasses, out-of-range numbers,
unknown keys and invalid settings rejected at load time."""

import importlib.resources
import inspect
import json

import pytest

from strokesim.config import load_experiment_file, load_life_table, load_risk_model
from strokesim.engine import Scenario, ScenarioConfig
from strokesim.errors import ConfigurationError
from strokesim.montecarlo import ExperimentConfig
from strokesim.population import DemographicSpec
from strokesim.risk import CALIBRATION_TOL, calibrate_intercepts

BUNDLED_REFS = {
    "population": "strokesim:population_ie.json",
    "risk_model": "strokesim:risk_model_ie.json",
    "life_table": "strokesim:life_table_ie.json",
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))  # json.dumps writes float("nan") as NaN
    return path


def test_omitted_settings_fall_back_on_the_dataclass_defaults(tmp_path):
    pop = json.loads(importlib.resources.files("strokesim")
                     .joinpath("data", "population_ie.json").read_text())
    del pop["demographics"]["scale_factor"], pop["demographics"]["min_age"]
    write_json(tmp_path / "pop.json", pop)
    cfg = load_experiment_file(write_json(tmp_path / "exp.json",
                                          {**BUNDLED_REFS, "population": "pop.json"}))
    assert [s.scenario for s in cfg.experiment.scenarios] == list(Scenario)
    for loaded in cfg.experiment.scenarios:
        assert loaded == ScenarioConfig(scenario=loaded.scenario)
    scenario = ScenarioConfig()
    assert (cfg.horizon_days, cfg.days_per_year) == (scenario.horizon_days,
                                                     scenario.days_per_year)
    experiment = ExperimentConfig(base_seed=0, scenarios=[scenario])
    for name in ("n_runs", "significance_level", "workers",
                 "common_random_numbers", "welch"):
        assert getattr(cfg.experiment, name) == getattr(experiment, name), name
    spec = DemographicSpec(regions=[], total_agents=1)
    assert cfg.demographics.min_age == spec.min_age
    assert cfg.demographics.scale_factor == spec.scale_factor
    assert cfg.calibration_tol == CALIBRATION_TOL == 1e-12
    params = inspect.signature(calibrate_intercepts).parameters
    assert params["horizon_days"].default == scenario.horizon_days
    assert params["days_per_year"].default == scenario.days_per_year
    assert params["tol"].default == CALIBRATION_TOL


def test_nan_delay_mean_rejected(tmp_path):
    delay = {"bands": [{"cum_threshold": 1.0, "hours": [0.0, None],
                        "mean": float("nan"), "sd": 1.0}]}
    path = write_json(tmp_path / "exp.json", {**BUNDLED_REFS, "delay": delay})
    with pytest.raises(ConfigurationError, match=r"exp\.json: non-finite number NaN"):
        load_experiment_file(path)


def test_nan_life_table_entry_rejected(tmp_path):
    path = write_json(tmp_path / "life.json",
                      {"ages": [35, 110], "female": [48.0, float("nan")], "male": [45.0, 1.0]})
    with pytest.raises(ConfigurationError, match=r"life\.json: non-finite number NaN"):
        load_life_table(path)


def test_nan_model_intercept_rejected(tmp_path):
    model = {"models": [{"age_range": [35, None], "intercept": float("nan"),
                         "coefficients": {}}],
             "weights": [{"age_range": [35, None], "weights": [1.0]}]}
    path = write_json(tmp_path / "model.json", model)
    with pytest.raises(ConfigurationError, match=r"model\.json: non-finite number NaN"):
        load_risk_model(path)


@pytest.mark.parametrize("literal, message", [
    ("1e999", "non-finite number 1e999"),
    ("1" + "0" * 400, "401-digit integer out of range"),   # overflows float()
    ("1" * 5001, "5001-digit integer out of range"),       # over int()'s digit limit
], ids=["1e999", "int_401_digits", "int_5001_digits"])
def test_overflowing_literal_rejected(tmp_path, literal, message):
    path = tmp_path / "life.json"
    path.write_text('{"ages": [35, 110], "female": [48.0, %s], "male": [45.0, 1.0]}' % literal)
    with pytest.raises(ConfigurationError, match=rf"life\.json: {message}"):
        load_life_table(path)


@pytest.mark.parametrize("section, key", [
    ("experiment", "n_run"),
    ("experiment", "use_skip_sampling"),
    ("simulation", "high_risk_treshold"),
    ("calibration", "target"),
    (None, "life_tables"),
])
def test_unknown_key_rejected(tmp_path, section, key):
    doc = dict(BUNDLED_REFS)
    if section is None:
        doc[key], where = 1, "exp.json"
    else:
        doc[section], where = {key: 1}, f"exp.json.{section}"
    path = write_json(tmp_path / "exp.json", doc)
    with pytest.raises(ConfigurationError, match=rf"{where}: unknown key '{key}'"):
        load_experiment_file(path)


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "significance_level", 1.5),
    ("experiment", "n_runs", 1),
    ("simulation", "high_risk_threshold", 0.0),
])
def test_invalid_experiment_rejected_at_load(tmp_path, section, key, value):
    path = write_json(tmp_path / "exp.json", {**BUNDLED_REFS, section: {key: value}})
    with pytest.raises(ConfigurationError, match=rf"exp\.json: .*{key}"):
        load_experiment_file(path)


@pytest.mark.parametrize("key", ["horizon_days", "days_per_year"])
def test_boolean_rejected_where_an_integer_is_expected(tmp_path, key):
    path = write_json(tmp_path / "exp.json", {**BUNDLED_REFS, "simulation": {key: True}})
    with pytest.raises(ConfigurationError, match=rf"exp\.json\.simulation\.{key}: expected int"):
        load_experiment_file(path)


def test_boolean_agent_count_rejected(tmp_path):
    pop = json.loads(importlib.resources.files("strokesim")
                     .joinpath("data", "population_ie.json").read_text())
    pop["demographics"]["total_agents"] = True
    write_json(tmp_path / "pop.json", pop)
    path = write_json(tmp_path / "exp.json", {**BUNDLED_REFS, "population": "pop.json"})
    with pytest.raises(ConfigurationError,
                       match=r"pop\.json\.demographics\.total_agents: expected int"):
        load_experiment_file(path)


@pytest.mark.parametrize("entry", [50.9, "60", True, 60.0, None],
                         ids=["float", "string", "bool", "integral_float", "null"])
def test_conversation_age_must_be_an_integer(tmp_path, entry):
    path = write_json(tmp_path / "exp.json",
                      {**BUNDLED_REFS, "simulation": {"conversation_ages": [40, entry]}})
    with pytest.raises(ConfigurationError,
                       match=r"exp\.json\.simulation\.conversation_ages\[1\]: expected an integer"):
        load_experiment_file(path)


def test_integer_conversation_ages_load(tmp_path):
    path = write_json(tmp_path / "exp.json",
                      {**BUNDLED_REFS, "simulation": {"conversation_ages": [45, 65]}})
    for scenario in load_experiment_file(path).experiment.scenarios:
        assert scenario.conversation_ages == (45, 65)
