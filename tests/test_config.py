"""Config loading: defaults taken from the dataclasses, out-of-range numbers,
unknown keys and invalid settings rejected at load time."""

import importlib.resources
import inspect
import json
import re
from dataclasses import replace

import pytest

from strokesim.config import (
    OPEN_AGE,
    dump_risk_model,
    load_experiment_file,
    load_life_table,
    load_population_file,
    load_risk_model,
)
from strokesim.engine import OddsRatioTable, Scenario, ScenarioConfig
from strokesim.errors import ConfigurationError
from strokesim.montecarlo import ExperimentConfig
from strokesim.population import DemographicSpec
from strokesim.risk import CALIBRATION_TOL, EnsembleRiskModel, calibrate_intercepts

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
    model = json.loads(importlib.resources.files("strokesim")
                       .joinpath("data", "risk_model_ie.json").read_text())
    del model["crossfade_years"], model["calibration_offset"]
    write_json(tmp_path / "model.json", model)
    cfg = load_experiment_file(write_json(tmp_path / "exp.json", {
        **BUNDLED_REFS, "population": "pop.json", "risk_model": "model.json"}))
    ensemble = EnsembleRiskModel(models=[], weights=[])
    assert cfg.ensemble.crossfade_years == ensemble.crossfade_years
    assert cfg.ensemble.calibration_offset == ensemble.calibration_offset
    assert [s.scenario for s in cfg.experiment.scenarios] == list(Scenario)
    for loaded in cfg.experiment.scenarios:
        assert loaded == ScenarioConfig(scenario=loaded.scenario)
    scenario = ScenarioConfig()
    assert (cfg.horizon_days, cfg.days_per_year) == (scenario.horizon_days,
                                                     scenario.days_per_year)
    experiment = ExperimentConfig(scenarios=[scenario])
    for name in ("base_seed", "n_runs", "significance_level", "workers",
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


def test_empty_odds_ratio_table_rejected(tmp_path):
    base = {"base": [0.19, 0.35, 0.37, 0.09]}
    omitted = write_json(tmp_path / "omitted.json", {**BUNDLED_REFS, "severity": base})
    assert load_experiment_file(omitted).odds_ratios == OddsRatioTable.default()
    empty = write_json(tmp_path / "exp.json",
                       {**BUNDLED_REFS, "severity": {**base, "odds_ratios": []}})
    with pytest.raises(ConfigurationError, match=r"exp\.json\.severity\.odds_ratios: "):
        load_experiment_file(empty)


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


def _write_bundled(tmp_path, edit=lambda docs: None):
    """The bundled experiment and the three files it references, as
    ``exp.json``, ``population.json``, ``risk_model.json`` and
    ``life_table.json``, after ``edit`` changes their parsed documents
    (keyed ``exp`` and by reference name); returns the experiment's path."""
    docs = {"exp": _bundled("experiment_ie.json"),
            **{ref: _bundled(BUNDLED_REFS[ref].removeprefix("strokesim:")) for ref in BUNDLED_REFS}}
    edit(docs)
    for ref in BUNDLED_REFS:
        docs["exp"][ref] = write_json(tmp_path / f"{ref}.json", docs[ref]).name
    return write_json(tmp_path / "exp.json", docs["exp"])


@pytest.mark.parametrize("section, key", [
    ("experiment", "n_run"),
    ("experiment", "use_skip_sampling"),
    ("experiment", "workers"),
    ("experiment", "scenarios"),
    ("simulation", "high_risk_treshold"),
    ("simulation", "scenario"),
    ("calibration", "target"),
    (None, "life_tables"),
    ("delay", "band"),
    ("delay.bands.3", "hour"),
    ("severity", "odds_ratio"),
    ("severity.odds_ratios.1", "or_mrs"),
    ("population", "demographic"),
    ("population.demographics", "scale"),
    ("population.demographics.regions.2", "nmae"),
    ("population.demographics.regions.0", "comment"),
    ("population.risk_factors", "band"),
    ("population.risk_factors.bands.1", "sbp_man"),
    ("risk_model", "crossfade_yrs"),
    ("risk_model.models.0", "intercpt"),
    ("risk_model.weights.1", "weight"),
    ("life_table", "females"),
])
def test_unknown_key_rejected(tmp_path, section, key):
    """``key`` added to the object at the dotted ``section`` path of the
    experiment file, or of the referenced file that the path starts with,
    is rejected, naming that object."""
    steps = section.split(".") if section else []
    file = steps.pop(0) if steps and steps[0] in BUNDLED_REFS else "exp"

    def add_key(docs):
        node = docs[file]
        for step in steps:
            node = node[int(step) if step.isdigit() else step]
        node[key] = 1

    where = re.sub(r"\.(\d+)", r"[\1]", ".".join([f"{file}.json", *steps]))
    with pytest.raises(ConfigurationError, match=rf"{re.escape(where)}: unknown key '{key}'"):
        load_experiment_file(_write_bundled(tmp_path, add_key))


def test_top_level_comment_loads(tmp_path):
    def add_comments(docs):
        for doc in docs.values():
            doc["comment"] = "a note"

    cfg, bundled = load_experiment_file(_write_bundled(tmp_path, add_comments)), load_experiment_file()
    for name in ("demographics", "risk_tables", "ensemble", "life_table", "experiment"):
        assert getattr(cfg, name) == getattr(bundled, name), name


def test_key_given_twice_rejected(tmp_path):
    path = tmp_path / "life.json"
    path.write_text('{"ages": [35, 110], "female": [48.0, 2.0], "male": [45.0, 1.0],'
                    ' "female": [47.0, 2.0]}')
    with pytest.raises(ConfigurationError,
                       match=r"life\.json: key 'female' given twice in one object"):
        load_life_table(path)


@pytest.mark.parametrize("name", ["exp.json", "population.json"])
def test_config_file_that_is_not_utf8_rejected_naming_it(tmp_path, name):
    exp = _write_bundled(tmp_path)
    path = tmp_path / name
    path.write_bytes('{"comment": "Dún Laoghaire"}'.encode("latin-1"))
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"config file {path} is not UTF-8 text")):
        load_experiment_file(exp)


def test_duplicate_region_name_rejected(tmp_path):
    pop = _bundled("population_ie.json")
    regions = pop["demographics"]["regions"]
    pop = _set(pop, ["demographics", "regions", 1, "name"], regions[0]["name"])
    with pytest.raises(ConfigurationError,
                       match=rf"pop\.json: regions\[1\]\.name: duplicate region '{regions[0]['name']}'"):
        load_population_file(write_json(tmp_path / "pop.json", pop))


@pytest.mark.parametrize("file, path, value, where, message", [
    ("population", ["demographics", "min_age"], 30, "population.json",
     "min_age = 30, must be >= 35"),
    ("population", ["risk_factors", "bands"], [], "population.json",
     "risk_factors.bands: at least one band required"),
    ("risk_model", ["weights", 0, "weights"], [0.5, 0.0, 0.0], "risk_model.json",
     r"weights\[0\]: weights must sum to 1"),
    ("life_table", ["female", 1], -1.0, "life_table.json",
     "life table: negative life expectancy"),
    ("exp", ["experiment", "n_runs"], 1, "exp.json", "n_runs = 1, need at least 2"),
    ("exp", ["delay", "bands", 1, "cum_threshold"], 0.2, "exp.json.delay",
     "delay band 1: thresholds must increase"),
    ("exp", ["severity", "base", 0], 0.5, "exp.json.severity.base",
     "severity probabilities sum to"),
    ("exp", ["severity", "odds_ratios", 2, "or_mrs_le1"], 1.2, "exp.json.severity.odds_ratios",
     r"odds ratio table: last row must be the \(1, 1\) reference"),
], ids=["demographics", "risk_factors", "risk_model", "life_table", "experiment", "delay",
        "severity", "odds_ratios"])
def test_validation_error_names_its_file(tmp_path, file, path, value, where, message):
    def edit(docs):
        docs[file] = _set(docs[file], path, value)

    with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(tmp_path / where))}: {message}"):
        load_experiment_file(_write_bundled(tmp_path, edit))


@pytest.mark.parametrize("source", ["bundled", "calibrated", "crossfaded"])
def test_dumped_risk_model_loads_back_equal(tmp_path, source):
    if source == "crossfaded":
        model = load_risk_model(write_json(tmp_path / "model.json",
                                           {**MODEL, "crossfade_years": 5}))
        assert model.weights[-1].age_hi == OPEN_AGE
    else:
        model = load_risk_model("strokesim:risk_model_ie.json")
        if source == "calibrated":
            model = replace(model, calibration_offset=-0.123456789012345)
    dump_risk_model(model, tmp_path / "dumped.json")
    assert load_risk_model(tmp_path / "dumped.json") == model


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


# --- every number in a config is a JSON number ---

LIFE = {"ages": [35, 70, 110], "female": [48.0, 17.0, 2.0], "male": [45.0, 15.0, 2.0]}
MODEL = {
    "models": [{"age_range": [35, None], "intercept": -9.0,
                "coefficients": {"sbp": 0.045, "smoker": 0.5}}],
    "weights": [{"age_range": [35, 54], "weights": [1.0]},
                {"age_range": [55, None], "weights": [1.0]}],
}


def _bundled(name):
    return json.loads(importlib.resources.files("strokesim").joinpath("data", name).read_text())


def _set(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


BAD_NUMBERS = {"string": "40.0", "bool": True, "null": None}
BAD_INTEGERS = {"float": 35.7, "integral_float": 40.0, "string": "110", "bool": True,
                "null": None}


@pytest.mark.parametrize("kind", BAD_INTEGERS)
def test_life_table_ages_must_be_integers(tmp_path, kind):
    path = write_json(tmp_path / "life.json", _set(LIFE, ["ages", 1], BAD_INTEGERS[kind]))
    with pytest.raises(ConfigurationError, match=r"life\.json\.ages\[1\]: expected an integer"):
        load_life_table(path)


@pytest.mark.parametrize("column", ["female", "male"])
@pytest.mark.parametrize("kind", BAD_NUMBERS)
def test_life_table_values_must_be_numbers(tmp_path, column, kind):
    path = write_json(tmp_path / "life.json", _set(LIFE, [column, 2], BAD_NUMBERS[kind]))
    with pytest.raises(ConfigurationError,
                       match=rf"life\.json\.{column}\[2\]: expected a number"):
        load_life_table(path)


@pytest.mark.parametrize("section, index", [("models", 0), ("weights", 1)])
@pytest.mark.parametrize("bound", [0, 1])
@pytest.mark.parametrize("value", [True, 54.5, "54"], ids=["bool", "float", "string"])
def test_age_range_bounds_must_be_integers(tmp_path, section, index, bound, value):
    path = write_json(tmp_path / "model.json",
                      _set(MODEL, [section, index, "age_range", bound], value))
    with pytest.raises(ConfigurationError, match=rf"model\.json\.{section}\[{index}\]"
                                                 rf"\.age_range\[{bound}\]: expected an integer"):
        load_risk_model(path)


@pytest.mark.parametrize("path_in_model, where", [
    (["weights", 1, "weights", 0], r"weights\[1\]\.weights\[0\]"),
    (["models", 0, "coefficients", "sbp"], r"models\[0\]\.coefficients\.sbp"),
], ids=["weight", "coefficient"])
@pytest.mark.parametrize("kind", BAD_NUMBERS)
def test_model_numbers_must_be_numbers(tmp_path, path_in_model, where, kind):
    path = write_json(tmp_path / "model.json", _set(MODEL, path_in_model, BAD_NUMBERS[kind]))
    with pytest.raises(ConfigurationError, match=rf"model\.json\.{where}: expected a number"):
        load_risk_model(path)


@pytest.mark.parametrize("table, category", [
    ("sex", "female"), ("age_bands", "35-44"), ("employment", "employed"),
    ("households", "couple"),
])
@pytest.mark.parametrize("kind", BAD_NUMBERS)
def test_region_proportions_must_be_numbers(tmp_path, table, category, kind):
    pop = _bundled("population_ie.json")
    pop = _set(pop, ["demographics", "regions", 2, table, category], BAD_NUMBERS[kind])
    path = write_json(tmp_path / "pop.json", pop)
    with pytest.raises(ConfigurationError,
                       match=rf"pop\.json\.demographics\.regions\[2\]\.{table}\.{category}: "
                             "expected a number"):
        load_population_file(path)


@pytest.mark.parametrize("section, path_in_section, where", [
    ("delay", ["bands", 0, "hours", 1], r"delay\.bands\[0\]\.hours\[1\]"),
    ("severity", ["base", 3], r"severity\.base\[3\]"),
    ("severity", ["odds_ratios", 0, "delay", 0], r"severity\.odds_ratios\[0\]\.delay\[0\]"),
], ids=["delay_hours", "severity_base", "odds_ratio_delay"])
def test_delay_and_severity_numbers_must_be_numbers(tmp_path, section, path_in_section, where):
    exp = _bundled("experiment_ie.json")
    doc = {**BUNDLED_REFS, section: _set(exp[section], path_in_section, "1.5")}
    path = write_json(tmp_path / "exp.json", doc)
    with pytest.raises(ConfigurationError, match=rf"exp\.json\.{where}: expected a number"):
        load_experiment_file(path)


def test_integer_literals_load_as_numbers(tmp_path):
    table = load_life_table(write_json(tmp_path / "life.json",
                                       _set(LIFE, ["female", 0], 48)))
    assert table.female == [48.0, 17.0, 2.0] and type(table.female[0]) is float
    assert table.ages == [35, 70, 110]
    model = load_risk_model(write_json(tmp_path / "model.json",
                                       _set(MODEL, ["models", 0, "coefficients", "smoker"], 1)))
    assert model.models[0].coefficients["smoker"] == 1.0
