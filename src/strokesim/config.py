"""Config file loading.

Everything the simulation consumes is plain JSON: a population file
(demographic marginals plus age-banded risk factor tables), a risk model
file (ensemble members and weights), a life table, and an experiment file
that ties them together with the delay/severity constants and the Monte
Carlo settings.  References of the form "strokesim:NAME" resolve to the
package's bundled data directory; anything else is a filesystem path,
resolved relative to the referencing file.

Loaders validate as they build and raise ConfigurationError with the file
and field that broke.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Collection, Optional

from .engine import (
    DelayBand,
    DelayModel,
    LifeTable,
    OddsRatioRow,
    OddsRatioTable,
    Scenario,
    ScenarioConfig,
    SeverityDistribution,
)
from .errors import ConfigurationError
from .files import atomic_open
from .montecarlo import ExperimentConfig
from .population import (
    DemographicSpec,
    RegionSpec,
    RiskFactorBand,
    RiskFactorTables,
    parse_age_range,
)
from .risk import CALIBRATION_TOL, EnsembleRiskModel, LogisticModel, WeightRow

BUNDLED_PREFIX = "strokesim:"
DEFAULT_EXPERIMENT = BUNDLED_PREFIX + "experiment_ie.json"

# Upper age used when a JSON age range leaves the top open (null).
OPEN_AGE = 200

_HARMFUL_FEATURES = ("sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day")


def _read_ref(ref: str | Path, base_dir: Optional[Path]) -> tuple[str, str]:
    """Fetch a config reference; returns (text, display name)."""
    if isinstance(ref, str) and ref.startswith(BUNDLED_PREFIX):
        name = ref[len(BUNDLED_PREFIX):]
        resource = importlib.resources.files("strokesim").joinpath("data", name)
        try:
            return resource.read_text(), ref
        except (FileNotFoundError, OSError) as exc:
            raise ConfigurationError(f"bundled resource {ref!r} not found") from exc
    path = Path(ref)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    try:
        return path.read_text(), str(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc


def _parse_json(text: str, name: str) -> Any:
    """Parse a config file, rejecting NaN, Infinity, literals that overflow
    to infinity (json.loads accepts all three) and integers too large for a
    float (or for Python's int-string conversion limit)."""
    def non_finite(token: str) -> float:
        raise ConfigurationError(f"{name}: non-finite number {token} is not allowed")

    def finite_float(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            non_finite(token)
        return value

    def float_sized_int(token: str) -> int:
        try:
            float(value := int(token))
        except (ValueError, OverflowError):
            raise ConfigurationError(f"{name}: {len(token)}-digit integer out of range") from None
        return value

    try:
        return json.loads(text, parse_constant=non_finite, parse_float=finite_float,
                          parse_int=float_sized_int)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{name}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _get(obj: dict, key: str, where: str, expect: Optional[type] = None, default: Any = ...) -> Any:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where}: expected an object")
    if key not in obj:
        if default is not ...:
            return default
        raise ConfigurationError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if expect is not None:
        # an integer literal is a valid float; bool is an int subclass, so
        # true/false must not pass as the numbers 1/0
        ok = isinstance(value, expect) or (expect is float and isinstance(value, int))
        if not ok or (isinstance(value, bool) and expect is not bool):
            raise ConfigurationError(f"{where}.{key}: expected {expect.__name__}")
    return value


def _number(value: Any, where: str, integer: bool = False) -> Any:
    """A JSON number, or a JSON integer if ``integer``: never a bool, a
    string or null, which bare ``int()``/``float()`` would accept or mangle."""
    kinds = int if integer else (int, float)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigurationError(
            f"{where}: expected {'an integer' if integer else 'a number'}, got {value!r}"
        )
    return value


def _numbers(values: list, where: str, integer: bool = False) -> list:
    """`_number` over a JSON list, naming entries ``where[i]``; floats unless ``integer``."""
    checked = [_number(v, f"{where}[{i}]", integer) for i, v in enumerate(values)]
    return checked if integer else [float(v) for v in checked]


def _number_table(entry: dict, key: str, where: str) -> dict[str, float]:
    """A ``{name: number}`` object as floats, naming a bad entry ``where.key.name``."""
    return {k: float(_number(v, f"{where}.{key}.{k}"))
            for k, v in _get(entry, key, where, dict).items()}


def _field_defaults(cls: type) -> dict[str, Any]:
    """A dataclass's declared field defaults; loaders fall back on these so
    each default is written once, on its class."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _reject_unknown(obj: dict, known: Collection[str], where: str) -> None:
    """Reject keys the loader does not read, so a typo cannot fall back on a default."""
    for key in obj:
        if key not in known:
            raise ConfigurationError(f"{where}: unknown key {key!r}")


def _age_range(value: Any, where: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigurationError(f"{where}: age_range must be [lo, hi]")
    lo = _number(value[0], f"{where}.age_range[0]", integer=True)
    hi = value[1]
    hi = OPEN_AGE if hi is None else _number(hi, f"{where}.age_range[1]", integer=True)
    return lo, hi


def load_population_file(
    ref: str | Path, base_dir: Optional[Path] = None
) -> tuple[DemographicSpec, RiskFactorTables]:
    text, name = _read_ref(ref, base_dir)
    data = _parse_json(text, name)
    demo = _get(data, "demographics", name, dict)

    regions = []
    for i, entry in enumerate(_get(demo, "regions", f"{name}.demographics", list)):
        where = f"{name}.demographics.regions[{i}]"
        regions.append(RegionSpec(
            name=_get(entry, "name", where, str),
            share=float(_get(entry, "share", where, float)),
            sex=_number_table(entry, "sex", where),
            age_bands=_number_table(entry, "age_bands", where),
            employment=_number_table(entry, "employment", where),
            households=_number_table(entry, "households", where),
        ))
    demo_defaults = _field_defaults(DemographicSpec)
    spec = DemographicSpec(
        regions=regions,
        total_agents=_get(demo, "total_agents", f"{name}.demographics", int),
        scale_factor=_get(demo, "scale_factor", f"{name}.demographics", int,
                          default=demo_defaults["scale_factor"]),
        min_age=_get(demo, "min_age", f"{name}.demographics", int,
                     default=demo_defaults["min_age"]),
    )
    spec.validate()

    bands = []
    rf = _get(data, "risk_factors", name, dict)
    for i, entry in enumerate(_get(rf, "bands", f"{name}.risk_factors", list)):
        where = f"{name}.risk_factors.bands[{i}]"
        ages = _get(entry, "ages", where, str)
        lo, hi = parse_age_range(ages)
        bands.append(RiskFactorBand(
            age_lo=lo, age_hi=hi,
            sbp_mean=float(_get(entry, "sbp_mean", where, float)),
            sbp_sd=float(_get(entry, "sbp_sd", where, float)),
            dbp_mean=float(_get(entry, "dbp_mean", where, float)),
            dbp_sd=float(_get(entry, "dbp_sd", where, float)),
            bmi_mean=float(_get(entry, "bmi_mean", where, float)),
            bmi_sd=float(_get(entry, "bmi_sd", where, float)),
            diabetes_prev=float(_get(entry, "diabetes_prev", where, float)),
            afib_prev=float(_get(entry, "afib_prev", where, float)),
            smoker_prev=float(_get(entry, "smoker_prev", where, float)),
            cigs_per_day_mean=float(_get(entry, "cigs_per_day_mean", where, float)),
        ))
    tables = RiskFactorTables(bands=bands)
    tables.validate()
    return spec, tables


def load_risk_model(ref: str | Path, base_dir: Optional[Path] = None) -> EnsembleRiskModel:
    """Load an ensemble model file.

    The bundled model must obey the sign convention (harmful factors have
    nonnegative coefficients); user-supplied models only get a warning,
    because a fitted model may legitimately disagree.
    """
    text, name = _read_ref(ref, base_dir)
    data = _parse_json(text, name)
    bundled = isinstance(ref, str) and ref.startswith(BUNDLED_PREFIX)

    models = []
    for i, entry in enumerate(_get(data, "models", name, list)):
        where = f"{name}.models[{i}]"
        lo, hi = _age_range(_get(entry, "age_range", where), where)
        coefficients = _number_table(entry, "coefficients", where)
        for feature in _HARMFUL_FEATURES:
            coef = coefficients.get(feature, 0.0)
            if coef < 0:
                message = (
                    f"{where}.coefficients.{feature} = {coef} is negative; "
                    "harmful factors are expected to be nonprotective"
                )
                if bundled:
                    raise ConfigurationError(message)
                warnings.warn(message, stacklevel=2)
        models.append(LogisticModel(
            age_lo=lo, age_hi=hi,
            intercept=float(_get(entry, "intercept", where, float)),
            coefficients=coefficients,
        ))

    weights = []
    for i, entry in enumerate(_get(data, "weights", name, list)):
        where = f"{name}.weights[{i}]"
        lo, hi = _age_range(_get(entry, "age_range", where), where)
        weights.append(WeightRow(
            age_lo=lo, age_hi=hi,
            weights=_numbers(_get(entry, "weights", where, list), f"{where}.weights"),
        ))

    defaults = _field_defaults(EnsembleRiskModel)
    ens = EnsembleRiskModel(
        models=models,
        weights=weights,
        crossfade_years=_get(data, "crossfade_years", name, int,
                             default=defaults["crossfade_years"]),
        calibration_offset=float(_get(data, "calibration_offset", name, float,
                                      default=defaults["calibration_offset"])),
    )
    ens.validate()
    return ens


def dump_risk_model(ens: EnsembleRiskModel, path: str | Path) -> None:
    """Inverse of load_risk_model, for writing calibrated models."""
    def open_hi(hi: int) -> Optional[int]:
        return None if hi >= OPEN_AGE else hi

    data = {
        "models": [
            {
                "age_range": [m.age_lo, open_hi(m.age_hi)],
                "intercept": m.intercept,
                "coefficients": dict(m.coefficients),
            }
            for m in ens.models
        ],
        "weights": [
            {"age_range": [w.age_lo, open_hi(w.age_hi)], "weights": list(w.weights)}
            for w in ens.weights
        ],
        "crossfade_years": ens.crossfade_years,
        "calibration_offset": ens.calibration_offset,
    }
    with atomic_open(path) as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def load_life_table(ref: str | Path, base_dir: Optional[Path] = None) -> LifeTable:
    text, name = _read_ref(ref, base_dir)
    data = _parse_json(text, name)
    table = LifeTable(
        ages=_numbers(_get(data, "ages", name, list), f"{name}.ages", integer=True),
        female=_numbers(_get(data, "female", name, list), f"{name}.female"),
        male=_numbers(_get(data, "male", name, list), f"{name}.male"),
    )
    try:
        table.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc
    return table


def _load_delay(data: Optional[dict], name: str) -> DelayModel:
    if data is None:
        return DelayModel.default()
    bands = []
    for i, entry in enumerate(_get(data, "bands", name, list)):
        where = f"{name}.bands[{i}]"
        hours = _get(entry, "hours", where, list)
        if len(hours) != 2:
            raise ConfigurationError(f"{where}: hours must be [lo, hi]")
        bands.append(DelayBand(
            cum_threshold=float(_get(entry, "cum_threshold", where, float)),
            lo=float(_number(hours[0], f"{where}.hours[0]")),
            hi=math.inf if hours[1] is None else float(_number(hours[1], f"{where}.hours[1]")),
            mean=float(_get(entry, "mean", where, float)),
            sd=float(_get(entry, "sd", where, float)),
        ))
    model = DelayModel(bands=bands)
    model.validate()
    return model


def _load_severity(data: Optional[dict], name: str) -> tuple[SeverityDistribution, OddsRatioTable]:
    if data is None:
        return SeverityDistribution.default(), OddsRatioTable.default()
    base = _get(data, "base", name, list)
    if len(base) != 4:
        raise ConfigurationError(f"{name}.base: expected 4 probabilities")
    sev = SeverityDistribution(*_numbers(base, f"{name}.base"))
    sev.validate()

    if "odds_ratios" not in data:
        return sev, OddsRatioTable.default()
    entries = _get(data, "odds_ratios", name, list)
    if not entries:
        raise ConfigurationError(f"{name}.odds_ratios: at least one row required")
    rows = []
    for i, entry in enumerate(entries):
        where = f"{name}.odds_ratios[{i}]"
        delay = _get(entry, "delay", where, list)
        if len(delay) != 2:
            raise ConfigurationError(f"{where}: delay must be [lo, hi]")
        rows.append(OddsRatioRow(
            delay_lo=float(_number(delay[0], f"{where}.delay[0]")),
            delay_hi=(math.inf if delay[1] is None
                      else float(_number(delay[1], f"{where}.delay[1]"))),
            or_mrs_le1=float(_get(entry, "or_mrs_le1", where, float)),
            or_mrs_ge2=float(_get(entry, "or_mrs_ge2", where, float)),
        ))
    ors = OddsRatioTable(rows=rows)
    ors.validate()
    return sev, ors


@dataclass
class AppConfig:
    """Everything an experiment needs, loaded and validated."""

    source: str
    population_ref: str
    risk_model_ref: str
    life_table_ref: str
    demographics: DemographicSpec
    risk_tables: RiskFactorTables
    ensemble: EnsembleRiskModel
    life_table: LifeTable
    delay: DelayModel
    severity: SeverityDistribution
    odds_ratios: OddsRatioTable
    experiment: ExperimentConfig  # every scenario, sharing one time grid
    calibration_target: float
    calibration_tol: float

    @property
    def horizon_days(self) -> int:
        return self.experiment.scenarios[0].horizon_days

    @property
    def days_per_year(self) -> int:
        return self.experiment.scenarios[0].days_per_year


def load_experiment_file(ref: str | Path = DEFAULT_EXPERIMENT, base_dir: Optional[Path] = None) -> AppConfig:
    """Load an experiment file and what it references; the experiment holds
    one validated ScenarioConfig per Scenario, built from `simulation`."""
    text, name = _read_ref(ref, base_dir)
    data = _parse_json(text, name)
    if not isinstance(ref, str) or not ref.startswith(BUNDLED_PREFIX):
        base_dir = Path(name).parent
    else:
        base_dir = None

    population_ref = _get(data, "population", name, str)
    risk_model_ref = _get(data, "risk_model", name, str)
    life_table_ref = _get(data, "life_table", name, str)
    _reject_unknown(data, ("population", "risk_model", "life_table", "simulation",
                           "delay", "severity", "experiment", "calibration"), name)
    demographics, risk_tables = load_population_file(population_ref, base_dir)
    ensemble = load_risk_model(risk_model_ref, base_dir)
    life_table = load_life_table(life_table_ref, base_dir)

    sim = _get(data, "simulation", name, dict, default={})
    sim_where = f"{name}.simulation"
    _reject_unknown(sim, {f.name for f in fields(ScenarioConfig)} - {"scenario"}, sim_where)
    sim_defaults = _field_defaults(ScenarioConfig)

    exp = _get(data, "experiment", name, dict, default={})
    exp_where = f"{name}.experiment"
    _reject_unknown(exp, {f.name for f in fields(ExperimentConfig)} - {"scenarios", "workers"},
                    exp_where)
    exp_defaults = _field_defaults(ExperimentConfig)

    def sim_get(key: str, expect: type) -> Any:
        return _get(sim, key, sim_where, expect, default=sim_defaults[key])

    def exp_get(key: str, expect: type) -> Any:
        return _get(exp, key, exp_where, expect, default=exp_defaults[key])

    conversation_ages = _numbers(sim_get("conversation_ages", list),
                                 f"{sim_where}.conversation_ages", integer=True)
    template = ScenarioConfig(
        conversation_ages=tuple(conversation_ages),
        high_risk_threshold=float(sim_get("high_risk_threshold", float)),
        bmi_reduction_sd_fraction=float(sim_get("bmi_reduction_sd_fraction", float)),
        bp_reduction_sd_fraction=float(sim_get("bp_reduction_sd_fraction", float)),
        horizon_days=sim_get("horizon_days", int),
        days_per_year=sim_get("days_per_year", int),
    )
    experiment = ExperimentConfig(
        base_seed=_get(exp, "base_seed", exp_where, int, default=42),
        scenarios=[replace(template, scenario=kind) for kind in Scenario],
        n_runs=exp_get("n_runs", int),
        significance_level=float(exp_get("significance_level", float)),
        common_random_numbers=exp_get("common_random_numbers", bool),
        welch=exp_get("welch", bool),
    )
    try:
        experiment.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc

    cal = _get(data, "calibration", name, dict, default={})
    cal_where = f"{name}.calibration"
    _reject_unknown(cal, ("target_annual_risk", "tol"), cal_where)

    severity, odds_ratios = _load_severity(
        _get(data, "severity", name, dict, default=None), f"{name}.severity"
    )

    return AppConfig(
        source=name,
        population_ref=population_ref,
        risk_model_ref=risk_model_ref,
        life_table_ref=life_table_ref,
        demographics=demographics,
        risk_tables=risk_tables,
        ensemble=ensemble,
        life_table=life_table,
        delay=_load_delay(_get(data, "delay", name, dict, default=None), f"{name}.delay"),
        severity=severity,
        odds_ratios=odds_ratios,
        experiment=experiment,
        calibration_target=float(_get(cal, "target_annual_risk", cal_where, float, default=0.0)),
        calibration_tol=float(_get(cal, "tol", cal_where, float, default=CALIBRATION_TOL)),
    )
