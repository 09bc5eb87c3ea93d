"""Config file loading.

Everything the simulation consumes is plain JSON: a population file
(demographic marginals plus age-banded risk factor tables), a risk model
file (ensemble members and weights), a life table, and an experiment file
that ties them together with the delay/severity constants, the Monte
Carlo settings and the `SimulationConfig` every scenario runs on.
References of the form "strokesim:NAME" resolve to the package's bundled
data directory; anything else is a filesystem path, resolved relative to
the referencing file.

Each JSON object maps onto a dataclass and is read by `_record`: every
field is read from the key of the same name, checked against the field's
annotation, and falls back on the default declared on the class, so each
field and default is written once.  The few keys that map onto several
fields (`ages`, `age_range`, `hours`, `delay`, `severity.base`) or onto a
list of records are read by the loader, and every object rejects any other
key; a file's top level may also carry a free-text `comment`.

Loaders validate as they build and raise ConfigurationError with the file
and field that broke.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import typing
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Collection, Optional

from .engine import (
    DelayBand,
    DelayModel,
    LifeTable,
    OddsRatioRow,
    OddsRatioTable,
    Scenario,
    SeverityDistribution,
    SimulationConfig,
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
    """Fetch a config reference as UTF-8 text; returns (text, display name)."""
    if isinstance(ref, str) and ref.startswith(BUNDLED_PREFIX):
        name = ref[len(BUNDLED_PREFIX):]
        resource = importlib.resources.files("strokesim").joinpath("data", name)
        try:
            return resource.read_text(encoding="utf-8"), ref
        except (FileNotFoundError, OSError) as exc:
            raise ConfigurationError(f"bundled resource {ref!r} not found") from exc
    path = Path(ref)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    try:
        return path.read_text(encoding="utf-8"), str(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc}") from None


def _parse_json(text: str, name: str) -> Any:
    """Parse a config file, rejecting NaN, Infinity, literals that overflow
    to infinity (json.loads accepts all three), integers too large for a
    float (or for Python's int-string conversion limit) and a key given
    twice in one object (json.loads keeps the last)."""
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

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigurationError(f"{name}: key {key!r} given twice in one object")
            obj[key] = value
        return obj

    try:
        return json.loads(text, parse_constant=non_finite, parse_float=finite_float,
                          parse_int=float_sized_int, object_pairs_hook=unique_keys)
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


def _reject_unknown(obj: dict, known: Collection[str], where: str) -> None:
    """Reject keys the loader does not read, so a typo cannot fall back on a default."""
    for key in obj:
        if key not in known:
            raise ConfigurationError(f"{where}: unknown key {key!r}")


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """``cls``'s field annotations, resolved once (they are strings under
    ``from __future__ import annotations``)."""
    return typing.get_type_hints(cls)


def _value(obj: dict, key: str, where: str, annotation: Any) -> Any:
    """``obj[key]`` checked against a field annotation: a scalar, a list or
    tuple of numbers, or a ``{name: number}`` table."""
    kind, args = typing.get_origin(annotation), typing.get_args(annotation)
    if kind is dict:
        return {name: float(_number(v, f"{where}.{key}.{name}"))
                for name, v in _get(obj, key, where, dict).items()}
    if kind in (list, tuple):
        return kind(_numbers(_get(obj, key, where, list), f"{where}.{key}",
                             integer=args[0] is int))
    value = _get(obj, key, where, annotation)
    return float(value) if annotation is float else value


def _record(cls: type, obj: Any, where: str, uses: Collection[str] = (), **given: Any) -> Any:
    """Build dataclass ``cls`` from the JSON object ``obj``.

    Each field not in ``given`` is read from the key of the same name and
    checked against its annotation; an absent key takes the field's default,
    an absent required field is an error.  Any other key is rejected unless
    it is in ``uses``, the keys the caller reads itself.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where}: expected an object")
    read = [f for f in fields(cls) if f.name not in given]
    _reject_unknown(obj, {f.name for f in read}.union(uses), where)
    types = _field_types(cls)
    for f in read:
        if f.name in obj or f.default is MISSING:
            given[f.name] = _value(obj, f.name, where, types[f.name])
    return cls(**given)


def _entries(obj: dict, key: str, where: str) -> list[tuple[Any, str]]:
    """Each item of the list ``obj[key]``, with its name ``where.key[i]``."""
    return [(entry, f"{where}.{key}[{i}]") for i, entry in enumerate(_get(obj, key, where, list))]


def _pair(entry: dict, key: str, where: str, open_hi: Any, integer: bool = False) -> tuple:
    """A ``[lo, hi]`` list of numbers; a null ``hi`` leaves the top open at ``open_hi``."""
    pair = _get(entry, key, where, list)
    if len(pair) != 2:
        raise ConfigurationError(f"{where}: {key} must be [lo, hi]")
    lo, hi = pair
    return tuple(_numbers([lo, open_hi if hi is None else hi], f"{where}.{key}", integer))


def _validate(obj: Any, name: str) -> None:
    """``obj.validate()``, its error prefixed with ``name``, the file or
    section that was read."""
    try:
        obj.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def load_population_file(
    ref: str | Path, base_dir: Optional[Path] = None
) -> tuple[DemographicSpec, RiskFactorTables]:
    text, name = _read_ref(ref, base_dir)
    data = _parse_json(text, name)
    demo = _get(data, "demographics", name, dict)
    rf = _get(data, "risk_factors", name, dict)
    _reject_unknown(data, ("demographics", "risk_factors", "comment"), name)

    where = f"{name}.demographics"
    regions = [_record(RegionSpec, entry, at) for entry, at in _entries(demo, "regions", where)]
    spec = _record(DemographicSpec, demo, where, uses=("regions",), regions=regions)
    _validate(spec, name)

    bands = []
    for entry, at in _entries(rf, "bands", f"{name}.risk_factors"):
        lo, hi = parse_age_range(_get(entry, "ages", at, str))
        bands.append(_record(RiskFactorBand, entry, at, uses=("ages",), age_lo=lo, age_hi=hi))
    tables = _record(RiskFactorTables, rf, f"{name}.risk_factors", uses=("bands",), bands=bands)
    _validate(tables, name)
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
    for entry, where in _entries(data, "models", name):
        lo, hi = _pair(entry, "age_range", where, OPEN_AGE, integer=True)
        model = _record(LogisticModel, entry, where, uses=("age_range",), age_lo=lo, age_hi=hi)
        for feature in _HARMFUL_FEATURES:
            coef = model.coefficients.get(feature, 0.0)
            if coef < 0:
                message = (
                    f"{where}.coefficients.{feature} = {coef} is negative; "
                    "harmful factors are expected to be nonprotective"
                )
                if bundled:
                    raise ConfigurationError(message)
                warnings.warn(message, stacklevel=2)
        models.append(model)

    weights = []
    for entry, where in _entries(data, "weights", name):
        lo, hi = _pair(entry, "age_range", where, OPEN_AGE, integer=True)
        weights.append(_record(WeightRow, entry, where, uses=("age_range",), age_lo=lo, age_hi=hi))

    ens = _record(EnsembleRiskModel, data, name, uses=("models", "weights", "comment"),
                  models=models, weights=weights)
    _validate(ens, name)
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
    table = _record(LifeTable, _parse_json(text, name), name, uses=("comment",))
    _validate(table, name)
    return table


def _load_delay(data: Optional[dict], name: str) -> DelayModel:
    if data is None:
        return DelayModel.default()
    bands = []
    for entry, where in _entries(data, "bands", name):
        lo, hi = _pair(entry, "hours", where, math.inf)
        bands.append(_record(DelayBand, entry, where, uses=("hours",), lo=lo, hi=hi))
    model = _record(DelayModel, data, name, uses=("bands",), bands=bands)
    _validate(model, name)
    return model


def _load_severity(data: Optional[dict], name: str) -> tuple[SeverityDistribution, OddsRatioTable]:
    if data is None:
        return SeverityDistribution.default(), OddsRatioTable.default()
    _reject_unknown(data, ("base", "odds_ratios"), name)
    base = _get(data, "base", name, list)
    if len(base) != 4:
        raise ConfigurationError(f"{name}.base: expected 4 probabilities")
    sev = SeverityDistribution(*_numbers(base, f"{name}.base"))
    _validate(sev, f"{name}.base")

    if "odds_ratios" not in data:
        return sev, OddsRatioTable.default()
    rows = []
    for entry, where in _entries(data, "odds_ratios", name):
        lo, hi = _pair(entry, "delay", where, math.inf)
        rows.append(_record(OddsRatioRow, entry, where, uses=("delay",),
                            delay_lo=lo, delay_hi=hi))
    if not rows:
        raise ConfigurationError(f"{name}.odds_ratios: at least one row required")
    ors = OddsRatioTable(rows=rows)
    _validate(ors, f"{name}.odds_ratios")
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
    experiment: ExperimentConfig
    calibration_target: float
    calibration_tol: float

    @property
    def horizon_days(self) -> int:
        return self.experiment.simulation.horizon_days

    @property
    def days_per_year(self) -> int:
        return self.experiment.simulation.days_per_year


def load_experiment_file(ref: str | Path = DEFAULT_EXPERIMENT, base_dir: Optional[Path] = None) -> AppConfig:
    """Load an experiment file and what it references; the experiment runs
    every Scenario on the one validated SimulationConfig of `simulation`."""
    text, name = _read_ref(ref, base_dir)
    data = _parse_json(text, name)
    if not isinstance(ref, str) or not ref.startswith(BUNDLED_PREFIX):
        base_dir = Path(name).parent
    else:
        base_dir = None

    population_ref = _get(data, "population", name, str)
    risk_model_ref = _get(data, "risk_model", name, str)
    life_table_ref = _get(data, "life_table", name, str)
    _reject_unknown(data, ("population", "risk_model", "life_table", "simulation", "delay",
                           "severity", "experiment", "calibration", "comment"), name)
    demographics, risk_tables = load_population_file(population_ref, base_dir)
    ensemble = load_risk_model(risk_model_ref, base_dir)
    life_table = load_life_table(life_table_ref, base_dir)

    simulation = _record(SimulationConfig, _get(data, "simulation", name, dict, default={}),
                         f"{name}.simulation")
    # workers is chosen per run (--workers), never by the file
    experiment = _record(ExperimentConfig, _get(data, "experiment", name, dict, default={}),
                         f"{name}.experiment", scenarios=list(Scenario),
                         simulation=simulation, workers=None)
    _validate(experiment, name)

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
