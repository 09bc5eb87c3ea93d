"""Five-year stroke risk scoring.

The risk engine is an ensemble of logistic models.  Each member model maps
an agent's risk factors to a five-year first-stroke probability; the
ensemble combines member scores with age-banded weights, linearly
crossfaded near band boundaries so the score has no jumps as an agent
ages.  A single additive calibration offset, shared by every member
intercept, is tuned by `calibrate_intercepts` so the population-level
expected stroke count matches a target incidence.

Every score comes from one kernel that works member by member over rows
of features: the linear predictors (`_linear_predictors`), each member's
sigmoid (`member_probabilities` at the model's calibration offset) and
their weighted sum in member order (`ensemble_mix`).  `_scorer` composes
them as a function of the offset, and `calibrate_intercepts` bisects on
the expectation `expected_stroke_count` reports, `_expectation`.
Daily risk is the five-year probability spread over the 1826 days in five years.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable

import numpy as np

from .errors import CalibrationError, ConfigurationError
from .population import DAYS_PER_FIVE_YEARS, Agent, Population

# The default time grid (ten 365-day years) and calibration tolerance;
# SimulationConfig and the config loader take theirs from here.
DAYS_PER_YEAR = 365
HORIZON_DAYS = 10 * DAYS_PER_YEAR
CALIBRATION_TOL = 1e-12

# Column order of the feature matrix; coefficient dicts use these names.
# Sex is encoded as male=1, female=0.
FEATURE_NAMES = (
    "age", "male", "sbp", "dbp", "bmi",
    "diabetes", "afib", "smoker", "cigs_per_day",
)

_LP_LIMIT = 60.0  # keeps exp() finite; sigmoid(+-60) is still strictly inside (0, 1)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with x clipped to +-_LP_LIMIT; one new array."""
    out = np.clip(x, -_LP_LIMIT, _LP_LIMIT)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def agent_features(agent: Agent) -> tuple[float, ...]:
    """Feature vector for one agent, in `FEATURE_NAMES` order."""
    return (float(agent.age), float(agent.sex == "male"), agent.sbp, agent.dbp, agent.bmi,
            float(agent.diabetes), float(agent.afib), float(agent.smoker),
            float(agent.cigs_per_day))


def feature_matrix(agents: list[Agent]) -> np.ndarray:
    """(n_agents, n_features) float matrix whose row i is `agent_features(agents[i])`."""
    flat = np.fromiter(chain.from_iterable(map(agent_features, agents)), float)
    return flat.reshape(len(agents), len(FEATURE_NAMES))


def population_features(pop: Population) -> np.ndarray:
    """`feature_matrix(pop.agents)`, from the population's columns."""
    return np.column_stack((pop.age, pop.sex == "male", pop.sbp, pop.dbp, pop.bmi,
                            pop.diabetes, pop.afib, pop.smoker, pop.cigs_per_day))


@dataclass
class LogisticModel:
    """One ensemble member.

    `age_lo`/`age_hi` record the band the model was fitted for; scoring
    itself accepts any age, the band only steers the ensemble weights.
    """

    age_lo: int
    age_hi: int
    intercept: float
    coefficients: dict[str, float]

    def validate(self, prefix: str) -> None:
        if self.age_hi < self.age_lo:
            raise ConfigurationError(f"{prefix}: empty age range")
        for name in self.coefficients:
            if name not in FEATURE_NAMES:
                raise ConfigurationError(f"{prefix}.coefficients: unknown feature {name!r}")


@dataclass
class WeightRow:
    """Ensemble weights that apply within one age band."""

    age_lo: int
    age_hi: int
    weights: list[float]


@dataclass
class EnsembleRiskModel:
    models: list[LogisticModel]
    weights: list[WeightRow]
    crossfade_years: int = 0
    calibration_offset: float = 0.0

    def validate(self) -> None:
        if not self.models:
            raise ConfigurationError("ensemble: at least one model required")
        for i, model in enumerate(self.models):
            model.validate(f"models[{i}]")
        if not self.weights:
            raise ConfigurationError("ensemble: at least one weight row required")
        n = len(self.models)
        prev_hi: int | None = None
        for i, row in enumerate(self.weights):
            if len(row.weights) != n:
                raise ConfigurationError(f"weights[{i}]: {len(row.weights)} weights for {n} models")
            if any(w < 0 for w in row.weights):
                raise ConfigurationError(f"weights[{i}]: negative weight")
            if abs(sum(row.weights) - 1.0) > 1e-9:
                raise ConfigurationError(f"weights[{i}]: weights must sum to 1")
            if row.age_hi < row.age_lo:
                raise ConfigurationError(f"weights[{i}]: empty age range")
            if prev_hi is not None and row.age_lo != prev_hi + 1:
                raise ConfigurationError(f"weights[{i}]: bands must be contiguous and ascending")
            prev_hi = row.age_hi
        if self.crossfade_years < 0:
            raise ConfigurationError("crossfade_years must be >= 0")
        if self.crossfade_years > 0:
            narrowest = min(r.age_hi - r.age_lo + 1 for r in self.weights)
            if 2 * self.crossfade_years > narrowest:
                raise ConfigurationError("crossfade_years too wide for the narrowest weight band")


def logistic_score(model: LogisticModel, agent: Agent, offset: float = 0.0) -> float:
    """Five-year probability from one member model (plus calibration offset)."""
    lp = model.intercept + offset
    feats = agent_features(agent)
    for i, name in enumerate(FEATURE_NAMES):
        coef = model.coefficients.get(name)
        if coef is not None:
            lp += coef * feats[i]
    lp = min(max(lp, -_LP_LIMIT), _LP_LIMIT)
    return 1.0 / (1.0 + math.exp(-lp))


def weights_for_age(ensemble: EnsembleRiskModel, age: int) -> np.ndarray:
    """Ensemble weight vector at an age, crossfaded near band boundaries.

    Within `crossfade_years` of a boundary B the weights blend linearly
    from the lower row (pure at B - crossfade) to the upper row (pure at
    B + crossfade), meeting halfway at B itself.
    """
    rows = ensemble.weights
    if age < rows[0].age_lo:
        raise ConfigurationError(f"no ensemble weights defined at age {age}")
    # ages beyond the last row keep the oldest band's weights
    idx = len(rows) - 1
    for i, row in enumerate(rows):
        if row.age_lo <= age <= row.age_hi:
            idx = i
            break
    cf = ensemble.crossfade_years
    if cf > 0:
        if idx + 1 < len(rows):
            boundary = rows[idx + 1].age_lo
            if age >= boundary - cf:
                f = (age - (boundary - cf)) / (2.0 * cf)
                lo = np.asarray(rows[idx].weights, dtype=float)
                hi = np.asarray(rows[idx + 1].weights, dtype=float)
                return (1.0 - f) * lo + f * hi
        if idx > 0:
            boundary = rows[idx].age_lo
            if age < boundary + cf:
                f = (age - (boundary - cf)) / (2.0 * cf)
                lo = np.asarray(rows[idx - 1].weights, dtype=float)
                hi = np.asarray(rows[idx].weights, dtype=float)
                return (1.0 - f) * lo + f * hi
    return np.asarray(rows[idx].weights, dtype=float)


@dataclass(frozen=True)
class WeightTable:
    """Member weights by whole year of age, one row per member: `columns[j,
    k]` is member j's `weights_for_age` at age `youngest + k`.

    Every age past the last band has that band's weights, so ages are
    capped just above it (`cap`) and the table stays as small as the bands.
    """

    youngest: int
    cap: int
    columns: np.ndarray

    @staticmethod
    def spanning(ensemble: EnsembleRiskModel, ages: np.ndarray) -> "WeightTable":
        """The table over every whole age from the youngest of `ages` to
        the oldest."""
        ages = np.asarray(ages).astype(np.int64)
        cap = ensemble.weights[-1].age_hi + 1
        span = range(min(int(ages.min()), cap), min(int(ages.max()), cap) + 1) \
            if ages.size else range(0)
        columns = np.array([weights_for_age(ensemble, age) for age in span])
        # the reshape keeps one row per member when the span is empty
        columns = columns.T.reshape(len(ensemble.models), len(span))
        return WeightTable(youngest=span.start, cap=cap, columns=np.ascontiguousarray(columns))

    def at(self, ages: np.ndarray) -> np.ndarray:
        """(n_models, n_agents) weights at `ages`, which the table spans;
        fractional ages truncate, as `int()` does."""
        at = np.minimum(np.asarray(ages).astype(np.int64), self.cap) - self.youngest
        return self.columns.take(at, axis=1)


def coefficient_matrix(ensemble: EnsembleRiskModel) -> tuple[np.ndarray, np.ndarray]:
    """Member coefficients as ((n_models, n_features), intercepts) arrays."""
    coefs = np.zeros((len(ensemble.models), len(FEATURE_NAMES)))
    intercepts = np.zeros(len(ensemble.models))
    for j, model in enumerate(ensemble.models):
        intercepts[j] = model.intercept
        for i, name in enumerate(FEATURE_NAMES):
            coefs[j, i] = model.coefficients.get(name, 0.0)
    return coefs, intercepts


def _linear_predictors(
    ensemble: EnsembleRiskModel, features: np.ndarray, rows: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """(n_models, n_rows) member linear predictors `coefs @ features.T +
    intercepts` of `rows` of `features` (every row by default), without the
    calibration offset.

    The product always runs over every row of `features` and the rows are
    picked from it: a product over fewer rows may take another BLAS path and
    round differently.
    """
    coefs, intercepts = coefficient_matrix(ensemble)
    lps = (coefs @ features.T)[:, rows]
    lps += intercepts[:, None]
    return lps


def member_probabilities(
    ensemble: EnsembleRiskModel, features: np.ndarray, rows: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """(n_models, n_rows) five-year probability of each member for `rows`
    of `features`, at the model's calibration offset; `ensemble_mix`
    weighs them into scores."""
    return _sigmoid(_linear_predictors(ensemble, features, rows) + ensemble.calibration_offset)


def ensemble_mix(probs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ensemble scores from member probabilities and member weights, both
    (n_models, n_rows): each member's probability times its weight, added
    in member order."""
    total = probs[0] * w[0]
    for p, weight in zip(probs[1:], w[1:]):
        total += p * weight
    return total


def _scorer(
    ensemble: EnsembleRiskModel, features: np.ndarray, ages: np.ndarray
) -> Callable[[float], np.ndarray]:
    """Five-year ensemble scores of the rows of `features` as a function of
    the calibration offset.

    Member by member: the linear predictors (`_linear_predictors`) and the
    member weights at `ages` are computed once, so each further offset
    costs one sigmoid and one `ensemble_mix`.
    """
    lps = _linear_predictors(ensemble, features)
    w = WeightTable.spanning(ensemble, ages).at(ages)

    def five_year(offset: float) -> np.ndarray:
        return ensemble_mix(_sigmoid(lps + offset), w)
    return five_year


def five_year_matrix(
    ensemble: EnsembleRiskModel, features: np.ndarray, ages: np.ndarray
) -> np.ndarray:
    """Vectorized ensemble score for many agents at once.

    Equivalent to `ensemble_score` per row, and the reference that the
    engine's per-year risk tables (`engine.build_risk_tables`) are tested
    against.
    """
    return _scorer(ensemble, features, ages)(ensemble.calibration_offset)


def ensemble_score(ensemble: EnsembleRiskModel, agent: Agent) -> float:
    """Five-year risk for one agent."""
    w = weights_for_age(ensemble, agent.age)
    five_year = 0.0
    for j, model in enumerate(ensemble.models):
        if w[j] != 0.0:
            five_year += w[j] * logistic_score(model, agent, ensemble.calibration_offset)
    return five_year


def _expectation(
    ensemble: EnsembleRiskModel, pop: Population, horizon_days: int
) -> Callable[[float], float]:
    """Closed-form expected first strokes over a horizon at frozen risks, as
    a function of the calibration offset.

    Per agent the chance of at least one stroke in `horizon_days` draws at
    its daily risk is 1 - (1 - daily)^horizon; summing over agents gives the
    expected count, with no simulation noise.
    """
    score = _scorer(ensemble, population_features(pop), pop.age)

    def expected(offset: float) -> float:
        daily = score(offset) / DAYS_PER_FIVE_YEARS
        return float((1.0 - (1.0 - daily) ** horizon_days).sum())
    return expected


def expected_stroke_count(ensemble: EnsembleRiskModel, pop: Population, horizon_days: int) -> float:
    """Expected first strokes over `horizon_days` at the model's calibration
    offset (see `_expectation`)."""
    return _expectation(ensemble, pop, horizon_days)(ensemble.calibration_offset)


def check_calibration_request(target_annual_risk: float, tol: float) -> None:
    """Refuse a target annual risk outside (0, 0.05] or a tolerance that is
    negative or not finite, NaN included for both."""
    if not 0 < target_annual_risk <= 0.05:
        raise ConfigurationError(f"target_annual_risk = {target_annual_risk} outside (0, 0.05]")
    if not 0 <= tol < math.inf:
        raise ConfigurationError(f"tol = {tol}: must be finite and >= 0")


def calibrate_intercepts(
    ensemble: EnsembleRiskModel,
    pop: Population,
    target_annual_risk: float,
    horizon_days: int = HORIZON_DAYS,
    days_per_year: int = DAYS_PER_YEAR,
    tol: float = CALIBRATION_TOL,
) -> EnsembleRiskModel:
    """Find the calibration offset matching a target annual stroke risk.

    The target is expressed as expected first strokes per agent-year; the
    objective is the closed-form horizon expectation, so a calibrated model
    reproduces the target count exactly in expectation when simulated.  The
    expectation is monotone in the offset, so plain bisection over [-10, 10]
    does it; `tol` is in target units (annual risk per agent).  Raises
    CalibrationError (with the nearest achievable incidence) if the target
    is outside the bracket's reach.
    """
    ensemble.validate()
    check_calibration_request(target_annual_risk, tol)
    expected = _expectation(ensemble, pop, horizon_days)
    years = horizon_days / days_per_year
    target_count = target_annual_risk * len(pop) * years
    tol_count = tol * len(pop) * years

    lo, hi = -10.0, 10.0
    f_lo = expected(lo) - target_count
    f_hi = expected(hi) - target_count
    if f_lo > 0 or f_hi < 0:
        nearest = expected(hi) if f_hi < 0 else expected(lo)
        raise CalibrationError(
            f"target {target_annual_risk} per agent-year is outside the "
            f"achievable range for this model and population",
            achieved=nearest / (len(pop) * years),
        )
    delta = 0.0
    for _ in range(60):  # a cap: the 1e-15 width check stops after 55 halvings
        delta = 0.5 * (lo + hi)
        f_mid = expected(delta) - target_count
        if abs(f_mid) <= tol_count or (hi - lo) < 1e-15:
            break
        if f_mid > 0:
            hi = delta
        else:
            lo = delta
    return replace(ensemble, calibration_offset=delta)
