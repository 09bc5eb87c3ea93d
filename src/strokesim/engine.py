"""One replication of the stroke microsimulation.

The run is a 10-year daily loop.  On every year boundary (day 0 included)
agents age a year and lose a year of remaining life expectancy, and the
intervention scenario may notify them of high risk and reduce their
factors.  On every day a stroke-free agent may stroke with its daily
risk; a stroke draws an arrival delay, a delay-adjusted severity, and its
DALY contribution, and removes the agent from further dynamics.

An agent's five-year risk in year y depends only on its age then (entry
age + y + 1) and on whether its factors have been reduced, a one-off
change fixed by its original factors and the frozen baseline stats.  So
`build_risk_tables` scores every agent at every year's age once per
experiment, with and without the reduction, and a replication only
gathers from those `RiskTables`; it never rescores.

Two sampling paths produce the same stroke-day distribution: the skip
path draws the day of first success directly from the geometric
distribution (one uniform per agent per year), the naive path draws one
uniform per agent per day.  Experiments always run the skip path; only
tests select the naive one (`use_skip_sampling=False`), as the oracle the
skip path is checked against.

Each model rule is implemented once, as the kernel the replication or the
table build calls: `_conversation_mask` (notification, from an
age-indexed lookup), `_apply_reduction_rows` (risk reduction),
`_spillover_mask` (family spillover), `_first_success_offsets` (arrival
sampling), `OutcomeTable.draw` (a stroke's delay and severity) and
`compute_outcome` (DALY accounting).  The tests exercise these kernels
directly.

A replication builds one `OutcomeTable` from the delay, severity and
odds-ratio models, so a stroke makes only its three draws (a band
uniform, a normal for the hours, a severity uniform) and looks the rest
up.  Each stroke draws the same values, in the same order, as the
scalar path: `sample_delay`, then `adjust_severity` and
`sample_severity`.  Those scalar functions, with `compute_outcome` and
`first_success_offset`, are the references the kernels are tested
against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .population import (
    BMI_RANGE,
    DBP_RANGE,
    SBP_RANGE,
    BaselineStats,
    Population,
    _stats,
)
from .risk import (
    DAYS_PER_FIVE_YEARS,
    DAYS_PER_YEAR,
    FEATURE_NAMES,
    HORIZON_DAYS,
    EnsembleRiskModel,
    feature_matrix,
    five_year_matrix,
)


class Severity(Enum):
    NO_DISABILITY = "no_disability"
    MILD = "mild"
    MODERATE_SEVERE = "moderate_severe"
    DEATH = "death"


# Death carries no disability weight; it is accounted as years of life lost.
DISABILITY_WEIGHTS = {
    Severity.NO_DISABILITY: 0.0,
    Severity.MILD: 0.35,
    Severity.MODERATE_SEVERE: 0.7,
}

SEVERITY_ORDER = (
    Severity.NO_DISABILITY, Severity.MILD, Severity.MODERATE_SEVERE, Severity.DEATH,
)


@dataclass
class SeverityDistribution:
    p_no: float
    p_mild: float
    p_modsev: float
    p_death: float

    def validate(self) -> None:
        probs = (self.p_no, self.p_mild, self.p_modsev, self.p_death)
        for p in probs:
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"severity probability {p} outside [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigurationError(f"severity probabilities sum to {sum(probs)}")

    @staticmethod
    def default() -> "SeverityDistribution":
        return SeverityDistribution(0.19, 0.35, 0.37, 0.09)


@dataclass
class DelayBand:
    cum_threshold: float
    lo: float
    hi: float  # math.inf for the open last band
    mean: float
    sd: float


@dataclass
class DelayModel:
    """Arrival-delay mixture: a band picked by one uniform, hours from the
    band's normal, clamped into the band (the open band caps at mean + 6 sd)."""

    bands: list[DelayBand]

    def validate(self) -> None:
        if not self.bands:
            raise ConfigurationError("delay model: no bands")
        prev = 0.0
        for i, band in enumerate(self.bands):
            if band.cum_threshold <= prev:
                raise ConfigurationError(f"delay band {i}: thresholds must increase")
            if band.sd <= 0:
                raise ConfigurationError(f"delay band {i}: sd must be > 0")
            if band.hi <= band.lo:
                raise ConfigurationError(f"delay band {i}: empty hours range")
            if i > 0 and band.lo != self.bands[i - 1].hi:
                raise ConfigurationError(f"delay band {i}: bands must be contiguous")
            prev = band.cum_threshold
        if self.bands[-1].cum_threshold != 1.0:
            raise ConfigurationError("delay model: last threshold must be exactly 1")

    @staticmethod
    def default() -> "DelayModel":
        return DelayModel([
            DelayBand(0.49, 0.0, 3.0, 1.5, 0.75),
            DelayBand(0.59, 3.0, 4.5, 3.75, 0.375),
            DelayBand(0.79, 4.5, 12.0, 8.25, 1.875),
            DelayBand(1.0, 12.0, math.inf, 15.0, 1.0),
        ])


@dataclass
class OddsRatioRow:
    delay_lo: float
    delay_hi: float  # math.inf for the reference row
    or_mrs_le1: float
    or_mrs_ge2: float


@dataclass
class OddsRatioTable:
    """Delay-banded outcome odds ratios; the open-ended row is the reference."""

    rows: list[OddsRatioRow]

    def validate(self) -> None:
        if not self.rows:
            raise ConfigurationError("odds ratio table: no rows")
        for i, row in enumerate(self.rows):
            if row.or_mrs_le1 <= 0 or row.or_mrs_ge2 <= 0:
                raise ConfigurationError(f"odds ratio row {i}: ratios must be > 0")
            if row.delay_hi <= row.delay_lo:
                raise ConfigurationError(f"odds ratio row {i}: empty delay range")
            if i > 0 and row.delay_lo != self.rows[i - 1].delay_hi:
                raise ConfigurationError(f"odds ratio row {i}: rows must be contiguous")
        last = self.rows[-1]
        if not (math.isinf(last.delay_hi) and last.or_mrs_le1 == 1.0 and last.or_mrs_ge2 == 1.0):
            raise ConfigurationError("odds ratio table: last row must be the (1, 1) reference")

    def row_for_delay(self, delay_hours: float) -> OddsRatioRow:
        for row in self.rows:
            if row.delay_lo <= delay_hours < row.delay_hi:
                return row
        return self.rows[-1]

    @staticmethod
    def default() -> "OddsRatioTable":
        return OddsRatioTable([
            OddsRatioRow(0.0, 3.0, 1.66, 1.73),
            OddsRatioRow(3.0, 8.0, 1.15, 0.98),
            OddsRatioRow(8.0, math.inf, 1.0, 1.0),
        ])


@dataclass
class LifeTable:
    """Residual life expectancy by integer age and sex.

    Lookups clamp outside the tabulated range and interpolate linearly
    between listed ages, so sparse anchor tables work too.
    """

    ages: list[int]
    female: list[float]
    male: list[float]

    def validate(self) -> None:
        if len(self.ages) == 0 or len(self.female) != len(self.ages) or len(self.male) != len(self.ages):
            raise ConfigurationError("life table: ages/female/male lengths must match")
        for i in range(1, len(self.ages)):
            if self.ages[i] <= self.ages[i - 1]:
                raise ConfigurationError("life table: ages must be strictly increasing")
        for values in (self.female, self.male):
            if any(v < 0 for v in values):
                raise ConfigurationError("life table: negative life expectancy")
            for i in range(1, len(self.ages)):
                # age + LE(age) may not decrease: dying earlier by aging is absurd
                if self.ages[i] + values[i] < self.ages[i - 1] + values[i - 1] - 1e-9:
                    raise ConfigurationError("life table: age + LE(age) must be nondecreasing")

    def residual(self, sex: str, age: float) -> float:
        values = self.male if sex == "male" else self.female
        return float(np.interp(age, self.ages, values))

    def residual_array(self, male: np.ndarray, ages: np.ndarray) -> np.ndarray:
        """`residual` of every agent, for integer ages: each age in their
        span is interpolated once and gathered."""
        lo = ages.min()
        at = np.arange(lo, ages.max() + 1)
        f = np.interp(at, self.ages, self.female)[ages - lo]
        m = np.interp(at, self.ages, self.male)[ages - lo]
        return np.where(male > 0.5, m, f)


@dataclass
class StrokeOutcome:
    agent_id: int
    day: int
    delay_hours: float
    severity: Severity
    disability_weight: float
    yll: float
    yld: float
    daly: float


class Scenario(Enum):
    BASELINE = "baseline"
    CONVERSATIONS = "conversations"
    CONVERSATIONS_PLUS_FAMILY = "conversations_plus_family"


@dataclass
class ScenarioConfig:
    scenario: Scenario = Scenario.BASELINE
    conversation_ages: tuple[int, ...] = (50, 60, 70, 80, 90)
    high_risk_threshold: float = 0.1  # on the five-year score, not the daily one
    bmi_reduction_sd_fraction: float = 0.5
    bp_reduction_sd_fraction: float = 0.1
    horizon_days: int = HORIZON_DAYS
    days_per_year: int = DAYS_PER_YEAR

    def validate(self) -> None:
        if not (0.0 < self.high_risk_threshold < 1.0):
            raise ConfigurationError(
                f"high_risk_threshold = {self.high_risk_threshold} outside (0, 1)"
            )
        if list(self.conversation_ages) != sorted(self.conversation_ages):
            raise ConfigurationError("conversation_ages must be ascending")
        if self.horizon_days <= 0 or self.days_per_year <= 0:
            raise ConfigurationError("horizon_days and days_per_year must be > 0")
        for name in ("bmi_reduction_sd_fraction", "bp_reduction_sd_fraction"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


@dataclass
class RunResult:
    total_strokes: int
    total_dalys: float
    mean_dalys_per_stroke: float
    strokes_by_severity: dict[str, int]
    seed: Optional[int]
    conversations: int
    risk_reductions: int
    family_reductions: int
    outcomes: list[StrokeOutcome] = field(default_factory=list)


# --- per-stroke sampling and DALY accounting ---


def sample_delay(delay: DelayModel, rng: np.random.Generator) -> float:
    """Hours from stroke onset to hospital arrival.

    One uniform picks the band (u <= cumulative threshold), one normal
    draw gives the hours, clamped into the band.
    """
    u = rng.random()
    band = delay.bands[-1]
    for candidate in delay.bands:
        if u <= candidate.cum_threshold:
            band = candidate
            break
    hours = rng.normal(band.mean, band.sd)
    hi = min(band.hi, band.mean + 6.0 * band.sd)
    return float(min(max(hours, band.lo), hi))


def adjust_severity(
    base: SeverityDistribution, delay_hours: float, ors: OddsRatioTable
) -> SeverityDistribution:
    """Shift the severity distribution for the arrival delay.

    The row's first ratio scales the odds of no disability; the second is
    read as the odds in favor of avoiding mRS >= 2, so the combined
    moderate-severe + death mass has its odds divided by it (the internal
    modsev:death ratio is preserved).  Mild absorbs the remainder; if that
    goes negative it is clamped to 0 and the vector renormalized.  The
    reference row returns the input untouched.
    """
    base.validate()
    row = ors.row_for_delay(delay_hours)
    if row.or_mrs_le1 == 1.0 and row.or_mrs_ge2 == 1.0:
        return base

    if base.p_no >= 1.0:
        return base
    odds_no = row.or_mrs_le1 * base.p_no / (1.0 - base.p_no)
    p_no = odds_no / (1.0 + odds_no)

    bad = base.p_modsev + base.p_death
    if bad >= 1.0:
        return base
    if bad > 0.0:
        odds_bad = (bad / (1.0 - bad)) / row.or_mrs_ge2
        bad_new = odds_bad / (1.0 + odds_bad)
        p_modsev = bad_new * (base.p_modsev / bad)
        p_death = bad_new * (base.p_death / bad)
    else:
        p_modsev = 0.0
        p_death = 0.0

    p_mild = 1.0 - p_no - p_modsev - p_death
    if p_mild < 0.0:
        p_mild = 0.0
        total = p_no + p_modsev + p_death
        p_no, p_modsev, p_death = p_no / total, p_modsev / total, p_death / total
    return SeverityDistribution(p_no, p_mild, p_modsev, p_death)


def sample_severity(dist: SeverityDistribution, rng: np.random.Generator) -> Severity:
    """Categorical draw in the fixed order no / mild / modsev / death."""
    u = rng.random()
    cum = 0.0
    for severity, p in zip(
        SEVERITY_ORDER, (dist.p_no, dist.p_mild, dist.p_modsev, dist.p_death)
    ):
        cum += p
        if u < cum:
            return severity
    return Severity.DEATH


def compute_outcome(
    agent_id: int, day: int, delay_hours: float, severity: Severity, residual: float
) -> StrokeOutcome:
    """DALY contribution of one stroke, fixed at the moment it happens.

    Death costs the agent's residual life expectancy as YLL; survivors
    carry their residual years times the disability weight as YLD.  A
    residual that has run below zero counts as zero.
    """
    residual = max(residual, 0.0)
    if severity is Severity.DEATH:
        weight = 0.0
        yll, yld = residual, 0.0
    else:
        weight = DISABILITY_WEIGHTS[severity]
        yll, yld = 0.0, residual * weight
    return StrokeOutcome(
        agent_id=agent_id, day=day, delay_hours=delay_hours, severity=severity,
        disability_weight=weight, yll=yll, yld=yld, daly=yll + yld,
    )


@dataclass(frozen=True)
class OutcomeTable:
    """The per-stroke outcome draw as lookups: `sample_delay`, then
    `adjust_severity` and `sample_severity`, with everything but the three
    draws worked out once.

    `thresholds` are the delay bands' cumulative thresholds but the last
    (the last band takes every uniform above them), `bands` each band's
    (mean, sd, lo, capped hi), `delay_lo` the odds-ratio rows' lower
    bounds, and `cdfs` each row's adjusted severity distribution summed in
    SEVERITY_ORDER, less its last entry (a uniform above the others is a
    death).
    """

    thresholds: tuple[float, ...]
    bands: tuple[tuple[float, float, float, float], ...]
    delay_lo: tuple[float, ...]
    cdfs: tuple[tuple[float, float, float], ...]

    @staticmethod
    def build(
        delay: DelayModel, sev: SeverityDistribution, ors: OddsRatioTable
    ) -> "OutcomeTable":
        """Tabulate validated models; one `adjust_severity` call per row."""
        cdfs = []
        for row in ors.rows:
            dist = adjust_severity(sev, row.delay_lo, ors)
            cum, cdf = 0.0, []
            for p in (dist.p_no, dist.p_mild, dist.p_modsev):
                cum += p
                cdf.append(cum)
            cdfs.append(tuple(cdf))
        return OutcomeTable(
            thresholds=tuple(b.cum_threshold for b in delay.bands[:-1]),
            bands=tuple((b.mean, b.sd, float(b.lo), float(min(b.hi, b.mean + 6.0 * b.sd)))
                        for b in delay.bands),
            delay_lo=tuple(row.delay_lo for row in ors.rows),
            cdfs=tuple(cdfs),
        )

    def draw(self, rng: np.random.Generator) -> tuple[float, int]:
        """Arrival hours and severity (an index into SEVERITY_ORDER) of one
        stroke: the draws `sample_delay` and `sample_severity` make, in
        their order, and the same values.

        A band is the first whose threshold is >= u; the odds-ratio row is
        the last starting at or below the hours, and hours below the first
        row fall to the reference row (index -1), as in `row_for_delay`;
        the severity is the first whose cumulative mass is > u.
        """
        mean, sd, lo, hi = self.bands[bisect_left(self.thresholds, rng.random())]
        hours = min(max(rng.normal(mean, sd), lo), hi)
        cdf = self.cdfs[bisect_right(self.delay_lo, hours) - 1]
        return hours, bisect_right(cdf, rng.random())


# --- the array engine ---

_COL = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass
class PopulationArrays:
    """Column-oriented copy of a Population for the replication hot path.

    Row order is agent order; `features` columns follow FEATURE_NAMES and
    `age` holds the entry ages.  `stats` are the baseline factor stats,
    computed from the feature columns.  Replications only read it.
    """

    ids: np.ndarray
    features: np.ndarray
    age: np.ndarray
    male: np.ndarray
    household: np.ndarray  # dense household index per agent
    stats: BaselineStats

    @staticmethod
    def from_population(pop: Population) -> "PopulationArrays":
        if not pop.agents:
            raise ConfigurationError("empty population")
        features = feature_matrix(pop.agents)
        ids = np.array([a.id for a in pop.agents], dtype=np.int64)
        age = features[:, _COL["age"]].astype(np.int64)
        male = features[:, _COL["male"]].copy()
        hh_raw = np.array([a.household_id for a in pop.agents], dtype=np.int64)
        _, household = np.unique(hh_raw, return_inverse=True)
        stats = _stats(*(features[:, _COL[name]] for name in ("sbp", "dbp", "bmi")))
        return PopulationArrays(
            ids=ids, features=features, age=age, male=male,
            household=household, stats=stats,
        )


def first_success_offset(p: float, u: float, window: int) -> Optional[int]:
    """Day offset of the first success of Bernoulli(p) over `window` trials.

    Inverse-transform geometric: floor(log(1-u)/log(1-p)).  Returns None
    when no success falls inside the window; p = 0 can never succeed and
    p = 1 succeeds immediately.  The engine runs the vector form below;
    this scalar definition is the reference it is tested against.
    """
    if p <= 0.0:
        return None
    if p >= 1.0:
        return 0
    offset = int(math.floor(math.log1p(-u) / math.log1p(-p)))
    return offset if offset < window else None


def _first_success_offsets(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vector form of first_success_offset; inf marks no-success-ever.

    The closed form runs over every row, then the rows it does not cover
    are set: p <= 0 never succeeds, p >= 1 succeeds at once.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.floor(np.log1p(-u) / np.log1p(-p))
    out[p <= 0.0] = np.inf
    out[p >= 1.0] = 0.0
    return out


def _apply_reduction_rows(
    arrays: PopulationArrays, rows: np.ndarray, cfg: ScenarioConfig
) -> None:
    """One-off risk-factor reduction for `rows`, in place.

    Quits smoking outright; BMI drops a fraction of the population sd when
    above the population mean; both blood pressures drop a fraction of
    their sd.  Values floor at the physiologic minima.  `build_risk_tables`
    applies it to every row to score the reduced factors.
    """
    X, stats = arrays.features, arrays.stats
    X[rows, _COL["smoker"]] = 0.0
    X[rows, _COL["cigs_per_day"]] = 0.0
    bmi = X[rows, _COL["bmi"]]
    above = bmi > stats.bmi_mean
    bmi[above] = np.maximum(
        BMI_RANGE[0], bmi[above] - cfg.bmi_reduction_sd_fraction * stats.bmi_sd
    )
    X[rows, _COL["bmi"]] = bmi
    X[rows, _COL["sbp"]] = np.maximum(
        SBP_RANGE[0], X[rows, _COL["sbp"]] - cfg.bp_reduction_sd_fraction * stats.sbp_sd
    )
    X[rows, _COL["dbp"]] = np.maximum(
        DBP_RANGE[0], X[rows, _COL["dbp"]] - cfg.bp_reduction_sd_fraction * stats.dbp_sd
    )


def _schedule_lookup(cfg: ScenarioConfig, lo: int, hi: int) -> np.ndarray:
    """The conversation schedule over ages `lo` to `hi`: entry a - lo + 1
    says whether age a is a conversation age, and the False entry at each
    end catches every age outside that span."""
    return np.pad(np.isin(np.arange(lo, hi + 1), cfg.conversation_ages), 1)


def _conversation_mask(
    age: np.ndarray,
    five_year: np.ndarray,
    active: np.ndarray,
    cfg: ScenarioConfig,
    schedule: np.ndarray,
    lo: int,
) -> np.ndarray:
    """Stroke-free agents a GP conversation notifies this year: those at a
    scheduled conversation age whose five-year risk is strictly above the
    high-risk threshold.  `schedule` is `_schedule_lookup(cfg, lo, hi)`
    over a span holding every age."""
    return (
        active
        & schedule.take(age - lo + 1, mode="clip")
        & (five_year > cfg.high_risk_threshold)
    )


def _spillover_mask(
    household: np.ndarray, notified: np.ndarray, active: np.ndarray, reduced: np.ndarray
) -> np.ndarray:
    """Stroke-free, not-yet-reduced agents sharing a household with any
    notified agent; `household` holds dense indices."""
    flagged = np.zeros(int(household.max()) + 1, dtype=bool)
    flagged[household[notified]] = True
    return active & ~reduced & flagged[household]


def year_count(cfg: ScenarioConfig) -> int:
    """Year boundaries in a run: one per started year of the horizon."""
    return -(-cfg.horizon_days // cfg.days_per_year)


@dataclass(frozen=True)
class RiskTables:
    """Five-year risk of every agent in every simulated year.

    Row y, column i is agent i's ensemble score at the age it reaches on
    year boundary y (entry age + y + 1): in `plain` with its original
    factors, in `reduced` after `_apply_reduction_rows`.  `reduced` is
    None for a scenario that reduces no one.
    """

    plain: np.ndarray
    reduced: Optional[np.ndarray] = None


def _score_by_year(ens: EnsembleRiskModel, X: np.ndarray, entry_age: np.ndarray,
                   years: int) -> np.ndarray:
    """Score `X` at each year's age; overwrites its age column."""
    out = np.empty((years, len(entry_age)))
    for year in range(years):
        age = entry_age + (year + 1)
        X[:, _COL["age"]] = age
        out[year] = five_year_matrix(ens, X, age)
    return out


def build_risk_tables(
    arrays: PopulationArrays, ens: EnsembleRiskModel, scenarios: list[ScenarioConfig]
) -> dict[Scenario, RiskTables]:
    """The risk tables of each scenario, scored once for all its replications.

    Every table covers the longest horizon among `scenarios`.  `plain` is
    built once and shared; one `reduced` table is built per distinct pair
    of reduction fractions, and baseline gets none.
    """
    years = max(year_count(s) for s in scenarios)
    scratch = replace(arrays, features=arrays.features.copy())  # every table scores this
    plain = _score_by_year(ens, scratch.features, arrays.age, years)
    reduced: dict[tuple[float, float], np.ndarray] = {}
    tables = {}
    for s in scenarios:
        if s.scenario is Scenario.BASELINE:
            tables[s.scenario] = RiskTables(plain)
            continue
        key = (s.bmi_reduction_sd_fraction, s.bp_reduction_sd_fraction)
        if key not in reduced:
            scratch.features[:] = arrays.features
            _apply_reduction_rows(scratch, np.arange(len(arrays.ids)), s)
            reduced[key] = _score_by_year(ens, scratch.features, arrays.age, years)
        tables[s.scenario] = RiskTables(plain, reduced[key])
    return tables


def run_replication(
    arrays: PopulationArrays,
    tables: RiskTables,
    scenario: ScenarioConfig,
    delay: DelayModel,
    sev: SeverityDistribution,
    ors: OddsRatioTable,
    life: LifeTable,
    rng: np.random.Generator | int,
    use_skip_sampling: bool = True,
) -> RunResult:
    """Run one full replication and aggregate its outcomes.

    `tables` are the scenario's risk tables from `build_risk_tables` for
    these `arrays`; neither is mutated.  Passing an integer seed records
    it in the result, passing a Generator records None.  With identical
    inputs and seed the result is identical, on either sampling path
    (`use_skip_sampling=False`, the naive path, is the tests' oracle;
    each path is deterministic, and the two agree in distribution, not
    draw for draw).
    """
    scenario.validate()
    delay.validate()
    sev.validate()
    ors.validate()
    life.validate()

    interventions_on = scenario.scenario is not Scenario.BASELINE
    spillover_on = scenario.scenario is Scenario.CONVERSATIONS_PLUS_FAMILY
    n = len(arrays.ids)
    years = year_count(scenario)
    needed = [tables.plain] + ([tables.reduced] if interventions_on else [])
    if any(t is None or t.shape[0] < years or t.shape[1] != n for t in needed):
        raise ConfigurationError(
            f"risk tables do not cover {years} years of {n} agents "
            f"in scenario {scenario.scenario.value}"
        )

    seed: Optional[int] = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)

    rle = life.residual_array(arrays.male, arrays.age)
    # the ages agents reach at the year boundaries of the run
    age_lo = int(arrays.age.min()) + 1
    schedule = _schedule_lookup(scenario, age_lo, int(arrays.age.max()) + years)
    stroke_day = np.full(n, -1, dtype=np.int64)
    notified = np.zeros(n, dtype=bool)
    reduced = np.zeros(n, dtype=bool)

    outcome_table = OutcomeTable.build(delay, sev, ors)
    outcomes: list[StrokeOutcome] = []
    severity_counts = [0] * len(SEVERITY_ORDER)
    total_dalys = 0.0
    conversations = 0
    risk_reductions = 0
    family_reductions = 0

    def strike(rows: np.ndarray, days: np.ndarray) -> None:
        """Draw and account the strokes of `rows` on `days`, in that order."""
        nonlocal total_dalys
        stroke_day[rows] = days
        for agent_id, d, residual in zip(
            arrays.ids[rows].tolist(), days.tolist(), rle[rows].tolist()
        ):
            hours, k = outcome_table.draw(rng)
            outcome = compute_outcome(agent_id, d, hours, SEVERITY_ORDER[k], residual)
            outcomes.append(outcome)
            severity_counts[k] += 1
            total_dalys += outcome.daly

    for year in range(years):
        day = year * scenario.days_per_year
        active = stroke_day < 0

        # year boundary: birthdays first, then interventions
        rle[active] -= 1.0
        five_year = tables.plain[year]
        if interventions_on:
            five_year = np.where(reduced, tables.reduced[year], five_year)
            talk = _conversation_mask(
                arrays.age + (year + 1), five_year, active, scenario, schedule, age_lo
            )
            conversations += int(talk.sum())
            notified |= talk

            own = active & notified & ~reduced
            reduced |= own
            risk_reductions += int(own.sum())

            if spillover_on:
                spill = _spillover_mask(arrays.household, notified, active, reduced)
                reduced |= spill
                family_reductions += int(spill.sum())
            five_year = np.where(reduced, tables.reduced[year], tables.plain[year])

        window = min(scenario.days_per_year, scenario.horizon_days - day)
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

    total_strokes = len(outcomes)
    return RunResult(
        total_strokes=total_strokes,
        total_dalys=total_dalys,
        mean_dalys_per_stroke=total_dalys / total_strokes if total_strokes else 0.0,
        strokes_by_severity={s.value: c for s, c in zip(SEVERITY_ORDER, severity_counts)},
        seed=seed,
        conversations=conversations,
        risk_reductions=risk_reductions,
        family_reductions=family_reductions,
        outcomes=outcomes,
    )
