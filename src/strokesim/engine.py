"""One replication of the stroke microsimulation.

A run loops over simulated years.  On each year boundary (day 0
included) agents age a year and the scenario may notify high-risk agents
and reduce their factors; then each stroke-free agent's first stroke day
in the year is drawn from the geometric distribution of its daily risk
(skip sampling: one uniform per stroke-free agent per year).  A stroke in
year y draws an arrival delay and a delay-adjusted severity, costs the
agent's residual life expectancy at entry less y + 1 years times the
severity's DALY weight, and removes the agent from further dynamics.

An agent's five-year risk in year y depends only on its age then (entry
age + y + 1) and on whether its factors have been reduced, a one-off
change fixed by its original factors and the frozen baseline stats.  So
`build_risk_tables` scores every agent at every year's age once per
experiment, into the one set of tables its scenarios all read, and lists
the rows at a conversation age in each year.  It
scores the reduced factors only for the rows a replication can reduce:
the members of households where some agent at a conversation age is
above the threshold with its original factors (`_reducible_rows` proves
that no other row is ever reduced).  These columns form a compact
`reduced` table, and `slot` maps each row to its column.  When no
ensemble member has an age term, each agent's member probabilities are
the same in every year, so they are computed once per table.  A
replication only gathers from those `RiskTables`, and one bool array
records whose factors are reduced.
Each year touches only the rows it needs: notification tests its
scheduled rows, reduction and spillover start from its notified agents
(anyone notified earlier was reduced then, with the stroke-free members
of their household), and arrival reads the stroke-free rows only.

Each model rule is implemented once, as the kernel the replication or the
table build calls: `_current_risk` (an agent's risk this year),
`_scheduled_rows` and `_conversation_rows` (notification: the rows at a
conversation age each year, listed once per experiment, then the
threshold on those rows only), `_apply_reduction_rows` (risk reduction),
`_spillover_rows` (family spillover: the stroke-free, unreduced rows of
the notified households, found by `_household_rows`, which
`_reducible_rows` also calls), `_year_arrivals` (arrival sampling: a
bound that no year's hit exceeds picks the candidates, and
`_first_success_offsets` runs on those only), `OutcomeTable.draw` (a stroke's delay and severity)
and `_stroke_dalys` (DALY accounting).  The tests exercise these kernels
directly and check the whole loop against a one-uniform-per-day oracle.

`prepare` builds, once per experiment, the `PreparedModel` that
`run_replication(model, rng, kind)` reads for every `Scenario` kind: the
experiment's one `SimulationConfig`, the risk tables, an `OutcomeTable`
of the delay, severity and odds-ratio models, and each agent's residual
life expectancy at entry.  A stroke then makes only its three draws (a
band uniform, a normal for the hours, a severity uniform), the values the
scalar path `sample_delay`, `adjust_severity`, `sample_severity` draws,
in its order, and looks the rest up.  Those scalar functions, with
`compute_outcome` and `first_success_offset`, are the references the
kernels are tested against; no replication calls them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
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
    population_stats,
)
from .risk import (
    DAYS_PER_FIVE_YEARS,
    DAYS_PER_YEAR,
    FEATURE_NAMES,
    HORIZON_DAYS,
    EnsembleRiskModel,
    WeightTable,
    ensemble_mix,
    five_year_matrix,  # not called here; perfbench/tracing.py patches it by name
    member_probabilities,
    population_features,
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

# DALYs per residual life year of a stroke, indexed like SEVERITY_ORDER: a
# survivor's disability weight, and 1 for a death, whose residual years
# are all lost.
DALY_WEIGHTS = np.array([DISABILITY_WEIGHTS[s] for s in SEVERITY_ORDER[:-1]] + [1.0])


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

    @property
    def scenario(self) -> "Scenario":
        """The member itself, for perfbench's tracer, which tags replication
        spans with `args[2].scenario.value`; ROADMAP item 1 deletes this."""
        return self


@dataclass(frozen=True)
class SimulationConfig:
    """The one simulation config of an experiment; every `Scenario` runs on it."""

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
    """One replication (the caller keeps its seed).  `stroke_day` and
    `severity` are per agent, in row order: the day of its stroke and the
    stroke's index into SEVERITY_ORDER, -1 for an agent who had none."""

    total_dalys: float
    conversations: int
    risk_reductions: int
    family_reductions: int
    stroke_day: np.ndarray
    severity: np.ndarray

    @property
    def total_strokes(self) -> int:
        return int(np.count_nonzero(self.stroke_day >= 0))

    @property
    def strokes_by_severity(self) -> dict[str, int]:
        counts = np.bincount(self.severity[self.severity >= 0], minlength=len(SEVERITY_ORDER))
        return {s.value: int(c) for s, c in zip(SEVERITY_ORDER, counts)}


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
    residual that has run below zero counts as zero.  The reference for
    `_stroke_dalys`.
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


def _stroke_dalys(residual: np.ndarray, severity: np.ndarray) -> np.ndarray:
    """`compute_outcome(...).daly` of strokes with `residual` years of life
    left and `severity` indices into SEVERITY_ORDER."""
    return np.maximum(residual, 0.0) * DALY_WEIGHTS[severity]


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
    `age` holds the entry ages; `household` is the population's own dense
    household index per agent.  `stats` are the population's baseline
    factor stats.  Replications only read it.
    """

    features: np.ndarray
    age: np.ndarray
    household: np.ndarray
    stats: BaselineStats

    @staticmethod
    def from_population(pop: Population) -> "PopulationArrays":
        return PopulationArrays(
            features=population_features(pop), age=pop.age.astype(np.int64),
            household=pop.household, stats=population_stats(pop),
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


def _year_arrivals(
    five_year: np.ndarray, u: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and day offsets of the rows whose first success falls
    inside `window` days, at daily risk `five_year / DAYS_PER_FIVE_YEARS`
    with uniforms `u`: the rows `_first_success_offsets` puts below
    `window`, in order, with its offsets.

    A success inside the window needs u < 1 - (1 - p)^window, which is at
    most window * p (Bernoulli's inequality).  Only rows under that bound,
    widened by 1e-9 to cover the rounding of p, the bound and the closed
    form, are candidates, and only they get the closed form.
    """
    bound = five_year * (window / DAYS_PER_FIVE_YEARS * (1.0 + 1e-9))
    at = np.flatnonzero(u < bound)
    offsets = _first_success_offsets(five_year[at] / DAYS_PER_FIVE_YEARS, u[at])
    hit = offsets < window
    return at[hit], offsets[hit]


def _apply_reduction_rows(
    arrays: PopulationArrays, rows: np.ndarray, cfg: SimulationConfig
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


def _scheduled_rows(
    entry_age: np.ndarray, conversation_ages: tuple[int, ...], years: int
) -> tuple[np.ndarray, ...]:
    """Per year y, the rows at a conversation age on year boundary y (entry
    age + y + 1), ascending.  Each conversation age is one block of an
    argsort of the entry ages, found by `searchsorted`, and each year's
    blocks are sorted into row order; entry ages are computed as Python
    ints, so no conversation age can overflow."""
    order = np.argsort(entry_age)
    by_age = entry_age[order]
    youngest, oldest = int(by_age[0]), int(by_age[-1])
    schedule = []
    for year in range(years):
        blocks = []
        for age in sorted(set(conversation_ages)):
            entry = int(age) - year - 1
            if youngest <= entry <= oldest:
                lo = np.searchsorted(by_age, entry, side="left")
                hi = np.searchsorted(by_age, entry, side="right")
                blocks.append(order[lo:hi])
        schedule.append(np.sort(np.concatenate(blocks)) if blocks
                        else np.empty(0, dtype=np.int64))
    return tuple(schedule)


def _conversation_rows(
    rows: np.ndarray, five_year: np.ndarray, active: np.ndarray, cfg: SimulationConfig
) -> np.ndarray:
    """Agents a GP conversation notifies this year: of `rows`, the year's
    `_scheduled_rows`, those stroke-free (`active`) whose five-year risk is
    strictly above the high-risk threshold.  `five_year` and `active` hold
    one entry per row of `rows`."""
    return rows[active & (five_year > cfg.high_risk_threshold)]


def _household_rows(household: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows, ascending, of every household that holds a row of `rows`,
    for `household` a dense household index per row."""
    flagged = np.zeros(household.size, dtype=bool)  # dense: fewer households than rows
    flagged[household[rows]] = True
    return np.flatnonzero(flagged[household])


def _spillover_rows(
    arrays: PopulationArrays, talk: np.ndarray, stroke_day: np.ndarray, reduced: np.ndarray
) -> np.ndarray:
    """Stroke-free, not-yet-reduced agents sharing a household with an
    agent of `talk`, ascending."""
    mates = _household_rows(arrays.household, talk)
    return mates[(stroke_day[mates] < 0) & ~reduced[mates]]


def year_count(cfg: SimulationConfig) -> int:
    """Year boundaries in a run: one per started year of the horizon."""
    return -(-cfg.horizon_days // cfg.days_per_year)


@dataclass(frozen=True)
class RiskTables:
    """The five-year risks and conversation schedule, per simulated year,
    that every scenario of an experiment reads.

    Row y, column i of `plain` is agent i's ensemble score at the age it
    reaches on year boundary y (entry age + y + 1) with its original
    factors.  `reduced` holds the same scores after `_apply_reduction_rows`,
    for the reducible rows only (`_reducible_rows`): agent i's column is
    `slot[i]`, and `slot` is -1 for an agent whose factors no replication
    can reduce.  `scheduled[y]` holds the rows at a conversation age that
    year (`_scheduled_rows`).
    """

    plain: np.ndarray
    reduced: np.ndarray
    slot: np.ndarray
    scheduled: tuple[np.ndarray, ...]


def _score_by_year(ens: EnsembleRiskModel, X: np.ndarray, entry_age: np.ndarray,
                   years: int, weights: WeightTable,
                   rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Scores of `rows` of `X` at each year's age: row y is
    `five_year_matrix` of `X` with its age column at entry age + y + 1
    (which this overwrites), at `rows`, bit for bit.

    When no member has an age coefficient the age column adds a zero to
    every linear predictor whatever it holds, so the member probabilities
    are the same in every year: they are computed once, and each year only
    gathers its weights and mixes them.
    """
    age_free = not any(m.coefficients.get("age") for m in ens.models)
    entry = entry_age[rows]
    out = np.empty((years, entry.size))
    for year in range(years):
        if year == 0 or not age_free:
            X[:, _COL["age"]] = entry_age + (year + 1)
            probs = member_probabilities(ens, X, rows)
        out[year] = ensemble_mix(probs, weights.at(entry + (year + 1)))
    return out


def _reducible_rows(arrays: PopulationArrays, plain: np.ndarray,
                    scheduled: tuple[np.ndarray, ...], threshold: float) -> np.ndarray:
    """The rows whose factors a replication may reduce, ascending: every
    member of each household holding a row i with `plain[y, i] >
    threshold` for some year y where i is in `scheduled[y]`.

    Call these households H.  No row outside them is ever reduced, by
    induction over the reductions in the order they happen.  A row j is
    reduced either because it is notified while not reduced, or because
    a member i of its household is notified (spillover).  Notification
    in year y needs the row in `scheduled[y]` and its current risk above
    the threshold; a row not yet reduced reads `plain[y]`.  So in the
    first case j itself puts its household in H.  In the second, i was
    either not reduced, and then i puts the household in H the same way,
    or reduced earlier, and then its household is in H by induction.
    """
    above = [rows[plain[year, rows] > threshold] for year, rows in enumerate(scheduled)]
    return _household_rows(arrays.household, np.concatenate(above))


def build_risk_tables(
    arrays: PopulationArrays, ens: EnsembleRiskModel, sim: SimulationConfig
) -> RiskTables:
    """The one set of risk tables every scenario of an experiment on `sim`
    reads, scored once after `sim` is validated.  `plain` covers its
    horizon, and every score reads one `WeightTable` over the ages agents
    reach; the schedule and the `reduced` table of the reducible rows
    (`_reducible_rows`, reduced from their original factors) are built
    from it."""
    sim.validate()
    years = year_count(sim)
    weights = WeightTable.spanning(ens, [arrays.age.min() + 1, arrays.age.max() + years])
    scratch = replace(arrays, features=arrays.features.copy())  # both tables score this
    plain = _score_by_year(ens, scratch.features, arrays.age, years, weights)
    scheduled = _scheduled_rows(arrays.age, sim.conversation_ages, years)
    rows = _reducible_rows(arrays, plain, scheduled, sim.high_risk_threshold)
    slot = np.full(len(arrays.age), -1, dtype=np.int64)
    slot[rows] = np.arange(rows.size)
    _apply_reduction_rows(scratch, rows, sim)
    reduced = _score_by_year(ens, scratch.features, arrays.age, years, weights, rows)
    return RiskTables(plain, reduced, slot, scheduled)


def _current_risk(
    tables: RiskTables, year: int, rows: np.ndarray, reduced: Optional[np.ndarray]
) -> np.ndarray:
    """Five-year risk of `rows` in `year`: the `reduced` table's score for
    the rows whose factors are `reduced`, read at their `slot`, the `plain`
    one for the rest, and for every row when `reduced` is None (baseline)."""
    risk = tables.plain[year].take(rows)
    if reduced is not None:
        lowered = reduced[rows]
        risk[lowered] = tables.reduced[year].take(tables.slot[rows[lowered]])
    return risk


@dataclass(frozen=True)
class PreparedModel:
    """What every replication of an experiment reads, built once by `prepare`:
    the one `SimulationConfig` every `Scenario` runs on, its `RiskTables`,
    the `OutcomeTable` and each agent's residual life expectancy at entry."""

    arrays: PopulationArrays
    simulation: SimulationConfig
    tables: RiskTables
    outcomes: OutcomeTable
    residual: np.ndarray


def prepare(arrays: PopulationArrays, ens: EnsembleRiskModel, delay: DelayModel,
            sev: SeverityDistribution, ors: OddsRatioTable, life: LifeTable,
            sim: SimulationConfig) -> PreparedModel:
    """Validate the models and `sim`, then build every table."""
    for part in (delay, sev, ors, life):
        part.validate()
    return PreparedModel(
        arrays=arrays,
        simulation=sim,
        tables=build_risk_tables(arrays, ens, sim),
        outcomes=OutcomeTable.build(delay, sev, ors),
        residual=life.residual_array(arrays.features[:, _COL["male"]], arrays.age),
    )


def run_replication(
    model: PreparedModel, rng: np.random.Generator | int, kind: Scenario
) -> RunResult:
    """Run one replication of scenario `kind` on `model`; nothing is mutated.

    `rng` is a seed or a Generator (`default_rng` takes either).
    Identical inputs give an identical result.
    """
    arrays, sim, tables, residual = model.arrays, model.simulation, model.tables, model.residual
    interventions_on = kind is not Scenario.BASELINE
    spillover_on = kind is Scenario.CONVERSATIONS_PLUS_FAMILY
    n = len(arrays.age)
    years = year_count(sim)

    rng = np.random.default_rng(rng)
    stroke_day = np.full(n, -1, dtype=np.int64)
    severity = np.full(n, -1, dtype=np.int64)
    reduced = np.zeros(n, dtype=bool)
    lowered = reduced if interventions_on else None  # baseline reads `plain` only
    free = np.arange(n)  # the stroke-free rows, ascending
    conversations = risk_reductions = family_reductions = 0

    for year in range(years):
        day = year * sim.days_per_year

        # year boundary: birthdays first, then interventions.  Anyone
        # notified in an earlier year was reduced then, with the stroke-free
        # members of their household, so only this year's notified count
        if interventions_on:
            rows = tables.scheduled[year]
            talk = _conversation_rows(rows, _current_risk(tables, year, rows, reduced),
                                      stroke_day[rows] < 0, sim)
            conversations += talk.size

            own = talk[~reduced[talk]]
            reduced[own] = True
            risk_reductions += own.size
            if spillover_on:
                spill = _spillover_rows(arrays, talk, stroke_day, reduced)
                reduced[spill] = True
                family_reductions += spill.size

        window = min(sim.days_per_year, sim.horizon_days - day)
        at, offsets = _year_arrivals(_current_risk(tables, year, free, lowered),
                                     rng.random(free.size), window)
        hit = free[at]
        days = day + offsets.astype(np.int64)
        stroke_day[hit] = days
        # one outcome draw per stroke, in the order they happen: by day, then row
        severity[hit[np.lexsort((hit, days))]] = [
            model.outcomes.draw(rng)[1] for _ in range(hit.size)]
        free = np.delete(free, at)

    # added one by one in the order the strokes happened (by day, then
    # agent), as a stroke-by-stroke total would be; np.sum rounds otherwise
    struck = np.flatnonzero(stroke_day >= 0)
    struck = struck[np.argsort(stroke_day[struck], kind="stable")]
    aged = stroke_day[struck] // sim.days_per_year + 1
    dalys = _stroke_dalys(residual[struck] - aged, severity[struck])
    return RunResult(
        total_dalys=float(np.cumsum(dalys)[-1]) if dalys.size else 0.0,
        conversations=conversations, risk_reductions=risk_reductions,
        family_reductions=family_reductions, stroke_day=stroke_day, severity=severity,
    )
