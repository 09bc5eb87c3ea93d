"""Synthetic agent population: demographics, households, and risk factors.

A population is built in two passes.  `build_population` apportions agents
to regions and demographic categories by largest-remainder rounding, then
groups them into households.  `assign_risk_factors` samples blood pressure,
BMI and the binary risk factors from age-banded tables; continuous values
come from clamped normal draws, binary factors are filled by quota so the
realized per-band prevalence is exact.

All randomness flows through the single `numpy` generator handed in by the
caller, and consumption order is fixed, so one seed reproduces the same
population byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .files import atomic_open

SEXES = ("female", "male")
HOUSEHOLD_TYPES = ("single", "couple", "with_children")
HOUSEHOLD_SIZES = {"single": 1, "couple": 2, "with_children": 2}

# Clamp ranges for sampled factors (draws are clamped, never resampled).
SBP_RANGE = (80.0, 250.0)
DBP_RANGE = (40.0, 150.0)
BMI_RANGE = (12.0, 60.0)

_PROP_TOL = 1e-9


def round_half_up(x: float) -> int:
    """round() with ties away from zero; quota counts must not depend on parity."""
    return int(math.floor(x + 0.5))


def parse_age_range(label: str, max_age: int = 110) -> tuple[int, int]:
    """Parse an age band label like ``"50-59"`` or ``"70+"`` into (lo, hi)."""
    label = label.strip()
    try:
        if label.endswith("+"):
            return int(label[:-1]), max_age
        lo, hi = label.split("-")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigurationError(f"unparseable age band label {label!r}") from exc


def _check_proportions(name: str, props: dict[str, float]) -> None:
    if not props:
        raise ConfigurationError(f"{name}: empty proportion table")
    for key, p in props.items():
        if not (0.0 <= p <= 1.0):
            raise ConfigurationError(f"{name}[{key}] = {p} outside [0, 1]")
    total = sum(props.values())
    if abs(total - 1.0) > _PROP_TOL:
        raise ConfigurationError(f"{name}: proportions sum to {total}, expected 1")


@dataclass
class RegionSpec:
    """Demographic marginals for one region (county)."""

    name: str
    share: float
    sex: dict[str, float]
    age_bands: dict[str, float]
    employment: dict[str, float]
    households: dict[str, float]

    def validate(self, prefix: str) -> None:
        if not (0.0 <= self.share <= 1.0):
            raise ConfigurationError(f"{prefix}.share = {self.share} outside [0, 1]")
        _check_proportions(f"{prefix}.sex", self.sex)
        _check_proportions(f"{prefix}.age_bands", self.age_bands)
        _check_proportions(f"{prefix}.employment", self.employment)
        _check_proportions(f"{prefix}.households", self.households)
        for sex in self.sex:
            if sex not in SEXES:
                raise ConfigurationError(f"{prefix}.sex: unknown category {sex!r}")
        for htype in self.households:
            if htype not in HOUSEHOLD_TYPES:
                raise ConfigurationError(f"{prefix}.households: unknown type {htype!r}")


@dataclass
class DemographicSpec:
    """Region marginals plus global scale for population synthesis."""

    regions: list[RegionSpec]
    total_agents: int
    scale_factor: int = 100
    min_age: int = 35

    def validate(self) -> None:
        if self.total_agents <= 0:
            raise ConfigurationError(f"total_agents = {self.total_agents}, must be > 0")
        if self.min_age < 35:
            raise ConfigurationError(f"min_age = {self.min_age}, must be >= 35")
        if self.scale_factor <= 0:
            raise ConfigurationError(f"scale_factor = {self.scale_factor}, must be > 0")
        if not self.regions:
            raise ConfigurationError("regions: at least one region required")
        for i, region in enumerate(self.regions):
            region.validate(f"regions[{i}]")
        share_sum = sum(r.share for r in self.regions)
        if abs(share_sum - 1.0) > _PROP_TOL:
            raise ConfigurationError(f"regions: shares sum to {share_sum}, expected 1")
        for i, region in enumerate(self.regions):
            for label in region.age_bands:
                lo, hi = parse_age_range(label)
                if lo < self.min_age or hi < lo:
                    raise ConfigurationError(
                        f"regions[{i}].age_bands[{label}]: band outside [{self.min_age}, 110]"
                    )


@dataclass
class RiskFactorBand:
    """Normal parameters and prevalences for one age band."""

    age_lo: int
    age_hi: int
    sbp_mean: float
    sbp_sd: float
    dbp_mean: float
    dbp_sd: float
    bmi_mean: float
    bmi_sd: float
    diabetes_prev: float
    afib_prev: float
    smoker_prev: float
    cigs_per_day_mean: float

    def validate(self, prefix: str) -> None:
        for name in ("sbp_sd", "dbp_sd", "bmi_sd"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{prefix}.{name} must be > 0")
        for name in ("diabetes_prev", "afib_prev", "smoker_prev"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"{prefix}.{name} = {p} outside [0, 1]")
        if not (SBP_RANGE[0] <= self.sbp_mean <= SBP_RANGE[1]):
            raise ConfigurationError(f"{prefix}.sbp_mean = {self.sbp_mean} not physiologic")
        if not (DBP_RANGE[0] <= self.dbp_mean <= DBP_RANGE[1]):
            raise ConfigurationError(f"{prefix}.dbp_mean = {self.dbp_mean} not physiologic")
        if not (BMI_RANGE[0] <= self.bmi_mean <= BMI_RANGE[1]):
            raise ConfigurationError(f"{prefix}.bmi_mean = {self.bmi_mean} not physiologic")
        if self.cigs_per_day_mean < 0:
            raise ConfigurationError(f"{prefix}.cigs_per_day_mean must be >= 0")


@dataclass
class RiskFactorTables:
    """Age-banded risk factor distributions (one band per row, bands disjoint)."""

    bands: list[RiskFactorBand]

    def validate(self) -> None:
        if not self.bands:
            raise ConfigurationError("risk_factors.bands: at least one band required")
        for i, band in enumerate(self.bands):
            band.validate(f"risk_factors.bands[{i}]")
            if band.age_hi < band.age_lo:
                raise ConfigurationError(f"risk_factors.bands[{i}]: empty age range")

    def band_for_age(self, age: int) -> RiskFactorBand:
        for band in self.bands:
            if band.age_lo <= age <= band.age_hi:
                return band
        raise ConfigurationError(f"no risk factor band covers age {age}")


@dataclass
class Agent:
    """One simulated person."""

    id: int
    age: int
    sex: str
    region: str
    household_id: int
    employment: str
    sbp: float = 0.0
    dbp: float = 0.0
    bmi: float = 0.0
    diabetes: bool = False
    afib: bool = False
    smoker: bool = False
    cigs_per_day: int = 0
    five_year_risk: float = 0.0
    daily_risk: float = 0.0
    remaining_life_expectancy: float = 0.0
    notified_high_risk: bool = False
    risk_reduced: bool = False


@dataclass
class BaselineStats:
    """Population mean/sd (divisor N) of the modifiable factors, frozen at setup."""

    sbp_mean: float
    sbp_sd: float
    dbp_mean: float
    dbp_sd: float
    bmi_mean: float
    bmi_sd: float


@dataclass
class Population:
    agents: list[Agent]
    households: dict[int, list[int]]
    household_types: dict[int, str]
    baseline_stats: BaselineStats | None = None

    def __len__(self) -> int:
        return len(self.agents)


def apportion(total: int, proportions: dict[str, float]) -> dict[str, int]:
    """Largest-remainder apportionment of ``total`` over categories.

    Every count is floor(p*total) or one more, so the error per category is
    under one agent.  Ties are broken by category order for determinism.
    """
    labels = list(proportions)
    quotas = [proportions[lab] * total for lab in labels]
    counts = [int(math.floor(q)) for q in quotas]
    short = total - sum(counts)
    by_remainder = sorted(range(len(labels)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_remainder[:short]:
        counts[i] += 1
    return dict(zip(labels, counts))


def _spread_categories(rng: np.random.Generator, counts: dict[str, int]) -> list[str]:
    out: list[str] = []
    for label, count in counts.items():
        out.extend([label] * count)
    perm = rng.permutation(len(out))
    return [out[i] for i in perm]


def build_population(spec: DemographicSpec, rng: np.random.Generator) -> Population:
    """Create agents matching the spec's marginals and group them into households.

    Sex, age band and employment are apportioned independently within each
    region and combined by independent shuffles.  Households are then formed
    by drawing a type from the region's household proportions and filling
    members from an age-ordered (jittered) pool, which keeps household
    members age-proximate the way real couples are.
    """
    spec.validate()

    region_counts = apportion(spec.total_agents, {r.name: r.share for r in spec.regions})

    agents: list[Agent] = []
    households: dict[int, list[int]] = {}
    household_types: dict[int, str] = {}
    next_agent = 0
    next_household = 0

    for region in spec.regions:
        n = region_counts[region.name]
        if n == 0:
            continue
        sexes = _spread_categories(rng, apportion(n, region.sex))
        bands = _spread_categories(rng, apportion(n, region.age_bands))
        jobs = _spread_categories(rng, apportion(n, region.employment))

        region_agents: list[Agent] = []
        for sex, band_label, job in zip(sexes, bands, jobs):
            lo, hi = parse_age_range(band_label)
            age = int(rng.integers(lo, hi + 1))
            region_agents.append(
                Agent(id=next_agent, age=age, sex=sex, region=region.name,
                      household_id=-1, employment=job)
            )
            next_agent += 1
        agents.extend(region_agents)

        # Households: age-jittered ordering keeps cohabitants age-proximate.
        jitter = rng.uniform(0.0, 6.0, size=n)
        pool = sorted(range(n), key=lambda i: (region_agents[i].age + jitter[i]))
        type_labels = list(region.households)
        type_probs = np.array([region.households[t] for t in type_labels])
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

    return Population(agents=agents, households=households, household_types=household_types)


def assign_risk_factors(
    pop: Population, tables: RiskFactorTables, rng: np.random.Generator
) -> Population:
    """Sample risk factors for every agent from its age band's distributions.

    Continuous factors are normal draws clamped to the physiologic ranges
    (one draw per field, clamped rather than resampled).  Binary factors use
    quota assignment: the band is shuffled and the first round(prev * n)
    agents get the factor, so realized prevalence is exact.  Smokers receive
    the band's mean cigarettes per day, rounded, at least 1.
    """
    tables.validate()
    for agent in pop.agents:
        tables.band_for_age(agent.age)  # raises if any age is uncovered

    for band in tables.bands:
        members = [a for a in pop.agents if band.age_lo <= a.age <= band.age_hi]
        n = len(members)
        if n == 0:
            continue
        sbp = np.clip(rng.normal(band.sbp_mean, band.sbp_sd, n), *SBP_RANGE)
        dbp = np.clip(rng.normal(band.dbp_mean, band.dbp_sd, n), *DBP_RANGE)
        bmi = np.clip(rng.normal(band.bmi_mean, band.bmi_sd, n), *BMI_RANGE)
        for agent, s, d, b in zip(members, sbp, dbp, bmi):
            agent.sbp = float(s)
            agent.dbp = float(d)
            agent.bmi = float(b)
        for factor, prev in (
            ("diabetes", band.diabetes_prev),
            ("afib", band.afib_prev),
            ("smoker", band.smoker_prev),
        ):
            marked = rng.permutation(n)[: round_half_up(prev * n)]
            for i in range(n):
                setattr(members[i], factor, False)
            for i in marked:
                setattr(members[int(i)], factor, True)
        cigs = max(1, round_half_up(band.cigs_per_day_mean))
        for agent in members:
            agent.cigs_per_day = cigs if agent.smoker else 0

    pop.baseline_stats = population_stats(pop)
    return pop


def population_stats(pop: Population) -> BaselineStats:
    """Mean and population sd (divisor N) of sbp, dbp and bmi."""
    if not pop.agents:
        raise ConfigurationError("population_stats: empty population")
    sbp = np.array([a.sbp for a in pop.agents])
    dbp = np.array([a.dbp for a in pop.agents])
    bmi = np.array([a.bmi for a in pop.agents])
    return BaselineStats(
        sbp_mean=float(sbp.mean()), sbp_sd=float(sbp.std()),
        dbp_mean=float(dbp.mean()), dbp_sd=float(dbp.std()),
        bmi_mean=float(bmi.mean()), bmi_sd=float(bmi.std()),
    )


CSV_COLUMNS = [
    "id", "age", "sex", "region", "employment", "household_id", "household_type",
    "sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day",
    "five_year_risk", "daily_risk", "remaining_life_expectancy",
    "notified_high_risk", "risk_reduced",
]


def write_population_csv(pop: Population, path) -> None:
    """Dump one agent per row.  Floats use repr so a round trip is exact."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for a in pop.agents:
            writer.writerow([
                a.id, a.age, a.sex, a.region, a.employment, a.household_id,
                pop.household_types.get(a.household_id, "single"),
                repr(a.sbp), repr(a.dbp), repr(a.bmi),
                int(a.diabetes), int(a.afib), int(a.smoker), a.cigs_per_day,
                repr(a.five_year_risk), repr(a.daily_risk),
                repr(a.remaining_life_expectancy),
                int(a.notified_high_risk), int(a.risk_reduced),
            ])


def read_population_csv(path) -> Population:
    """Rebuild a Population from `write_population_csv` output.

    Household membership is reconstructed from the household_id column and
    baseline stats are recomputed (they are a pure function of the factors).
    """
    agents: list[Agent] = []
    households: dict[int, list[int]] = {}
    household_types: dict[int, str] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != CSV_COLUMNS:
            raise ConfigurationError(
                f"population csv: unexpected header {reader.fieldnames}"
            )
        for row in reader:
            agent = Agent(
                id=int(row["id"]), age=int(row["age"]), sex=row["sex"],
                region=row["region"], household_id=int(row["household_id"]),
                employment=row["employment"],
                sbp=float(row["sbp"]), dbp=float(row["dbp"]), bmi=float(row["bmi"]),
                diabetes=bool(int(row["diabetes"])), afib=bool(int(row["afib"])),
                smoker=bool(int(row["smoker"])), cigs_per_day=int(row["cigs_per_day"]),
                five_year_risk=float(row["five_year_risk"]),
                daily_risk=float(row["daily_risk"]),
                remaining_life_expectancy=float(row["remaining_life_expectancy"]),
                notified_high_risk=bool(int(row["notified_high_risk"])),
                risk_reduced=bool(int(row["risk_reduced"])),
            )
            agents.append(agent)
            households.setdefault(agent.household_id, []).append(agent.id)
            household_types[agent.household_id] = row["household_type"]
    pop = Population(agents=agents, households=households, household_types=household_types)
    pop.baseline_stats = population_stats(pop)
    return pop
