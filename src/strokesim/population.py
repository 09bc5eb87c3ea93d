"""Synthetic agent population: demographics, households, and risk factors.

A population is built in two passes.  `build_population` apportions agents
to regions and demographic categories by largest-remainder rounding, then
groups them into households.  `assign_risk_factors` samples blood pressure,
BMI and the binary risk factors from age-banded tables; continuous values
come from clamped normal draws, binary factors are filled by quota so the
realized per-band prevalence is exact.

All randomness flows through the single `numpy` generator handed in by the
caller, and consumption order is fixed, so one seed reproduces the same
population byte for byte.  Both passes draw in bulk (all of a region's ages
in one `integers` call, its household types a chunk of uniforms at a time,
each band's factors as columns) and consume exactly the stream that one
draw per agent or household would: the tests keep that per-agent form as
the reference the batched one must match, generator state included.

Each fact is stored once: `Agent.daily_risk` is derived from the five-year
risk, and the baseline factor stats are computed when needed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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

# A five-year risk is spread uniformly over the days in five years.
DAYS_PER_FIVE_YEARS = 1826


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
        names = [r.name for r in self.regions]
        for i, region in enumerate(self.regions):
            region.validate(f"regions[{i}]")
            # synthesis apportions agents by region name, so a repeat would merge two regions
            if region.name in names[:i]:
                raise ConfigurationError(f"regions[{i}].name: duplicate region {region.name!r}")
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
    """Age-banded risk factor distributions, one band per row.  Every age
    must be covered; where bands overlap, the later band's draws stand."""

    bands: list[RiskFactorBand]

    def validate(self) -> None:
        if not self.bands:
            raise ConfigurationError("risk_factors.bands: at least one band required")
        for i, band in enumerate(self.bands):
            band.validate(f"risk_factors.bands[{i}]")
            if band.age_hi < band.age_lo:
                raise ConfigurationError(f"risk_factors.bands[{i}]: empty age range")


@dataclass
class Agent:
    """One simulated person.  `five_year_risk` is 0 until the agent is scored."""

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

    @property
    def daily_risk(self) -> float:
        return self.five_year_risk / DAYS_PER_FIVE_YEARS


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


def _spread_categories(rng: np.random.Generator, counts: dict[str, int]) -> np.ndarray:
    """Shuffled category indices (positions in ``counts``), each repeated by its count."""
    indices = np.repeat(np.arange(len(counts)), list(counts.values()))
    return indices[rng.permutation(len(indices))]


def _draw_households(
    rng: np.random.Generator, probs: dict[str, float], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Household types (positions in ``probs``) and sizes covering ``n`` agents;
    the last household is cut short to fit.

    `Generator.choice(k, p=...)` maps one ``rng.random()`` through the
    normalised cdf, so drawing households one by one and drawing a chunk
    of uniforms at once consume the same stream, provided no uniform goes
    unused.  A chunk therefore holds only as many draws as households are
    certain to follow: the remaining agents over the largest size, rounded up.
    """
    cdf = np.array(list(probs.values()), dtype=float).cumsum()
    cdf /= cdf[-1]
    type_sizes = np.array([HOUSEHOLD_SIZES[t] for t in probs])
    largest = int(type_sizes.max())
    chunks = []
    filled = 0
    while filled < n:
        drawn = cdf.searchsorted(rng.random(-(-(n - filled) // largest)), side="right")
        chunks.append(drawn)
        filled += int(type_sizes[drawn].sum())
    types = np.concatenate(chunks)
    sizes = type_sizes[types]
    sizes[-1] -= filled - n
    return types, sizes


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

    for region in spec.regions:
        n = region_counts[region.name]
        if n == 0:
            continue
        sexes = _spread_categories(rng, apportion(n, region.sex))
        bands = _spread_categories(rng, apportion(n, region.age_bands))
        jobs = _spread_categories(rng, apportion(n, region.employment))
        lo, hi = np.array([parse_age_range(label) for label in region.age_bands]).T
        ages = rng.integers(lo[bands], hi[bands] + 1)

        # Households: age-jittered ordering keeps cohabitants age-proximate.
        jitter = rng.uniform(0.0, 6.0, size=n)
        pool = np.argsort(ages + jitter, kind="stable")
        types, sizes = _draw_households(rng, region.households, n)
        first_agent, first_household = len(agents), len(households)
        hids = range(first_household, first_household + len(types))
        household_id = np.empty(n, dtype=np.int64)
        household_id[pool] = np.repeat(hids, sizes)
        members = (pool + first_agent).tolist()
        bounds = np.concatenate(([0], sizes.cumsum())).tolist()
        type_labels = list(region.households)
        for hid, htype, start, stop in zip(hids, types.tolist(), bounds, bounds[1:]):
            households[hid] = members[start:stop]
            household_types[hid] = type_labels[htype]

        sex_labels, job_labels = list(region.sex), list(region.employment)
        agents.extend(
            Agent(id=first_agent + i, age=age, sex=sex_labels[sex], region=region.name,
                  household_id=hid, employment=job_labels[job])
            for i, (age, sex, hid, job) in enumerate(zip(
                ages.tolist(), sexes.tolist(), household_id.tolist(), jobs.tolist()))
        )

    return Population(agents=agents, households=households, household_types=household_types)


def assign_risk_factors(
    pop: Population, tables: RiskFactorTables, rng: np.random.Generator
) -> Population:
    """Sample risk factors for every agent from its age band's distributions.

    Continuous factors are normal draws clamped to the physiologic ranges
    (one draw per field, clamped rather than resampled).  Binary factors use
    quota assignment: the band is shuffled and the first round(prev * n)
    agents get the factor, so realized prevalence is exact.  Smokers receive
    the band's mean cigarettes per day, rounded, at least 1.  Bands are
    drawn in table order over their members in agent order; where bands
    overlap, the later one's values stand.
    """
    tables.validate()
    ages = np.array([a.age for a in pop.agents], dtype=np.int64)
    in_band = [(band.age_lo <= ages) & (ages <= band.age_hi) for band in tables.bands]
    covered = np.logical_or.reduce(in_band)
    if not covered.all():
        raise ConfigurationError(
            f"no risk factor band covers age {ages[np.argmin(covered)]}"
        )

    n = len(ages)
    sbp, dbp, bmi = np.zeros(n), np.zeros(n), np.zeros(n)
    flags = {factor: np.zeros(n, dtype=bool) for factor in ("diabetes", "afib", "smoker")}
    cigs = np.zeros(n, dtype=np.int64)
    for band, mask in zip(tables.bands, in_band):
        members = np.flatnonzero(mask)
        k = len(members)
        if k == 0:
            continue
        sbp[members] = np.clip(rng.normal(band.sbp_mean, band.sbp_sd, k), *SBP_RANGE)
        dbp[members] = np.clip(rng.normal(band.dbp_mean, band.dbp_sd, k), *DBP_RANGE)
        bmi[members] = np.clip(rng.normal(band.bmi_mean, band.bmi_sd, k), *BMI_RANGE)
        for factor, prev in (
            ("diabetes", band.diabetes_prev),
            ("afib", band.afib_prev),
            ("smoker", band.smoker_prev),
        ):
            marked = rng.permutation(k)[: round_half_up(prev * k)]
            flags[factor][members] = False
            flags[factor][members[marked]] = True
        cigs[members] = np.where(
            flags["smoker"][members], max(1, round_half_up(band.cigs_per_day_mean)), 0
        )

    for agent, s, d, b, diabetes, afib, smoker, c in zip(
        pop.agents, sbp.tolist(), dbp.tolist(), bmi.tolist(), flags["diabetes"].tolist(),
        flags["afib"].tolist(), flags["smoker"].tolist(), cigs.tolist(),
    ):
        agent.sbp, agent.dbp, agent.bmi = s, d, b
        agent.diabetes, agent.afib, agent.smoker, agent.cigs_per_day = diabetes, afib, smoker, c
    return pop


def population_stats(pop: Population) -> BaselineStats:
    """Mean and population sd (divisor N) of sbp, dbp and bmi."""
    return _stats(np.array([a.sbp for a in pop.agents]),
                  np.array([a.dbp for a in pop.agents]),
                  np.array([a.bmi for a in pop.agents]))


def _stats(sbp: np.ndarray, dbp: np.ndarray, bmi: np.ndarray) -> BaselineStats:
    if not len(sbp):
        raise ConfigurationError("population_stats: empty population")
    return BaselineStats(
        sbp_mean=float(sbp.mean()), sbp_sd=float(sbp.std()),
        dbp_mean=float(dbp.mean()), dbp_sd=float(dbp.std()),
        bmi_mean=float(bmi.mean()), bmi_sd=float(bmi.std()),
    )


CSV_COLUMNS = [
    "id", "age", "sex", "region", "employment", "household_id", "household_type",
    "sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day",
    "five_year_risk",
]


def write_population_csv(pop: Population, path) -> None:
    """Dump one agent per row.  Floats use repr so a round trip is exact."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for a in pop.agents:
            writer.writerow([
                a.id, a.age, a.sex, a.region, a.employment, a.household_id,
                pop.household_types[a.household_id],
                repr(a.sbp), repr(a.dbp), repr(a.bmi),
                int(a.diabetes), int(a.afib), int(a.smoker), a.cigs_per_day,
                repr(a.five_year_risk),
            ])


_FLAGS = {"0": False, "1": True}

# Parser and expected form of each non-text column, for naming a bad cell.
_CELL_TYPES = {
    **dict.fromkeys(("id", "age", "household_id", "cigs_per_day"), (int, "an integer")),
    **dict.fromkeys(("sbp", "dbp", "bmi", "five_year_risk"), (float, "a number")),
    **dict.fromkeys(("diabetes", "afib", "smoker"), (_FLAGS.__getitem__, "0 or 1")),
}


def _bad_cell(row: list[str]) -> str:
    """The first cell of a row that its column's parser rejects."""
    for name, cell in zip(CSV_COLUMNS, row):
        parse, expected = _CELL_TYPES.get(name, (str, ""))
        try:
            parse(cell)
        except (ValueError, KeyError):
            return f"{name} = {cell!r}, expected {expected}"
    return "unparseable row"


def read_population_csv(path) -> Population:
    """Rebuild a Population from `write_population_csv` output.

    Household membership is reconstructed from the household_id column.  A
    header other than `CSV_COLUMNS`, a row with the wrong field count, a
    non-numeric number cell or a flag other than 0/1 raises ConfigurationError.
    """
    agents: list[Agent] = []
    households: dict[int, list[int]] = {}
    household_types: dict[int, str] = {}
    flag = _FLAGS.__getitem__
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ConfigurationError(f"population csv {path}: unexpected header {header}")
        for row in reader:
            if not row:  # blank line
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ConfigurationError(
                    f"population csv {path}, line {reader.line_num}: "
                    f"{len(row)} fields, expected {len(CSV_COLUMNS)}"
                )
            (aid, age, sex, region, employment, hid, htype, sbp, dbp, bmi, diabetes, afib,
             smoker, cigs, five_year) = row
            try:
                agent = Agent(
                    id=int(aid), age=int(age), sex=sex, region=region,
                    household_id=int(hid), employment=employment,
                    sbp=float(sbp), dbp=float(dbp), bmi=float(bmi),
                    diabetes=flag(diabetes), afib=flag(afib), smoker=flag(smoker),
                    cigs_per_day=int(cigs), five_year_risk=float(five_year),
                )
            except (ValueError, KeyError):
                raise ConfigurationError(
                    f"population csv {path}, line {reader.line_num}: {_bad_cell(row)}"
                ) from None
            agents.append(agent)
            households.setdefault(agent.household_id, []).append(agent.id)
            household_types[agent.household_id] = htype
    return Population(agents=agents, households=households, household_types=household_types)
