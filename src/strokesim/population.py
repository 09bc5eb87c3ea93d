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

A `Population` holds one array per `Agent` field, in agent order, and its
households as columns: a dense household index per agent, and per
household a type and its member rows with offsets.  Every stage reads
and writes these columns; `Population.agents` and `Population.households`
build rows and member lists from them at each read.  `Agent.daily_risk`
and the baseline factor stats are derived when needed, not stored.

`write_population_csv` writes UTF-8, a column at a time: each column is
formatted by `str` (ints, and flags as 0/1) or `repr` (floats), and each
distinct text value is quoted once by `csv.writer`, so the bytes are the
ones a row-by-row `csv.writer` writes.  `read_population_csv` reads them
back with numpy's C parser (`np.loadtxt`), a block of rows at a time, into
typed columns with one shared str per distinct text value, and checks the
columns as arrays.  Only when a check fails does a `csv.reader` scan of the
rows run, to name the first faulty line and field; it builds no columns.
The tests keep the row-by-row reader and writer as the references.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigurationError
from .files import atomic_open

SEXES = ("female", "male")
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
            if htype not in HOUSEHOLD_SIZES:
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
        for name, (lo, hi) in (("sbp_mean", SBP_RANGE), ("dbp_mean", DBP_RANGE),
                               ("bmi_mean", BMI_RANGE)):
            if not (lo <= getattr(self, name) <= hi):
                raise ConfigurationError(f"{prefix}.{name} = {getattr(self, name)} not physiologic")
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


@dataclass(slots=True)
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


# Each column's type, in `Agent` field order.  Text stays Python str in
# object arrays: numpy's fixed-width str drops trailing NULs.
COLUMN_TYPES = {
    "id": np.int64, "age": np.int64, "sex": object, "region": object,
    "household_id": np.int64, "employment": object, "sbp": float, "dbp": float,
    "bmi": float, "diabetes": bool, "afib": bool, "smoker": bool,
    "cigs_per_day": np.int64, "five_year_risk": float,
}


@dataclass(eq=False)
class Population:
    """The agents as columns, one array per `Agent` field (typed as in
    `COLUMN_TYPES`) in agent order, then each agent's dense household index
    and, per household h, its type and rows `members[member_start[h]:member_start[h + 1]]`."""

    id: np.ndarray
    age: np.ndarray
    sex: np.ndarray
    region: np.ndarray
    household_id: np.ndarray
    employment: np.ndarray
    sbp: np.ndarray
    dbp: np.ndarray
    bmi: np.ndarray
    diabetes: np.ndarray
    afib: np.ndarray
    smoker: np.ndarray
    cigs_per_day: np.ndarray
    five_year_risk: np.ndarray
    household: np.ndarray
    household_type: np.ndarray
    members: np.ndarray
    member_start: np.ndarray

    def __len__(self) -> int:
        return len(self.id)

    @property
    def agents(self) -> list[Agent]:
        """The agents as `Agent` rows of Python scalars, built from the
        columns at each read and not kept: changing a row changes no column."""
        # a block of agents at a time, so no column is a whole list at once
        return [agent for start in range(0, len(self), 4096) for agent in map(Agent, *(
            getattr(self, name)[start:start + 4096].tolist() for name in COLUMN_TYPES))]

    @property
    def households(self) -> dict[int, list[int]]:
        """Each household's member ids under its `household_id`, in household
        order, built from the columns at each read and not kept."""
        ids, bounds = self.id[self.members].tolist(), self.member_start.tolist()
        labels = self.household_id[self.members[self.member_start[:-1]]].tolist()
        return {label: ids[start:stop] for label, start, stop in zip(labels, bounds, bounds[1:])}


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

    chunks: list[tuple[np.ndarray, ...]] = []
    first_agent = first_household = 0

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
        household = np.empty(n, dtype=np.int64)
        household[pool] = np.repeat(np.arange(types.size) + first_household, sizes)

        chunks.append((
            ages, np.array(list(region.sex), dtype=object)[sexes],
            np.array([region.name] * n, dtype=object), household,
            np.array(list(region.employment), dtype=object)[jobs], household,
            np.array(list(region.households), dtype=object)[types], pool + first_agent, sizes,
        ))
        first_agent += n
        first_household += types.size

    # households are numbered in draw order, so `household` equals `household_id`
    named = dict(zip(("age", "sex", "region", "household_id", "employment", "household",
                      "household_type", "members", "sizes"), map(np.concatenate, zip(*chunks))),
                 id=np.arange(first_agent))
    named["member_start"] = np.concatenate(([0], named.pop("sizes").cumsum()))
    # risk factors and scores are 0 until assigned
    return Population(**named, **{name: np.zeros(first_agent, dtype) for name, dtype in
                                  COLUMN_TYPES.items() if name not in named})


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
    ages = pop.age
    in_band = [(band.age_lo <= ages) & (ages <= band.age_hi) for band in tables.bands]
    covered = np.logical_or.reduce(in_band)
    if not covered.all():
        raise ConfigurationError(f"no risk factor band covers age {ages[np.argmin(covered)]}")

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

    pop.sbp, pop.dbp, pop.bmi, pop.cigs_per_day = sbp, dbp, bmi, cigs
    pop.diabetes, pop.afib, pop.smoker = flags.values()
    return pop


def population_stats(pop: Population) -> BaselineStats:
    """Mean and population sd (divisor N) of sbp, dbp and bmi."""
    if not len(pop):
        raise ConfigurationError("population_stats: empty population")
    return BaselineStats(
        sbp_mean=float(pop.sbp.mean()), sbp_sd=float(pop.sbp.std()),
        dbp_mean=float(pop.dbp.mean()), dbp_sd=float(pop.dbp.std()),
        bmi_mean=float(pop.bmi.mean()), bmi_sd=float(pop.bmi.std()),
    )


CSV_COLUMNS = [
    "id", "age", "sex", "region", "employment", "household_id", "household_type",
    "sbp", "dbp", "bmi", "diabetes", "afib", "smoker", "cigs_per_day",
    "five_year_risk",
]


# Rows per block handed to the file: large enough that the joins stay in C,
# small enough that no block holds more than a fraction of the file.
_CSV_BLOCK = 4096


class _CsvText(dict):
    """Each text value as `csv.writer` writes it inside a row, quoted once.
    The value is written with an empty field after it, so an empty value
    stays unquoted as it would be amid a row; that field's ``,\\r\\n`` is cut."""

    def __missing__(self, value: str) -> str:
        buffer = io.StringIO()
        csv.writer(buffer).writerow([value, ""])
        self[value] = text = buffer.getvalue()[:-3]
        return text


def _csv_block(pop: Population, rows: slice, text: _CsvText) -> str:
    """The CSV lines of the agents in ``rows``, formatted a column at a time."""
    def column(name: str, fmt=str):
        return map(fmt, getattr(pop, name)[rows].tolist())

    quote, flag = text.__getitem__, "01".__getitem__  # "01"[False] == "0"
    columns = (
        column("id"), column("age"), column("sex", quote), column("region", quote),
        column("employment", quote), column("household_id"),
        map(quote, pop.household_type[pop.household[rows]].tolist()),
        column("sbp", repr), column("dbp", repr), column("bmi", repr),
        column("diabetes", flag), column("afib", flag), column("smoker", flag),
        column("cigs_per_day"), column("five_year_risk", repr),
    )
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_population_csv(pop: Population, path) -> None:
    """Dump one agent per row, in `CSV_COLUMNS` order, as UTF-8 with
    ``\\r\\n`` line ends.  Floats use repr so a round trip is exact.  A
    household without a type raises IndexError and leaves no file."""
    text = _CsvText()
    with atomic_open(path, newline="") as handle:
        csv.writer(handle).writerow(CSV_COLUMNS)
        for start in range(0, len(pop), _CSV_BLOCK):
            handle.write(_csv_block(pop, slice(start, start + _CSV_BLOCK), text))


_FLAGS = {"0": False, "1": True}


def _int_cell(cell: str) -> int:
    """An int64 cell as numpy's parser reads it: whitespace, an optional
    sign and ASCII digits, within 64 bits (`int` also takes ``4_0``)."""
    text = cell.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit() and -2**63 <= (value := int(text)) < 2**63:
        return value
    raise ValueError(cell)


def _float_cell(cell: str) -> float:
    """A float64 cell as numpy's parser reads it: `float` on ASCII text
    without underscores (`float` also takes ``1_5.5`` and non-ASCII digits)."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(cell)
    return float(text)


# Parser and expected form of each non-text column, for naming a bad cell.
_CELL_TYPES = {
    **dict.fromkeys(("id", "age", "household_id", "cigs_per_day"), (_int_cell, "an integer")),
    **dict.fromkeys(("sbp", "dbp", "bmi", "five_year_risk"), (_float_cell, "a number")),
    **dict.fromkeys(("diabetes", "afib", "smoker"), (_FLAGS.__getitem__, "0 or 1")),
}

# A CSV row as numpy's parser reads it: numbers typed, text and flags as str.
_CSV_ROW = np.dtype([
    (name, object if COLUMN_TYPES.get(name, object) in (object, bool) else COLUMN_TYPES[name])
    for name in CSV_COLUMNS])


def _not_utf8(path) -> ConfigurationError:
    """The error for a population CSV that is not UTF-8, naming the line of
    its first undecodable byte.  No UTF-8 sequence holds a newline byte, so
    each line decodes on its own."""
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ConfigurationError(f"population csv {path}, line {number}: "
                                          f"byte {raw[exc.start]:#04x} is not UTF-8")
    return ConfigurationError(f"population csv {path}: not UTF-8")


def _read_rows(handle) -> dict[str, np.ndarray] | None:
    """The columns of the rows after the header, typed as in `_CSV_ROW`,
    read by numpy's C parser `_CSV_BLOCK` rows at a time; None if it rejects
    a row.  Each distinct text value is one shared str, as synthesis stores them."""
    blocks: list[np.ndarray] = []
    shared: dict[str, str] = {}
    with warnings.catch_warnings():
        # numpy warns of a blank line, and of a block that starts at the end
        # of the file; neither holds a row, and neither is a fault
        warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data",
                                UserWarning)
        # numpy < 2 reads "40.0" in an int column, with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            while not blocks or len(blocks[-1]) == _CSV_BLOCK:
                block = np.loadtxt(handle, _CSV_ROW, comments=None, delimiter=",",
                                   quotechar='"', max_rows=_CSV_BLOCK, ndmin=1)
                for name in ("sex", "region", "employment", "household_type"):
                    block[name] = list(map(shared.setdefault, block[name], block[name]))
                blocks.append(block)
        except UnicodeDecodeError:
            raise
        except (ValueError, DeprecationWarning):
            return None
    return {name: np.concatenate([block[name] for block in blocks]) for name in CSV_COLUMNS}


def _population(rows: dict[str, np.ndarray]) -> Population | None:
    """The population that ``rows`` hold, or None if a flag is not 0/1, an
    id repeats, a household type is unknown, or a household's rows name
    different types or more members than its type holds."""
    flags = {name: rows[name] == "1" for name in ("diabetes", "afib", "smoker")}
    types, ids = rows["household_type"], np.sort(rows["id"])
    size = np.fromiter(map(HOUSEHOLD_SIZES.get, types, repeat(0)), np.int64, len(types))
    _, first, index, count = np.unique(rows["household_id"], return_index=True,
                                       return_inverse=True, return_counts=True)
    if (not all((flags[name] | (rows[name] == "0")).all() for name in flags)
            or (ids[1:] == ids[:-1]).any()  # a repeated id; plain np.unique imports numpy.ma
            or not size.all()  # an unknown type
            or (types != types[first][index]).any()  # a type other than the first row's
            or (count > size[first]).any()):
        return None
    order = np.argsort(first)  # households in the order of their first row
    household = np.argsort(order)[index]
    return Population(**{name: rows[name] for name, dtype in COLUMN_TYPES.items()
                         if dtype is not bool}, **flags,
                      household=household, members=np.argsort(household, kind="stable"),
                      household_type=types[first[order]],
                      member_start=np.concatenate(([0], np.cumsum(count[order]))))


def _first_fault(path) -> ConfigurationError:
    """The error naming the first faulty line of a population CSV that
    `read_population_csv` rejects, and its field: the rows are checked in
    file order as `csv.reader` splits them, keeping only each id's line and
    each household's type and members so far."""
    line_of: dict[int, int] = {}  # agent id -> its line
    households: dict[int, list] = {}  # household_id -> [type, members so far]
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)

        def error(message: str) -> ConfigurationError:
            return ConfigurationError(f"population csv {path}, line {reader.line_num}: {message}")

        next(reader)  # the header, checked already
        for row in reader:
            if not row:  # blank line
                continue
            if len(row) != len(CSV_COLUMNS):
                return error(f"{len(row)} fields, expected {len(CSV_COLUMNS)}")
            cells = dict(zip(CSV_COLUMNS, row))
            for name, cell in cells.items():
                parse, expected = _CELL_TYPES.get(name, (str, ""))
                try:
                    parse(cell)
                except (ValueError, KeyError):
                    return error(f"{name} = {cell!r}, expected {expected}")
            aid, hid, htype = cells["id"], cells["household_id"], cells["household_type"]
            agent_id = _int_cell(aid)
            if agent_id in line_of:
                return error(f"id = {aid!r} repeats line {line_of[agent_id]}")
            size = HOUSEHOLD_SIZES.get(htype)
            if size is None:
                return error(f"household_type = {htype!r}, expected one of "
                             f"{', '.join(map(repr, HOUSEHOLD_SIZES))}")
            entry = households.setdefault(_int_cell(hid), [htype, 0])
            if entry[0] != htype:
                return error(f"household_type = {htype!r}, but household_id {hid} is "
                             f"{entry[0]!r} on an earlier line")
            if entry[1] == size:
                return error(f"household_id = {hid!r} has more members than a {htype!r} "
                             f"household holds ({size})")
            entry[1] += 1
            line_of[agent_id] = reader.line_num
    return ConfigurationError(f"population csv {path}: numpy's parser rejects a row "
                              "that no row check names")


def read_population_csv(path) -> Population:
    """Rebuild a Population from `write_population_csv` output.

    numpy's parser reads the rows into typed columns a block at a time, and
    every check runs on the columns.  The household columns are rebuilt from
    the household_id column: households are indexed in the order of their
    first row, and members listed in file order; the file's ids stay as the
    household_id column.  A header other than `CSV_COLUMNS`, a row with the
    wrong field count, a number cell numpy does not parse (an integer beyond
    64 bits included), a flag other than 0/1, a repeated id, an unknown
    household type, a household whose rows name different types and a
    household with more members than its type holds raise
    ConfigurationError, naming the line and the field; so does a byte that
    is not UTF-8, naming its line.
    """
    # numpy's parser has no per-field limit: lift `csv.reader`'s (131072
    # characters by default) while the header and the row scan read
    limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
            if header != CSV_COLUMNS:
                raise ConfigurationError(f"population csv {path}: unexpected header {header}")
            rows = _read_rows(handle)
        population = None if rows is None else _population(rows)
        if population is None:
            raise _first_fault(path)
        return population
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    finally:
        csv.field_size_limit(limit)
