"""Build the bundled synthetic population and look at its marginals.

The generator apportions agents to regions, sexes, age bands, employment
and household types by largest remainder, so every marginal lands within
one agent of its target share, then draws risk factors from the age-band
tables.  Everything downstream of the single seed is reproducible.
"""

import collections

import numpy as np

from strokesim.config import load_population_file
from strokesim.population import (
    assign_risk_factors,
    build_population,
    population_stats,
    write_population_csv,
)
from strokesim.seeds import derive_seed

BASE_SEED = 42

spec, tables = load_population_file("strokesim:population_ie.json")
rng = np.random.default_rng(derive_seed(BASE_SEED))
pop = build_population(spec, rng)
assign_risk_factors(pop, tables, rng)

print(f"agents: {len(pop)} (1:{spec.scale_factor} scale, ages {spec.min_age}+)")

# The population is held as columns, one array per agent field.
by_region = collections.Counter(pop.region.tolist())
for name, count in sorted(by_region.items()):
    print(f"  {name:<22} {count:>6}  ({count / len(pop):.1%})")

print(f"age: min {pop.age.min()}, median {int(np.median(pop.age))}, max {pop.age.max()}")

females = int((pop.sex == "female").sum())
print(f"sex: {females} female / {len(pop) - females} male")

# Households are two columns: a dense index per agent (`pop.household`), and
# one type per household; a household's size is the count of its index.
sizes = collections.Counter(np.bincount(pop.household).tolist())
types = collections.Counter(pop.household_type.tolist())
print(f"households: {len(pop.household_type)} total, sizes {dict(sorted(sizes.items()))}, "
      f"types {dict(sorted(types.items()))}")

print(f"risk factors: {pop.smoker.mean():.1%} smokers, "
      f"SBP {pop.sbp.mean():.1f} +- {pop.sbp.std():.1f} mmHg")

# `pop.agents` builds one `Agent` row per agent from the columns when asked.
first = pop.agents[0]
print(f"agent {first.id}: {first.age}-year-old {first.sex} in {first.region}, "
      f"household {first.household_id} ({pop.household_type[pop.household[0]]})")

stats = population_stats(pop)
print(f"frozen baseline stats: bmi {stats.bmi_mean:.2f} +- {stats.bmi_sd:.2f} "
      f"(interventions reduce in fractions of these sds)")

write_population_csv(pop, "population_demo.csv")
print("wrote population_demo.csv")
