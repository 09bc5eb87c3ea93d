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

by_region = collections.Counter(a.region for a in pop.agents)
for name, count in sorted(by_region.items()):
    print(f"  {name:<22} {count:>6}  ({count / len(pop):.1%})")

ages = np.array([a.age for a in pop.agents])
print(f"age: min {ages.min()}, median {int(np.median(ages))}, max {ages.max()}")

females = sum(1 for a in pop.agents if a.sex == "female")
print(f"sex: {females} female / {len(pop) - females} male")

sizes = collections.Counter(len(m) for m in pop.households.values())
print(f"households: {len(pop.households)} total, sizes {dict(sorted(sizes.items()))}")

smokers = sum(1 for a in pop.agents if a.smoker)
sbp = np.array([a.sbp for a in pop.agents])
print(f"risk factors: {smokers / len(pop):.1%} smokers, "
      f"SBP {sbp.mean():.1f} +- {sbp.std():.1f} mmHg")

stats = population_stats(pop)
print(f"frozen baseline stats: bmi {stats.bmi_mean:.2f} +- {stats.bmi_sd:.2f} "
      f"(interventions reduce in fractions of these sds)")

write_population_csv(pop, "population_demo.csv")
print("wrote population_demo.csv")
