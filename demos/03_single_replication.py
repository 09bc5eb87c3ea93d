"""Run one replication end to end and inspect individual strokes.

A replication walks the population day by day for the horizon: yearly
birthdays, stroke draws (skip-sampled, so quiet stretches cost nothing),
treatment delay, severity, and the DALY split into years of life lost and
years lived with disability.  Risks are not recomputed inside it: every
agent is scored once per simulated year beforehand, into risk tables
that all replications of a scenario share.
"""

import collections

import numpy as np

from strokesim.config import load_experiment_file
from strokesim.engine import PopulationArrays, Scenario, build_risk_tables, run_replication
from strokesim.population import assign_risk_factors, build_population
from strokesim.seeds import derive_seed

cfg = load_experiment_file()
rng = np.random.default_rng(derive_seed(cfg.experiment.base_seed))
pop = build_population(cfg.demographics, rng)
assign_risk_factors(pop, cfg.risk_tables, rng)
# The engine runs on a column copy of the population, built once.
arrays = PopulationArrays.from_population(pop)
scenarios = {s.scenario: s for s in cfg.experiment.scenarios}
# Each agent's five-year risk at every year's age, with and without the
# intervention's factor reduction; run_experiment builds these itself.
tables = build_risk_tables(arrays, cfg.ensemble, cfg.experiment.scenarios)
print(f"risk tables: {tables[Scenario.BASELINE].plain.shape[0]} years "
      f"x {tables[Scenario.BASELINE].plain.shape[1]} agents")

result = run_replication(
    arrays, tables[Scenario.BASELINE], scenarios[Scenario.BASELINE],
    cfg.delay, cfg.severity, cfg.odds_ratios, cfg.life_table,
    rng=7,
)

print(f"baseline replication, seed {result.seed}:")
print(f"  strokes: {result.total_strokes}")
print(f"  DALYs:   {result.total_dalys:.1f} "
      f"({result.mean_dalys_per_stroke:.2f} per stroke)")
for name, count in result.strokes_by_severity.items():
    print(f"    {name:<16} {count:>4}")

# The first few outcomes, in simulation order.
print("first five strokes:")
for o in result.outcomes[:5]:
    print(f"  agent {o.agent_id:>5}  day {o.day:>4}  "
          f"delay {o.delay_hours:>5.2f} h  {o.severity.value:<16} "
          f"YLL {o.yll:>5.2f}  YLD {o.yld:>5.2f}  DALY {o.daly:>5.2f}")

years = collections.Counter(o.day // 365 for o in result.outcomes)
print("strokes per simulated year:",
      " ".join(str(years.get(y, 0)) for y in range(10)))

# The conversation scenario on the same seed.  Reduced risks shift which
# uniforms each agent consumes, so a single pair of runs is dominated by
# sampling noise and can even point the wrong way; the roughly 2 percent
# true effect only separates from noise across many replications, which
# is what 05_experiment.py is for.
treated = run_replication(
    arrays, tables[Scenario.CONVERSATIONS], scenarios[Scenario.CONVERSATIONS],
    cfg.delay, cfg.severity, cfg.odds_ratios, cfg.life_table,
    rng=7,
)
print(f"conversations scenario, same seed: {treated.total_strokes} strokes, "
      f"{treated.conversations} conversations, "
      f"{treated.risk_reductions} risk reductions")
