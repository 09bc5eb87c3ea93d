"""Run one replication end to end and inspect individual strokes.

A replication walks the population day by day for the horizon: yearly
birthdays, stroke draws (skip-sampled, so quiet stretches cost nothing),
treatment delay and severity.  It returns each agent's stroke day and
severity, and the DALYs of those strokes: a death loses the agent's
residual life years, a survivor lives them with a disability weight.
Nothing model-wide is recomputed inside it: `prepare` takes the
experiment's one simulation config (horizon, conversation ages,
threshold, reductions), scores every agent once per simulated year
beforehand, into one set of risk tables that every replication of every
scenario kind reads, and tabulates the outcome model and the residual
life expectancies once too.
"""

import numpy as np

from strokesim.config import load_experiment_file
from strokesim.engine import (
    DALY_WEIGHTS,
    SEVERITY_ORDER,
    PopulationArrays,
    Scenario,
    prepare,
    run_replication,
)
from strokesim.population import assign_risk_factors, build_population
from strokesim.seeds import derive_seed

cfg = load_experiment_file()
rng = np.random.default_rng(derive_seed(cfg.experiment.base_seed))
pop = build_population(cfg.demographics, rng)
assign_risk_factors(pop, cfg.risk_tables, rng)
# The engine runs on a column copy of the population, built once.
arrays = PopulationArrays.from_population(pop)
# Everything a replication reads, built once from the experiment's one
# simulation config (as run_experiment does), whichever scenario kind runs
# on it: each agent's five-year risk at every year's age, with its
# original factors and, for the agents a conversation can reach, with the
# intervention's factor reduction; the delay and severity models as
# lookups; and each agent's residual life expectancy.
model = prepare(arrays, cfg.ensemble, cfg.delay, cfg.severity, cfg.odds_ratios,
                cfg.life_table, cfg.experiment.simulation)
plain, reduced = model.tables.plain, model.tables.reduced
print(f"risk tables: {plain.shape[0]} years x {plain.shape[1]} agents, "
      f"{reduced.shape[1]} of them reducible")

seed = 7
result = run_replication(model, seed, Scenario.BASELINE)

print(f"baseline replication, seed {seed}:")
print(f"  strokes: {result.total_strokes}")
print(f"  DALYs:   {result.total_dalys:.1f} "
      f"({result.total_dalys / result.total_strokes:.2f} per stroke)")
for name, count in result.strokes_by_severity.items():
    print(f"    {name:<16} {count:>4}")

# The first few strokes, in simulation order (by day, then agent).  A
# stroke in year y leaves the entry residual less the y + 1 years aged.
day = result.stroke_day
struck = np.flatnonzero(day >= 0)
struck = struck[np.argsort(day[struck], kind="stable")]
print("first five strokes:")
for i in struck[:5]:
    years_left = max(model.residual[i] - (day[i] // 365 + 1), 0.0)
    k = result.severity[i]
    print(f"  agent {pop.id[i]:>5}  day {day[i]:>4}  "
          f"{SEVERITY_ORDER[k].value:<16} residual {years_left:>5.2f} y  "
          f"DALY {years_left * DALY_WEIGHTS[k]:>5.2f}")

per_year = np.bincount(day[day >= 0] // 365, minlength=10)
print("strokes per simulated year:", " ".join(str(n) for n in per_year))

# The conversation scenario on the same seed.  Reduced risks shift which
# uniforms each agent consumes, so a single pair of runs is dominated by
# sampling noise and can even point the wrong way; the roughly 2 percent
# true effect only separates from noise across many replications, which
# is what 05_experiment.py is for.
treated = run_replication(model, seed, Scenario.CONVERSATIONS)
print(f"conversations scenario, same seed: {treated.total_strokes} strokes, "
      f"{treated.conversations} conversations, "
      f"{treated.risk_reductions} risk reductions")
