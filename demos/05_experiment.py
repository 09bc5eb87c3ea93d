"""A small Monte Carlo experiment: scenarios, t-tests, output files.

Every (scenario, run) pair gets its own seed derived from the base seed,
so any single replication can be reproduced in isolation and adding or
dropping a scenario never reshuffles the others.  Thirty runs is enough
to see the machinery; the bundled configuration the CLI executes uses
1000 runs per scenario, where the roughly 2 percent stroke reductions
separate cleanly from noise.
"""

import time
from dataclasses import replace

import numpy as np

from strokesim.cli import format_summary_table
from strokesim.config import load_experiment_file
from strokesim.engine import PopulationArrays
from strokesim.montecarlo import (
    run_experiment,
    write_runs_csv,
    write_summary_csv,
    write_summary_json,
)
from strokesim.population import assign_risk_factors, build_population
from strokesim.seeds import derive_seed

cfg = load_experiment_file()
rng = np.random.default_rng(derive_seed(cfg.experiment.base_seed))
pop = build_population(cfg.demographics, rng)
assign_risk_factors(pop, cfg.risk_tables, rng)

# The loaded experiment runs all three scenario kinds on its one
# simulation config; keep them, run fewer.
exp = replace(cfg.experiment, n_runs=30, workers=1)
start = time.perf_counter()
result = run_experiment(
    exp, PopulationArrays.from_population(pop), cfg.ensemble, cfg.delay,
    cfg.severity, cfg.odds_ratios, cfg.life_table,
)
sim = exp.simulation
print(f"{exp.n_runs} runs x {len(exp.scenarios)} scenarios "
      f"({len(pop)} agents, {sim.horizon_days // sim.days_per_year} years) in "
      f"{time.perf_counter() - start:.1f} s\n")

print(format_summary_table(result))

print("\nall pairwise tests:")
for c in result.summary.comparisons:
    mark = "*" if c.significant else " "
    print(f"  {c.scenario:<26} vs {c.reference:<26} {c.metric:<8} "
          f"{c.percent_difference:+6.2f}%  t = {c.t:+6.2f}  p = {c.p:.3f}{mark}")

write_runs_csv(result, "runs_demo.csv")
write_summary_json(result.summary, "summary_demo.json")
write_summary_csv(result.summary, "summary_demo.csv")
print("\nwrote runs_demo.csv, summary_demo.json, summary_demo.csv")
