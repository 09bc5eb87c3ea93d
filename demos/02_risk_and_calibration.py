"""Score stroke risk and calibrate the ensemble offset.

Walks the risk pipeline one layer at a time: a single member model, the
age-dependent ensemble weighting, the five-year to daily conversion, and
finally offset calibration against a population-level incidence target.
"""

import numpy as np

from strokesim.config import load_experiment_file, load_population_file, load_risk_model
from strokesim.population import Agent, assign_risk_factors, build_population
from strokesim.risk import (
    DAYS_PER_FIVE_YEARS,
    calibrate_intercepts,
    ensemble_score,
    expected_stroke_count,
    logistic_score,
    weights_for_age,
)
from strokesim.seeds import derive_seed

ens = load_risk_model("strokesim:risk_model_ie.json")
print(f"ensemble: {len(ens.models)} members, "
      f"calibration offset {ens.calibration_offset:+.4f}")

# One illustrative agent, scored by hand through each member.
probe = Agent(
    id=0, age=62, sex="male", region="dublin", household_id=0,
    employment="retired", sbp=148.0, dbp=88.0, bmi=29.5,
    diabetes=False, afib=False, smoker=True, cigs_per_day=15,
)
w = weights_for_age(ens, probe.age)
for j, member in enumerate(ens.models):
    p = logistic_score(member, probe, ens.calibration_offset)
    print(f"  member {j} (fitted {member.age_lo}-{member.age_hi}): "
          f"five-year {p:.4f}, weight {w[j]:.2f}")
five_year = ensemble_score(ens, probe)
print(f"  weighted at age {probe.age}: five-year {five_year:.4f}, "
      f"daily {five_year / DAYS_PER_FIVE_YEARS:.3e}")

# Same agent, ten years younger and a nonsmoker.
probe.age, probe.smoker, probe.cigs_per_day = 52, False, 0
print(f"  younger nonsmoker: five-year {ensemble_score(ens, probe):.4f}")

# Calibration: choose the offset so the closed-form expected stroke count
# over the horizon matches a target annual rate.  The bundled offset was
# produced this way, so recalibrating to the bundled target is a no-op.
spec, tables = load_population_file("strokesim:population_ie.json")
rng = np.random.default_rng(derive_seed(42))
pop = build_population(spec, rng)
assign_risk_factors(pop, tables, rng)

expected = expected_stroke_count(ens, pop, 3650)
print(f"expected strokes over 10 years: {expected:.1f} "
      f"({expected / len(pop) / 10 * 1000:.3f} per 1000 agent-years)")

target = load_experiment_file().calibration_target
calibrated = calibrate_intercepts(ens, pop, target_annual_risk=target)
print(f"recalibrated to {target:.6g} per agent-year: "
      f"offset {calibrated.calibration_offset:+.6f} "
      f"(bundled {ens.calibration_offset:+.6f})")
