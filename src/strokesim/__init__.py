"""strokesim: agent-based microsimulation of population stroke burden.

A seed-deterministic daily-timestep model: a synthetic household-
structured population is scored with an ensemble logistic risk model,
strokes arrive as Bernoulli events (each agent's first stroke day in a
year is one geometric draw), each stroke gets an arrival delay, a
delay-adjusted severity, and a DALY contribution, and intervention
scenarios (health conversations, family spillover) are compared against
baseline over Monte Carlo replications.
"""

__version__ = "0.1.0"

from .engine import (
    DelayModel,
    LifeTable,
    OddsRatioTable,
    PopulationArrays,
    PreparedModel,
    RiskTables,
    RunResult,
    Scenario,
    Severity,
    SeverityDistribution,
    SimulationConfig,
    StrokeOutcome,
    build_risk_tables,
    prepare,
    run_replication,
)
from .errors import CalibrationError, ConfigurationError
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentSummary,
    percent_difference,
    run_experiment,
)
from .population import (
    Agent,
    DemographicSpec,
    Population,
    RiskFactorTables,
    assign_risk_factors,
    build_population,
    population_stats,
    read_population_csv,
    write_population_csv,
)
from .risk import (
    EnsembleRiskModel,
    LogisticModel,
    calibrate_intercepts,
    ensemble_score,
    expected_stroke_count,
    logistic_score,
)
from .seeds import derive_seed
from .stats import TTestResult, paired_t_test, regularized_incomplete_beta, t_test

__all__ = [
    "__version__",
    "Agent",
    "CalibrationError",
    "ConfigurationError",
    "DelayModel",
    "DemographicSpec",
    "EnsembleRiskModel",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSummary",
    "LifeTable",
    "LogisticModel",
    "OddsRatioTable",
    "Population",
    "PopulationArrays",
    "PreparedModel",
    "RiskFactorTables",
    "RiskTables",
    "RunResult",
    "Scenario",
    "Severity",
    "SeverityDistribution",
    "SimulationConfig",
    "StrokeOutcome",
    "TTestResult",
    "assign_risk_factors",
    "build_population",
    "build_risk_tables",
    "calibrate_intercepts",
    "derive_seed",
    "ensemble_score",
    "expected_stroke_count",
    "logistic_score",
    "paired_t_test",
    "percent_difference",
    "population_stats",
    "prepare",
    "read_population_csv",
    "regularized_incomplete_beta",
    "run_experiment",
    "run_replication",
    "t_test",
    "write_population_csv",
]
