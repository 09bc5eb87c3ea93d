"""Command-line entry point: generate populations, calibrate, run experiments.

All three subcommands start from the same experiment config file; every
random stream derives from the single --seed flag (see seeds.py for the
derivation), so any output can be reproduced from its manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from . import __version__
from .config import DEFAULT_EXPERIMENT, AppConfig, dump_risk_model, load_experiment_file
from .engine import PopulationArrays, Scenario
from .errors import CalibrationError, ConfigurationError
from .files import atomic_open
from .montecarlo import (
    ExperimentResult,
    run_experiment,
    summary_rows,
    worker_count,
    write_runs_csv,
    write_summary_csv,
    write_summary_json,
)
from .population import Population, assign_risk_factors, build_population, write_population_csv
from .risk import (
    EnsembleRiskModel,
    calibrate_intercepts,
    check_calibration_request,
    expected_stroke_count,
    feature_matrix,  # not called here; perfbench/tracing.py patches it by name
    five_year_matrix,
    population_features,
)
from .seeds import derive_seed

SCENARIO_CHOICES = {
    "baseline": [Scenario.BASELINE],
    "conversations": [Scenario.BASELINE, Scenario.CONVERSATIONS],
    "family": [Scenario.BASELINE, Scenario.CONVERSATIONS_PLUS_FAMILY],
    "all": [Scenario.BASELINE, Scenario.CONVERSATIONS, Scenario.CONVERSATIONS_PLUS_FAMILY],
}


def _build_population(cfg: AppConfig, base_seed: int) -> Population:
    """Synthesize the population for one seed and assign its risk factors."""
    rng = np.random.default_rng(derive_seed(base_seed))
    pop = build_population(cfg.demographics, rng)
    return assign_risk_factors(pop, cfg.risk_tables, rng)


def _score(pop: Population, features: np.ndarray, ensemble: EnsembleRiskModel) -> None:
    """Set the five-year risk column from the rows of `features`."""
    pop.five_year_risk = five_year_matrix(ensemble, features, pop.age)


def _out_path(value: str, directory: bool = False) -> Path:
    """`--out`, checked before any work: a file goes into an existing
    directory and is not one; a directory (made when written) is not, and
    is not under, a file."""
    out = Path(value)
    base = next(p for p in (out, *out.parents) if p.exists()) if directory else out.parent
    if not base.is_dir() or (not directory and out.is_dir()):
        kind = "directory" if directory else "file"
        raise ConfigurationError(f"--out {value}: cannot write an output {kind} there")
    return out


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _phase(phases: dict[str, float], name: str) -> Iterator[None]:
    """Record the wall seconds of the enclosed block as ``phases[name]``."""
    start = time.perf_counter()
    yield
    phases[name] = round(time.perf_counter() - start, 6)


def _blas() -> Optional[dict]:
    """The BLAS numpy was built against, or None where numpy (before 1.26)
    cannot report its build as data."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _write_manifest(path: Path, payload: dict, phases: dict[str, float]) -> None:
    """Write a command's manifest.  Wall time per phase and the environment
    go here, never into the data files, which stay byte-identical per seed."""
    payload = {"tool": "strokesim", "version": __version__, **payload,
               "phases_s": phases, "environment": _environment()}
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def cmd_generate(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    phases: dict[str, float] = {}
    with _phase(phases, "load"):
        cfg = load_experiment_file(args.config)
    base_seed = args.seed if args.seed is not None else cfg.experiment.base_seed
    with _phase(phases, "synthesis"):
        pop = _build_population(cfg, base_seed)
        _score(pop, population_features(pop), cfg.ensemble)
    with _phase(phases, "write"):
        write_population_csv(pop, out)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), {
        "command": "generate",
        "config": cfg.source,
        "population": cfg.population_ref,
        "risk_model": cfg.risk_model_ref,
        "seed": base_seed,
        "population_seed": derive_seed(base_seed),
        "agents": len(pop),
        "calibration_offset": cfg.ensemble.calibration_offset,
        "created_utc": _utc_now(),
    }, phases)
    print(f"wrote {len(pop)} agents to {out}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    phases: dict[str, float] = {}
    with _phase(phases, "load"):
        cfg = load_experiment_file(args.config)
    target = args.target if args.target is not None else cfg.calibration_target
    if target <= 0:
        raise ConfigurationError(
            "no calibration target: pass --target or set calibration.target_annual_risk"
        )
    tol = args.tol if args.tol is not None else cfg.calibration_tol
    check_calibration_request(target, tol)
    base_seed = args.seed if args.seed is not None else cfg.experiment.base_seed
    with _phase(phases, "synthesis"):
        pop = _build_population(cfg, base_seed)
    with _phase(phases, "calibration"):
        calibrated = calibrate_intercepts(
            cfg.ensemble, pop, target,
            horizon_days=cfg.horizon_days, days_per_year=cfg.days_per_year, tol=tol,
        )
        expected = expected_stroke_count(calibrated, pop, cfg.horizon_days)
    with _phase(phases, "write"):
        dump_risk_model(calibrated, out)
    years = cfg.horizon_days / cfg.days_per_year
    achieved = expected / (len(pop) * years)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), {
        "command": "calibrate",
        "config": cfg.source,
        "population": cfg.population_ref,
        "risk_model": cfg.risk_model_ref,
        "seed": base_seed,
        "population_seed": derive_seed(base_seed),
        "agents": len(pop),
        "target_annual_risk": target,
        "tol": tol,
        "achieved_annual_risk": achieved,
        "calibration_offset": calibrated.calibration_offset,
        "created_utc": _utc_now(),
    }, phases)
    print(f"calibration offset: {calibrated.calibration_offset:.12g}")
    print(f"achieved incidence: {achieved:.6e} per agent-year "
          f"(target {target:.6e})")
    print(f"expected strokes over {cfg.horizon_days} days: {expected:.4f}")
    print(f"wrote {args.out}")
    return 0


def format_summary_table(result: ExperimentResult) -> str:
    """Plain-text table: per scenario, mean strokes/DALYs and the change
    against baseline, starred when significant."""
    summary = result.summary
    widths = {"strokes": 10, "dalys": 12}
    rows: dict[str, list[str]] = {}
    for scenario, metric, value, _sd, c in summary_rows(summary):
        cells = rows.setdefault(scenario, [f"{scenario:<28}"])
        cells.append(f"{value:>{widths[metric]}.2f}")
        cells.append(f"{'-':>9}" if c is None else
                     f"{c.percent_difference:>8.2f}%" + ("*" if c.significant else " "))
    lines = [
        f"{'scenario':<28} {'strokes':>10} {'diff':>9} {'dalys':>12} {'diff':>9}",
        *(" ".join(cells) for cells in rows.values()),
    ]
    lines.append("(* significant at the "
                 f"{100 * (1 - summary.significance_level):.0f}% level, "
                 f"n={summary.n_runs} runs per scenario)")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    out = _out_path(args.out, directory=True)
    phases: dict[str, float] = {}
    with _phase(phases, "load"):
        cfg = load_experiment_file(args.config)
    exp = cfg.experiment
    scenarios = [kind for kind in exp.scenarios if kind in SCENARIO_CHOICES[args.scenario]]
    n_runs = args.runs if args.runs is not None else exp.n_runs
    exp = replace(
        exp,
        base_seed=args.seed if args.seed is not None else exp.base_seed,
        scenarios=scenarios,
        n_runs=n_runs,
        workers=worker_count(args.workers, len(scenarios) * n_runs),
    )
    with _phase(phases, "synthesis"):
        pop = _build_population(cfg, exp.base_seed)
    with _phase(phases, "arrays"):
        arrays = PopulationArrays.from_population(pop)
        # the engine reads its risk tables; this is for readers of `pop` (perfbench)
        _score(pop, arrays.features, cfg.ensemble)
    with _phase(phases, "experiment"):
        result = run_experiment(
            exp, arrays, cfg.ensemble, cfg.delay, cfg.severity, cfg.odds_ratios,
            cfg.life_table,
        )

    with _phase(phases, "write"):
        out.mkdir(parents=True, exist_ok=True)
        write_runs_csv(result, out / "runs.csv")
        write_summary_json(result.summary, out / "summary.json")
        write_summary_csv(result.summary, out / "summary.csv")
    _write_manifest(out / "manifest.json", {
        "command": "run",
        "config": cfg.source,
        "population": cfg.population_ref,
        "risk_model": cfg.risk_model_ref,
        "life_table": cfg.life_table_ref,
        "scenario_flag": args.scenario,
        "n_runs": exp.n_runs,
        "base_seed": exp.base_seed,
        "population_seed": derive_seed(exp.base_seed),
        "workers": exp.workers,
        "calibration_offset": cfg.ensemble.calibration_offset,
        "seeds": {
            name: [m.seed for m in metrics] for name, metrics in result.runs.items()
        },
        "created_utc": _utc_now(),
    }, phases)
    print(format_summary_table(result))
    print(f"outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strokesim",
        description="Agent-based microsimulation of population stroke burden",
    )
    parser.add_argument("--version", action="version", version=f"strokesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=DEFAULT_EXPERIMENT,
                        help="experiment config (path or strokesim:NAME)")
    common.add_argument("--seed", type=int, default=None,
                        help="base seed (default: from config)")

    p = sub.add_parser("generate", parents=[common],
                       help="synthesize a population and write it as CSV")
    p.add_argument("--out", default="population.csv", help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("calibrate", parents=[common],
                       help="calibrate the risk model to a target incidence")
    p.add_argument("--target", type=float, default=None,
                   help="target annual stroke risk per agent (default: from config)")
    p.add_argument("--tol", type=float, default=None,
                   help="calibration tolerance on the achieved incidence")
    p.add_argument("--out", default="risk_model_calibrated.json",
                   help="output model JSON path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", parents=[common], help="run a Monte Carlo experiment")
    p.add_argument("--scenario", choices=sorted(SCENARIO_CHOICES), default="all")
    p.add_argument("--runs", type=int, default=None,
                   help="replications per scenario (default: from config)")
    p.add_argument("--out", default="strokesim_out", help="output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: one per core)")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"error: {exc} (closest achievable: {exc.achieved:.6e})", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
