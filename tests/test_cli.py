"""CLI surface: generate / calibrate / run, manifests, determinism, exit codes."""

import csv
import hashlib
import importlib.resources
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import strokesim.cli as cli
from strokesim.cli import format_summary_table, main
from strokesim.config import load_experiment_file, load_risk_model
from strokesim.engine import Scenario
from strokesim.population import CSV_COLUMNS, read_population_csv
from strokesim.risk import expected_stroke_count
from strokesim.seeds import derive_seed
from test_montecarlo import usable_cores

SMALL_POP = {
    "demographics": {
        "total_agents": 120,
        "scale_factor": 100,
        "min_age": 35,
        "regions": [{
            "name": "east",
            "share": 1.0,
            "sex": {"female": 0.5, "male": 0.5},
            "age_bands": {"35-54": 0.45, "55-74": 0.35, "75+": 0.2},
            "employment": {"employed": 0.6, "unemployed": 0.05, "inactive": 0.35},
            "households": {"single": 0.3, "couple": 0.5, "with_children": 0.2},
        }],
    },
    "risk_factors": {
        "bands": [{
            "ages": "35+",
            "sbp_mean": 138.0, "sbp_sd": 16.0,
            "dbp_mean": 82.0, "dbp_sd": 10.0,
            "bmi_mean": 28.0, "bmi_sd": 4.5,
            "diabetes_prev": 0.1, "afib_prev": 0.05,
            "smoker_prev": 0.25, "cigs_per_day_mean": 15.0,
        }],
    },
}

SMALL_MODEL = {
    "models": [{
        "age_range": [35, None],
        "intercept": -9.0,
        "coefficients": {"sbp": 0.045, "smoker": 0.5, "afib": 1.2},
    }],
    "weights": [{"age_range": [35, None], "weights": [1.0]}],
}

WEAK_MODEL = {
    "models": [{"age_range": [35, None], "intercept": -40.0, "coefficients": {}}],
    "weights": [{"age_range": [35, None], "weights": [1.0]}],
}

SMALL_LIFE = {
    "ages": [35, 70, 110],
    "female": [48.0, 17.0, 2.0],
    "male": [45.0, 15.0, 2.0],
}


def experiment_doc(**overrides):
    doc = {
        "population": "pop.json",
        "risk_model": "model.json",
        "life_table": "life.json",
        "simulation": {"horizon_days": 730, "days_per_year": 365},
        "experiment": {"base_seed": 7, "n_runs": 3, "significance_level": 0.05},
        "calibration": {"target_annual_risk": 0.004},
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    (root / "pop.json").write_text(json.dumps(SMALL_POP))
    (root / "model.json").write_text(json.dumps(SMALL_MODEL))
    (root / "weak.json").write_text(json.dumps(WEAK_MODEL))
    (root / "life.json").write_text(json.dumps(SMALL_LIFE))
    (root / "experiment.json").write_text(json.dumps(experiment_doc()))
    (root / "experiment_weak.json").write_text(
        json.dumps(experiment_doc(risk_model="weak.json")))
    return root


@pytest.fixture(scope="module")
def config_path(config_dir):
    return str(config_dir / "experiment.json")


# --- generate ---


def test_generate_writes_population_and_manifest(config_path, tmp_path, capsys):
    out = tmp_path / "pop.csv"
    assert main(["generate", "--config", config_path, "--out", str(out)]) == 0
    assert "wrote 120 agents" in capsys.readouterr().out

    pop = read_population_csv(out)
    assert len(pop.agents) == 120
    with open(out, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == CSV_COLUMNS

    manifest = json.loads((tmp_path / "pop.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["tool"] == "strokesim"
    assert manifest["seed"] == 7
    assert manifest["population_seed"] == derive_seed(7)
    assert manifest["agents"] == 120
    assert "created_utc" in manifest


# Runs `generate` under the C locale with UTF-8 mode off, so the locale's
# encoding is ASCII, then reads the CSV back and writes it again.
ASCII_LOCALE_GENERATE = """
import sys
from strokesim.cli import main
from strokesim.population import read_population_csv, write_population_csv
config, out, again = sys.argv[1:]
assert main(["generate", "--config", config, "--out", out]) == 0
write_population_csv(read_population_csv(out), again)
"""


def test_generate_and_read_back_utf8_under_an_ascii_locale(config_dir, tmp_path):
    pop = json.loads(json.dumps(SMALL_POP))
    pop["demographics"]["regions"][0]["name"] = "Dún Laoghaire"
    (tmp_path / "pop.json").write_text(json.dumps(pop, ensure_ascii=False), encoding="utf-8")
    for name in ("model.json", "life.json", "experiment.json"):
        (tmp_path / name).write_bytes((config_dir / name).read_bytes())
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out, again = tmp_path / "out.csv", tmp_path / "again.csv"
    proc = subprocess.run(
        [sys.executable, "-c", ASCII_LOCALE_GENERATE, str(tmp_path / "experiment.json"),
         str(out), str(again)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == again.read_bytes()
    assert {a.region for a in read_population_csv(out).agents} == {"Dún Laoghaire"}
    # the same bytes as under this process's locale
    here = tmp_path / "here.csv"
    assert main(["generate", "--config", str(tmp_path / "experiment.json"),
                 "--out", str(here)]) == 0
    assert here.read_bytes() == out.read_bytes()


def test_generate_deterministic_and_seed_sensitive(config_path, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(["generate", "--config", config_path, "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    other = tmp_path / "c.csv"
    main(["generate", "--config", config_path, "--out", str(other), "--seed", "8"])
    assert other.read_bytes() != outs[0]


def test_generated_risks_are_scored(config_path, tmp_path):
    out = tmp_path / "pop.csv"
    main(["generate", "--config", config_path, "--out", str(out)])
    pop = read_population_csv(out)
    risks = [a.five_year_risk for a in pop.agents]
    assert all(0.0 < r < 1.0 for r in risks)
    assert len(set(risks)) > 50  # continuous factors spread the scores


# --- calibrate ---


def test_calibrate_writes_model_at_target(config_path, config_dir, tmp_path, capsys):
    out = tmp_path / "model_cal.json"
    code = main(["calibrate", "--config", config_path, "--out", str(out),
                 "--target", "0.003"])
    assert code == 0
    text = capsys.readouterr().out
    assert "calibration offset:" in text
    assert "achieved incidence:" in text
    assert f"wrote {out}" in text

    calibrated = load_risk_model(out)
    assert calibrated.calibration_offset != 0.0

    # the written model must reproduce the target on the same population
    cfg = load_experiment_file(config_path)
    from strokesim.cli import _build_population
    pop = _build_population(cfg, 7)
    expected = expected_stroke_count(calibrated, pop, cfg.horizon_days)
    achieved = expected / (len(pop.agents) * cfg.horizon_days / cfg.days_per_year)
    assert achieved == pytest.approx(0.003, rel=1e-6)


def test_calibrate_uses_config_target_by_default(config_path, tmp_path, capsys):
    out = tmp_path / "model_cal.json"
    assert main(["calibrate", "--config", config_path, "--out", str(out)]) == 0
    assert "(target 4.000000e-03)" in capsys.readouterr().out


@pytest.mark.parametrize("flags, field", [
    (["--target", "0.2"], "target_annual_risk"),
    (["--target", "nan"], "target_annual_risk"),
    (["--target", "0.003", "--tol", "nan"], "tol"),
    (["--target", "0.003", "--tol", "inf"], "tol"),
    (["--target", "0.003", "--tol", "-1"], "tol"),
], ids=["target-0.2", "target-nan", "tol-nan", "tol-inf", "tol-negative"])
def test_calibrate_rejects_out_of_range_target(config_path, tmp_path, capsys, monkeypatch,
                                              flags, field):
    # refused before the population is synthesized
    monkeypatch.setattr(cli, "build_population", lambda *args: pytest.fail("synthesized"))
    out = tmp_path / "m.json"
    code = main(["calibrate", "--config", config_path, "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} = ")
    assert list(tmp_path.iterdir()) == []


def test_calibrate_unreachable_target_reports_closest(config_dir, tmp_path, capsys):
    code = main(["calibrate", "--config", str(config_dir / "experiment_weak.json"),
                 "--out", str(tmp_path / "m.json"), "--target", "0.003"])
    assert code == 2
    err = capsys.readouterr().err
    assert "closest achievable:" in err


@pytest.mark.parametrize("command, out", [
    ("run", "file"), ("run", "file/out"),
    ("generate", "missing/pop.csv"), ("generate", "dir"),
    ("calibrate", "missing/model.json"), ("calibrate", "dir"),
])
def test_unusable_out_is_refused_before_loading(config_path, tmp_path, capsys, monkeypatch,
                                                command, out):
    # a run writes into a directory it makes; generate and calibrate write a
    # file into a directory that must exist.  A path they cannot write is
    # refused before the config is even loaded, and nothing is written.
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(cli, "load_experiment_file", lambda *args: pytest.fail("loaded"))
    kind = "directory" if command == "run" else "file"
    assert main([command, "--config", config_path, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {tmp_path / out}: cannot write an output {kind} there\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept\n"


# --- run ---


def run_cli(config_path, out_dir, *extra):
    return main(["run", "--config", config_path, "--out", str(out_dir),
                 "--workers", "1", *extra])


def test_run_writes_all_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(config_path, out) == 0
    stdout = capsys.readouterr().out
    assert "scenario" in stdout and "dalys" in stdout
    assert f"outputs in {out}" in stdout

    for name in ("runs.csv", "summary.json", "summary.csv", "manifest.json"):
        assert (out / name).exists(), name

    with open(out / "runs.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 3  # all three scenarios, n_runs from the config
    assert {r["scenario"] for r in rows} == {
        "baseline", "conversations", "conversations_plus_family"}

    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_runs"] == 3
    assert summary["base_seed"] == 7

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["scenario_flag"] == "all"
    assert manifest["n_runs"] == 3
    seeds_in_rows = [int(r["seed"]) for r in rows if r["scenario"] == "baseline"]
    assert manifest["seeds"]["baseline"] == seeds_in_rows


def test_run_byte_identical_across_invocations(config_path, tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_cli(config_path, first) == 0
    assert run_cli(config_path, second) == 0
    for name in ("runs.csv", "summary.json", "summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_run_scenario_flag_selects_subset(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli(config_path, out, "--scenario", "baseline") == 0
    with open(out / "runs.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {r["scenario"] for r in rows} == {"baseline"}

    out2 = tmp_path / "out2"
    assert run_cli(config_path, out2, "--scenario", "family") == 0
    with open(out2 / "runs.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {r["scenario"] for r in rows} == {"baseline", "conversations_plus_family"}


def test_run_flags_override_config(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli(config_path, out, "--runs", "2", "--seed", "11") == 0
    with open(out / "runs.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["base_seed"] == 11
    assert int(rows[0]["seed"]) == derive_seed(11, 0, 0)


def test_run_manifest_records_workers_used(config_path, tmp_path, monkeypatch):
    # on one core the request is capped at 1, so this starts no process
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out), "--runs", "2",
                 "--scenario", "baseline", "--workers", "64"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["workers"] == 1


def test_run_subset_scenarios_share_baseline_rows(config_path, tmp_path):
    full, subset = tmp_path / "full", tmp_path / "subset"
    run_cli(config_path, full)
    run_cli(config_path, subset, "--scenario", "baseline")
    with open(full / "runs.csv", newline="") as handle:
        full_rows = [r for r in csv.DictReader(handle) if r["scenario"] == "baseline"]
    with open(subset / "runs.csv", newline="") as handle:
        subset_rows = list(csv.DictReader(handle))
    assert subset_rows == full_rows


# Output digests of `strokesim run --runs 4` on the bundled config, the
# same at any worker count.  A change that claims to keep the model and its
# random stream must leave these alone; one that changes them re-pins them
# and says why.
GOLDEN_DIGESTS = {
    "runs.csv": "5a75af4394bec24f1a310125261f5e6fd7e96c289794c833cc95c5fad1dc2943",
    "summary.json": "6ebd060fdd294d803c53f978d613211652bb320f020186ab3e2e87ae5aad2505",
    "summary.csv": "247a1986905c14ce61fd94e2d8aeb0eea18b290c85c716fee68e40e6148c7ddb",
}

# both the serial path and the pool, on a one-core runner too
WORKERS = pytest.mark.parametrize("workers", ["1", "2"], ids=["workers-1", "workers-2"])


@WORKERS
def test_run_bundled_config_matches_golden_digest(tmp_path, monkeypatch, workers):
    usable_cores(monkeypatch, 2)
    out = tmp_path / "golden"
    assert main(["run", "--runs", "4", "--workers", workers, "--out", str(out)]) == 0
    for name, digest in GOLDEN_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def age_graded_experiment(root):
    """The bundled population and life table under a model the bundled
    config never exercises: an age coefficient, blended weights crossfaded
    over 3 years, common random numbers, conversation ages below and above
    every agent's reach, and odds-ratio rows that split delay bands."""
    model = json.loads(importlib.resources.files("strokesim")
                       .joinpath("data", "risk_model_ie.json").read_text())
    for i, member in enumerate(model["models"]):
        member["coefficients"]["age"] = 0.02 + 0.01 * i
        member["intercept"] -= 1.2 + 0.6 * i
    for row, weights in zip(model["weights"], ([0.7, 0.3, 0.0], [0.2, 0.5, 0.3],
                                               [0.0, 0.4, 0.6])):
        row["weights"] = weights
    model["crossfade_years"] = 3
    (root / "model.json").write_text(json.dumps(model))
    doc = experiment_doc(
        population="strokesim:population_ie.json",
        life_table="strokesim:life_table_ie.json",
        simulation={"horizon_days": 3650, "days_per_year": 365,
                    "conversation_ages": [30, 50, 60, 70, 80, 150],
                    "high_risk_threshold": 0.08},
        severity={"base": [0.19, 0.35, 0.37, 0.09], "odds_ratios": [
            {"delay": [0.0, 2.0], "or_mrs_le1": 1.9, "or_mrs_ge2": 2.1},
            {"delay": [2.0, 6.0], "or_mrs_le1": 1.3, "or_mrs_ge2": 0.9},
            {"delay": [6.0, 13.0], "or_mrs_le1": 1.1, "or_mrs_ge2": 1.05},
            {"delay": [13.0, None], "or_mrs_le1": 1.0, "or_mrs_ge2": 1.0}]},
        experiment={"base_seed": 42, "n_runs": 1000, "common_random_numbers": True},
    )
    (root / "experiment.json").write_text(json.dumps(doc))
    return str(root / "experiment.json")


# Output digests of `strokesim run --runs 4` on `age_graded_experiment`,
# pinned like GOLDEN_DIGESTS: they cover the age term, crossfaded weights,
# paired (CRN) statistics and unreachable conversation ages, none of which
# the bundled config reaches.
GOLDEN_AGE_GRADED_DIGESTS = {
    "runs.csv": "22f333053dee8728cac300adf3633cbb9ae494e135f38a722617814893da2e07",
    "summary.json": "a2a3284dd2a07281e7d24f0442b6c2bb2acfd2917a8f9b1c153331079c41c5d9",
    "summary.csv": "ff1b556f279cf297887a91d02f8ec98397104108d5fdafe3df0a78593e365714",
}


@WORKERS
def test_run_age_graded_config_matches_golden_digest(tmp_path, monkeypatch, workers):
    usable_cores(monkeypatch, 2)
    config = age_graded_experiment(tmp_path)
    out = tmp_path / "golden"
    assert main(["run", "--config", config, "--runs", "4", "--workers", workers,
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["common_random_numbers"] is True
    with open(out / "runs.csv", newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if r["scenario"] != "baseline"]
    assert all(int(r["conversations"]) > 0 for r in rows)
    for name, digest in GOLDEN_AGE_GRADED_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# Digest of `strokesim generate --seed 42` on the bundled config: every
# agent, household and risk factor the population stream draws, and every
# score, written with repr floats.
GOLDEN_GENERATE_DIGEST = "6948501861735d849f69901532e3997d1221ec62dce09ec9da47baa8cb007323"


def test_generate_bundled_config_matches_golden_digest(tmp_path):
    out = tmp_path / "population.csv"
    assert main(["generate", "--seed", "42", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_GENERATE_DIGEST


# Digest of the model JSON `strokesim calibrate --seed 42` writes on the
# bundled config: the calibration offset the bisection lands on, in full.
GOLDEN_CALIBRATE_DIGEST = "80bb68d75440931759e7fa9fb1c4ab49146070181f1f1db7b71714f61c68bf19"


def test_calibrate_bundled_config_matches_golden_digest(tmp_path):
    out = tmp_path / "model.json"
    assert main(["calibrate", "--seed", "42", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CALIBRATE_DIGEST


def test_each_command_builds_the_feature_matrix_as_often_as_it_needs(
        config_path, tmp_path, monkeypatch):
    # generate scores from its one build; calibrate builds once to bisect and
    # once to report; run scores from the engine's arrays
    import strokesim.cli
    import strokesim.engine
    import strokesim.risk
    builds = []
    original = strokesim.risk.population_features

    def counted(pop):
        builds.append(len(pop))
        return original(pop)
    for module in (strokesim.risk, strokesim.engine, strokesim.cli):
        monkeypatch.setattr(module, "population_features", counted)
    commands = {
        "generate": ["--out", str(tmp_path / "pop.csv")],
        "calibrate": ["--out", str(tmp_path / "model.json")],
        "run": ["--out", str(tmp_path / "run"), "--runs", "2", "--workers", "1"],
    }
    counts = {}
    for command, extra in commands.items():
        builds.clear()
        assert main([command, "--config", config_path, *extra]) == 0
        counts[command] = len(builds)
        assert builds == [120] * len(builds)
    assert counts == {"generate": 1, "calibrate": 2, "run": 1}


def test_run_scores_the_population_it_builds(config_path, tmp_path, monkeypatch):
    # readers of a run's population (perfbench's baseline check) need its risks
    import strokesim.cli
    built = []
    original = strokesim.cli.build_population

    def capture(*args):
        built.append(original(*args))
        return built[-1]
    monkeypatch.setattr(strokesim.cli, "build_population", capture)
    assert run_cli(config_path, tmp_path / "run", "--runs", "2") == 0
    generated = tmp_path / "pop.csv"
    assert main(["generate", "--config", config_path, "--out", str(generated)]) == 0
    pop = built[0]
    assert (pop.five_year_risk > 0.0).all()
    assert pop.five_year_risk.tolist() == read_population_csv(generated).five_year_risk.tolist()
    assert [a.five_year_risk for a in pop.agents] == pop.five_year_risk.tolist()
    assert all(a.daily_risk > 0.0 for a in pop.agents)


def test_commands_build_no_agent_rows(config_path, tmp_path, monkeypatch):
    # the commands read and write the population's columns; `Agent` rows and
    # the `households` mapping are only for readers that ask for them
    import strokesim.population

    class NoRows:
        def __init__(self, *args, **kwargs):
            raise AssertionError("an Agent row was built")

    def no_households(pop):
        raise AssertionError("Population.households was read")
    monkeypatch.setattr(strokesim.population, "Agent", NoRows)
    monkeypatch.setattr(strokesim.population.Population, "households", property(no_households))
    assert main(["generate", "--config", config_path, "--out", str(tmp_path / "pop.csv")]) == 0
    assert main(["calibrate", "--config", config_path,
                 "--out", str(tmp_path / "model.json")]) == 0
    assert run_cli(config_path, tmp_path / "run", "--runs", "2") == 0


# --- manifests: phase timings and environment ---

PHASES = {
    "generate": {"load", "synthesis", "write"},
    "calibrate": {"load", "synthesis", "calibration", "write"},
    "run": {"load", "synthesis", "arrays", "experiment", "write"},
}


def test_manifests_record_phase_timings_and_environment(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    common = ["--config", config_path]
    assert main(["generate", *common, "--out", str(tmp_path / "pop.csv")]) == 0
    assert main(["calibrate", *common, "--out", str(tmp_path / "model.json")]) == 0
    assert run_cli(config_path, tmp_path / "run", "--runs", "2") == 0
    manifests = {
        "generate": tmp_path / "pop.csv.manifest.json",
        "calibrate": tmp_path / "model.json.manifest.json",
        "run": tmp_path / "run" / "manifest.json",
    }
    for command, path in manifests.items():
        manifest = json.loads(path.read_text())
        assert manifest["command"] == command
        phases = manifest["phases_s"]
        assert set(phases) == PHASES[command], command
        assert all(isinstance(v, float) and v >= 0.0 for v in phases.values()), phases
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert env["cpu_count"] == os.cpu_count()
        assert env["threads"] == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS":
                                  os.environ.get("OPENBLAS_NUM_THREADS"),
                                  "MKL_NUM_THREADS": None}
    calibration = json.loads(manifests["calibrate"].read_text())
    assert calibration["calibration_offset"] == load_risk_model(
        tmp_path / "model.json").calibration_offset
    assert calibration["target_annual_risk"] == 0.004
    # timings stay out of the data files
    for name in ("runs.csv", "summary.json", "summary.csv"):
        assert "phases_s" not in (tmp_path / "run" / name).read_text()


# --- parser and errors ---


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "strokesim" in capsys.readouterr().out


def test_unknown_scenario_exits_with_usage_error(config_path):
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", config_path, "--scenario", "bogus"])
    assert info.value.code == 2


def test_missing_config_file_reports_error(tmp_path, capsys):
    code = main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "pop.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_every_public_name_exists():
    # `__all__` lists only names the package has, so a rename cannot leave
    # a stale entry behind
    import strokesim

    assert [name for name in strokesim.__all__ if not hasattr(strokesim, name)] == []
    assert len(set(strokesim.__all__)) == len(strokesim.__all__)


def test_bundled_default_config_loads():
    cfg = load_experiment_file()
    assert cfg.experiment.n_runs == 1000
    assert cfg.experiment.base_seed == 42
    assert cfg.horizon_days == 3650
    assert cfg.experiment.scenarios == list(Scenario)
    assert cfg.experiment.simulation.conversation_ages == (50, 60, 70, 80, 90)
    assert cfg.experiment.simulation.high_risk_threshold == 0.1
    assert cfg.ensemble.calibration_offset != 0.0
    assert cfg.calibration_target > 0.0


def test_format_summary_table_structure(config_path, tmp_path):
    import strokesim.montecarlo as mc
    from strokesim.cli import _build_population
    from strokesim.engine import PopulationArrays
    cfg = load_experiment_file(config_path)
    pop = _build_population(cfg, cfg.experiment.base_seed)
    exp_cfg = replace(cfg.experiment, n_runs=3, workers=1)
    result = mc.run_experiment(exp_cfg, PopulationArrays.from_population(pop), cfg.ensemble,
                               cfg.delay, cfg.severity, cfg.odds_ratios, cfg.life_table)
    table = format_summary_table(result)
    lines = table.splitlines()
    assert "strokes" in lines[0] and "dalys" in lines[0]
    assert lines[1].startswith("baseline")
    assert any(line.startswith("conversations_plus_family") for line in lines)
    assert "n=3 runs" in lines[-1]
    assert "95% level" in lines[-1]
