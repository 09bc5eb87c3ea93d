"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

The expensive part (the full 3-scenario x 1000-run experiment on the
bundled population, after CLI calibration) runs once in a session fixture
and is shared by the criteria that read from it.  Each test announces its
verdict through the report fixture; see conftest.py.
"""

import csv
import math
import os
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from strokesim.cli import _build_population, main
from strokesim.config import load_experiment_file, load_risk_model
from strokesim.engine import (
    DelayModel,
    OddsRatioTable,
    PopulationArrays,
    Severity,
    SeverityDistribution,
    _first_success_offsets,
    adjust_severity,
    compute_outcome,
    sample_delay,
    sample_severity,
)
from strokesim.montecarlo import run_experiment
from strokesim.risk import expected_stroke_count
from strokesim.stats import t_test

TARGET_STROKES = 551.0


@pytest.fixture(scope="session")
def full_experiment(tmp_path_factory):
    """Calibrate through the CLI, then run the full bundled experiment."""
    work = tmp_path_factory.mktemp("acceptance")
    model_path = work / "risk_model_calibrated.json"
    assert main(["calibrate", "--out", str(model_path)]) == 0
    calibrated = load_risk_model(model_path)

    cfg = load_experiment_file()
    pop = _build_population(cfg, cfg.experiment.base_seed)
    arrays = PopulationArrays.from_population(pop)
    closed_form = expected_stroke_count(calibrated, pop, cfg.horizon_days)

    exp_cfg = replace(cfg.experiment, workers=os.cpu_count())
    start = time.perf_counter()
    result = run_experiment(
        exp_cfg, arrays, cfg.ensemble, cfg.delay, cfg.severity, cfg.odds_ratios,
        cfg.life_table,
    )
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        cfg=cfg, calibrated=calibrated, population=pop, closed_form=closed_form,
        result=result, elapsed=elapsed,
    )


def test_criterion_1_calibration_fidelity(full_experiment, report):
    fx = full_experiment
    # the CLI calibration must land where the bundled model is frozen
    assert fx.calibrated.calibration_offset == pytest.approx(
        fx.cfg.ensemble.calibration_offset, abs=1e-9)

    assert len(fx.population.agents) == 22119
    assert abs(fx.closed_form - TARGET_STROKES) <= 0.01 * TARGET_STROKES

    baseline = [float(m.strokes) for m in fx.result.runs["baseline"]]
    assert len(baseline) == 1000
    mean = float(np.mean(baseline))
    se = float(np.std(baseline, ddof=1)) / math.sqrt(len(baseline))
    assert abs(mean - fx.closed_form) <= 3.0 * se

    assert fx.elapsed <= 600.0
    report(
        "1 (calibration fidelity): PASS  "
        f"closed-form {fx.closed_form:.3f}, simulated {mean:.3f} "
        f"(3 SE = {3 * se:.3f}), experiment {fx.elapsed:.0f}s"
    )


def test_criterion_2_intervention_direction_and_significance(full_experiment, report):
    summary = full_experiment.result.summary
    by_scenario = {s.scenario: s for s in summary.scenarios}
    vs_base = {
        (c.scenario, c.metric): c for c in summary.comparisons
        if c.reference == "baseline"
    }

    reductions = {}
    for scen in ("conversations", "conversations_plus_family"):
        for metric in ("strokes", "dalys"):
            c = vs_base[(scen, metric)]
            assert c.percent_difference < 0.0, (scen, metric)
            assert c.p < 0.05, (scen, metric, c.p)
        reduction = -vs_base[(scen, "strokes")].percent_difference
        assert 0.5 <= reduction <= 4.0, (scen, reduction)
        reductions[scen] = reduction

    assert (by_scenario["conversations_plus_family"].strokes_mean
            <= by_scenario["conversations"].strokes_mean)
    report(
        "2 (intervention direction/significance): PASS  "
        f"stroke reductions {reductions['conversations']:.2f}% / "
        f"{reductions['conversations_plus_family']:.2f}%"
    )


class _RecordingRng:
    """Pass-through rng that remembers the last uniform it handed out, so a
    draw can be attributed to the band its selection uniform points at."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.last_uniform = None

    def random(self):
        self.last_uniform = float(self.inner.random())
        return self.last_uniform

    def normal(self, mean, sd):
        return float(self.inner.normal(mean, sd))


def test_criterion_3_delay_mixture_conformance(report):
    delay = DelayModel.default()
    rng = _RecordingRng(3003)
    thresholds = [band.cum_threshold for band in delay.bands]
    by_band = [[] for _ in delay.bands]
    for _ in range(100_000):
        hours = sample_delay(delay, rng)
        band = next(i for i, t in enumerate(thresholds) if rng.last_uniform <= t)
        by_band[band].append(hours)

    shares = [len(rows) / 100_000 for rows in by_band]
    for got, want in zip(shares, (0.49, 0.10, 0.20, 0.21)):
        assert abs(got - want) <= 0.01, (got, want)

    # the first three bands clamp symmetrically around their means, so the
    # clamped means still sit on the targets; the open band's floor adds well
    # under a hundredth of an hour
    for rows, want in zip(by_band, (1.5, 3.75, 8.25, 15.0)):
        got = float(np.mean(rows))
        assert abs(got - want) <= 0.05, (got, want)
    report("3 (delay mixture conformance): PASS  "
           + "shares " + "/".join(f"{s:.3f}" for s in shares))


def test_criterion_4_severity_baseline_conformance(report):
    dist = SeverityDistribution.default()
    ors = OddsRatioTable.default()
    rng = np.random.default_rng(4004)
    counts = {s: 0 for s in Severity}
    for _ in range(100_000):
        counts[sample_severity(dist, rng)] += 1
    shares = {s: c / 100_000 for s, c in counts.items()}
    for sev, want in ((Severity.NO_DISABILITY, 0.19), (Severity.MILD, 0.35),
                      (Severity.MODERATE_SEVERE, 0.37), (Severity.DEATH, 0.09)):
        assert abs(shares[sev] - want) <= 0.005, (sev, shares[sev])

    # reference delay: bit-exact identity, the very same object
    assert adjust_severity(dist, 9.0, ors) is dist

    # fast-arrival p_no against the hand odds computation
    adjusted = adjust_severity(dist, 1.0, ors)
    hand_odds = 1.66 * (0.19 / 0.81)
    hand_p_no = hand_odds / (1.0 + hand_odds)
    assert abs(adjusted.p_no - hand_p_no) <= 1e-9
    assert round(adjusted.p_no, 4) == 0.2803
    report(f"4 (severity baseline conformance): PASS  adjusted p_no {adjusted.p_no:.10f}")


def test_criterion_5_skip_sampling_equivalence(report):
    p, window, trials = 0.01, 365, 1_000_000

    # the engine's kernel, one uniform per trial (rng.random(n) is the same
    # stream as n single draws)
    rng = np.random.default_rng(5005)
    offsets = _first_success_offsets(np.full(trials, p), rng.random(trials))
    days = np.where(offsets < window, offsets, window).astype(np.int64)
    skip_counts = np.bincount(days, minlength=window + 1)  # last cell: no stroke

    naive_rng = np.random.default_rng(5006)
    naive_counts = np.zeros(window + 1, dtype=np.int64)
    chunk = 25_000
    for _ in range(trials // chunk):
        u = naive_rng.random((chunk, window))
        hits = u < p
        struck = hits.any(axis=1)
        days = hits.argmax(axis=1)
        naive_counts[:window] += np.bincount(days[struck], minlength=window)
        naive_counts[window] += int((~struck).sum())

    assert skip_counts.sum() == naive_counts.sum() == trials
    stat, pvalue, dof, _ = scipy.stats.chi2_contingency(
        np.vstack([skip_counts, naive_counts]))
    assert dof == window
    assert pvalue >= 0.01, pvalue
    report(f"5 (skip-sampling equivalence): PASS  chi-square p = {pvalue:.4f}")


def test_criterion_6_daly_oracle(report):
    # compute_outcome takes the agent's residual years at the stroke
    outcomes = [
        compute_outcome(0, 100, 2.0, Severity.DEATH, 15.0),
        compute_outcome(1, 200, 2.0, Severity.MILD, 22.0),
        compute_outcome(2, 300, 2.0, Severity.NO_DISABILITY, 9.0),
    ]
    total = sum(o.daly for o in outcomes)
    assert outcomes[0].daly == 15.0
    assert outcomes[1].daly == 22.0 * 0.35
    assert outcomes[2].daly == 0.0
    assert total == 15.0 + 22.0 * 0.35 + 0.0
    assert abs(total - 22.7) < 1e-12
    report(f"6 (DALY oracle): PASS  total {total!r}")


def test_criterion_7_statistical_kernel(report):
    a = (1.0, 2.0, 3.0, 4.0, 5.0)
    b = (2.0, 3.0, 4.0, 5.0, 6.0)
    res = t_test(a, b)
    assert abs(res.t - (-1.0)) <= 1e-3
    assert res.df == 8
    assert abs(res.p - 0.3466) <= 1e-3

    rev = t_test(b, a)
    assert rev.t == -res.t
    assert rev.p == res.p

    same = t_test([4.0, 4.0, 4.0], [4.0, 4.0])
    assert same.degenerate and same.t == 0.0 and same.p == 1.0
    apart = t_test([4.0, 4.0], [6.0, 6.0])
    assert apart.degenerate and apart.t == float("-inf") and apart.p == 0.0
    report(f"7 (statistical kernel): PASS  t {res.t}, df {res.df}, p {res.p:.6f}")


def test_criterion_8_cmd_run_determinism(tmp_path, report):
    flags = ["run", "--runs", "5", "--workers", "1"]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*flags, "--out", str(first)]) == 0
    assert main([*flags, "--out", str(second)]) == 0
    for name in ("runs.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    with open(first / "runs.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * 5
    report("8 (cmd_run determinism): PASS  runs.csv and summary.json byte-identical")
