"""The benchmark's own output checks, run as the benchmark runs them.

perfbench checks every pass it times: the CSV read-back is exact, calibration
lands within its tolerance, the simulated baseline lies within 3 SE of the
closed form, passes and worker counts give identical outputs, spans nest and
every layer reports.  A change that breaks one of them makes the benchmark
report incorrect outputs, and one that keeps a check from being made leaves
it silent, so the test suite runs one short run of it untraced, as the
benchmark is measured, and one traced, and requires every check and every
metric that BENCHMARK.json lists for each.
perfbench also wraps library names from outside, so a second test installs
its tracer in-process and checks the spans it records.  This only reads
``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# every check a run makes; `run_pass` skips a check whose capture is missing
# and stays correct, so each must be present as well as ok.  An untraced run
# (as the benchmark is measured) makes all but the two checks on the spans
CHECKS = {"baseline_within_3se", "calibration_within_tol", "csv_read_back_exact",
          "passes_identical", "serial_pool_identical"}
TRACED_CHECKS = CHECKS | {"every_layer_reports", "spans_nest"}
# the metrics the result line reports, as BENCHMARK.json lists them
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())


# the benchmark measures both workloads untraced
@pytest.mark.parametrize("workload, trace", [
    ("bundled_serial", 0), ("bundled_serial", 1), ("bundled_pool", 0),
], ids=["trace-0", "trace-1", "pool-trace-0"])
def test_perfbench_checks_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)
    assert report["errors"] == []
    assert report["checks"].keys() >= (TRACED_CHECKS if trace else CHECKS)
    failed = {name: check for name, check in report["checks"].items() if not check["ok"]}
    assert not failed
    assert result["correct"] is True
    assert result["failed"] == 0
    listed = {m["name"] for m in METRICS["per_layer" if trace else "end_to_end"]}
    assert result["metrics"].keys() == listed


def test_tracer_spans_each_replication_by_scenario(monkeypatch):
    # perfbench wraps library names from outside: `run_replication`'s
    # third positional argument must be the scenario it tags each span
    # with, and `_run_task(task, state)` must still be the serial path
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from strokesim import cli, engine, montecarlo, risk
    from test_montecarlo import make_config, tiny_ens, tiny_life, tiny_population

    owners = (cli, engine, montecarlo, risk, engine.PopulationArrays)
    before = [dict(vars(owner)) for owner in owners]

    def run():
        return cli.run_experiment(
            make_config(n_runs=3), engine.PopulationArrays.from_population(tiny_population()),
            tiny_ens(), engine.DelayModel.default(), engine.SeverityDistribution.default(),
            engine.OddsRatioTable.default(), tiny_life())

    tracer = tracing.Tracer()
    tracer.install("layer")
    try:
        assert montecarlo.run_replication is not before[2]["run_replication"]
        traced = run()
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[k] is v for k, v in names.items()), owner

    scenarios = [kind.value for kind in make_config().scenarios]
    reps = [s for s in tracer.spans if s.name == "engine.replication"]
    assert len(reps) == 3 * len(scenarios)
    assert sorted(s.tag for s in reps) == sorted(scenarios * 3)
    for s in reps:  # inside its task's span, which names the same scenario
        task = tracer.spans[s.parent]
        assert task.name == "montecarlo.task" and task.tag.split("/")[0] == s.tag
    # tracing changes no result
    untraced = run()
    assert {k: [vars(m) for m in v] for k, v in traced.runs.items()} == \
           {k: [vars(m) for m in v] for k, v in untraced.runs.items()}
