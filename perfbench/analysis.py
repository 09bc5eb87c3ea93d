"""Metrics from recorded spans.

A workload pass is one ``bench.pass`` span.  End-to-end metrics come from
the boundary spans of untraced passes; per-layer metrics from every span of
traced passes.  Self time is a span's duration minus the union of the
intervals its children cover, so children that ran in parallel pool
workers are not counted twice.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, Optional

from tracing import Span

SCENARIOS = ("baseline", "conversations", "conversations_plus_family")


class SpanTree:
    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.kids: dict[Optional[int], list[Span]] = defaultdict(list)
        for s in spans:
            self.kids[s.parent].append(s)

    def descendants(self, root: Span) -> Iterable[Span]:
        todo = list(self.kids[root.id])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.kids[s.id])

    def find(self, root: Span, name: str) -> list[Span]:
        return sorted((s for s in self.descendants(root) if s.name == name),
                      key=lambda s: s.start)

    def children(self, span: Span, name: str) -> list[Span]:
        return [s for s in self.kids[span.id] if s.name == name]

    def self_time(self, span: Span) -> float:
        return span.duration - covered(span, self.kids[span.id])

    def nesting_errors(self) -> list[str]:
        """Children that leave their parent's interval, or whose durations
        in one process add up to more than the parent's duration."""
        by_id = {s.id: s for s in self.spans}
        errors = []
        for parent_id, kids in self.kids.items():
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            per_pid: dict[int, float] = defaultdict(float)
            for k in kids:
                if k.start < parent.start or k.end > parent.end:
                    errors.append(f"{k.name} outside {parent.name}")
                per_pid[k.pid] += k.duration
            for pid, total in per_pid.items():
                if total > parent.duration + 1e-9:  # float rounding of the sum
                    errors.append(
                        f"children of {parent.name} in pid {pid} sum to {total:.6f}s "
                        f"> {parent.duration:.6f}s")
        return errors


def covered(span: Span, kids: Iterable[Span]) -> float:
    """Length of the part of ``span`` that the union of ``kids`` covers."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pass_end_to_end(tree: SpanTree, p: Span) -> dict[str, float]:
    """End-to-end numbers of one pass, from its boundary spans.

    ``total_s`` adds up the pass's user-visible operations (the three
    commands and the CSV read-back); the checks between them are not timed.
    """
    run = tree.children(p, "cli.run")[0]
    load = tree.find(run, "config.load")[0]
    arrays = tree.find(run, "engine.arrays")[0]
    experiment = tree.find(run, "montecarlo.run_experiment")[0]
    operations = [s for s in tree.kids[p.id]
                  if s.name.startswith("cli.") or s.name == "population.csv_read"]
    return {
        "setup_s": arrays.end - load.start,
        "replications_per_s": p.tag["replications"] / experiment.duration,
        "total_s": sum(s.duration for s in operations),
        "generate_s": tree.children(p, "cli.generate")[0].duration,
        "calibrate_s": tree.children(p, "cli.calibrate")[0].duration,
    }


def _phase(tree: SpanTree, experiment: Span) -> tuple[float, float]:
    """Replication phase of an experiment: from the end of the array build
    to the first t-test (or the experiment's end)."""
    arrays = tree.children(experiment, "engine.arrays")
    tests = tree.children(experiment, "stats.t_test")
    start = arrays[0].end if arrays else experiment.start
    end = min(t.start for t in tests) if tests else experiment.end
    return start, end


def layer_metrics(tree: SpanTree, passes: list[Span]) -> dict[str, float]:
    """Per-layer metrics pooled over traced passes (see README.md)."""
    spans = [s for p in passes for s in tree.descendants(p)]
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def mean_s(name: str) -> float:
        return _mean([s.duration for s in named[name]])

    def per_pass(fn) -> float:
        return _median([fn(p) for p in passes])

    reps = named["engine.replication"]
    n_rep = len(reps)
    score = [k for r in reps for k in tree.descendants(r) if k.name == "risk.score"]
    outcome = [k for r in reps for k in tree.kids[r.id] if k.name == "engine.outcome"]
    builds = len(named["population.build"])
    calibrations = named["risk.calibrate"]
    evals = [k for c in calibrations for k in tree.kids[c.id] if k.name == "risk.sigmoid"]

    m: dict[str, float] = {
        "config.load_ms": 1e3 * mean_s("config.load"),
        "population.build_s": mean_s("population.build"),
        "population.assign_factors_s": mean_s("population.assign_factors"),
        "population.csv_write_s": mean_s("population.csv_write"),
        "population.csv_read_s": mean_s("population.csv_read"),
        "risk.score_ms_per_rep": 1e3 * sum(s.duration for s in score) / max(n_rep, 1),
        "risk.score_calls_per_rep": len(score) / max(n_rep, 1),
        "risk.rows_scored_per_rep": sum(s.tag for s in score) / max(n_rep, 1),
        "risk.setup_score_s": sum(s.duration for s in named["risk.setup_score"]) / max(builds, 1),
        "risk.calibrate_s": mean_s("risk.calibrate"),
        "risk.calibrate_evals": len(evals) / max(len(calibrations), 1),
    }
    for scenario in SCENARIOS:
        ms = [1e3 * r.duration for r in reps if r.tag == scenario]
        m[f"engine.replication_ms_p50.{scenario}"] = percentile(ms, 50)
        m[f"engine.replication_ms_p90.{scenario}"] = percentile(ms, 90)
    m["engine.outcome_ms_per_rep"] = 1e3 * sum(s.duration for s in outcome) / max(n_rep, 1)
    m["engine.outcome_calls_per_rep"] = len(outcome) / max(n_rep, 1)
    m["engine.self_ms_per_rep"] = 1e3 * sum(tree.self_time(r) for r in reps) / max(n_rep, 1)
    m["engine.arrays_s"] = mean_s("engine.arrays")

    slack = busy = capacity = startup = 0.0
    experiments = named["montecarlo.run_experiment"]
    for e in experiments:
        start, end = _phase(tree, e)
        tasks = tree.children(e, "montecarlo.task")
        workers = len({t.pid for t in tasks}) or 1
        rep_time = sum(r.duration for r in tree.find(e, "engine.replication"))
        capacity += workers * (end - start)
        busy += rep_time
        slack += workers * (end - start) - rep_time
        startup += (min(t.start for t in tasks) - start) if tasks else 0.0
    m["montecarlo.dispatch_ms_per_rep"] = 1e3 * slack / max(n_rep, 1)
    m["montecarlo.worker_busy_frac"] = busy / capacity if capacity else 0.0
    m["montecarlo.pool_startup_s"] = startup / max(len(experiments), 1)
    m["montecarlo.write_ms"] = 1e3 * per_pass(
        lambda p: sum(s.duration for s in tree.find(p, "montecarlo.write")))
    m["stats.t_test_ms"] = 1e3 * per_pass(
        lambda p: sum(s.duration for s in tree.find(p, "stats.t_test")))
    m["stats.t_test_calls"] = per_pass(lambda p: len(tree.find(p, "stats.t_test")))
    m["cli.self_s"] = per_pass(lambda p: sum(
        tree.self_time(s) for s in tree.kids[p.id] if s.name.startswith("cli.")))
    return m


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_run(samples: list[dict[str, float]]) -> dict[str, float]:
    """One run's end-to-end values from its passes.

    ``setup_s`` is the median over passes.  Every other time is the 90th
    percentile of the passes' times, and ``replications_per_s`` the rate at
    the 90th percentile of time per replication.  The host this was written
    on switches between a fast phase and one 1.6 to 2 times slower, for tens
    of seconds at a time.  A high percentile tracks the slow phase whether
    or not a run catches a fast stretch, where the best pass, the mean and
    the median move with the share of fast time (see README.md).
    """
    out = {}
    for k in samples[0]:
        xs = [s[k] for s in samples]
        if k == "setup_s":
            out[k] = _median(xs)
        elif k == "replications_per_s":
            out[k] = 1.0 / p90([1.0 / x for x in xs])
        else:
            out[k] = p90(xs)
    return out
