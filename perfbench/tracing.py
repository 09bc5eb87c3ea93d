"""In-memory spans around strokesim's functions, recorded from outside the package.

strokesim's modules import what they call by name (``from .risk import
five_year_matrix``), and look those names up in their own module at call
time.  A wrapper therefore replaces the name in the module that makes the
call; the package source stays untouched.  ``Tracer.install`` patches and
``Tracer.uninstall`` restores the originals.

Two levels of wrappers:

* ``"boundary"``: functions called a few times per workload pass (config
  load, population build, calibration, the experiment, array build).  The
  end-to-end metrics are read from these spans, so they are always on.
* ``"layer"``: the boundary wrappers plus every hot path (scoring, stroke
  outcomes, replications, t-tests, writes).  Only a traced run uses them.

Replications may run in pool workers.  A worker records its spans into a
fresh buffer per task and returns them attached to the task's RunMetrics;
the wrapper around ``run_experiment`` moves them into the parent's list and
parents them to the experiment span.  ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so worker and parent times compare.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from typing import Any, Callable, Iterator, Optional

SPANS_ATTR = "_perfbench_spans"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "tag", "pid")

    def __init__(self, id: int, name: str, start: float, parent: Optional[int],
                 tag: Any, pid: int) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = math.nan
        self.parent = parent
        self.tag = tag
        self.pid = pid

    @property
    def duration(self) -> float:
        return self.end - self.start


# The tracer whose wrappers are installed in this process.  The pool pickles
# its task function by name, so the task wrapper is a module-level function
# and finds its tracer here (a forked worker inherits it).
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.captured: dict[str, tuple] = {}
        self.pool_sizes: list[int] = []
        self._run_task: Optional[Callable] = None

    # --- recording ---

    def begin(self, name: str, tag: Any = None) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(),
                    self._stack[-1] if self._stack else None, tag, os.getpid())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: Any = None) -> Iterator[Span]:
        s = self.begin(name, tag)
        try:
            yield s
        finally:
            self.end(s)

    def merge(self, foreign: list[Span]) -> None:
        """Append spans recorded in another buffer; their roots become
        children of the innermost open span here."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in foreign:
            s.id += offset
            s.parent = parent if s.parent is None else s.parent + offset
            self.spans.append(s)

    # --- patching ---

    def _wrap(self, fn: Callable, name: str, tag: Optional[Callable] = None,
              capture: Optional[str] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer.begin(name, tag(args, kwargs) if tag else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(s)
            if capture:
                tracer.captured[capture] = (args, kwargs, out)
            return out
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, level: str) -> None:
        """Patch strokesim's call sites; ``level`` is "boundary" or "layer"."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        from strokesim import cli, engine, montecarlo, risk

        def wrap(module, attr, name, **kw):
            self._patch(module, attr, self._wrap(getattr(module, attr), name, **kw))

        wrap(cli, "load_experiment_file", "config.load")
        wrap(cli, "build_population", "population.build", capture="population.build")
        wrap(cli, "write_population_csv", "population.csv_write",
             capture="population.csv_write")
        wrap(cli, "calibrate_intercepts", "risk.calibrate", capture="risk.calibrate")
        self._patch(cli, "run_experiment", self._experiment_wrapper(cli.run_experiment))
        arrays = engine.PopulationArrays
        self._patch(arrays, "from_population", staticmethod(
            self._wrap(arrays.from_population, "engine.arrays")))
        self._patch(montecarlo, "ProcessPoolExecutor",
                    self._pool_recorder(montecarlo.ProcessPoolExecutor))

        if level == "layer":
            wrap(cli, "assign_risk_factors", "population.assign_factors")
            wrap(cli, "feature_matrix", "risk.setup_score")
            wrap(cli, "five_year_matrix", "risk.setup_score")
            wrap(cli, "expected_stroke_count", "risk.expected_count")
            for attr in ("write_runs_csv", "write_summary_json", "write_summary_csv"):
                wrap(cli, attr, "montecarlo.write")
            # one _sigmoid call per objective evaluation inside calibration
            wrap(risk, "_sigmoid", "risk.sigmoid")
            wrap(engine, "five_year_matrix", "risk.score",
                 tag=lambda args, kwargs: len(args[2]))
            for attr in ("sample_delay", "adjust_severity", "sample_severity"):
                wrap(engine, attr, "engine.outcome")
            wrap(montecarlo, "run_replication", "engine.replication",
                 tag=lambda args, kwargs: args[2].scenario.value)
            wrap(montecarlo, "t_test", "stats.t_test")
            self._run_task = montecarlo._run_task
            self._patch(montecarlo, "_run_task", traced_run_task)
        elif level != "boundary":
            raise ValueError(f"unknown trace level {level!r}")
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def _experiment_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("montecarlo.run_experiment"):
                result = fn(*args, **kwargs)
                for metrics in result.runs.values():
                    for m in metrics:
                        foreign = m.__dict__.pop(SPANS_ATTR, None)
                        if foreign:
                            tracer.merge(foreign)
            return result
        return wrapper

    def _pool_recorder(self, cls: type) -> Callable:
        tracer = self

        def make_pool(*args, **kwargs):
            tracer.pool_sizes.append(kwargs.get("max_workers", args[0] if args else None))
            return cls(*args, **kwargs)
        return make_pool


def traced_run_task(task, state=None):
    """Stand-in for ``montecarlo._run_task`` that ships the task's spans back."""
    tracer = _ACTIVE
    if tracer is None:  # a spawned worker imports strokesim afresh
        tracer = Tracer()
        tracer.install("layer")
    outer = tracer.spans, tracer._stack
    tracer.spans, tracer._stack = [], []
    try:
        with tracer.span("montecarlo.task", tag=f"{task[0]}/{task[1]}"):
            metrics = tracer._run_task(task, state)
        setattr(metrics, SPANS_ATTR, tracer.spans)
    finally:
        tracer.spans, tracer._stack = outer
    return metrics
