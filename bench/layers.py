"""Per-layer metrics from the spans of one traced run.

A layer is a package module. Self time is a span's duration minus the
time its direct child spans cover (calls are sequential, so children
never overlap). A time whose spans recorded no call is `None`: the
report prints it as `absent`, never as 0 s, so a refactor that stops
calling a function does not read as a speed-up.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> unit, in report order
PER_LAYER = {
    "ingest.load_hourly_series_s": "s",
    "ingest.rows": "count",
    "ingest.load_inputs_s": "s",
    "repdays.kmeans_s": "s",
    "repdays.kmeans_calls": "count",
    "repdays.kmeans_iters": "count",
    "repdays.metrics_s": "s",
    "repdays.load_representative_days_s": "s",
    "market.dispatch_year_s": "s",
    "market.dispatch_year_calls": "count",
    "market.clearings": "count",
    "market.clear_market_s": "s",
    "agents.invest_step_s": "s",
    "agents.expected_cashflow_s": "s",
    "agents.expected_cashflow_calls": "count",
    "engine.run_s": "s",
    "engine.init_world_s": "s",
    "engine.step_year_s": "s",
    "engine.step_year_self_s": "s",
    "engine.years": "count",
    "calibrate.ga_run_s": "s",
    "calibrate.evaluations": "count",
    "calibrate.duplicate_ratio": "ratio",
    "calibrate.objective_s": "s",
    "calibrate.objective_ms_p50": "ms",
    "calibrate.overhead_s": "s",
    "calibrate.failed_evals": "count",
    "cli.sink_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "workload.fleet_plants": "count",
    "workload.beliefs_shared": "flag",
}

INPUT_LOADERS = ("ingest.load_scenario", "ingest.load_cost_table",
                 "ingest.bundled_cost_table", "ingest.load_plant_registry")
OBJECTIVES = ("calibrate.objective_validation", "calibrate.objective_longterm")


class Spans:
    def __init__(self, spans: list):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            self.by_name[name].append(i)
            if parent >= 0:
                self.child_time[parent] += end - start

    def of(self, *names) -> list[int]:
        return sorted(i for name in names for i in self.by_name.get(name, ()))

    def calls(self, *names) -> int:
        return len(self.of(*names))

    def total(self, *names) -> float | None:
        """Time in the named spans, counting a span nested in another
        named span once; None when none was called."""
        index = self.of(*names)
        if not index:
            return None
        return sum(self.spans[i][2] - self.spans[i][1] for i in index
                   if self.spans[i][3] < 0 or self.spans[self.spans[i][3]][0] not in names)

    def self_time(self, name: str) -> float | None:
        index = self.of(name)
        if not index:
            return None
        return sum(self.spans[i][2] - self.spans[i][1] - self.child_time[i] for i in index)

    def values(self, name: str) -> list:
        return [self.spans[i][4] for i in self.of(name)]


def _minus(a: float | None, b: float | None) -> float | None:
    return None if a is None else a - (b or 0.0)


def per_layer(spans: list, workers: int) -> dict[str, float | None]:
    """The span-derived PER_LAYER metrics of one traced run."""
    t = Spans(spans)
    keys = [k for name in OBJECTIVES for k in t.values(name)]
    evaluations = len(keys)
    objective_s = t.total(*OBJECTIVES)
    objective_ms = sorted(1e3 * (t.spans[i][2] - t.spans[i][1]) for i in t.of(*OBJECTIVES))
    run_s = t.total("engine.run")
    step_s = t.total("engine.step_year")
    ga_s = t.total("calibrate.ga_run")
    return {
        "ingest.load_hourly_series_s": t.total("ingest.load_hourly_series"),
        "ingest.rows": sum(t.values("ingest.load_hourly_series")),
        "ingest.load_inputs_s": t.total(*INPUT_LOADERS),
        "repdays.kmeans_s": t.total("repdays.kmeans"),
        "repdays.kmeans_calls": t.calls("repdays.kmeans"),
        "repdays.kmeans_iters": sum(t.values("repdays.kmeans")),
        "repdays.metrics_s": t.self_time("repdays.evaluate_k_range"),
        "repdays.load_representative_days_s": t.total("repdays.load_representative_days"),
        "market.dispatch_year_s": t.total("market.dispatch_year"),
        "market.dispatch_year_calls": t.calls("market.dispatch_year"),
        "market.clearings": sum(t.values("market.dispatch_year")),
        "market.clear_market_s": t.total("market.clear_market"),
        "agents.invest_step_s": t.total("agents.invest_step"),
        "agents.expected_cashflow_s": t.total("agents.expected_cashflow"),
        "agents.expected_cashflow_calls": t.calls("agents.expected_cashflow"),
        "engine.run_s": run_s,
        "engine.init_world_s": t.total("engine.init_world"),
        "engine.step_year_s": step_s,
        "engine.step_year_self_s": t.self_time("engine.step_year"),
        "engine.years": t.calls("engine.step_year"),
        "calibrate.ga_run_s": ga_s,
        "calibrate.evaluations": evaluations,
        "calibrate.duplicate_ratio":
            (evaluations - len(set(keys))) / evaluations if evaluations else None,
        "calibrate.objective_s": objective_s,
        "calibrate.objective_ms_p50": statistics.median(objective_ms) if objective_ms else None,
        "calibrate.overhead_s":
            None if ga_s is None else ga_s - (objective_s or 0.0) / workers,
        "calibrate.failed_evals": sum(1 for i in t.of(*OBJECTIVES) if not t.spans[i][5]),
        "cli.sink_s": _minus(run_s, step_s),
    }
