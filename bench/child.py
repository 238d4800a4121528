"""Run one `emsim` command in this process and record what it cost.

    python3 bench/child.py RESULT_JSON TRACE -- <emsim arguments>

Calls `emsim.cli.main` exactly as the `emsim` console script does, then
writes the exit code, the time spent inside `main`, the peak resident
memory of this process and of its largest reaped child (a GA pool
worker), and, with TRACE=1, the recorded spans to RESULT_JSON.

Tracing wraps the package functions listed in SPANS at every module
attribute bound to them, because modules import them by name (`engine`
looks up its own `dispatch_year`, not `market.dispatch_year`). Spans
stay in memory until `main` returns. Calls made inside pool workers are
not seen; trace the GA with one worker.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time

import numpy as np

# (module, function) -> extractor of a per-call count or key, or None
SPANS = {
    ("ingest", "load_hourly_series"):
        lambda args, out: out.n_hours + out.dropped_hours + out.rejected_rows,
    ("ingest", "load_scenario"): None,
    ("ingest", "load_cost_table"): None,
    ("ingest", "bundled_cost_table"): None,
    ("ingest", "load_plant_registry"): None,
    ("repdays", "kmeans"): lambda args, out: len(out.inertia_history) - 1,
    ("repdays", "evaluate_k_range"): None,
    ("repdays", "load_representative_days"): None,
    ("market", "dispatch_year"): lambda args, out: sum(len(d.clearings) for d in out),
    ("market", "clear_market"): None,
    ("agents", "candidate_menu"): None,
    ("agents", "invest_step"): None,
    ("agents", "expected_cashflow"): None,
    ("engine", "init_world"): None,
    ("engine", "run"): None,
    ("engine", "step_year"): None,
    ("calibrate", "ga_run"): None,
    ("calibrate", "objective_validation"): lambda args, out: _genome_key(args[0]),
    ("calibrate", "objective_longterm"): lambda args, out: _genome_key(args[0]),
    ("cli", "main"): None,
}
MODULES = ("ingest", "repdays", "market", "agents", "engine", "calibrate", "cli")


def _genome_key(genome) -> str:
    return hashlib.sha256(np.asarray(genome, dtype=float).tobytes()).hexdigest()[:16]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    index, the extractor's value and whether the call raised."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def install(self) -> None:
        package = importlib.import_module("emsim")
        modules = [package] + [importlib.import_module(f"emsim.{m}") for m in MODULES]
        for (module, func), extract in SPANS.items():
            original = getattr(importlib.import_module(f"emsim.{module}"), func)
            wrapper = self._wrap(original, f"{module}.{func}", extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn, name: str, extract):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None, False)
                raise
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent,
                            extract(args, out) if extract else None, True)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    from emsim import cli

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    record = {
        "exit": code,
        "main_s": main_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer:
        record["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
