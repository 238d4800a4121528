"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 bench/selftest.py

They check that every named span fires on the workload that exercises
it (and is reported absent where the layer is not used), that each
output check rejects a corrupted output file, and that the fixture
generator is byte-deterministic for a seed.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import CheckFailed, check_outputs, compare_digests, result_digests  # noqa: E402
from fixtures import WORKLOADS, generate  # noqa: E402
from layers import per_layer  # noqa: E402
from run import Bench, tree_digest  # noqa: E402

ROOT = Path.cwd()
SEED = 3

# metrics each workload must measure (layer table: "should move" rows)
FIRES = {
    "repdays_sweep": ["ingest.load_hourly_series_s", "ingest.rows", "repdays.kmeans_s",
                      "repdays.kmeans_calls", "repdays.kmeans_iters", "repdays.metrics_s"],
    "simulate_paper": ["ingest.load_inputs_s", "repdays.load_representative_days_s",
                       "market.dispatch_year_s", "market.dispatch_year_calls",
                       "market.clearings", "market.clear_market_s", "agents.invest_step_s",
                       "agents.expected_cashflow_s", "agents.expected_cashflow_calls",
                       "engine.run_s", "engine.init_world_s", "engine.step_year_s",
                       "engine.step_year_self_s", "engine.years", "cli.sink_s"],
    "calibrate_small": ["agents.invest_step_s", "agents.expected_cashflow_s",
                        "market.dispatch_year_s", "calibrate.ga_run_s",
                        "calibrate.evaluations", "calibrate.duplicate_ratio",
                        "calibrate.objective_s", "calibrate.objective_ms_p50",
                        "calibrate.overhead_s"],
}
# layers each workload bypasses: their times must read absent, not 0
ABSENT = {
    "repdays_sweep": ["market.dispatch_year_s", "agents.invest_step_s", "engine.run_s",
                      "calibrate.ga_run_s", "cli.sink_s"],
    "simulate_paper": ["ingest.load_hourly_series_s", "repdays.kmeans_s",
                       "calibrate.ga_run_s", "calibrate.objective_s"],
    "calibrate_small": ["ingest.load_hourly_series_s", "repdays.kmeans_s"],
}

_traced: dict[str, tuple[Bench, dict]] = {}


def traced(workload: str) -> tuple[Bench, dict]:
    """One checked traced run per workload, shared by the tests."""
    if workload not in _traced:
        bench = Bench(ROOT, workload, SEED)
        bench.setup()
        workers = 1 if workload == "calibrate_small" else None
        run = bench.run_once(trace=True, workers=workers, dispatch_log=True)
        if run["error"]:
            raise AssertionError(f"{workload}: {run['error']}")
        _traced[workload] = (bench, per_layer(run["spans"], workers or 1))
    return _traced[workload]


class SpansTest(unittest.TestCase):
    def test_named_spans_fire(self):
        for workload, names in FIRES.items():
            _, metrics = traced(workload)
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertIsNotNone(metrics[name])
                    self.assertGreater(metrics[name], 0)

    def test_bypassed_layers_read_absent(self):
        for workload, names in ABSENT.items():
            _, metrics = traced(workload)
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertIsNone(metrics[name])

    def test_ga_counts(self):
        _, metrics = traced("calibrate_small")
        spec = WORKLOADS["calibrate_small"]
        self.assertEqual(metrics["calibrate.evaluations"], spec["pop"] * (spec["gens"] + 1))
        self.assertEqual(metrics["market.clearings"],
                         metrics["calibrate.evaluations"] * spec["years"] * spec["k"] * 24)
        self.assertEqual(metrics["calibrate.failed_evals"], 0)


def _lines(path: Path) -> list[str]:
    return path.read_bytes().decode().splitlines(keepends=True)


def _write(path: Path, lines: list[str]) -> None:
    path.write_bytes("".join(lines).encode())


def _drop_year(path: Path, year: str) -> None:
    lines = _lines(path)
    _write(path, [line for line in lines if not line.startswith(year + ",")])


def _uncommit(path: Path) -> None:
    """Clear the committed flag of the first build that comes online
    within the simulated years."""
    end = WORKLOADS["simulate_paper"]["end_year"]
    lines = _lines(path)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.rstrip("\r\n").split(",")
        if cells[5] == "1" and int(cells[6]) <= end:
            _set_field(path, i, 5, "0")
            return
    raise AssertionError("no commitment comes online within the simulated years")


def _drop_line(path: Path, index: int) -> None:
    lines = _lines(path)
    del lines[index]
    _write(path, lines)


def _set_field(path: Path, line: int, column: int, value: str) -> None:
    lines = _lines(path)
    cells = lines[line].rstrip("\r\n").split(",")
    cells[column] = value
    lines[line] = ",".join(cells) + "\r\n"
    _write(path, lines)


CORRUPTIONS = {
    "repdays_sweep": {
        "weight changed": lambda o: _set_field(o / "representative_days.csv", 1, 1, "0.5"),
        "representative hour missing": lambda o: _drop_line(o / "representative_days.csv", 5),
        "swept k missing": lambda o: _drop_line(o / "metrics.csv", 3),
        "metric not finite": lambda o: _set_field(o / "metrics.csv", 2, 2, "nan"),
    },
    "simulate_paper": {
        "year missing": lambda o: _drop_year(o / "mix_by_year.csv", "2035"),
        "shares off": lambda o: _set_field(o / "mix_by_year.csv", 1, 3, "0.9"),
        "funds not finite": lambda o: _set_field(o / "funds_by_year.csv", 4, 2, "inf"),
        "dispatch row missing": lambda o: _drop_line(o / "dispatch_log.csv", 100),
        "commitment dropped": lambda o: _uncommit(o / "investments.csv"),
    },
    "calibrate_small": {
        "generation row missing": lambda o: _drop_line(o / "generation_log.csv", 7),
        "best fitness not finite": lambda o: _set_field(o / "best.csv", 1, 0, "inf"),
        "best fitness missing": lambda o: _drop_line(o / "best.csv", 1),
    },
}


class ChecksTest(unittest.TestCase):
    def test_checks_accept_real_outputs(self):
        for workload in CORRUPTIONS:
            bench, _ = traced(workload)
            out = bench.work / "out" / workload
            check_outputs(workload, out, bench.inputs, ROOT / "src/emsim/data")

    def test_each_check_rejects_corruption(self):
        for workload, corruptions in CORRUPTIONS.items():
            bench, _ = traced(workload)
            out = bench.work / "out" / workload
            for label, corrupt in corruptions.items():
                with self.subTest(workload=workload, corruption=label), \
                        tempfile.TemporaryDirectory(dir=bench.tmp) as tmp:
                    copy = Path(tmp) / "out"
                    shutil.copytree(out, copy)
                    corrupt(copy)
                    with self.assertRaises(CheckFailed):
                        check_outputs(workload, copy, bench.inputs, ROOT / "src/emsim/data")
                    with self.assertRaises(CheckFailed):
                        compare_digests(result_digests(copy), result_digests(out))


class FixtureTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            tmp = Path(tmp)
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    generate(workload, 7, tmp / "a" / workload)
                    generate(workload, 7, tmp / "b" / workload)
                    generate(workload, 8, tmp / "c" / workload)
                    first = tree_digest(tmp / "a" / workload)
                    self.assertEqual(first, tree_digest(tmp / "b" / workload))
                    self.assertNotEqual(first, tree_digest(tmp / "c" / workload))


if __name__ == "__main__":
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    unittest.main()
