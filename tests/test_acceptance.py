"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance and runtime budget is asserted here, not just
eyeballed.
"""

import csv
import time

import numpy as np
import pytest

from emsim.calibrate import (
    GAConfig,
    Objective,
    ScenarioBundle,
    ga_run,
    longterm_layout,
    mix_error_longterm,
    mix_error_validation,
    validation_layout,
)
from emsim.cli import main
from emsim.engine import init_world, run, step_year
from emsim.ingest import SERIES_NAMES, PlantRegistry, ScenarioConfig, bundled_cost_table
from emsim.market import Bid, clear_market
from emsim.agents import npv
from emsim.repdays import (
    assemble_year,
    build_day_matrix,
    ce_av,
    evaluate_k_range,
    kmeans,
    nrmse_av,
    pearson,
    ree_av,
    select_representative,
    summarize,
    save_representative_days,
)
from toys import (
    flat_rep_year,
    invest_scenario,
    make_plant,
    simple_costs,
    synthetic_ts,
    transition_scenario,
    write_cost_csv,
    write_registry_csv,
    write_scenario_yaml,
    write_target_csv,
)


class Budget:
    """Context manager asserting the criterion's runtime budget."""

    def __init__(self, criterion: int, seconds: float, description: str):
        self.criterion = criterion
        self.seconds = seconds
        self.description = description

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
            print(f"[acceptance] criterion {self.criterion:2d} PASS "
                  f"({elapsed:6.2f}s) - {self.description}")
        else:
            print(f"[acceptance] criterion {self.criterion:2d} FAIL - {self.description}")
        return False


def test_criterion_01_hour_count_identity():
    with Budget(1, 10.0, "weighted representative hours total 8760 for k in {1,2,4,8,16}"):
        ts = synthetic_ts(120, seed=5)
        dm = build_day_matrix(ts)
        for k in (1, 2, 4, 8, 16):
            clustering = kmeans(dm, k, seed=[11, k])
            rep = assemble_year(select_representative(clustering, dm), clustering.weights)
            assert rep.total_hours == pytest.approx(8760.0, abs=1e-6)


def test_criterion_02_metric_zeroes_and_identities():
    with Budget(2, 1.0, "metrics vanish on exact approximation; pearson identities"):
        ts = synthetic_ts(40, seed=6)
        observed = summarize(np.stack([ts.series(n) for n in SERIES_NAMES]),
                             np.ones(ts.n_hours))
        assert ree_av(observed, observed) == 0.0
        assert nrmse_av(observed, observed) == 0.0
        assert ce_av(observed, observed) == 0.0
        s = ts.series("demand")[:500]
        assert pearson(s, s) == pytest.approx(1.0, abs=1e-12)
        assert pearson(s, -s) == pytest.approx(-1.0, abs=1e-12)


def test_criterion_03_k_sweep_trend():
    with Budget(3, 60.0, "CE and NRMSE improve from k=1 to k=8; REE best at one cluster"):
        ts = synthetic_ts(360, seed=2)
        for method in ("centroid", "medoid"):
            rows = {r["k"]: r for r in evaluate_k_range(ts, [1, 8], method, seed=1)}
            assert rows[8]["ce_av"] < rows[1]["ce_av"]
            assert rows[8]["nrmse_av"] < rows[1]["nrmse_av"]
        # the k=1 centroid is the exact annual mean, so its energy error is
        # minimal over the sweep (zero up to float noise)
        rows = {r["k"]: r for r in evaluate_k_range(ts, [1, 8], "centroid", seed=1)}
        assert rows[1]["ree_av"] <= rows[8]["ree_av"] + 1e-12
        assert rows[1]["ree_av"] < 1e-12


def test_criterion_04_step_count_reduction():
    with Budget(4, 1.0, "8 representative days mean 192 clearings vs 8760 full-hourly"):
        rep = flat_rep_year(demand=1000.0, weights=(0.125,) * 8)
        scenario = ScenarioConfig(start_year=2020, end_year=2020, carbon_price={2020: 0.0})
        plant = make_plant("n1", "g1", "Nuclear", 2000.0, 2010,
                           simple_costs(efficiency=1.0, operating_period=60))
        registry = PlantRegistry(plants=(plant,), funds={"g1": 0.0})
        world = init_world(scenario, registry, rep, bundled_cost_table())
        result = step_year(world)
        assert result.n_clearings == 192
        ratio = 8760 / result.n_clearings
        assert ratio == 45.625
        assert ratio >= 40.0


def test_criterion_05_dispatch_conservation_and_merit_order():
    with Budget(5, 30.0, "10,000 random clearings conserve energy and respect merit order"):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            n = int(rng.integers(1, 10))
            # integer-valued quantities/demand keep every +,-,min exact in
            # floats; prices stay below the cap (the cap is the maximum price)
            bids = [Bid(f"p{i}", float(rng.integers(0, 300)), float(rng.integers(0, 400)))
                    for i in range(n)]
            demand = float(rng.integers(0, 2500))
            result = clear_market(bids, demand)
            assert sum(result.dispatch.values()) + result.unserved == demand
            dispatched = [b.price for b in bids if result.dispatch[b.plant_id] > 0]
            if dispatched:
                top = max(dispatched)
                for b in bids:
                    if result.dispatch[b.plant_id] == 0 and b.quantity > 0:
                        assert b.price >= top
            higher = clear_market(bids, demand + float(rng.integers(1, 500)))
            assert higher.clearing_price >= result.clearing_price


def test_criterion_06_npv_against_brute_force():
    with Budget(6, 1.0, "NPV matches the summation oracle on 1,000 random cash flows"):
        rng = np.random.default_rng(17)
        for _ in range(1_000):
            n = int(rng.integers(1, 60))
            flows = rng.normal(scale=1e6, size=n)
            rate = float(rng.uniform(-0.5, 0.4))
            oracle = sum(flows[t] / (1.0 + rate) ** t for t in range(n))
            assert npv(flows, rate) == pytest.approx(oracle, rel=1e-9)
            assert npv(flows, 0.0) == flows.sum()


def test_criterion_07_objective_correctness():
    with Budget(7, 1.0, "mix errors match hand values; long-term genome has 37 genes"):
        a = {"wind": 0.4, "nuclear": 0.2, "solar": 0.05, "CCGT": 0.3, "coal": 0.05}
        f = {"wind": 0.3, "nuclear": 0.2, "solar": 0.05, "CCGT": 0.4, "coal": 0.05}
        assert mix_error_validation(f, a) == pytest.approx(0.04, abs=1e-15)
        off = {k: v + 0.05 for k, v in a.items()}
        assert mix_error_validation(off, a) == pytest.approx(0.05, abs=1e-15)
        assert mix_error_longterm({2020: off, 2021: off}, {2020: a, 2021: a}) == \
            pytest.approx(0.10, abs=1e-15)
        assert mix_error_longterm({2020: f}, {2020: a}) == mix_error_validation(f, a)
        assert len(longterm_layout(2018, 2035)) == 37  # 17 m + 17 c + 2 sigma + subsidy


def test_criterion_08_ga_sanity():
    with Budget(8, 30.0, "GA reaches the analytic optimum within 1e-3 by generation 50"):
        def quadratic(genome, seed):
            return (genome[0] - 0.002) ** 2 + (genome[1] - 35.0) ** 2

        for seed in range(1, 6):
            cfg = GAConfig(population_size=120, crossover_prob=0.5, mutation_prob=0.2,
                           max_generations=50, bounds=((0.0, 0.004), (-30.0, 100.0)),
                           seed=seed, stall_generations=1000)
            result = ga_run(cfg, quadratic)
            assert result.n_generations - 1 <= 50
            assert abs(result.best.genome[0] - 0.002) < 1e-3
            assert abs(result.best.genome[1] - 35.0) < 1e-3


def test_criterion_09_ga_versus_grid_search_oracle():
    with Budget(9, 600.0, "GA fitness within 1.05x of the 50x50 grid-search minimum"):
        scenario, registry, rep, table = invest_scenario()
        target = {2023: {"wind": 0.0, "nuclear": 0.0, "solar": 0.15,
                         "CCGT": 0.35, "coal": 0.50}}
        bundle = ScenarioBundle(scenario, registry, rep, table, target)
        layout = validation_layout()
        objective = Objective(bundle, layout)
        (m_lo, m_hi), (c_lo, c_hi) = layout.bounds
        grid_min = np.inf
        for m in np.linspace(m_lo, m_hi, 50):
            for c in np.linspace(c_lo, c_hi, 50):
                grid_min = min(grid_min, objective(np.array([m, c]), 0))

        cfg = GAConfig(population_size=40, crossover_prob=0.5, mutation_prob=0.2,
                       max_generations=25, bounds=layout.bounds, seed=4)
        result = ga_run(cfg, objective)
        assert result.best.fitness <= 1.05 * grid_min + 1e-12


def test_criterion_10_transition_behavior():
    with Budget(10, 120.0, "rising carbon price moves coal share to gas from year 3"):
        scenario, registry, rep = transition_scenario()
        world = init_world(scenario, registry, rep, bundled_cost_table())
        years = []
        run(world, years.append)
        coal = [r.objective_mix()["coal"] for r in years]
        gas = [r.objective_mix()["CCGT"] for r in years]
        for i in range(2, len(years)):
            assert coal[i] < coal[i - 1]
            assert gas[i] > gas[i - 1]


def test_criterion_11_determinism_and_incremental_persistence(tmp_path):
    with Budget(11, 300.0, "identical seeds give byte-identical logs; "
                           "interrupts leave whole generations"):
        scenario, registry, rep, table = invest_scenario()
        scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 40.0)})
        files = {
            "scenario": tmp_path / "scenario.yaml",
            "registry": tmp_path / "registry.csv",
            "repdays": tmp_path / "repdays.csv",
            "costs": tmp_path / "costs.csv",
            "target": tmp_path / "target.csv",
        }
        write_scenario_yaml(files["scenario"], scenario)
        write_registry_csv(files["registry"], registry)
        save_representative_days(rep, files["repdays"])
        write_cost_csv(files["costs"], table)
        write_target_csv(files["target"], {2023: {"wind": 0.0, "nuclear": 0.0,
                                                  "solar": 0.15, "CCGT": 0.35,
                                                  "coal": 0.50}})
        logs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            rc = main(["calibrate", "validation",
                       "--scenario", str(files["scenario"]),
                       "--registry", str(files["registry"]),
                       "--repdays", str(files["repdays"]),
                       "--costs", str(files["costs"]),
                       "--target", str(files["target"]),
                       "--pop", "10", "--gens", "3", "--seed", "21", "--workers", "1",
                       "--out", str(out)])
            assert rc == 0
            logs.append((out / "generation_log.csv").read_bytes())
        assert logs[0] == logs[1]

        # forced early termination mid-generation leaves exactly g+1
        # complete generation blocks on disk
        log_path = tmp_path / "interrupted.csv"
        cfg = GAConfig(population_size=12, crossover_prob=0.5, mutation_prob=0.2,
                       max_generations=50, bounds=((0.0, 0.004), (-30.0, 100.0)),
                       seed=2, stall_generations=1000)
        calls = {"n": 0}
        g = 3

        def interrupting(genome, seed):
            if calls["n"] >= cfg.population_size * (g + 1):
                raise KeyboardInterrupt
            calls["n"] += 1
            return float(genome[0] ** 2 + genome[1] ** 2)

        with pytest.raises(KeyboardInterrupt):
            ga_run(cfg, interrupting, log_path=log_path)
        with open(log_path) as fh:
            rows = list(csv.DictReader(fh))
        blocks = {}
        for row in rows:
            blocks.setdefault(int(row["generation"]), 0)
            blocks[int(row["generation"])] += 1
        assert sorted(blocks) == list(range(g + 1))
        assert all(count == cfg.population_size for count in blocks.values())


def test_criterion_12_cost_table_fidelity():
    with Budget(12, 1.0, "every bundled cost row round-trips; midpoint interpolation exact"):
        table = bundled_cost_table()
        for (ptype, cap, year), expected in table.rows.items():
            costs = table.lookup(ptype, cap, year)
            assert costs is expected
        lo = table.lookup("CCGT", 1200, 1990)
        hi = table.lookup("CCGT", 1200, 2000)
        mid = table.lookup("CCGT", 1200, 1995)
        from dataclasses import fields
        for f in fields(lo):
            hand = (getattr(lo, f.name) + getattr(hi, f.name)) / 2.0
            assert getattr(mid, f.name) == pytest.approx(hand, rel=1e-9)
