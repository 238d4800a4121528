"""Mix objectives, GA behavior and forecast-metric tests."""

import csv
import json
import logging
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from emsim import calibrate, engine
from emsim.calibrate import (
    GAConfig,
    Objective,
    ScenarioBundle,
    forecast_error_metrics,
    ga_run,
    longterm_layout,
    mix_error_longterm,
    mix_error_validation,
    objective_longterm,
    objective_validation,
    validation_layout,
)
from emsim.engine import init_world, run
from emsim.ingest import InputError
from emsim.market import dispatch_year
from toys import invest_scenario


# ---------------------------------------------------------------------------
# mix errors


def test_mix_error_zero_for_equal():
    mix = {"wind": 0.3, "nuclear": 0.2, "solar": 0.1, "CCGT": 0.3, "coal": 0.1}
    assert mix_error_validation(mix, dict(mix)) == 0.0


def test_mix_error_uniform_offset():
    a = {"wind": 0.3, "nuclear": 0.2, "solar": 0.1, "CCGT": 0.3, "coal": 0.1}
    f = {k: v + 0.05 for k, v in a.items()}
    assert mix_error_validation(f, a) == pytest.approx(0.05, abs=1e-12)


def test_mix_error_hand_case():
    a = {"wind": 0.4, "nuclear": 0.2, "solar": 0.05, "CCGT": 0.3, "coal": 0.05}
    f = {"wind": 0.3, "nuclear": 0.2, "solar": 0.05, "CCGT": 0.4, "coal": 0.05}
    assert mix_error_validation(f, a) == pytest.approx(0.04, abs=1e-12)


def test_mix_error_missing_type():
    a = {"wind": 1.0, "nuclear": 0.0, "solar": 0.0, "CCGT": 0.0, "coal": 0.0}
    with pytest.raises(InputError, match="missing type"):
        mix_error_validation({"wind": 1.0}, a)


def test_mix_error_symmetry_and_nonnegativity():
    rng = np.random.default_rng(0)
    types = ("wind", "nuclear", "solar", "CCGT", "coal")
    for _ in range(100):
        a = {t: float(rng.uniform(0, 1)) for t in types}
        f = {t: float(rng.uniform(0, 1)) for t in types}
        e1 = mix_error_validation(f, a)
        e2 = mix_error_validation(a, f)
        assert e1 == e2
        assert e1 >= 0.0
        assert (e1 == 0.0) == (a == f)


def test_longterm_error_adds_per_year():
    a = {"wind": 0.4, "nuclear": 0.2, "solar": 0.05, "CCGT": 0.3, "coal": 0.05}
    f = {k: v + 0.05 for k, v in a.items()}
    sim = {2020: f, 2021: f}
    target = {2020: a, 2021: a}
    assert mix_error_longterm(sim, target) == pytest.approx(0.10, abs=1e-12)


def test_longterm_single_year_reduces_to_validation():
    a = {"wind": 0.4, "nuclear": 0.2, "solar": 0.05, "CCGT": 0.3, "coal": 0.05}
    f = {"wind": 0.35, "nuclear": 0.25, "solar": 0.05, "CCGT": 0.3, "coal": 0.05}
    assert mix_error_longterm({2020: f}, {2020: a}) == mix_error_validation(f, a)


def test_longterm_year_mismatch():
    a = {"wind": 1.0, "nuclear": 0.0, "solar": 0.0, "CCGT": 0.0, "coal": 0.0}
    with pytest.raises(InputError, match="years"):
        mix_error_longterm({2020: a}, {2021: a})


# ---------------------------------------------------------------------------
# layouts


def test_validation_layout_two_genes():
    layout = validation_layout()
    assert len(layout) == 2
    assert layout.bounds == ((0.0, 0.004), (-30.0, 100.0))
    overrides = layout.decode([0.001, 12.0])
    assert overrides["price_curve"] == (0.001, 12.0)


def test_longterm_layout_37_genes():
    # 2018..2035 horizon: 17 yearly slopes + 17 intercepts + two sigmas +
    # the nuclear subsidy
    layout = longterm_layout(2018, 2035)
    assert len(layout) == 37
    assert layout.curve_years == tuple(range(2018, 2035))
    assert layout.gene_names[0] == "m_2018"
    assert layout.gene_names[16] == "m_2034"
    assert layout.gene_names[-1] == "nuclear_subsidy"
    assert layout.bounds[0] == (0.0, 0.003)
    assert layout.bounds[17] == (-30.0, 50.0)
    assert layout.bounds[34] == (0.0, 0.001)


def test_longterm_decode():
    layout = longterm_layout(2020, 2023)
    genome = np.concatenate([
        [0.001, 0.002, 0.003],    # m_2020..m_2022
        [10.0, 20.0, 30.0],       # c_2020..c_2022
        [0.0, 0.0005, 120.0],     # sigma_m, sigma_c, subsidy
    ])
    overrides = layout.decode(genome)
    assert overrides["price_curve_by_year"][2021] == (0.002, 20.0)
    assert overrides["sigma_c"] == 0.0005
    assert overrides["nuclear_subsidy"] == 120.0


def test_decode_wrong_length():
    with pytest.raises(InputError, match="length"):
        validation_layout().decode([1.0, 2.0, 3.0])


@pytest.mark.parametrize("stall", [0, -3])
def test_stall_generations_below_one_is_an_input_error(stall):
    with pytest.raises(InputError, match=rf"stall_generations must be >= 1 \(got {stall}\)"):
        small_cfg(stall_generations=stall)


@pytest.mark.parametrize("layout, end_year, include_first_year, years", [
    (validation_layout(), 2023, True, [2023]),
    (validation_layout(), 2023, False, [2023]),
    (longterm_layout(2020, 2023), 2023, True, [2020, 2021, 2022, 2023]),
    (longterm_layout(2020, 2023), 2023, False, [2021, 2022, 2023]),
    (longterm_layout(2020, 2020), 2020, True, [2020]),
    (longterm_layout(2020, 2020), 2020, False, []),
])
def test_scored_years(layout, end_year, include_first_year, years):
    scenario = invest_scenario(end_year)[0]
    assert layout.scored_years(scenario, include_first_year) == years


# ---------------------------------------------------------------------------
# ga_run


def quadratic(genome, seed):
    return (genome[0] - 0.002) ** 2 + (genome[1] - 35.0) ** 2


def small_cfg(**overrides):
    base = dict(population_size=20, crossover_prob=0.5, mutation_prob=0.2,
                max_generations=10, bounds=((0.0, 0.004), (-30.0, 100.0)), seed=1)
    base.update(overrides)
    return GAConfig(**base)


def test_ga_converges_on_quadratic():
    cfg = GAConfig(population_size=120, crossover_prob=0.5, mutation_prob=0.2,
                   max_generations=50, bounds=((0.0, 0.004), (-30.0, 100.0)),
                   seed=3, stall_generations=1000)
    result = ga_run(cfg, quadratic)
    assert abs(result.best.genome[0] - 0.002) < 1e-3
    assert abs(result.best.genome[1] - 35.0) < 1e-3


def test_ga_pure_selection_is_monotone():
    cfg = small_cfg(crossover_prob=0.0, mutation_prob=0.0, max_generations=15)
    result = ga_run(cfg, quadratic)
    best = [rec.best_fitness for rec in result.generations]
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_ga_bounds_respected_every_generation():
    cfg = small_cfg(mutation_prob=0.9, max_generations=12)
    result = ga_run(cfg, quadratic)
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    for rec in result.generations:
        assert np.all(rec.genomes >= lo - 1e-15)
        assert np.all(rec.genomes <= hi + 1e-15)


def test_ga_objective_failure_gets_worst_fitness():
    calls = {"n": 0}

    def flaky(genome, seed):
        calls["n"] += 1
        if calls["n"] % 7 == 0:
            raise RuntimeError("boom")
        return quadratic(genome, seed)

    result = ga_run(small_cfg(max_generations=5), flaky)
    assert np.isfinite(result.best.fitness)
    assert any(np.isinf(rec.fitnesses).any() for rec in result.generations[:1])


def fails_above_60(genome, seed):
    """Deterministic failure for every genome whose second gene is > 60."""
    if genome[1] > 60.0:
        raise RuntimeError("deterministic failure")
    return quadratic(genome, seed)


def test_ga_failing_genomes_score_alike_serial_and_parallel():
    runs = [ga_run(small_cfg(max_generations=4, parallel_workers=w), fails_above_60)
            for w in (1, 2)]
    serial, parallel = (r.generations for r in runs)
    assert len(serial) == len(parallel) == 5
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.fitnesses, b.fitnesses)
        assert np.array_equal(a.genomes, b.genomes)
    assert np.isinf(serial[0].fitnesses).any()


def input_fault(genome, seed):
    raise InputError("scheduled retirement names unknown plant 'ghost'")


def always_fails(genome, seed):
    raise RuntimeError("boom")


@pytest.mark.parametrize("workers", [1, 2])
def test_ga_input_error_propagates(workers):
    with pytest.raises(InputError, match="ghost"):
        ga_run(small_cfg(max_generations=2, parallel_workers=workers), input_fault)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_ga_generation_without_finite_fitness_raises(workers, tmp_path):
    path = tmp_path / "log.csv"
    with pytest.raises(RuntimeError, match="generation 0"):
        ga_run(small_cfg(max_generations=2, parallel_workers=workers), always_fails,
               log_path=path)
    assert multiprocessing.active_children() == []


@dataclass(frozen=True)
class FiniteForSeeds:
    """Picklable objective that fails for every evaluation seed not listed."""

    seeds: frozenset

    def __call__(self, genome, seed):
        if int(seed) not in self.seeds:
            raise RuntimeError("boom")
        return quadratic(genome, seed)


def test_ga_pooled_later_generation_without_finite_fitness_raises():
    cfg = small_cfg(max_generations=3, parallel_workers=2)
    generation_zero = frozenset(
        int(np.random.SeedSequence((cfg.seed, 0, i)).generate_state(1)[0])
        for i in range(cfg.population_size))
    with pytest.raises(RuntimeError, match="generation 1"):
        ga_run(cfg, FiniteForSeeds(generation_zero))
    assert multiprocessing.active_children() == []


def _process_starts(monkeypatch) -> list:
    """The names of the processes this process starts from now on."""
    started, start = [], multiprocessing.process.BaseProcess.start

    def recording(self):
        started.append(self.name)
        start(self)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return started


@pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
def test_ga_run_opens_at_most_one_pool(monkeypatch, workers, pools):
    # one pool process for two workers, started once for all five generations
    started = _process_starts(monkeypatch)
    result = ga_run(small_cfg(max_generations=4, stall_generations=1000,
                              parallel_workers=workers), quadratic)
    assert result.n_generations == 5
    assert len(started) == pools
    assert multiprocessing.active_children() == []


def test_ga_opens_no_more_processes_than_a_generation_has_batches(monkeypatch):
    started = _process_starts(monkeypatch)
    cfg = small_cfg(population_size=4, max_generations=2, stall_generations=1000)
    serial = ga_run(cfg, quadratic)
    pooled = ga_run(replace(cfg, parallel_workers=6), quadratic)
    # four genomes make at most four batches: the caller's and three pool processes'
    assert len(started) == 3
    assert pooled.best.genome.tobytes() == serial.best.genome.tobytes()
    assert pooled.best.fitness == serial.best.fitness
    assert multiprocessing.active_children() == []


SPAWN_RUN = """
import multiprocessing, pickle, sys
import numpy as np
from emsim.calibrate import ga_run

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    with open(sys.argv[1], "rb") as fh:
        cfg, objective = pickle.load(fh)
    result = ga_run(cfg, objective)
    np.save(sys.argv[2], np.array([rec.fitnesses for rec in result.generations]))
"""


def test_ga_spawned_workers_match_serial(toy_bundle, tmp_path):
    # spawn (the macOS default) starts workers from a fresh import, so
    # they see only what the pool hands them when it starts them
    objective = Objective(toy_bundle, validation_layout())
    cfg = small_cfg(population_size=6, max_generations=2, stall_generations=1000)
    serial = ga_run(cfg, objective)
    with open(tmp_path / "run.pkl", "wb") as fh:
        pickle.dump((replace(cfg, parallel_workers=2), objective), fh)
    src = str(Path(calibrate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    subprocess.run([sys.executable, "-c", SPAWN_RUN, str(tmp_path / "run.pkl"),
                    str(tmp_path / "fitness.npy")], env=env, check=True, timeout=120)
    spawned = np.load(tmp_path / "fitness.npy")
    assert np.array_equal(spawned, np.array([rec.fitnesses for rec in serial.generations]))


def test_ga_logs_progress_per_generation(caplog):
    cfg = small_cfg(max_generations=4, stall_generations=1000)
    with caplog.at_level(logging.INFO, logger="emsim.calibrate"):
        result = ga_run(cfg, fails_above_60)
    pattern = re.compile(r"generation (\d+): (\d+) genomes evaluated, (\d+) reused, "
                         r"(\d+) failed \(inf\), best fitness (\S+), "
                         r"median fitness (\S+), (\S+) s$")
    lines = [pattern.match(r.getMessage()) for r in caplog.records]
    lines = [m for m in lines if m]
    assert [int(m[1]) for m in lines] == list(range(result.n_generations))
    for m, rec in zip(lines, result.generations):
        assert int(m[2]) + int(m[3]) == cfg.population_size
        assert float(m[5]) == rec.best_fitness
        finite = rec.fitnesses[np.isfinite(rec.fitnesses)]
        assert float(m[6]) == float(np.median(finite))
        assert float(m[7]) >= 0.0
    assert int(lines[0][4]) == int(np.isinf(result.generations[0].fitnesses).sum()) > 0


def test_ga_later_generation_without_finite_fitness_raises():
    def finite_in_generation_zero(genome, seed):
        calls["n"] += 1
        if calls["n"] > 20:
            raise RuntimeError("boom")
        return quadratic(genome, seed)

    calls = {"n": 0}
    with pytest.raises(RuntimeError, match="generation 1"):
        ga_run(small_cfg(max_generations=3), finite_in_generation_zero)


def test_ga_stall_termination():
    def constant(genome, seed):
        return 1.0

    cfg = small_cfg(max_generations=100, stall_generations=5)
    result = ga_run(cfg, constant)
    assert result.n_generations - 1 < 100


def test_ga_log_has_g_plus_1_generation_blocks(tmp_path):
    path = tmp_path / "log.csv"
    cfg = small_cfg(max_generations=6, stall_generations=1000)
    ga_run(cfg, quadratic, log_path=path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    generations = {int(r["generation"]) for r in rows}
    assert generations == set(range(7))
    assert len(rows) == 7 * cfg.population_size


def test_ga_log_complete_generations_after_interrupt(tmp_path):
    path = tmp_path / "log.csv"
    cfg = small_cfg(max_generations=50, stall_generations=1000)
    evaluated = {"n": 0}
    abort_after = cfg.population_size * 4  # init + 3 full generations

    def interrupting(genome, seed):
        if evaluated["n"] >= abort_after:
            raise KeyboardInterrupt
        evaluated["n"] += 1
        return quadratic(genome, seed)

    with pytest.raises(KeyboardInterrupt):
        ga_run(cfg, interrupting, log_path=path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    # generations 0..3 evaluated; the killed generation 4 must not appear
    by_gen = {}
    for r in rows:
        by_gen.setdefault(int(r["generation"]), 0)
        by_gen[int(r["generation"])] += 1
    assert set(by_gen) == {0, 1, 2, 3}
    assert all(count == cfg.population_size for count in by_gen.values())


def test_ga_log_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        ga_run(small_cfg(max_generations=5), quadratic, log_path=path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_ga_parallel_matches_serial(tmp_path):
    serial = ga_run(small_cfg(max_generations=4), quadratic)
    parallel = ga_run(small_cfg(max_generations=4, parallel_workers=2), quadratic)
    assert serial.best.fitness == parallel.best.fitness
    assert np.array_equal(serial.best.genome, parallel.best.genome)


# ---------------------------------------------------------------------------
# simulation objectives


@pytest.fixture(scope="module")
def toy_bundle():
    scenario, registry, rep, table = invest_scenario()
    target = {
        year: {"wind": 0.0, "nuclear": 0.0, "solar": 0.15, "CCGT": 0.35, "coal": 0.50}
        for year in range(2020, 2024)
    }
    return ScenarioBundle(scenario, registry, rep, table, target)


def test_objective_validation_deterministic(toy_bundle):
    genome = np.array([0.002, 40.0])
    a = objective_validation(genome, toy_bundle, eval_seed=9)
    b = objective_validation(genome, toy_bundle, eval_seed=9)
    assert a == b
    assert a >= 0.0


def test_objective_validation_scores_final_year(toy_bundle):
    genome = np.array([0.002, 40.0])
    scenario = replace(toy_bundle.scenario, **validation_layout().decode(genome))
    world = init_world(scenario, toy_bundle.registry, toy_bundle.rep_year,
                       toy_bundle.cost_table, seed=9)
    years = []
    run(world, years.append)
    final = years[-1]
    expected = mix_error_validation(final.objective_mix(), toy_bundle.target[final.year])
    assert objective_validation(genome, toy_bundle, eval_seed=9) == expected


def test_objective_calls_the_entry_point_of_its_layout(toy_bundle):
    genome = np.array([0.002, 40.0])
    objective = pickle.loads(pickle.dumps(Objective(toy_bundle, validation_layout())))
    assert objective(genome, 9) == objective_validation(genome, toy_bundle, 9)
    layout = longterm_layout(2020, 2023)
    genome = np.zeros(len(layout))
    genome[3:6] = 40.0
    assert Objective(toy_bundle, layout)(genome, 1) \
        == objective_longterm(genome, toy_bundle, 1, layout)


def test_objective_longterm_runs(toy_bundle):
    layout = longterm_layout(2020, 2023)
    genome = np.zeros(len(layout))
    genome[3:6] = 40.0  # flat intercepts
    value = objective_longterm(genome, toy_bundle, eval_seed=1, layout=layout)
    assert value >= 0.0
    # excluding the first year can only reduce the summed error
    bundle2 = ScenarioBundle(toy_bundle.scenario, toy_bundle.registry,
                             toy_bundle.rep_year, toy_bundle.cost_table,
                             toy_bundle.target, include_first_year=False)
    value2 = objective_longterm(genome, bundle2, eval_seed=1, layout=layout)
    assert value2 <= value


def test_objective_zero_sigma_means_shared_beliefs(toy_bundle):
    layout = longterm_layout(2020, 2023)
    genome = np.zeros(len(layout))
    genome[3:6] = 45.0
    # sigma genes are zero: evaluation must not depend on the seed
    v1 = objective_longterm(genome, toy_bundle, eval_seed=1, layout=layout)
    v2 = objective_longterm(genome, toy_bundle, eval_seed=999, layout=layout)
    assert v1 == v2


def test_objective_seed_matters_only_with_belief_noise(toy_bundle):
    genome = np.array([0.002, 40.0])
    objective = Objective(toy_bundle, validation_layout())
    assert objective.seeds_matter([genome]).tolist() == [False]
    assert objective(genome, 1) == objective(genome, 999)
    layout = longterm_layout(2020, 2023)
    quiet = np.zeros(len(layout))
    quiet[3:6] = 45.0
    noisy_m, noisy_c = quiet.copy(), quiet.copy()
    noisy_m[-3] = 0.0005  # sigma_m
    noisy_c[-2] = 0.0005  # sigma_c
    assert Objective(toy_bundle, layout).seeds_matter([quiet, noisy_m, noisy_c]).tolist() \
        == [False, True, True]
    noisy = replace(toy_bundle, scenario=replace(toy_bundle.scenario, sigma_c=4.0))
    assert Objective(noisy, validation_layout()).seeds_matter([genome]).tolist() == [True]


def count_scored_genomes(monkeypatch) -> list:
    """Every genome that `Objective.scores` is given, as bytes."""
    calls = []
    real = Objective.scores

    def counting(self, genomes, seeds):
        calls.extend(np.asarray(g, dtype=float).tobytes() for g in genomes)
        return real(self, genomes, seeds)

    monkeypatch.setattr(Objective, "scores", counting)
    return calls


def test_ga_evaluates_each_distinct_genome_once_at_zero_sigma(toy_bundle, monkeypatch):
    calls = count_scored_genomes(monkeypatch)
    cfg = small_cfg(population_size=8, max_generations=5, stall_generations=1000)
    result = ga_run(cfg, Objective(toy_bundle, validation_layout()))
    assert len(calls) == len(set(calls)) > 0
    assert len(calls) < cfg.population_size * (cfg.max_generations + 1)
    for rec in result.generations:
        for genome, fitness in zip(rec.genomes, rec.fitnesses):
            assert fitness == objective_validation(genome, toy_bundle, 12345)


def test_ga_evaluates_a_noisy_genome_under_each_seed(toy_bundle, monkeypatch):
    calls = count_scored_genomes(monkeypatch)
    layout = longterm_layout(2020, 2023)
    cfg = small_cfg(population_size=4, max_generations=2, crossover_prob=0.0,
                    mutation_prob=0.0, bounds=layout.bounds, stall_generations=1000)
    result = ga_run(cfg, Objective(toy_bundle, layout))
    assert (result.generations[0].genomes[:, -3:-1] > 0).all()  # both sigma genes
    # pure selection only copies genomes, and every copy comes with a new seed
    assert len(set(calls)) <= cfg.population_size
    assert len(calls) == cfg.population_size * (cfg.max_generations + 1)


# ---------------------------------------------------------------------------
# dispatch reuse across evaluations


def store_genomes(layout):
    """Genomes that commit different plants, with repeats and near
    repeats, so consecutive evaluations share some years' fleets."""
    if layout.kind == "validation":
        return [np.array([m, c]) for m in (0.0, 0.002) for c in (-30.0, 40.0, 40.0, 41.0, 90.0)]
    genomes = []
    for c in (20.0, 45.0, 45.0, 80.0):
        for sigma_c in (0.0, 0.0, 3.0):
            genome = np.zeros(len(layout))
            genome[3:6] = c
            genome[-2] = sigma_c
            genomes.append(genome)
    return genomes


def distinct_histories(bundle, layout, genomes, seed) -> int:
    """The number of distinct (year, commitments of every earlier year)
    over plain runs of the genomes."""
    histories = set()
    for genome in genomes:
        committed = []

        def sink(result):
            histories.add((result.year, tuple(committed)))
            committed.append(tuple(c.plant.plant_id for c in result.investments))

        scenario = replace(bundle.scenario, **layout.decode(genome))
        run(init_world(scenario, bundle.registry, bundle.rep_year, bundle.cost_table,
                       seed=seed), sink)
    return len(histories)


@pytest.mark.parametrize("layout", [validation_layout(), longterm_layout(2020, 2023)],
                         ids=["validation", "longterm"])
def test_fitness_does_not_depend_on_evaluation_order(toy_bundle, monkeypatch, layout):
    genomes = store_genomes(layout)
    histories = distinct_histories(toy_bundle, layout, genomes, 7)
    calls = []

    def counting(*args):
        calls.append(args)
        return dispatch_year(*args)

    monkeypatch.setattr(engine, "dispatch_year", counting)
    years = len(genomes) * 4
    in_order = Objective(toy_bundle, layout)
    forward = [in_order(g, 7) for g in genomes]
    # each distinct history is simulated once
    assert len(calls) <= histories < years
    reverse = Objective(toy_bundle, layout)
    backward = [reverse(g, 7) for g in reversed(genomes)][::-1]
    assert len(calls) <= 2 * histories
    # the bundle itself holds no store: each evaluation simulates every year afresh
    entry = objective_validation if layout.kind == "validation" else objective_longterm
    before = len(calls)
    fresh = [entry(g, toy_bundle, 7, layout) for g in genomes]
    assert len(calls) - before == years
    assert forward == backward == fresh


@dataclass(frozen=True)
class FailsAbove60:
    """Picklable objective that fails for every genome whose second gene
    is > 60 and scores the rest with `objective`."""

    objective: Objective

    def __call__(self, genome, seed):
        if genome[1] > 60.0:
            raise RuntimeError("deterministic failure")
        return self.objective(genome, seed)


def test_chunked_pool_matches_serial_with_failing_genomes(toy_bundle):
    objective = FailsAbove60(Objective(toy_bundle, validation_layout()))
    runs = [ga_run(small_cfg(population_size=10, max_generations=3, stall_generations=1000,
                             parallel_workers=w), objective) for w in (1, 2, 3)]
    serial, *pooled = [np.array([rec.fitnesses for rec in r.generations]) for r in runs]
    assert np.isinf(serial).any()
    for fitness in pooled:
        assert np.array_equal(fitness, serial)
    assert multiprocessing.active_children() == []


@dataclass(frozen=True)
class LoggedQuadratic:
    """A picklable `quadratic` whose batches `logged_score_batch` records,
    one line per batch, in the file at `path`, from whichever process
    scores them."""

    path: str

    def __call__(self, genome, seed):
        return quadratic(genome, seed)


SCORE_BATCH = calibrate._score_batch


def logged_score_batch(batch, objective):
    """`calibrate._score_batch`, appending the scoring process's id and the
    batch's (genome, seed) keys to `objective.path`."""
    scores = SCORE_BATCH(batch, objective)
    keys = " ".join(f"{genome.tobytes().hex()}:{seed}" for genome, seed in zip(*batch))
    with open(objective.path, "a") as fh:
        fh.write(f"{os.getpid()} {keys}\n")
    return scores


@pytest.mark.parametrize("workers", [2, 3])
def test_ga_pool_gets_one_batch_per_worker(monkeypatch, tmp_path, workers):
    log = tmp_path / "batches.log"
    log.touch()
    monkeypatch.setattr(calibrate, "_score_batch", logged_score_batch)
    generations = []  # per generation: its evaluation count and its batch lines
    evaluate = calibrate._evaluate

    def recording_evaluate(*args):
        before = len(log.read_text().splitlines())
        fitness, n_evaluated = evaluate(*args)
        generations.append((n_evaluated, log.read_text().splitlines()[before:]))
        return fitness, n_evaluated

    monkeypatch.setattr(calibrate, "_evaluate", recording_evaluate)
    result = ga_run(small_cfg(population_size=10, max_generations=3, stall_generations=1000,
                              parallel_workers=workers), LoggedQuadratic(str(log)))
    assert len(generations) == result.n_generations == 4
    pids = set()
    for n, lines in generations:
        pids.update(line.split()[0] for line in lines)
        batches = [line.split()[1:] for line in lines]
        # one contiguous batch of ceil(n / workers) genomes per process, the
        # calling one included, each scored once
        size = -(-n // workers)
        assert sorted(map(len, batches), reverse=True) == [min(size, n - start)
                                                           for start in range(0, n, size)]
        assert len({key for batch in batches for key in batch}) == n
    # the calling process scores the first batch of each generation
    assert str(os.getpid()) in pids and len(pids) <= workers
    assert multiprocessing.active_children() == []


def scored_with_seed(genome, seed):
    """A fitness from which the evaluation seed can be read back."""
    return quadratic(genome, seed) + (int(seed) % 1000) * 1e-3


def test_ga_draws_a_seed_only_where_it_can_matter(monkeypatch, toy_bundle):
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def born_seeds(result):
        # the seed of each (run seed, generation, index) an individual can be born at
        return {int(np.random.SeedSequence((cfg.seed, rec.generation, i)).generate_state(1)[0])
                for rec in result.generations for i in range(len(rec.genomes))}

    cfg = small_cfg(population_size=6, max_generations=2, stall_generations=1000)
    objective = Objective(toy_bundle, validation_layout())
    assert not objective.seeds_matter(np.array([[0.001, 10.0]])).any()  # sigma = 0
    with monkeypatch.context() as m:
        m.setattr(np.random, "SeedSequence", CountingSeedSequence)
        zero_sigma = ga_run(cfg, objective)
        assert len(built) == 1  # the best individual's, after the run
        built.clear()
        seeded = ga_run(cfg, scored_with_seed)
        # a plain callable draws one seed per evaluation, plus the best's
        assert len(built) == cfg.population_size * (cfg.max_generations + 1) + 1
    assert zero_sigma.best.eval_seed in born_seeds(zero_sigma)
    # the best individual's seed is the one it was scored under
    assert seeded.best.eval_seed in born_seeds(seeded)
    assert seeded.best.fitness == scored_with_seed(seeded.best.genome, seeded.best.eval_seed)


# ---------------------------------------------------------------------------
# batch evaluation

LAYOUTS = pytest.mark.parametrize(
    "layout", [validation_layout(), longterm_layout(2020, 2023)], ids=["validation", "longterm"])


@LAYOUTS
def test_fitness_does_not_depend_on_its_batch(toy_bundle, layout):
    """Bit-equal fitness in one batch, one genome at a time and in
    reverse order; the long-term genomes include sigma > 0."""
    genomes = np.array(store_genomes(layout))
    seeds = [7 + i % 3 for i in range(len(genomes))]
    batch = Objective(toy_bundle, layout).scores(genomes, seeds)
    one = Objective(toy_bundle, layout)
    alone = np.array([one.scores(g[None], [s])[0] for g, s in zip(genomes, seeds)])
    backward = Objective(toy_bundle, layout).scores(genomes[::-1], seeds[::-1])[::-1]
    assert np.isfinite(batch).all()
    assert batch.tobytes() == alone.tobytes() == backward.tobytes()
    # and a plain run of each genome's own scenario gives the same bits
    entry = objective_validation if layout.kind == "validation" else objective_longterm
    fresh = np.array([entry(g, toy_bundle, s, layout) for g, s in zip(genomes, seeds)])
    assert batch.tobytes() == fresh.tobytes()
    if layout.kind == "longterm":
        assert len(set(batch.tolist())) < len(batch)  # sigma > 0 genomes share some fitness
        assert (genomes[:, -2] > 0).any()


@LAYOUTS
def test_ga_run_gives_the_same_results_at_any_worker_count(toy_bundle, layout):
    objective = Objective(toy_bundle, layout)
    runs = [ga_run(small_cfg(population_size=10, max_generations=3, stall_generations=1000,
                             bounds=layout.bounds, parallel_workers=w), objective)
            for w in (1, 2, 3)]
    serial, *pooled = runs
    if layout.kind == "longterm":
        assert (serial.generations[0].genomes[:, -3:-1] > 0).all()
    for result in pooled:
        assert len(result.generations) == len(serial.generations)
        for a, b in zip(serial.generations, result.generations):
            assert a.fitnesses.tobytes() == b.fitnesses.tobytes()
            assert a.genomes.tobytes() == b.genomes.tobytes()
        assert result.best.genome.tobytes() == serial.best.genome.tobytes()
    assert multiprocessing.active_children() == []


def commits_in(bundle, layout, genome, seed, year, plant_type) -> bool:
    """Whether a plain run of the genome commits a `plant_type` plant in `year`."""
    committed = []

    def sink(result):
        if result.year == year:
            committed.extend(c.plant.plant_type for c in result.investments)

    scenario = replace(bundle.scenario, **layout.decode(genome))
    run(init_world(scenario, bundle.registry, bundle.rep_year, bundle.cost_table, seed=seed),
        sink)
    return plant_type in committed


@LAYOUTS
def test_a_failed_walk_scores_inf_and_spares_the_rest_of_its_batch(toy_bundle, monkeypatch,
                                                                   layout):
    genomes = np.array(store_genomes(layout))
    seeds = [7] * len(genomes)
    expected = Objective(toy_bundle, layout).scores(genomes, seeds)
    committing = [commits_in(toy_bundle, layout, g, 7, 2021, "CCGT") for g in genomes]
    real = engine.close_year

    def broken(world, settlements, commitments):
        if world.year == 2021 and any(c.plant.plant_type == "CCGT" for c in commitments):
            raise RuntimeError("close broke")
        return real(world, settlements, commitments)

    monkeypatch.setattr(engine, "close_year", broken)
    scores = Objective(toy_bundle, layout).scores(genomes, seeds)
    failed = np.isinf(scores)
    assert failed.tolist() == committing
    assert 0 < failed.sum() < len(genomes)
    assert scores[~failed].tobytes() == expected[~failed].tobytes()


def test_a_failed_root_scores_inf_for_its_subsidy_group_only(toy_bundle, monkeypatch):
    """Long-term genomes of two nuclear-subsidy genes walk two roots in
    one batch; when every open phase under one subsidy raises, that
    group's root fails, and the other group scores as in a clean run."""
    layout = longterm_layout(2020, 2023)
    genomes = np.array(store_genomes(layout))
    genomes[1::2, -1] = 50.0  # the groups interleave in the batch
    seeds = [7] * len(genomes)
    expected = Objective(toy_bundle, layout).scores(genomes, seeds)
    real = engine.annual_totals

    def broken(operating, days, nuclear_subsidy):
        if nuclear_subsidy == 50.0:
            raise RuntimeError("open broke")
        return real(operating, days, nuclear_subsidy)

    monkeypatch.setattr(engine, "annual_totals", broken)
    scores = Objective(toy_bundle, layout).scores(genomes, seeds)
    failed = genomes[:, -1] == 50.0
    assert np.isinf(scores).tolist() == failed.tolist()
    assert np.isfinite(expected).all()
    assert scores[~failed].tobytes() == expected[~failed].tobytes()


@pytest.mark.parametrize("entry", [objective_validation, objective_longterm])
def test_a_target_without_a_scored_year_is_an_input_error(toy_bundle, monkeypatch, entry):
    """Named before anything is simulated, as `check_target` names it."""
    bundle = replace(toy_bundle, target={2020: toy_bundle.target[2020]})
    layout = (validation_layout() if entry is objective_validation
              else longterm_layout(2020, 2023))
    genome = np.array([0.002, 40.0]) if entry is objective_validation else np.zeros(len(layout))
    calls = []
    monkeypatch.setattr(engine, "open_year", calls.append)
    missing = "wind, nuclear, solar, CCGT, coal"
    with pytest.raises(InputError, match=f"no {missing} share for year 202[13]"):
        entry(genome, bundle, 1, layout)
    with pytest.raises(InputError, match=f"no {missing} share for year 202[13]"):
        Objective(bundle, layout).scores(genome[None], [1])
    assert calls == []


def _scenario_error(bundle, layout, genome) -> str:
    """The InputError that decoding `genome` into the bundle's scenario raises."""
    with pytest.raises(InputError) as raised:
        replace(bundle.scenario, **layout.decode(genome))
    return str(raised.value)


@pytest.mark.parametrize("gene", [0, 1])
def test_a_nan_validation_gene_is_the_scenarios_input_error(toy_bundle, gene):
    genome = np.array([0.002, 40.0])
    genome[gene] = np.nan
    layout = validation_layout()
    message = _scenario_error(toy_bundle, layout, genome)
    assert message == f"price_curve.{'mc'[gene]} must be finite (got nan)"
    batch = np.array([[0.002, 40.0], genome])
    with pytest.raises(InputError, match=re.escape(message)):
        Objective(toy_bundle, layout).scores(batch, [0, 0])
    with pytest.raises(InputError, match=re.escape(message)):
        objective_validation(genome, toy_bundle, 0)


@pytest.mark.parametrize("genes, value", [
    ((1,), np.nan), ((4,), np.inf), ((6,), np.nan), ((7,), -np.inf), ((8,), np.nan),
    ((0, 6), np.nan), ((2, 5, 8), np.nan), ((6,), -1e-4), ((7,), -2.0), ((6, 7), -1.0),
], ids=str)
def test_a_bad_longterm_gene_is_the_scenarios_input_error(toy_bundle, genes, value):
    """Not finite anywhere, or a negative sigma: the error the decoded
    scenario raises, naming the same field."""
    layout = longterm_layout(2020, 2023)
    genome = np.zeros(len(layout))
    genome[3:6] = 45.0
    genome[list(genes)] = value
    message = _scenario_error(toy_bundle, layout, genome)
    with pytest.raises(InputError, match=re.escape(message)):
        Objective(toy_bundle, layout).scores(genome[None], [0])
    with pytest.raises(InputError, match=re.escape(message)):
        ga_run(small_cfg(population_size=2, max_generations=0, bounds=layout.bounds),
               lambda g, s: Objective(toy_bundle, layout)(genome, s))


def test_ga_writes_telemetry_that_matches_its_generation_log(tmp_path):
    cfg = small_cfg(max_generations=4, stall_generations=1000)
    log_path, telemetry_path = tmp_path / "log.csv", tmp_path / "telemetry.json"
    result = ga_run(cfg, fails_above_60, log_path=log_path, telemetry_path=telemetry_path)
    with open(telemetry_path) as fh:
        telemetry = json.load(fh)
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    generations = sorted({int(r["generation"]) for r in rows})
    assert [entry["generation"] for entry in telemetry] == generations \
        == list(range(result.n_generations))
    for entry, rec in zip(telemetry, result.generations):
        fitness = np.array([float(r["fitness"]) for r in rows
                            if int(r["generation"]) == entry["generation"]])
        assert entry["evaluated"] + entry["reused"] == len(fitness) == cfg.population_size
        assert entry["best_fitness"] == fitness.min() == rec.best_fitness
        assert entry["median_fitness"] == float(np.median(fitness[np.isfinite(fitness)]))
        assert entry["seconds"] >= 0.0
    # generation 0 scores the population itself
    assert telemetry[0]["failed"] == int(np.isinf(result.generations[0].fitnesses).sum()) > 0
    assert all(entry["evaluated"] > 0 for entry in telemetry)


# ---------------------------------------------------------------------------
# forecast metrics


def test_forecast_metrics_zero_error():
    traj = {2014: {"coal": 0.4}, 2015: {"coal": 0.3}}
    out = forecast_error_metrics(traj, traj, {"coal": 0.5})
    assert out["coal"]["mae"] == 0.0
    assert out["coal"]["rmse"] == 0.0


def test_forecast_metrics_naive_forecast_scores_one():
    observed = {2014: {"coal": 0.4}, 2015: {"coal": 0.3}}
    naive = {2014: {"coal": 0.5}, 2015: {"coal": 0.5}}
    out = forecast_error_metrics(naive, observed, {"coal": 0.5})
    assert out["coal"]["mase"] == pytest.approx(1.0, abs=1e-12)


def test_forecast_metrics_hand_case():
    observed = {2014: {"coal": 0.4}, 2015: {"coal": 0.3}}
    simulated = {2014: {"coal": 0.45}, 2015: {"coal": 0.35}}
    out = forecast_error_metrics(simulated, observed, {"coal": 0.5})
    assert out["coal"]["mae"] == pytest.approx(0.05, abs=1e-12)
    assert out["coal"]["mase"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_forecast_metrics_mase_undefined():
    observed = {2014: {"coal": 0.5}}
    simulated = {2014: {"coal": 0.4}}
    out = forecast_error_metrics(simulated, observed, {"coal": 0.5})
    assert out["coal"]["mase"] is None
    assert out["coal"]["mae"] == pytest.approx(0.1)


def test_forecast_metrics_missing_year():
    with pytest.raises(InputError, match="missing year"):
        forecast_error_metrics({2014: {"coal": 0.4}}, {2015: {"coal": 0.4}}, {"coal": 0.5})
