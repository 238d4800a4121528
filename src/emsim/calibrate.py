"""Genetic-algorithm calibration of price-expectation parameters.

A bounded real-valued genome encodes the linear price curve(s) (and for
the long-horizon layout the belief noise and nuclear subsidy); fitness
is the mean absolute electricity-mix error against a target trajectory.
The GA logs every generation to disk as soon as it is evaluated so an
interrupted run leaves complete records behind.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import Beliefs
from .engine import OBJECTIVE_TYPES, HistoryStore
from .ingest import InputError, open_new
from .pool import WorkerPool

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Mix error objectives


def mix_error_validation(simulated: dict[str, float], target: dict[str, float]) -> float:
    """Mean absolute share error over the generation-type set."""
    for t in OBJECTIVE_TYPES:
        if t not in simulated:
            raise InputError(f"simulated mix missing type '{t}'")
        if t not in target:
            raise InputError(f"target mix missing type '{t}'")
    return sum(abs(target[t] - simulated[t]) for t in OBJECTIVE_TYPES) / len(OBJECTIVE_TYPES)


def mix_error_longterm(simulated: dict[int, dict[str, float]],
                       target: dict[int, dict[str, float]]) -> float:
    """Sum over years of the per-year mix error."""
    if set(simulated) != set(target):
        raise InputError(
            f"simulated years {sorted(simulated)} != target years {sorted(target)}")
    return sum(mix_error_validation(simulated[y], target[y]) for y in sorted(simulated))


# ---------------------------------------------------------------------------
# Genome layouts


@dataclass(frozen=True)
class GenomeLayout:
    """Names and bounds of each gene plus how a genome maps onto the
    scenario fields it overrides."""

    kind: str  # "validation" | "longterm"
    gene_names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    curve_years: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.gene_names)

    def decode(self, genome) -> dict:
        """Scenario field overrides encoded by a genome."""
        genome = np.asarray(genome, dtype=float)
        if len(genome) != len(self):
            raise InputError(f"genome length {len(genome)} != layout length {len(self)}")
        if self.kind == "validation":
            return {"price_curve": (float(genome[0]), float(genome[1])),
                    "price_curve_by_year": {}}
        n = len(self.curve_years)
        curves = {
            year: (float(genome[i]), float(genome[n + i]))
            for i, year in enumerate(self.curve_years)
        }
        return {
            "price_curve_by_year": curves,
            "sigma_m": float(genome[2 * n]),
            "sigma_c": float(genome[2 * n + 1]),
            "nuclear_subsidy": float(genome[2 * n + 2]),
        }

    def sigmas(self, genomes: np.ndarray, scenario) -> tuple[np.ndarray, np.ndarray]:
        """Each genome's belief noise (sigma_m, sigma_c) under `scenario`."""
        if self.kind == "validation":
            return (np.full(len(genomes), scenario.sigma_m), np.full(len(genomes), scenario.sigma_c))
        return genomes[:, -3], genomes[:, -2]

    def overrides(self, genomes, scenario, seeds) -> tuple[Beliefs, np.ndarray]:
        """What a batch of genomes changes in `scenario`: their beliefs
        under the evaluation `seeds`, and each one's nuclear subsidy. The
        beliefs follow the held-value rule of the scenario's own curves,
        so each genome believes what the scenario `decode` gives would.
        A gene that is not finite, or a negative sigma, raises the
        InputError of the scenario that `decode` gives: only such a
        genome builds its scenario."""
        genomes = np.asarray(genomes, dtype=float)
        if genomes.ndim != 2 or genomes.shape[1] != len(self):
            raise InputError(f"genome length {genomes.shape[-1]} != layout length {len(self)}")
        bad = ~np.isfinite(genomes).all(axis=1)
        if self.kind == "longterm":
            bad |= (genomes[:, -3:-1] < 0).any(axis=1)
        if bad.any():
            replace(scenario, **self.decode(genomes[bad][0]))
        first, curves = 0, genomes[:, None, :2]
        subsidies = np.full(len(genomes), scenario.nuclear_subsidy)
        if self.kind == "longterm":
            n = len(self.curve_years)
            if n:
                first, curves = self.curve_years[0], np.stack(
                    [genomes[:, :n], genomes[:, n:2 * n]], axis=-1)
            else:  # no curve genes: the scenario's single price curve
                curves = np.broadcast_to(np.array(scenario.price_curve, dtype=float),
                                         (len(genomes), 1, 2))
            subsidies = genomes[:, -1]
        return Beliefs(first, curves, *self.sigmas(genomes, scenario), np.asarray(seeds)), subsidies

    def scored_years(self, scenario, include_first_year: bool) -> list[int]:
        """Years the objective scores: the final year for validation,
        every simulated year (less the start year unless included) for
        the long-term fit."""
        if self.kind == "validation":
            return [scenario.end_year]
        first = scenario.start_year + (0 if include_first_year else 1)
        return list(range(first, scenario.end_year + 1))


# Gene bounds: (lower, upper) of each gene kind.
VALIDATION_M_BOUNDS = (0.0, 0.004)
VALIDATION_C_BOUNDS = (-30.0, 100.0)
LONGTERM_M_BOUNDS = (0.0, 0.003)
LONGTERM_C_BOUNDS = (-30.0, 50.0)
SIGMA_BOUNDS = (0.0, 0.001)
SUBSIDY_BOUNDS = (0.0, 300.0)


def validation_layout() -> GenomeLayout:
    """Two genes: the slope and intercept of a single price curve."""
    return GenomeLayout(
        kind="validation",
        gene_names=("m", "c"),
        bounds=(VALIDATION_M_BOUNDS, VALIDATION_C_BOUNDS),
    )


def longterm_layout(start_year: int, end_year: int) -> GenomeLayout:
    """One curve per investing year (every simulated year except the
    last) plus belief noise and the nuclear subsidy."""
    years = tuple(range(start_year, end_year))
    names = tuple(f"m_{y}" for y in years) + tuple(f"c_{y}" for y in years) \
        + ("sigma_m", "sigma_c", "nuclear_subsidy")
    bounds = (LONGTERM_M_BOUNDS,) * len(years) + (LONGTERM_C_BOUNDS,) * len(years) \
        + (SIGMA_BOUNDS, SIGMA_BOUNDS, SUBSIDY_BOUNDS)
    return GenomeLayout(kind="longterm", gene_names=names, bounds=bounds,
                        curve_years=years)


# ---------------------------------------------------------------------------
# Simulation objectives


@dataclass(frozen=True)
class ScenarioBundle:
    """Everything an objective needs besides the genome: the fixed
    scenario, fleet, representative year and the target trajectory."""

    scenario: object
    registry: object
    rep_year: object
    cost_table: object
    target: dict[int, dict[str, float]]  # year -> type -> share
    include_first_year: bool = True


def objective_validation(genome, bundle: ScenarioBundle, eval_seed: int = 0,
                         layout: GenomeLayout | None = None) -> float:
    """Mix error of the final simulated year against the target."""
    return Objective(bundle, layout or validation_layout())(genome, eval_seed)


def objective_longterm(genome, bundle: ScenarioBundle, eval_seed: int = 0,
                       layout: GenomeLayout | None = None) -> float:
    """Summed per-year mix error over the whole simulated trajectory."""
    layout = layout or longterm_layout(bundle.scenario.start_year, bundle.scenario.end_year)
    return Objective(bundle, layout)(genome, eval_seed)


def check_target(bundle: ScenarioBundle, layout: GenomeLayout, source) -> None:
    """Raise InputError unless `layout` scores at least one year and the
    target gives every objective type a share in each of them."""
    years = layout.scored_years(bundle.scenario, bundle.include_first_year)
    if not years:
        raise InputError(f"{source}: the {layout.kind} objective scores no year")
    for year in years:
        missing = [t for t in OBJECTIVE_TYPES if t not in bundle.target.get(year, {})]
        if missing:
            raise InputError(f"{source}: no {', '.join(missing)} share for year {year}")


@dataclass(frozen=True)
class Objective:
    """Picklable objective for `ga_run` and its worker pool, driven by
    its layout: `scores` a batch of genomes, or one through the call.

    It checks its target with `check_target` when it is built. Its
    evaluations share one history store, built on its bundle's inputs,
    so a batch simulates only the years of its genomes' investment
    histories that no earlier evaluation simulated, and every evaluation
    reuses the store's appraisal plans and bids. A pool worker's
    unpickled copy starts with its own, empty store."""

    bundle: ScenarioBundle
    layout: GenomeLayout
    histories: HistoryStore = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bundle = self.bundle
        check_target(bundle, self.layout, "target")
        object.__setattr__(self, "histories", HistoryStore(
            bundle.scenario, bundle.registry, bundle.rep_year, bundle.cost_table))

    def scores(self, genomes, seeds) -> np.ndarray:
        """The fitness of each genome under its evaluation seed, from one
        walk of the history store: the summed mix error over the scored
        years of its simulated trajectory, or `inf` for a genome whose
        simulation failed (the failure is logged). A genome's fitness does
        not depend on its batch. An InputError propagates."""
        bundle, layout = self.bundle, self.layout
        scenario = bundle.scenario
        beliefs, subsidies = layout.overrides(genomes, scenario, seeds)
        paths = self.histories.walk(beliefs, subsidies)
        scored = [(year - scenario.start_year, bundle.target[year])
                  for year in layout.scored_years(scenario, bundle.include_first_year)]
        errors: dict[int, float] = {}  # by id of a node's mix, which genomes through it share

        def error(mix, target) -> float:
            if id(mix) not in errors:
                errors[id(mix)] = mix_error_validation(mix, target)
            return errors[id(mix)]

        fitness = np.empty(len(paths))
        logged = set()
        for g, path in enumerate(paths):
            if isinstance(path, Exception):
                fitness[g] = math.inf
                if id(path) not in logged:  # once per failed node
                    logged.add(id(path))
                    log.warning("objective failed; assigning worst fitness", exc_info=path)
            else:  # summed in year order, as mix_error_longterm does
                fitness[g] = sum(error(path[i], target) for i, target in scored)
        return fitness

    def __call__(self, genome, eval_seed: int) -> float:
        return float(self.scores([genome], [eval_seed])[0])

    def seeds_matter(self, genomes) -> np.ndarray:
        """Whether the fitness of each genome can depend on the evaluation
        seed. The seed reaches only the belief noise, which draws nothing
        when both sigmas of the decoded scenario are zero."""
        sigma_m, sigma_c = self.layout.sigmas(np.asarray(genomes, dtype=float),
                                              self.bundle.scenario)
        return (sigma_m != 0) | (sigma_c != 0)


# ---------------------------------------------------------------------------
# Genetic algorithm

TOURNAMENT_SIZE = 3
BLEND_ALPHA = 0.5          # blend crossover widens the parents' span by this on each side
MUTATION_SIGMA_FRAC = 0.1  # gaussian mutation sigma as a fraction of each bound's width
STALL_TOL = 1e-6           # a best fitness that improves by less than this has stalled


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 120
    crossover_prob: float = 0.5
    mutation_prob: float = 0.2
    max_generations: int = 50
    bounds: tuple[tuple[float, float], ...] = ()
    seed: int = 0
    parallel_workers: int = 1
    stall_generations: int = 20

    def __post_init__(self):
        if self.max_generations < 0:
            raise InputError(f"max_generations must be >= 0 (got {self.max_generations})")
        if self.parallel_workers < 1:
            raise InputError(f"parallel_workers must be >= 1 (got {self.parallel_workers})")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise InputError("crossover_prob must be in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise InputError("mutation_prob must be in [0, 1]")
        if not self.bounds:
            raise InputError("GAConfig needs per-gene bounds")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise InputError(f"gene bounds must satisfy lower < upper (got {lo}, {hi})")
        if self.population_size < 2:
            raise InputError("population_size must be >= 2")
        if self.stall_generations < 1:
            raise InputError(f"stall_generations must be >= 1 (got {self.stall_generations})")


@dataclass
class Individual:
    genome: np.ndarray
    fitness: float
    eval_seed: int


@dataclass
class GenerationRecord:
    generation: int
    genomes: np.ndarray   # (pop, genes)
    fitnesses: np.ndarray

    @property
    def best_fitness(self) -> float:
        return float(self.fitnesses.min())


@dataclass
class GAResult:
    best: Individual
    generations: list[GenerationRecord] = field(default_factory=list)

    @property
    def n_generations(self) -> int:
        return len(self.generations)


class _GenerationLogWriter:
    """Appends one CSV block per generation, flushed immediately so the
    log survives an interrupted run with only complete generations."""

    def __init__(self, path, n_genes: int):
        self._fh = open_new(path, newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(
            ["generation", "individual", "fitness"] + [f"gene_{i}" for i in range(n_genes)]
        )
        self._fh.flush()

    def write(self, record: GenerationRecord) -> None:
        # the csv module writes a float as its repr
        rows = zip(record.fitnesses.tolist(), record.genomes.tolist())
        self._writer.writerows([record.generation, i, f, *genome]
                               for i, (f, genome) in enumerate(rows))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _fitness(objective, genome, seed) -> float:
    """One evaluation. A failing genome scores worst and is logged; an
    InputError is a fault of the inputs, not of the genome, and propagates."""
    try:
        return float(objective(genome, seed))
    except InputError:
        raise
    except Exception:
        log.warning("objective failed; assigning worst fitness", exc_info=True)
        return math.inf


def _score_batch(batch, objective) -> list[float]:
    """The fitness of each genome of a (genomes, seeds) batch: one batch
    for an `Objective`, one `_fitness` call per genome for any callable."""
    genomes, seeds = batch
    if isinstance(objective, Objective):
        return objective.scores(genomes, seeds).tolist()
    return [_fitness(objective, g, s) for g, s in zip(genomes, seeds)]


def _eval_seed(run_seed: int, generation: int, index: int) -> int:
    """The evaluation seed of the individual born at (generation, index):
    one stream per (run seed, generation, index), reproducible under any
    evaluation order or worker count."""
    return int(np.random.SeedSequence((run_seed, generation, index)).generate_state(1)[0])


def _evaluate(objective, pool: WorkerPool, fitness_of: dict, genomes: np.ndarray,
              run_seed: int, generation: int) -> tuple[np.ndarray, int]:
    """Fitness per genome of a generation and the number of genomes
    actually evaluated.

    Genome i's evaluation seed is that of (run seed, generation, i), drawn
    only when it can matter: always for a plain callable, and for an
    `Objective` when `seeds_matter` says so. The
    genome and that seed key `fitness_of`, which holds every fitness this
    run has computed; a key already in it, or repeated within `genomes`,
    is evaluated once. The genomes to evaluate form one contiguous batch
    per worker of `pool`, the first scored by the calling process and each
    other one by the first process to claim it, so a batch's genomes walk
    one history store together. The result is the same under any worker
    count. Raises RuntimeError when no genome of the generation scores a
    finite value."""
    matters = (objective.seeds_matter(genomes) if isinstance(objective, Objective)
               else np.ones(len(genomes), dtype=bool))
    keys = [(g.tobytes(), _eval_seed(run_seed, generation, i) if m else None)
            for i, (g, m) in enumerate(zip(genomes, matters))]
    todo: dict = {}
    for key, genome in zip(keys, genomes):
        if key not in fitness_of:
            todo.setdefault(key, genome)
    if todo:
        batch = np.array(list(todo.values()))
        batch_seeds = [0 if seed is None else seed for _, seed in todo]  # 0: the seed cannot matter
        size = -(-len(todo) // pool.workers)
        batches = [(batch[i:i + size], batch_seeds[i:i + size]) for i in range(0, len(todo), size)]
        values = [value for scores in pool.in_order(batches) for value in scores]
        fitness_of.update(zip(todo, values))
    fitness = np.array([fitness_of[key] for key in keys])
    if not np.isfinite(fitness).any():
        raise RuntimeError(f"generation {generation}: no genome scored a finite fitness")
    return fitness, len(todo)


def ga_run(cfg: GAConfig, objective, log_path=None, telemetry_path=None) -> GAResult:
    """Minimize `objective(genome, eval_seed)` with a real-valued GA.

    The (mu+lambda) scheme: tournament selection, blend crossover,
    per-gene gaussian mutation clamped to bounds; survivors are the best
    of parents plus offspring. Evaluation seeds derive from (seed,
    generation, index) so results are reproducible under any worker
    scheduling; a seed is drawn only for an evaluation it can change and
    for the best individual. One `WorkerPool` of `parallel_workers`
    processes, at most one per genome, serves the whole run, the calling
    process scoring the first batch of each generation and any batch no
    worker has claimed, and each distinct genome (with its seed, when that
    can matter) is evaluated once per run. Each generation's log line is
    also kept as one entry of the JSON list written to `telemetry_path`
    when the run ends, also when it fails.
    """
    rng = np.random.default_rng(cfg.seed)
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    n_genes = len(cfg.bounds)
    pop_size = cfg.population_size
    sigma = MUTATION_SIGMA_FRAC * (hi - lo)

    def origins(generation: int) -> np.ndarray:
        return np.column_stack([np.full(pop_size, generation), np.arange(pop_size)])

    population = rng.uniform(lo, hi, size=(pop_size, n_genes))
    pop_origins = origins(0)  # the (generation, index) each individual was born at

    fitness_of: dict = {}  # at most pop_size x (max_generations + 1) entries
    writer = None
    records: list[GenerationRecord] = []
    best_history: list[float] = []
    telemetry: list[dict] = []
    last_record = time.perf_counter()

    def record_generation(gen: int, scored: np.ndarray, n_evaluated: int):
        """Keep and log the population after scoring `scored`, the
        generation's new genomes, of which `n_evaluated` were simulated,
        with the time since the previous generation was recorded."""
        nonlocal last_record
        rec = GenerationRecord(gen, population.copy(), fitness.copy())
        records.append(rec)
        best_history.append(rec.best_fitness)
        if writer:
            writer.write(rec)
        # the middle of the sorted finite values: np.median would import numpy.ma (2 MB)
        finite = np.sort(rec.fitnesses[np.isfinite(rec.fitnesses)])
        median = (finite[(len(finite) - 1) // 2] + finite[len(finite) // 2]) / 2
        now = time.perf_counter()
        entry = {"generation": gen, "evaluated": n_evaluated,
                 "reused": len(scored) - n_evaluated, "failed": int(np.isinf(scored).sum()),
                 "best_fitness": rec.best_fitness, "median_fitness": float(median),
                 "seconds": now - last_record}
        log.info("generation %d: %d genomes evaluated, %d reused, %d failed (inf), "
                 "best fitness %r, median fitness %r, %.3f s", *entry.values())
        last_record = now
        telemetry.append(entry)

    with WorkerPool(min(cfg.parallel_workers, pop_size), _score_batch, objective) as pool:
        try:
            fitness, n_evaluated = _evaluate(objective, pool, fitness_of, population, cfg.seed, 0)
            writer = _GenerationLogWriter(log_path, n_genes) if log_path else None
            record_generation(0, fitness, n_evaluated)
            for gen in range(1, cfg.max_generations + 1):
                # tournament selection from the current population
                contenders = rng.integers(0, pop_size, size=(pop_size, TOURNAMENT_SIZE))
                winners = contenders[np.arange(pop_size), np.argmin(fitness[contenders], axis=1)]
                offspring = population[winners].copy()

                # blend crossover on consecutive pairs
                for a in range(0, pop_size - 1, 2):
                    if rng.random() < cfg.crossover_prob:
                        p1, p2 = offspring[a].copy(), offspring[a + 1].copy()
                        low = np.minimum(p1, p2)
                        high = np.maximum(p1, p2)
                        span = high - low
                        c_lo = low - BLEND_ALPHA * span
                        c_hi = high + BLEND_ALPHA * span
                        offspring[a] = rng.uniform(c_lo, c_hi)
                        offspring[a + 1] = rng.uniform(c_lo, c_hi)

                # per-gene gaussian mutation
                mask = rng.random(offspring.shape) < cfg.mutation_prob
                noise = rng.normal(0.0, 1.0, size=offspring.shape) * sigma
                offspring[mask] += noise[mask]
                np.clip(offspring, lo, hi, out=offspring)

                child_fitness, n_evaluated = _evaluate(objective, pool, fitness_of, offspring,
                                                       cfg.seed, gen)

                merged = np.vstack([population, offspring])
                merged_fit = np.concatenate([fitness, child_fitness])
                merged_origins = np.concatenate([pop_origins, origins(gen)])
                order = np.argsort(merged_fit, kind="stable")[:pop_size]
                population = merged[order]
                fitness = merged_fit[order]
                pop_origins = merged_origins[order]

                record_generation(gen, child_fitness, n_evaluated)

                if len(best_history) > cfg.stall_generations:
                    recent = best_history[-(cfg.stall_generations + 1)]
                    if recent - best_history[-1] < STALL_TOL:
                        log.info("fitness stalled after generation %d; stopping", gen)
                        break
        finally:
            if writer:
                writer.close()
            if telemetry_path:
                with open_new(telemetry_path) as fh:
                    json.dump(telemetry, fh, indent=1)

    best_idx = int(np.argmin(fitness))
    best = Individual(population[best_idx].copy(), float(fitness[best_idx]),
                      _eval_seed(cfg.seed, *pop_origins[best_idx]))
    return GAResult(best=best, generations=records)


# ---------------------------------------------------------------------------
# Forecast quality metrics


def forecast_error_metrics(simulated: dict[int, dict[str, float]],
                           observed: dict[int, dict[str, float]],
                           baseline: dict[str, float]) -> dict[str, dict]:
    """MAE, MASE and RMSE per generation type over a forecast horizon.

    The naive reference predicts the baseline (last pre-forecast) value
    for every year; MASE is the forecast MAE over the naive MAE and is
    reported as None when the naive MAE is zero. A type missing from a
    year's mix (or from the baseline) counts as a zero share, since new
    technologies can enter a trajectory partway through.
    """
    years = sorted(simulated)
    for y in years:
        if y not in observed:
            raise InputError(f"observed trajectory missing year {y}")
    types = sorted({t for y in years for t in simulated[y]}
                   | {t for y in years for t in observed[y]})
    out: dict[str, dict] = {}
    for t in types:
        sim = np.array([simulated[y].get(t, 0.0) for y in years])
        obs = np.array([observed[y].get(t, 0.0) for y in years])
        err = sim - obs
        mae = float(np.mean(np.abs(err)))
        rmse = float(np.sqrt(np.mean(err ** 2)))
        naive_mae = float(np.mean(np.abs(baseline.get(t, 0.0) - obs)))
        mase = (mae / naive_mae) if naive_mae > 0 else None
        out[t] = {"mae": mae, "mase": mase, "rmse": rmse}
    return out
