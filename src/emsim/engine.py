"""Simulation world and the yearly loop.

Each simulated year retires plants, dispatches every weighted
representative day, settles company accounts, lets companies invest and
brings finished construction online. Runs are deterministic for a fixed
seed. A `HistoryStore` simulates each distinct investment history of many
belief sets once.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .agents import (AppraisalPlan, Beliefs, Commitment, appraisal_plan, appraise,
                     candidate_menu, commit, commit_rule, invest_step)
from .ingest import CostTable, InputError, PlantRegistry, PowerPlant, ScenarioConfig
from .market import DayDispatch, annual_totals, dispatch_year, marginal_cost
from .repdays import RepresentativeYear

log = logging.getLogger(__name__)

# Grouping of plant types into the electricity-mix buckets used by the
# calibration objective (offshore and onshore both count as wind).
OBJECTIVE_BUCKETS = {
    "Offshore": "wind",
    "Onshore": "wind",
    "Nuclear": "nuclear",
    "PV": "solar",
    "CCGT": "CCGT",
    "Coal": "coal",
}
OBJECTIVE_TYPES = ("wind", "nuclear", "solar", "CCGT", "coal")


@dataclass
class Settlement:
    """One company's money movements in one year; funds_end is computed
    exactly as funds_start + delta so the ledger can be replayed."""

    funds_start: float
    market_revenue: float = 0.0
    subsidy: float = 0.0
    variable_cost: float = 0.0
    fixed_cost: float = 0.0
    capital_existing: float = 0.0
    capital_new: float = 0.0
    funds_end: float = 0.0

    @property
    def delta(self) -> float:
        return (self.market_revenue + self.subsidy - self.variable_cost
                - self.fixed_cost - self.capital_existing - self.capital_new)


@dataclass
class YearResult:
    year: int
    energy_mwh: dict[str, float]        # plant type -> MWh served
    mix: dict[str, float]               # plant type -> share of served energy
    unserved_mwh: float
    settlements: dict[str, Settlement]  # genco id -> money movements
    plant_ids: list[str]                # operating plants, in dispatch column order
    bid_prices: list[float]             # each operating plant's bid
    days: tuple[DayDispatch, ...]       # every representative day's clearings
    investments: list = field(default_factory=list)      # committed this year
    investment_log: list = field(default_factory=list)   # every candidate evaluated
    retired: list[str] = field(default_factory=list)
    activated: list[str] = field(default_factory=list)

    @property
    def n_clearings(self) -> int:
        return sum(len(day.clearings) for day in self.days)

    @property
    def prices(self) -> np.ndarray:
        """Clearing price per representative hour."""
        return np.concatenate([day.clearings for day in self.days])

    def objective_mix(self) -> dict[str, float]:
        """Served-energy shares grouped into the five objective buckets."""
        out = {t: 0.0 for t in OBJECTIVE_TYPES}
        for ptype, share in self.mix.items():
            bucket = OBJECTIVE_BUCKETS.get(ptype)
            if bucket is not None:
                out[bucket] += share
        return out


class PlanStore:
    """Each commit year's appraisal plan and each distinct cost row's
    bids under one scenario, representative year and cost table.

    Neither takes anything from the belief curves or the nuclear subsidy,
    so worlds that differ only there share them; the worlds that share a
    store also share its scenario's cost inputs. A bid row holds
    `marginal_cost` of one (type, efficiency, variable O&M) for every
    scenario year, so a bid read from it has the bits of `srmc`.
    """

    def __init__(self, scenario: ScenarioConfig, rep_year: RepresentativeYear,
                 cost_table: CostTable):
        self.scenario = scenario
        self.rep_year = rep_year
        self.cost_table = cost_table
        self._plans: dict[int, AppraisalPlan] = {}
        self._bids: dict[tuple, list[float]] = {}

    def plan(self, year: int) -> AppraisalPlan:
        """The plan of the year's candidate menu, built once per year:
        `appraisal_plan(candidate_menu(cost_table, year), rep_year,
        scenario, year)`, whose `menu` is that menu."""
        plan = self._plans.get(year)
        if plan is None:
            plan = self._plans[year] = appraisal_plan(
                candidate_menu(self.cost_table, year), self.rep_year, self.scenario, year)
        return plan

    def bids(self, plants: list[PowerPlant], year: int) -> list[float]:
        """Each plant's short-run marginal cost in `year`, in plant order."""
        scenario = self.scenario
        column = year - scenario.start_year
        bids = []
        for plant in plants:
            key = (plant.plant_type, plant.costs.efficiency, plant.costs.variable_om)
            row = self._bids.get(key)
            if row is None:
                years = np.arange(scenario.start_year, scenario.end_year + 1)
                row = self._bids[key] = np.broadcast_to(
                    marginal_cost(*key, scenario, years), years.shape).tolist()
            bids.append(row[column])
        return bids


@dataclass
class World:
    """A simulated year's state. Its lists only grow: `close_year` rebinds
    them and `funds`, so a copy of a world shares what it held."""

    year: int
    scenario: ScenarioConfig
    rep_year: RepresentativeYear
    plants: list[PowerPlant]            # every plant that entered, in entry order
    lives: list[tuple[int, int]]        # each plant's operating years [first, end)
    funds: dict[str, float]             # genco id -> funds, the one ledger
    plans: PlanStore
    nuclear_subsidy: float              # per nuclear MWh, paid and believed
    commitments: list[Commitment] = field(default_factory=list)  # every one made
    seed: int = 0

    def operating_plants(self) -> list[PowerPlant]:
        return [p for p, (first, end) in zip(self.plants, self.lives)
                if first <= self.year < end]


def _life(plant: PowerPlant, first: int, scenario: ScenarioConfig) -> tuple[int, int]:
    """The operating years [first, end) of `plant` entering a world in year
    `first`: it retires at the first year from `first` on at which its
    age (year - construction_year) reaches its operating period, or at
    which a scheduled retirement names it."""
    aged = plant.construction_year + math.ceil(plant.costs.operating_period)
    return first, min([max(first, aged)] + [y for pid, y in scenario.scheduled_retirements
                                            if pid == plant.plant_id and y >= first])


def init_world(scenario: ScenarioConfig, registry: PlantRegistry,
               rep_year: RepresentativeYear, cost_table: CostTable,
               seed: int | None = None, plans: PlanStore | None = None) -> World:
    """Build a world at the scenario's start year.

    Registry plants start operating, in plant id order, except those
    already past their operating period, which are logged and left out;
    so the registry's row order changes nothing. The world pays and believes the
    scenario's nuclear subsidy. Worlds handed the same `plans` (built on
    a scenario that differs only in beliefs and nuclear subsidy, and on
    the same representative year and cost table) share their appraisal
    plans and bids; by default a world builds its own.
    A registry plant built after the start year is an InputError.
    """
    year = scenario.start_year
    plants = []
    for plant in sorted(registry.plants, key=lambda p: p.plant_id):
        if plant.owner_id not in registry.funds:
            raise InputError(f"plant '{plant.plant_id}' has owner '{plant.owner_id}', "
                             "which has no funds entry")
        if plant.construction_year > year:
            raise InputError(f"plant '{plant.plant_id}' is built in {plant.construction_year}, "
                             f"after the start year {year}")
        if year - plant.construction_year >= plant.costs.operating_period:
            log.info("plant %s already past operating period at init; retired", plant.plant_id)
        else:
            plants.append(plant)
    for pid, _ in scenario.scheduled_retirements:
        if pid not in {p.plant_id for p in registry.plants}:
            raise InputError(f"scheduled retirement names unknown plant '{pid}'")
    return World(
        year=year,
        scenario=scenario,
        rep_year=rep_year,
        plants=plants,
        lives=[_life(plant, year, scenario) for plant in plants],
        funds=dict(registry.funds),
        seed=scenario.rng_seed if seed is None else seed,
        plans=PlanStore(scenario, rep_year, cost_table) if plans is None else plans,
        nuclear_subsidy=scenario.nuclear_subsidy,
    )


def _mix(plants: list[PowerPlant], energy: list[float]):
    """Served energy per plant type and each type's share of the total
    (no shares when nothing was served)."""
    by_type: dict[str, float] = {}
    for plant, mwh in zip(plants, energy):
        by_type[plant.plant_type] = by_type.get(plant.plant_type, 0.0) + mwh
    total = sum(by_type.values())
    return by_type, ({t: e / total for t, e in by_type.items()} if total > 0 else {})


def open_year(world: World) -> YearResult:
    """The open phase of the world's year, which changes nothing on the
    world: dispatch every representative day over the plants operating
    this year and settle the year's revenues and costs. The result holds
    the plants retired this year and each company's settlement before it
    invests, and no investments or activations yet."""
    year = world.year
    scenario = world.scenario
    if not scenario.start_year <= year <= scenario.end_year:
        raise InputError(f"scenario does not cover year {year}")

    retired = [p.plant_id for p, (_, end) in zip(world.plants, world.lives) if end == year]
    operating = world.operating_plants()
    costs = world.plans.bids(operating, year)
    days = tuple(dispatch_year(operating, costs, world.rep_year, scenario.price_cap,
                               scenario.demand_scale_at(year)))
    energy, revenue, subsidy, unserved = annual_totals(operating, days, world.nuclear_subsidy)

    # settle, in sorted company order; each company's sums follow fleet order
    settlements = {gid: Settlement(funds_start=world.funds[gid]) for gid in sorted(world.funds)}
    for i, plant in enumerate(operating):
        s = settlements[plant.owner_id]
        s.market_revenue += revenue[i]
        s.subsidy += subsidy[i]
        s.variable_cost += energy[i] * costs[i]
        s.fixed_cost += plant.costs.fixed_om * plant.capacity_mw
    for c in world.commitments:
        if c.committed_year < year < c.committed_year + c.tranches:
            settlements[c.plant.owner_id].capital_existing += c.tranche

    energy_by_type, mix = _mix(operating, energy)
    return YearResult(year=year, energy_mwh=energy_by_type, mix=mix, unserved_mwh=unserved,
                      settlements=settlements,
                      plant_ids=[p.plant_id for p in operating], bid_prices=costs,
                      days=days, retired=retired)


def close_year(world: World, settlements: dict[str, Settlement],
               commitments: list[Commitment]) -> list[str]:
    """The close phase of the world's year: take on `commitments` (each
    owner's settlement pays its first tranche, and each plant operates
    from the year after its last), write every company's funds_end and
    advance the calendar. Returns the ids of the plants that start
    operating in the new year."""
    for c in commitments:
        settlements[c.plant.owner_id].capital_new += c.tranche
    world.commitments = world.commitments + commitments
    world.plants = world.plants + [c.plant for c in commitments]
    world.lives = world.lives + [_life(c.plant, c.committed_year + c.tranches, world.scenario)
                                 for c in commitments]
    # funds change only here, so funds_end == funds_start + delta exactly
    for s in settlements.values():
        s.funds_end = s.funds_start + s.delta
    world.funds = {gid: s.funds_end for gid, s in settlements.items()}
    world.year += 1
    return [p.plant_id for p, (first, _) in zip(world.plants, world.lives)
            if first == world.year]


def npv_table(plans: PlanStore, beliefs: Beliefs, subsidies, companies: int,
              years) -> tuple[dict[int, np.ndarray], dict[int, Exception]]:
    """The NPVs of each year's candidate menu (`plans.plan(year).menu`)
    under the beliefs of each genome's `companies` GenCos and its nuclear
    subsidy (`subsidies[g]`): a (genomes, companies, candidates) array per
    year, and each failed genome's error, by genome index.

    The genomes of one subsidy form a group; every distinct belief set of
    a group and year is appraised once, in one stacked `appraise` call, so
    a genome's rows have the bits of its appraisal alone. When a year's
    appraisal raises, each genome is appraised alone in that year: a genome
    whose appraisal raises keeps the first error it raised, and NaN rows.
    An InputError propagates."""
    subsidies = np.asarray(subsidies, dtype=float)
    table, errors = {}, {}
    for year in years:
        plan = plans.plan(year)
        try:
            table[year] = _appraised(plan, beliefs, subsidies, companies, year)
        except InputError:
            raise
        except Exception:
            npvs = table[year] = np.full((len(subsidies), companies, len(plan.menu)), np.nan)
            for g in range(len(subsidies)):
                try:
                    [npvs[g]] = _appraised(plan, beliefs.take([g]), subsidies[[g]], companies,
                                           year)
                except InputError:
                    raise
                except Exception as exc:
                    errors.setdefault(g, exc)
    return table, errors


def _appraised(plan: AppraisalPlan, beliefs: Beliefs, subsidies: np.ndarray, companies: int,
               year: int) -> np.ndarray:
    """`npv_table`'s array of one year."""
    stack = beliefs.stack(year, plan.horizon, companies)
    sets = stack.reshape(-1, *stack.shape[2:])
    groups: dict[bytes, list[int]] = {}
    for g, subsidy in enumerate(subsidies):
        groups.setdefault(subsidy.tobytes(), []).extend(range(g * companies, (g + 1) * companies))
    npvs = np.empty((len(sets), len(plan.menu)))
    for rows in groups.values():
        index: dict[bytes, int] = {}
        inverse = [index.setdefault(sets[r].tobytes(), len(index)) for r in rows]
        distinct = sets[np.array(rows)[np.unique(inverse, return_index=True)[1]]]
        npvs[rows] = appraise(plan, distinct, subsidies[rows[0] // companies])[inverse]
    return npvs.reshape(*stack.shape[:2], len(plan.menu))


def step_year(world: World) -> YearResult:
    """Advance the world by one year: `open_year`, the year's `npv_table`
    under the world's own scenario, seed and nuclear subsidy, `invest_step`
    for each company (except in the final scenario year), then
    `close_year`."""
    result = open_year(world)
    year = result.year
    if year < world.scenario.end_year:
        table, errors = npv_table(world.plans, Beliefs.of(world.scenario, world.seed),
                                  [world.nuclear_subsidy], len(result.settlements), [year])
        if errors:
            raise errors[0]
        plan = world.plans.plan(year)
        for (gid, s), row in zip(result.settlements.items(), table[year][0].tolist()):
            commitment, evaluations = invest_step(gid, s.funds_start + s.delta, year, plan, row)
            result.investment_log.extend(evaluations)
            if commitment is not None:
                result.investments.append(commitment)
    result.activated = close_year(world, result.settlements, result.investments)
    return result


def run(world: World, sink) -> None:
    """Simulate from the world's year through the scenario's end year,
    handing each YearResult to `sink` as soon as it is complete; nothing
    else keeps it."""
    while world.year <= world.scenario.end_year:
        sink(step_year(world))


# A HistoryStore empties once its nodes take more than MAX_HELD_SLOTS
# slots. A node takes one slot per plant its world lists and NODE_SLOTS for
# the rest of what it holds; a slot is about 50 bytes, so the store stays
# near 5 MB whatever the fleet size.
MAX_HELD_SLOTS = 100_000
NODE_SLOTS = 40


class _Node:
    """One simulated year of one investment history after its open
    phase: the world, each company's pre-invest settlement and the funds
    it invests from, the year's objective mix, and the next year's node
    under each edge."""

    __slots__ = ("world", "settlements", "funds", "mix", "children")

    def __init__(self, world: World):
        result = open_year(world)
        self.world = world
        self.settlements = result.settlements
        self.funds = np.array([s.funds_start + s.delta for s in result.settlements.values()])
        self.mix = result.objective_mix()
        self.children: dict[tuple[int, ...], _Node] = {}


class HistoryStore:
    """Every investment history simulated from one set of gene-free
    inputs, fixed when the store is built, as a tree of years, so that
    each history is simulated once however many genomes follow it.

    The root is the start year after its open phase. Each company's
    committed candidate in a year (its menu index, or -1 for none) forms
    an edge, and the edge's child is the next year after closing the
    node with those commitments and opening that year. A batch of
    genomes walks the tree together, with the NPVs `npv_table` gives it
    (`npvs`): at each node `commit_rule` sends the genomes that reached
    it on along their edges, and only the years that no earlier walk
    reached are simulated. A node holds no dispatch arrays.

    The store holds a root for each nuclear subsidy walked, keyed by the
    bits of the subsidy its world pays. Once its nodes take more than
    MAX_HELD_SLOTS slots the store empties; its `plans` are kept. A
    pickled copy starts empty.
    """

    def __init__(self, scenario: ScenarioConfig, registry: PlantRegistry,
                 rep_year: RepresentativeYear, cost_table: CostTable):
        self.inputs = (scenario, registry, rep_year, cost_table)
        self.plans = PlanStore(scenario, rep_year, cost_table)
        self._clear()

    def __reduce__(self):
        return HistoryStore, self.inputs

    def __len__(self) -> int:
        """The number of nodes held."""
        return self._nodes

    def _clear(self) -> None:
        self._roots: dict[bytes, _Node] = {}
        self._nodes = self.slots_held = 0

    def _hold(self, node: _Node) -> None:
        self._nodes += 1
        self.slots_held += len(node.world.plants) + NODE_SLOTS
        if self.slots_held > MAX_HELD_SLOTS:
            self._clear()

    def mixes(self, beliefs_from: ScenarioConfig, seed: int) -> dict[int, dict[str, float]]:
        """Each simulated year's `objective_mix()`, as `run` gives them from
        `init_world(beliefs_from, registry, rep_year, cost_table, seed)`,
        where `beliefs_from` differs from the store's scenario only in
        beliefs and nuclear subsidy: `walk`'s one-genome case, raising its
        error (the appraisal's, when `npvs` failed the genome)."""
        subsidies = np.array([beliefs_from.nuclear_subsidy])
        npvs, failed = self.npvs(Beliefs.of(beliefs_from, seed), subsidies)
        [path] = self.walk(npvs, subsidies, failed)
        if isinstance(path, Exception):
            raise path
        return dict(zip(beliefs_from.years(), path))

    def npvs(self, beliefs: Beliefs, subsidies) -> tuple[dict[int, np.ndarray], dict]:
        """`npv_table` of every year the store's worlds decide, for the
        store's companies: what `walk` takes."""
        scenario, registry = self.inputs[:2]
        return npv_table(self.plans, beliefs, subsidies, len(registry.funds),
                         range(scenario.start_year, scenario.end_year))

    def walk(self, npvs: dict[int, np.ndarray], subsidies, failed: dict) -> list:
        """Each genome's `objective_mix()` of every simulated year, in year
        order, as `run` gives them under the store's inputs with the
        genome's NPVs (`npvs[year][g]`) and nuclear subsidy (`subsidies[g]`,
        which must be finite), or, for a genome of `failed` (a dict of
        errors by genome index, as `npvs` gives it), its error: such a
        genome is not walked. The genomes of one subsidy share a root;
        groups walk one after another, in the order of their first genome.

        Each step takes the genomes at one node: it builds the node (a
        group's root, or a node's child under an edge) unless the store
        holds it, appends its mix to their paths and applies `commit_rule`.
        A node built is attached unless the store emptied during the walk.
        When a step raises, its genomes get the exception in place of
        their mixes and no node is attached; an InputError propagates."""
        subsidies = np.asarray(subsidies, dtype=float)
        bad = subsidies[~np.isfinite(subsidies)]
        if len(bad):
            raise InputError(f"nuclear_subsidy must be finite (got {float(bad[0])!r})")
        scenario = self.inputs[0]
        paths: list = [failed.get(g, []) for g in range(len(subsidies))]
        groups: dict[bytes, list[int]] = {}
        for g, subsidy in enumerate(subsidies):
            if g not in failed:
                groups.setdefault(subsidy.tobytes(), []).append(g)
        roots = self._roots
        # (parent node, or None for a root; edge, or the root's subsidy bits; genomes)
        todo = [(None, key, np.array(g)) for key, g in reversed(groups.items())]
        while todo:
            parent, edge, members = todo.pop()
            try:
                children = roots if parent is None else parent.children
                node = children.get(edge)
                if node is None:
                    node = (self._root_for(subsidies[members[0]]) if parent is None
                            else self._child(parent, edge))
                    if self._roots is roots:  # the store did not empty during this walk
                        children[edge] = node
                        self._hold(node)
                for g in members:
                    paths[g].append(node.mix)
                year = node.world.year
                if year >= scenario.end_year:
                    continue
                best, affordable = commit_rule(node.funds, self.plans.plan(year).tranche,
                                               npvs[year][members])
            except InputError:
                raise
            except Exception as exc:
                for g in members:
                    paths[g] = exc
                continue
            edges: dict[tuple[int, ...], list[int]] = {}
            for i, edge in enumerate(np.where(affordable, best, -1).tolist()):
                edges.setdefault(tuple(edge), []).append(i)
            todo.extend((node, edge, members[on]) for edge, on in edges.items())
        return paths

    def _root_for(self, subsidy: np.float64) -> _Node:
        """A new root whose world pays `subsidy`."""
        world = init_world(*self.inputs, plans=self.plans)
        world.nuclear_subsidy = float(subsidy)
        return _Node(world)

    @staticmethod
    def _child(node: _Node, edge: tuple[int, ...]) -> _Node:
        """The node after `node` under `edge`. The new world shares the
        parent's plants and commitments, which never change; it gets
        copies of the settlements, which the close phase completes."""
        parent = node.world
        menu = parent.plans.plan(parent.year).menu
        world = replace(parent)
        settlements = {gid: copy.copy(s) for gid, s in node.settlements.items()}
        close_year(world, settlements, [commit(gid, parent.year, menu[index])
                                        for gid, index in zip(settlements, edge) if index >= 0])
        return _Node(world)

