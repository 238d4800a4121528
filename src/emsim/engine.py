"""Simulation world and the yearly loop.

Each simulated year retires plants, dispatches every weighted
representative day, settles company accounts, lets companies invest and
brings finished construction online. Runs are deterministic for a fixed
seed.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field

import numpy as np

from .agents import (AppraisalPlan, Commitment, appraisal_plan, appraise, belief_curves,
                     candidate_menu, invest_step)
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
    funds: dict[str, float]             # genco id -> funds at year end
    plant_ids: list[str]                # operating plants, in dispatch column order
    bid_prices: list[float]             # each operating plant's bid
    days: tuple[DayDispatch, ...]       # every representative day's clearings (read-only)
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


class DispatchStore:
    """The last dispatch cleared in each simulated year, with its inputs.

    A year reuses its stored days and annual totals when every input
    equals the stored one: each operating plant's id, type and capacity
    in column order, the bids, the demand scale, the price cap and the
    nuclear subsidy (numbers bit for bit), and the same representative
    year object, which the entry holds. Otherwise the market is cleared
    and the entry replaced. With one entry per year the store never holds
    more than one trajectory, and it holds only tuples and read-only
    arrays, so a reused result cannot be changed. Worlds sharing a store
    also share its `plans`. A pickled copy starts empty.
    """

    def __init__(self):
        self._last: dict[int, tuple] = {}
        self.plans = PlanStore()

    def __len__(self) -> int:
        return len(self._last)

    def __reduce__(self):
        return DispatchStore, ()

    def dispatch(self, year: int, plants: list[PowerPlant], costs: list[float],
                 rep_year: RepresentativeYear, scenario: ScenarioConfig):
        """`dispatch_year`'s days and `annual_totals`' result for the inputs."""
        price_cap, demand_scale = scenario.price_cap, scenario.demand_scale_at(year)
        nuclear_subsidy = scenario.nuclear_subsidy
        key = (tuple((p.plant_id, p.plant_type) for p in plants),
               np.array([p.capacity_mw for p in plants] + list(costs)
                        + [demand_scale, price_cap, nuclear_subsidy], dtype=float).tobytes())
        last = self._last.get(year)
        if last is not None and last[0] == key and last[1] is rep_year:
            return last[2], last[3]
        days = tuple(dispatch_year(plants, costs, rep_year, price_cap, demand_scale))
        for day in days:
            for array in (day.clearings, day.dispatch, day.unserved):
                array.flags.writeable = False
        energy, revenue, subsidy, unserved = annual_totals(plants, days, nuclear_subsidy)
        totals = (tuple(energy), tuple(revenue), tuple(subsidy), unserved)
        self._last[year] = (key, rep_year, days, totals)
        return days, totals


class PlanStore:
    """Each commit year's appraisal plan and each distinct cost row's
    bids, kept for as long as the scenario's `cost_inputs` stay equal.

    Neither takes anything from the belief curves or the nuclear subsidy,
    so worlds that differ only there share them. Asked with a scenario
    whose cost inputs differ from the last one's, the store empties
    first; a plan is also rebuilt when its year's menu or representative
    year is another object. A bid row holds `marginal_cost` of one
    (type, efficiency, variable O&M) for every scenario year, so a bid
    read from it has the bits of `srmc`.
    """

    def __init__(self):
        self._scenario = None
        self._inputs = None
        self._plans: dict[int, tuple] = {}
        self._bids: dict[tuple, list[float]] = {}

    def _use(self, scenario: ScenarioConfig) -> None:
        if scenario is self._scenario:
            return
        inputs = scenario.cost_inputs()
        if inputs != self._inputs:
            self._plans.clear()
            self._bids.clear()
            self._inputs = inputs
        self._scenario = scenario

    def plan(self, menu, rep_year: RepresentativeYear, scenario: ScenarioConfig,
             year: int) -> AppraisalPlan:
        """`appraisal_plan(menu, rep_year, scenario, year)`."""
        self._use(scenario)
        entry = self._plans.get(year)
        if entry is None or entry[0] is not menu or entry[1] is not rep_year:
            entry = self._plans[year] = (menu, rep_year,
                                         appraisal_plan(menu, rep_year, scenario, year))
        return entry[2]

    def bids(self, plants: list[PowerPlant], scenario: ScenarioConfig, year: int) -> list[float]:
        """Each plant's short-run marginal cost in `year`, in plant order."""
        self._use(scenario)
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
    year: int
    scenario: ScenarioConfig
    rep_year: RepresentativeYear
    cost_table: CostTable
    plants: list[PowerPlant]
    funds: dict[str, float]             # genco id -> funds, the one ledger
    dispatch_store: DispatchStore | None  # None: every year clears afresh
    plans: PlanStore
    commitments: list[Commitment] = field(default_factory=list)
    seed: int = 0

    def operating_plants(self) -> list[PowerPlant]:
        return [p for p in self.plants if p.status == "operating"]


def init_world(scenario: ScenarioConfig, registry: PlantRegistry,
               rep_year: RepresentativeYear, cost_table: CostTable,
               seed: int | None = None, store: DispatchStore | None = None) -> World:
    """Build a world at the scenario's start year.

    Registry plants start operating except those already past their
    operating period, which retire immediately. The registry itself is
    never mutated: the world works on copies. Worlds handed the same
    `store` reuse each other's dispatches; by default a world keeps no
    year's dispatch once the year is stepped, and builds its own
    appraisal plans and bids.
    """
    plants = [copy.copy(p) for p in registry.plants]
    year = scenario.start_year
    for plant in plants:
        if plant.owner_id not in registry.funds:
            raise InputError(f"plant '{plant.plant_id}' has owner '{plant.owner_id}', "
                             "which has no funds entry")
        plant.status = "operating"
        if year - plant.construction_year >= plant.costs.operating_period:
            plant.status = "retired"
            log.info("plant %s already past operating period at init; retired", plant.plant_id)
    for pid, _ in scenario.scheduled_retirements:
        if pid not in {p.plant_id for p in plants}:
            raise InputError(f"scheduled retirement names unknown plant '{pid}'")
    return World(
        year=year,
        scenario=scenario,
        rep_year=rep_year,
        cost_table=cost_table,
        plants=plants,
        funds=dict(registry.funds),
        seed=scenario.rng_seed if seed is None else seed,
        dispatch_store=store,
        plans=PlanStore() if store is None else store.plans,
    )


def _mix(plants: list[PowerPlant], energy: list[float]):
    """Served energy per plant type and each type's share of the total
    (no shares when nothing was served)."""
    by_type: dict[str, float] = {}
    for plant, mwh in zip(plants, energy):
        by_type[plant.plant_type] = by_type.get(plant.plant_type, 0.0) + mwh
    total = sum(by_type.values())
    return by_type, ({t: e / total for t, e in by_type.items()} if total > 0 else {})


def step_year(world: World) -> YearResult:
    """Advance the world by one year.

    Phases: retire (scheduled and aged-out) -> dispatch representative
    days -> settle revenues and costs -> invest (except in the final
    scenario year) -> activate finished construction -> advance the
    calendar.
    """
    year = world.year
    scenario = world.scenario
    if not scenario.start_year <= year <= scenario.end_year:
        raise InputError(f"scenario does not cover year {year}")

    # 1. retirements
    retired = []
    scheduled = {pid for pid, y in scenario.scheduled_retirements if y == year}
    for plant in world.plants:
        if plant.status != "operating":
            continue
        if plant.plant_id in scheduled or year - plant.construction_year >= plant.costs.operating_period:
            plant.status = "retired"
            retired.append(plant.plant_id)

    # 2. dispatch
    operating = world.operating_plants()
    costs = world.plans.bids(operating, scenario, year)
    store = DispatchStore() if world.dispatch_store is None else world.dispatch_store
    days, (energy, revenue, subsidy, unserved) = store.dispatch(
        year, operating, costs, world.rep_year, scenario)

    # 3. settle, in sorted company order; each company's sums follow fleet order
    settlements = {gid: Settlement(funds_start=world.funds[gid]) for gid in sorted(world.funds)}
    for i, plant in enumerate(operating):
        s = settlements[plant.owner_id]
        s.market_revenue += revenue[i]
        s.subsidy += subsidy[i]
        s.variable_cost += energy[i] * costs[i]
        s.fixed_cost += plant.costs.fixed_om * plant.capacity_mw
    for commitment in world.commitments:
        if commitment.tranches_left > 0:
            settlements[commitment.plant.owner_id].capital_existing += commitment.tranche
            commitment.tranches_left -= 1

    # 4. invest (the final simulated year makes no new commitments)
    investments = []
    investment_log = []
    if year < scenario.end_year:
        menu = candidate_menu(world.cost_table, year)
        plan = world.plans.plan(menu, world.rep_year, scenario, year)
        npvs_of: dict[bytes, list[float]] = {}  # one appraisal per distinct belief set
        for index, (gid, s) in enumerate(settlements.items()):
            beliefs = belief_curves(scenario, world.seed, index, year, plan.horizon)
            key = beliefs.tobytes()
            if key not in npvs_of:
                npvs_of[key] = appraise(plan, beliefs, scenario.nuclear_subsidy)
            commitment, evaluations = invest_step(
                gid, s.funds_start + s.delta, year, menu, npvs_of[key])
            investment_log.extend(evaluations)
            if commitment is not None:
                s.capital_new += commitment.tranche
                world.commitments.append(commitment)
                world.plants.append(commitment.plant)
                investments.append(commitment)
    # funds change only here, so funds_end == funds_start + delta exactly
    for gid, s in settlements.items():
        s.funds_end = world.funds[gid] = s.funds_start + s.delta

    # 5. activate finished construction
    building = []
    activated = []
    for commitment in world.commitments:
        if commitment.online_year <= year + 1 and commitment.tranches_left == 0:
            commitment.plant.status = "operating"
            activated.append(commitment.plant.plant_id)
        else:
            building.append(commitment)
    world.commitments = building

    # 6. advance
    world.year = year + 1

    energy_by_type, mix = _mix(operating, energy)
    return YearResult(
        year=year,
        energy_mwh=energy_by_type,
        mix=mix,
        unserved_mwh=unserved,
        settlements=settlements,
        funds={gid: s.funds_end for gid, s in settlements.items()},
        plant_ids=[p.plant_id for p in operating],
        bid_prices=costs,
        days=days,
        investments=investments,
        investment_log=investment_log,
        retired=retired,
        activated=activated,
    )


def run(world: World, sink) -> None:
    """Simulate from the world's year through the scenario's end year,
    handing each YearResult to `sink` as soon as it is complete; nothing
    else keeps it."""
    while world.year <= world.scenario.end_year:
        sink(step_year(world))
