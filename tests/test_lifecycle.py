"""Plant lives and capital schedules against the state machine they replace.

`ReferenceLifecycle` keeps the earlier engine's lifecycle: a status per
plant, held in a dict of its own, a countdown of tranches per commitment
and an activation loop that brings finished construction online. Seeded
worlds drive it and the engine's fixed operating years side by side.
"""

import copy

import numpy as np
import pytest

from emsim.agents import InvestmentCandidate, commit
from emsim.engine import close_year, init_world, open_year
from emsim.ingest import PlantRegistry, ScenarioConfig
from toys import flat_rep_year, invest_cost_table, make_plant, simple_costs

GENCOS = ("g1", "g2", "g3")
TYPES = ("CCGT", "Coal", "Nuclear")
PERIODS = (3, 7.3, 10, 12.5, 20)


class ReferenceLifecycle:
    """The lifecycle as a status field, a tranche countdown and an
    activation loop, over the same plants and commitments as a world."""

    def __init__(self, scenario: ScenarioConfig, registry: PlantRegistry):
        self.scenario = scenario
        self.plants = sorted(registry.plants, key=lambda p: p.plant_id)
        self.status = {}  # index in self.plants -> operating | under_construction | retired
        for i, plant in enumerate(self.plants):
            aged = scenario.start_year - plant.construction_year >= plant.costs.operating_period
            self.status[i] = "retired" if aged else "operating"
        self.building = []  # [commitment, plant index, online year, tranches left]

    def open(self, year):
        """Retire, then pay one tranche of every commitment that owes one:
        the retired ids, the operating ids and each owner's capital_existing."""
        retired = []
        scheduled = {pid for pid, y in self.scenario.scheduled_retirements if y == year}
        for i, plant in enumerate(self.plants):
            if self.status[i] != "operating":
                continue
            if (plant.plant_id in scheduled
                    or year - plant.construction_year >= plant.costs.operating_period):
                self.status[i] = "retired"
                retired.append(plant.plant_id)
        operating = [p.plant_id for i, p in enumerate(self.plants) if self.status[i] == "operating"]
        capital = dict.fromkeys(GENCOS, 0.0)
        for entry in self.building:
            if entry[3] > 0:
                capital[entry[0].plant.owner_id] += entry[0].tranche
                entry[3] -= 1
        return retired, operating, capital

    def close(self, year, commitments):
        """Take on `commitments` and bring finished construction online:
        each owner's capital_new and the activated ids."""
        capital = dict.fromkeys(GENCOS, 0.0)
        for c in commitments:
            capital[c.plant.owner_id] += c.tranche
            self.status[len(self.plants)] = "under_construction"
            self.building.append([c, len(self.plants), c.plant.construction_year, c.tranches - 1])
            self.plants.append(c.plant)
        building, activated = [], []
        for entry in self.building:
            if entry[2] <= year + 1 and entry[3] == 0:
                self.status[entry[1]] = "operating"
                activated.append(entry[0].plant.plant_id)
            else:
                building.append(entry)
        self.building = building
        return capital, activated


def lifecycle_world(seed):
    """A seeded scenario, registry and commitments by year: registry plants
    near the end of their (partly non-integer) operating periods, scheduled
    retirements at the start year, inside the run and after its end, and
    commitments with lead times of 0 to 6 years made in different years."""
    rng = np.random.default_rng(seed)
    start = 2020
    end = start + int(rng.integers(5, 12))
    years = range(start, end + 1)
    plan = {}
    for year in years:
        for gid in GENCOS:
            if rng.random() < 0.4:
                lead, op = int(rng.integers(0, 7)), float(rng.choice((0, 1, 2.5, 4, 30)))
                predev = lead * float(rng.uniform(0.0, 1.0))
                costs = simple_costs(operating_period=op, predev_period=predev,
                                     construction_period=lead - predev,
                                     construction_cost=float(rng.uniform(1e3, 1e5)))
                plan.setdefault(year, []).append(
                    commit(gid, year, InvestmentCandidate(str(rng.choice(TYPES)), 100.0, costs)))
    plants = []
    for i in range(int(rng.integers(5, 31))):
        op = float(rng.choice(PERIODS))
        built = min(start, start - int(op) + int(rng.integers(-2, 4)))
        plants.append(make_plant(f"r{i:02d}", str(rng.choice(GENCOS)), str(rng.choice(TYPES)),
                                 float(rng.uniform(50.0, 500.0)), built,
                                 simple_costs(operating_period=op)))
    committed = [c.plant for cs in plan.values() for c in cs]
    if seed % 4 == 0 and committed:
        # a registry plant that shares its id with a later commitment's plant:
        # a scheduled retirement of that id retires both
        twin = committed[int(rng.integers(len(committed)))]
        plants[0] = make_plant(twin.plant_id, plants[0].owner_id, plants[0].plant_type,
                               plants[0].capacity_mw, plants[0].construction_year,
                               plants[0].costs)
    ids = [p.plant_id for p in plants]
    retirements = [(str(rng.choice(ids)), start),
                   (str(rng.choice(ids)), int(rng.integers(start + 1, end + 1))),
                   (str(rng.choice(ids)), int(rng.integers(end + 1, end + 4)))]
    retirements += [(ids[0], int(rng.integers(start, end + 1))) for _ in range(2)]
    scenario = ScenarioConfig(start_year=start, end_year=end,
                              carbon_price={y: 0.0 for y in years},
                              scheduled_retirements=tuple(retirements))
    registry = PlantRegistry(plants=tuple(plants), funds=dict.fromkeys(GENCOS, 1e9))
    return scenario, registry, plan


@pytest.mark.parametrize("seed", range(20))
def test_fixed_lives_equal_the_status_lifecycle(seed):
    scenario, registry, plan = lifecycle_world(seed)
    world = init_world(scenario, registry, flat_rep_year(2000.0), invest_cost_table())
    reference = ReferenceLifecycle(scenario, registry)
    retired_any = activated_any = 0
    for year in scenario.years():
        result = open_year(world)
        activated = close_year(world, result.settlements, plan.get(year, []))
        retired, operating, existing = reference.open(year)
        new, expected_activated = reference.close(year, plan.get(year, []))
        assert result.plant_ids == operating
        assert result.retired == retired
        assert activated == expected_activated
        assert {gid: s.capital_existing for gid, s in result.settlements.items()} == existing
        assert {gid: s.capital_new for gid, s in result.settlements.items()} == new
        retired_any += len(retired)
        activated_any += len(activated)
    assert retired_any and activated_any


def world_state(world):
    """Everything a world holds that a year can change, as a deep copy."""
    return copy.deepcopy((world.year, world.plants, world.lives, world.funds,
                          world.commitments, world.nuclear_subsidy, world.seed))


@pytest.mark.parametrize("seed", range(4))
def test_open_year_leaves_its_world_unchanged(seed):
    scenario, registry, plan = lifecycle_world(seed)
    world = init_world(scenario, registry, flat_rep_year(2000.0), invest_cost_table())
    for year in scenario.years():
        before = world_state(world)
        result = open_year(world)
        assert world_state(world) == before
        close_year(world, result.settlements, plan.get(year, []))
