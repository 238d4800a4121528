"""World lifecycle, settlement and yearly-loop tests."""

import copy
import pickle
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from emsim import agents, engine
from emsim.agents import Beliefs, Commitment, belief_curves, candidate_menu, expected_cashflow, npv
from emsim.engine import (NODE_SLOTS, HistoryStore, PlanStore, Settlement, init_world, run,
                          step_year)
from emsim.market import annual_totals, dispatch_year
from emsim.ingest import InputError, PlantRegistry, ScenarioConfig
from emsim.repdays import DAYS_PER_YEAR
from toys import (
    flat_rep_year,
    invest_scenario,
    make_plant,
    npv_tolerance,
    simple_costs,
    transition_scenario,
)


def nuclear_world(demand=1500.0, years=(2020, 2022), funds=0.0):
    scenario = ScenarioConfig(
        start_year=years[0], end_year=years[1],
        carbon_price={y: 0.0 for y in range(years[0], years[1] + 1)},
    )
    plant = make_plant("n1", "g1", "Nuclear", 2000.0, 2010,
                       simple_costs(efficiency=1.0, operating_period=60, variable_om=5.0))
    registry = PlantRegistry(plants=(plant,), funds={"g1": funds})
    return init_world(scenario, registry, flat_rep_year(demand=demand),
                      _empty_cost_table(), seed=1)


def _empty_cost_table():
    from emsim.ingest import CostTable, PlantCosts
    return CostTable(rows={("Nuclear", 3300.0, 2025): PlantCosts(
        efficiency=1.0, operating_period=60, predev_period=5, construction_period=8,
        predev_cost=240000, construction_cost=4100000, infrastructure_cost=11500,
        fixed_om=72900, variable_om=5, insurance_cost=10000, connection_cost=500)})


# ---------------------------------------------------------------------------
# init


def test_init_world_all_operating():
    world = nuclear_world()
    assert world.year == 2020
    assert all(p.status == "operating" for p in world.plants)


def test_init_world_overage_plant_retired():
    scenario = ScenarioConfig(start_year=2020, end_year=2020, carbon_price={2020: 0.0})
    old = make_plant("old", "g1", "CCGT", 100.0, 1990,
                     simple_costs(operating_period=25))
    registry = PlantRegistry(plants=(old,), funds={"g1": 0.0})
    world = init_world(scenario, registry, flat_rep_year(100.0), _empty_cost_table())
    assert world.plants[0].status == "retired"


def test_init_world_empty_registry():
    scenario = ScenarioConfig(start_year=2020, end_year=2020, carbon_price={2020: 0.0})
    registry = PlantRegistry(plants=(), funds={})
    world = init_world(scenario, registry, flat_rep_year(500.0), _empty_cost_table())
    result = step_year(world)
    assert result.mix == {}
    assert result.unserved_mwh == pytest.approx(500.0 * 8760.0)


def test_init_world_unknown_retirement_plant():
    scenario = ScenarioConfig(start_year=2020, end_year=2020, carbon_price={2020: 0.0},
                              scheduled_retirements=(("ghost", 2020),))
    registry = PlantRegistry(plants=(), funds={})
    with pytest.raises(InputError, match="ghost"):
        init_world(scenario, registry, flat_rep_year(500.0), _empty_cost_table())


def test_init_world_owner_without_funds_entry():
    scenario = ScenarioConfig(start_year=2020, end_year=2020, carbon_price={2020: 0.0})
    plants = (make_plant("a", "g1", "CCGT", 100.0, 2015),
              make_plant("b", "g2", "CCGT", 100.0, 2015))
    registry = PlantRegistry(plants=plants, funds={"g1": 0.0})
    with pytest.raises(InputError, match="plant 'b' has owner 'g2'"):
        init_world(scenario, registry, flat_rep_year(150.0), _empty_cost_table())


def test_init_world_plant_built_after_the_start_year():
    scenario = ScenarioConfig(start_year=2020, end_year=2021,
                              carbon_price={2020: 0.0, 2021: 0.0})
    plants = (make_plant("a", "g1", "CCGT", 100.0, 2020),
              make_plant("b", "g1", "CCGT", 100.0, 2021))
    registry = PlantRegistry(plants=plants, funds={"g1": 0.0})
    with pytest.raises(InputError, match="plant 'b' is built in 2021, after the start year 2020"):
        init_world(scenario, registry, flat_rep_year(150.0), _empty_cost_table())


# ---------------------------------------------------------------------------
# step_year


def test_single_nuclear_mix():
    world = nuclear_world()
    result = step_year(world)
    assert result.mix == {"Nuclear": 1.0}
    assert result.objective_mix() == {"wind": 0.0, "nuclear": 1.0, "solar": 0.0,
                                      "CCGT": 0.0, "coal": 0.0}
    assert world.year == 2021


def test_mix_shares_sum_to_one():
    scenario, registry, rep, table = invest_scenario()
    world = init_world(scenario, registry, rep, table, seed=3)
    result = step_year(world)
    assert sum(result.mix.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0 for v in result.mix.values())


def test_scheduled_coal_retirement_cuts_coal_energy():
    years = range(2014, 2018)
    scenario = ScenarioConfig(
        start_year=2014, end_year=2017,
        fuel_price={"coal": {y: 10.0 for y in years}, "gas": {y: 20.0 for y in years}},
        carbon_price={y: 0.0 for y in years},
        fuel_map={"Coal": "coal", "CCGT": "gas"},
        scheduled_retirements=(("c1", 2016), ("c2", 2016), ("c3", 2016)),
    )
    plants = [
        make_plant(f"c{i}", "g1", "Coal", 300.0, 2010,
                   simple_costs(efficiency=0.35, operating_period=50))
        for i in (1, 2, 3)
    ]
    plants.append(make_plant("gas1", "g2", "CCGT", 2000.0, 2012,
                             simple_costs(efficiency=0.5, operating_period=50)))
    registry = PlantRegistry(plants=tuple(plants), funds={"g1": 0.0, "g2": 0.0})
    world = init_world(scenario, registry, flat_rep_year(1500.0), _empty_cost_table())
    by_year = {}
    for _ in range(4):
        result = step_year(world)
        by_year[result.year] = result.energy_mwh.get("Coal", 0.0)
    assert by_year[2016] < by_year[2015]
    assert by_year[2016] == 0.0
    assert by_year[2015] == by_year[2014]


def test_age_based_retirement_mid_run():
    scenario = ScenarioConfig(start_year=2020, end_year=2022,
                              carbon_price={y: 0.0 for y in (2020, 2021, 2022)})
    plant = make_plant("n", "g1", "Nuclear", 100.0, 2001,
                       simple_costs(efficiency=1.0, operating_period=20))
    registry = PlantRegistry(plants=(plant,), funds={"g1": 0.0})
    world = init_world(scenario, registry, flat_rep_year(50.0), _empty_cost_table())
    first = step_year(world)   # 2020: age 19, still running
    second = step_year(world)  # 2021: age 20 = OP, retires
    assert first.retired == []
    assert second.retired == ["n"]
    assert second.mix == {}


def test_clearing_counter_k8():
    rep = flat_rep_year(demand=1000.0, weights=(0.125,) * 8)
    scenario = ScenarioConfig(start_year=2020, end_year=2020, carbon_price={2020: 0.0})
    plant = make_plant("n1", "g1", "Nuclear", 2000.0, 2010,
                       simple_costs(efficiency=1.0, operating_period=60))
    registry = PlantRegistry(plants=(plant,), funds={"g1": 0.0})
    world = init_world(scenario, registry, rep, _empty_cost_table())
    result = step_year(world)
    assert result.n_clearings == 192


def test_missing_scenario_year():
    world = nuclear_world(years=(2020, 2020))
    step_year(world)
    with pytest.raises(InputError, match="2021"):
        step_year(world)


# ---------------------------------------------------------------------------
# run


def test_run_six_years():
    world = nuclear_world(years=(2013, 2018))
    years = []
    run(world, years.append)
    assert [r.year for r in years] == list(range(2013, 2019))


def test_run_keeps_no_year():
    world = nuclear_world(years=(2020, 2023))
    previous = []

    def sink(result):
        # the loop drops each year, and its dispatch, once its sink returns
        if previous:
            assert previous[-1][0]() is None
            assert previous[-1][1]() is None
        previous.append((weakref.ref(result), weakref.ref(result.days[0])))

    run(world, sink)
    assert len(previous) == 4


def test_run_deterministic_replay():
    def collect():
        scenario, registry, rep, table = invest_scenario()
        scenario = type(scenario)(**{**scenario.__dict__,
                                     "price_curve": (0.001, 40.0),
                                     "sigma_c": 0.5})
        world = init_world(scenario, registry, rep, table, seed=11)
        years = []
        run(world, years.append)
        return [
            (r.year, sorted(r.energy_mwh.items()), sorted(r.funds.items()),
             r.prices.tolist(), [c.plant.plant_id for c in r.investments])
            for r in years
        ]

    assert collect() == collect()


def test_money_conservation_ledger():
    scenario, registry, rep, table = invest_scenario()
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 30.0)})
    world = init_world(scenario, registry, rep, table, seed=5)
    years = []
    run(world, years.append)
    for result in years:
        for gid, s in result.settlements.items():
            # exact replay: funds_end was computed as funds_start + delta
            assert s.funds_end == s.funds_start + s.delta
            assert result.funds[gid] == s.funds_end


@pytest.mark.parametrize("sigma_c, seed, opening, price_cap", [
    (0.0, 7, None, 300.0),        # registry funds, scarcity prices
    (4.0, 3, (0.0, 0.0), 50.0),   # no opening funds: the year's settlement pays
    (4.0, 3, (4e8, 1e8), 45.0),   # some years a GenCo cannot afford its best plant
])
def test_money_conservation_per_genco(sigma_c, seed, opening, price_cap):
    scenario, registry, rep, table = invest_scenario(end_year=2027)
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 50.0),
                                 "sigma_c": sigma_c, "price_cap": price_cap})
    if opening is not None:
        registry = PlantRegistry(plants=registry.plants, funds=dict(zip(("g1", "g2"), opening)))
    world = init_world(scenario, registry, rep, table, seed=seed)
    years = []
    run(world, years.append)
    assert len({c.plant.owner_id for r in years for c in r.investments}) == 2
    funds = dict(registry.funds)
    for result in years:
        # each year opens with the funds the previous year closed with
        assert {gid: s.funds_start for gid, s in result.settlements.items()} == funds
        funds = {gid: s.funds_end for gid, s in result.settlements.items()}
        assert result.funds == funds
        # every unit of market revenue is a cleared MWh at its clearing price
        paid = sum(float(np.sum(day.clearings[:, None] * day.dispatch))
                   * day.weight * DAYS_PER_YEAR for day in result.days)
        earned = sum(s.market_revenue for s in result.settlements.values())
        assert earned == pytest.approx(paid, rel=1e-9)
        # a commitment's first tranche is paid in its commit year, out of
        # funds that the year's settlement already covers
        new = {gid: 0.0 for gid in result.settlements}
        for commitment in result.investments:
            s = result.settlements[commitment.plant.owner_id]
            assert s.funds_end + s.capital_new >= commitment.tranche
            new[commitment.plant.owner_id] += commitment.tranche
        assert {gid: s.capital_new for gid, s in result.settlements.items()} == new
    assert world.funds == funds


@pytest.mark.parametrize("sigma_c, appraisals_per_year", [(0.0, 1), (4.0, 2)])
def test_one_appraisal_per_distinct_belief_set(monkeypatch, sigma_c, appraisals_per_year):
    appraisals, plans = [], []

    def counting_appraise(plan, beliefs, nuclear_subsidy):
        appraisals.append((world.year, len(beliefs)))
        return agents.appraise(plan, beliefs, nuclear_subsidy)

    def counting_plan(menu, rep_year, scenario, year):
        plans.append(year)
        return agents.appraisal_plan(menu, rep_year, scenario, year)

    monkeypatch.setattr(engine, "appraise", counting_appraise)
    monkeypatch.setattr(engine, "appraisal_plan", counting_plan)
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 50.0),
                                 "sigma_c": sigma_c})
    world = init_world(scenario, registry, rep, table, seed=3)
    years = []
    run(world, years.append)
    investing = range(2020, 2024)
    # one stacked appraisal per year; two GenCos: byte-equal beliefs at zero
    # sigma are one belief set of the stack, and every appraisal of a year
    # reads that year's one plan
    assert appraisals == [(y, appraisals_per_year) for y in investing]
    assert plans == list(investing)
    assert any(r.investments for r in years)
    # every logged NPV is the GenCo's own appraisal, to the batched tolerance
    for result in years[:-1]:
        menu = candidate_menu(table, result.year)
        horizon = max(c.lead_years + c.operating_years for c in menu)
        gencos = sorted(result.settlements)
        assert len(result.investment_log) == len(gencos) * len(menu)
        for ev in result.investment_log:
            beliefs = belief_curves(scenario, 3, gencos.index(ev.genco_id), result.year,
                                    horizon)
            cand = next(c for c in menu if c.plant_type == ev.plant_type)
            flows = expected_cashflow(cand, beliefs, rep, scenario, result.year)
            assert abs(ev.npv - npv(flows, scenario.discount_rate)) \
                <= npv_tolerance(flows, scenario.discount_rate)


def test_affordability_counts_the_years_settlement():
    # no opening funds: a first-year commitment is paid out of that year's margin
    scenario, registry, rep, table = invest_scenario(end_year=2027)
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 50.0),
                                 "sigma_c": 4.0, "price_cap": 50.0})
    registry = PlantRegistry(plants=registry.plants, funds={"g1": 0.0, "g2": 0.0})
    result = step_year(init_world(scenario, registry, rep, table, seed=3))
    assert result.investments
    for commitment in result.investments:
        s = result.settlements[commitment.plant.owner_id]
        assert s.funds_start == 0.0
        assert s.capital_new == commitment.tranche


def test_investment_lifecycle():
    scenario, registry, rep, table = invest_scenario()
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 60.0)})
    world = init_world(scenario, registry, rep, table, seed=7)
    years = []
    run(world, years.append)
    committed = [c for r in years for c in r.investments]
    assert committed, "high flat price should trigger at least one investment"
    first = committed[0]
    assert first.plant.status == "operating"
    assert first.tranches_left == 0
    assert first.plant.plant_id in {pid for r in years for pid in r.activated}
    # every tranche paid shows up in the settlements: total capital across
    # all companies equals the committed capital minus what is still owed
    paid = sum(s.capital_new + s.capital_existing
               for r in years for s in r.settlements.values())
    expected = 0.0
    for c in committed:
        costs = c.plant.costs
        full = (costs.predev_cost + costs.construction_cost) * c.plant.capacity_mw \
            + costs.infrastructure_cost
        expected += full - c.tranche * c.tranches_left
    assert paid == pytest.approx(expected, rel=1e-12)


def test_transition_coal_to_gas():
    scenario, registry, rep = transition_scenario()
    world = init_world(scenario, registry, rep, _empty_cost_table())
    years = []
    run(world, years.append)
    coal = [r.objective_mix()["coal"] for r in years]
    gas = [r.objective_mix()["CCGT"] for r in years]
    # crossover begins in the third simulated year
    assert coal[0] == coal[1] == 1.0
    for i in range(2, 6):
        assert coal[i] < coal[i - 1]
        assert gas[i] > gas[i - 1]
    assert coal[-1] == 0.0
    assert gas[-1] == 1.0


def test_energy_balance_every_year_with_scaled_demand_and_shortfall():
    scenario, registry, rep, table = invest_scenario()
    scale = {2020: 0.8, 2021: 1.0, 2022: 1.7, 2023: 1.25}
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": (0.002, 40.0),
                                 "demand_scale": scale})
    world = init_world(scenario, registry, rep, table, seed=5)
    years = []
    run(world, years.append)
    assert [r.year for r in years] == [2020, 2021, 2022, 2023]
    assert any(r.unserved_mwh > 0.0 for r in years), "no shortfall year"
    assert any(r.unserved_mwh == 0.0 for r in years), "no fully served year"
    base = float(rep.series("demand") @ rep.hour_weights)
    for result in years:
        served = sum(result.energy_mwh.values())
        expected = scenario.demand_scale_at(result.year) * base
        assert served + result.unserved_mwh == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# settlement against the per-company loop


def settle_per_genco(funds, operating, totals, costs, commitments):
    """Oracle: the settlement as one loop per company in sorted order, each
    summing over the whole operating fleet and then over every commitment."""
    energy, revenue, subsidy, _ = totals
    settlements = {}
    for gid in sorted(funds):
        s = Settlement(funds_start=funds[gid])
        for i, plant in enumerate(operating):
            if plant.owner_id != gid:
                continue
            s.market_revenue += revenue[i]
            s.subsidy += subsidy[i]
            s.variable_cost += energy[i] * costs[i]
            s.fixed_cost += plant.costs.fixed_om * plant.capacity_mw
        for commitment in commitments:
            if commitment.plant.owner_id != gid or commitment.tranches_left <= 0:
                continue
            s.capital_existing += commitment.tranche
            commitment.tranches_left -= 1
        settlements[gid] = s
    return settlements


def interleaved_world(seed):
    """A seeded fleet whose owners interleave in list order, with
    commitments owed 0 to 3 tranches, in a scenario where companies invest."""
    scenario, _, rep, table = invest_scenario(end_year=2026)
    scenario = replace(scenario, price_curve=(0.002, 50.0), sigma_c=4.0, nuclear_subsidy=3.0)
    rep = flat_rep_year(demand=(20000.0, 35000.0), solar=(0.2, 0.6), onshore=(0.5, 0.3),
                        weights=(0.5, 0.5))
    rng = np.random.default_rng(seed)
    gencos = ("g3", "g1", "g4", "g2")
    types = ("CCGT", "Coal", "PV", "Nuclear", "Onshore")
    plants = tuple(
        make_plant(f"p{i}", str(rng.choice(gencos)), str(rng.choice(types)),
                   float(rng.uniform(200.0, 3000.0)), int(rng.integers(1995, 2020)),
                   simple_costs(efficiency=float(rng.uniform(0.3, 0.6)), operating_period=30,
                                fixed_om=float(rng.uniform(0.0, 20000.0)),
                                variable_om=float(rng.uniform(0.0, 5.0))))
        for i in range(30))
    registry = PlantRegistry(plants=plants, funds={g: float(rng.uniform(0.0, 1e9))
                                                   for g in gencos})
    world = init_world(scenario, registry, rep, table, seed=seed)
    for j, left in enumerate((0, 1, 2, 3, 1, 0)):
        plant = make_plant(f"c{j}", gencos[j % 3], "CCGT", 500.0, 2021 + j)
        plant.status = "under_construction"
        world.plants.append(plant)
        world.commitments.append(
            Commitment(plant, 2019, 2020 + j, float(rng.uniform(1e6, 1e8)), left))
    return world


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_settlement_equals_the_per_genco_loop(seed):
    world = interleaved_world(seed)
    owners = [p.owner_id for p in world.operating_plants()]
    assert any(a != b for a, b in zip(owners, owners[1:]))
    by_id = {}
    invested = 0
    while world.year <= world.scenario.end_year:
        funds = dict(world.funds)
        commitments = list(world.commitments)
        expected_commitments = copy.deepcopy(commitments)
        result = step_year(world)
        by_id.update((p.plant_id, p) for p in world.plants)
        operating = [by_id[pid] for pid in result.plant_ids]
        totals = annual_totals(operating, result.days, world.scenario.nuclear_subsidy)
        expected = settle_per_genco(funds, operating, totals, result.bid_prices,
                                    expected_commitments)
        for commitment in result.investments:
            expected[commitment.plant.owner_id].capital_new += commitment.tranche
        for s in expected.values():
            s.funds_end = s.funds_start + s.delta
        assert list(result.settlements.items()) == list(expected.items())
        assert ([c.tranches_left for c in commitments]
                == [c.tranches_left for c in expected_commitments])
        invested += len(result.investments)
    assert invested


# ---------------------------------------------------------------------------
# history store


def plain_mixes(scenario, registry, rep, table, seed, histories=None):
    """Each year's objective mix of a plain `run`. Each year's investment
    history, the plants committed in every earlier year, is added to the
    set `histories` when one is given."""
    mixes = {}
    committed = []

    def sink(result):
        mixes[result.year] = result.objective_mix()
        if histories is not None:
            histories.add((result.year, tuple(committed)))
        committed.append(tuple(c.plant.plant_id for c in result.investments))

    run(init_world(scenario, registry, rep, table, seed=seed), sink)
    return mixes


def count_dispatches(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return dispatch_year(*args)

    monkeypatch.setattr(engine, "dispatch_year", counting)
    return calls


def store_inputs():
    """One simulated year of the transition toy plus a hydro plant, which
    burns nothing and follows no capacity-factor series."""
    scenario, registry, rep = transition_scenario()
    hydro = make_plant("hydro", "g1", "Hydro", 300.0, 2015,
                       simple_costs(operating_period=100, variable_om=1.0))
    return (replace(scenario, end_year=2020),
            PlantRegistry(plants=registry.plants + (hydro,), funds={"g1": 0.0, "g2": 0.0}), rep)


def _changed_plants(registry, index, **change):
    plants = list(registry.plants)
    plants[index] = replace(plants[index], **change)
    return PlantRegistry(plants=tuple(plants), funds=registry.funds)


# each changes one gene-free input of the year and nothing else
STORE_KEY_CHANGES = {
    "capacity": lambda s, reg, rep: (s, _changed_plants(reg, 0, capacity_mw=999.0), rep),
    "bid": lambda s, reg, rep: (
        replace(s, fuel_price={**s.fuel_price, "gas": {2020: 10.5}}), reg, rep),
    "demand scale": lambda s, reg, rep: (replace(s, demand_scale={2020: 1.1}), reg, rep),
    "price cap": lambda s, reg, rep: (replace(s, price_cap=250.0), reg, rep),
    "nuclear subsidy": lambda s, reg, rep: (replace(s, nuclear_subsidy=5.0), reg, rep),
    "plant type": lambda s, reg, rep: (s, _changed_plants(reg, -1, plant_type="RecipDiesel"),
                                       rep),
    "plant id": lambda s, reg, rep: (s, _changed_plants(reg, -1, plant_id="hydro2"), rep),
    "representative year": lambda s, reg, rep: (s, reg, flat_rep_year(demand=1000.0)),
}


@pytest.mark.parametrize("change", sorted(STORE_KEY_CHANGES))
def test_dispatch_store_clears_again_when_one_input_differs(monkeypatch, change):
    """A history store built on one changed gene-free input dispatches
    its own root, whose mixes equal a plain run's, and leaves a store of
    the base inputs as it was. The nuclear subsidy is a gene: a store
    walked under another one holds a root for each and reuses both."""
    base = store_inputs()
    changed = STORE_KEY_CHANGES[change](*base)
    table = _empty_cost_table()
    expected = plain_mixes(*changed, table, 3)
    calls = count_dispatches(monkeypatch)
    store = HistoryStore(*base, table)
    first = store.mixes(base[0], 3)
    assert store.mixes(base[0], 3) == first
    assert len(calls) == len(store) == 1
    roots = dict(store._roots)
    assert len(roots) == 1
    if change == "nuclear subsidy":
        assert store.mixes(changed[0], 3) == expected
        assert len(calls) == 2
        # the other subsidy got a root of its own, and both are kept
        assert store.mixes(base[0], 3) == first
        assert store.mixes(changed[0], 3) == expected
        assert len(calls) == len(store) == len(store._roots) == 2
        assert store._roots.items() >= roots.items()
    else:
        other = HistoryStore(*changed, table)
        assert other.mixes(changed[0], 3) == expected
        assert len(calls) == 2
        assert len(other) == 1
        assert store.mixes(base[0], 3) == first
        assert len(calls) == 2
        assert store._roots == roots
        assert len(store) == 1


def test_history_store_keeps_the_root_of_every_subsidy(monkeypatch):
    """Walks under subsidy A, then B, then A again: the third walk
    builds no node, and each walk gives a plain run's mixes."""
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    scenario = replace(scenario, price_curve=(0.002, 20.0))
    subsidies = [replace(scenario, nuclear_subsidy=s) for s in (0.0, 5.0)]
    expected = [plain_mixes(s, registry, rep, table, 3) for s in subsidies]
    calls = count_dispatches(monkeypatch)
    store = HistoryStore(scenario, registry, rep, table)
    assert [store.mixes(s, 3) for s in subsidies] == expected
    nodes = len(calls)
    assert nodes == len(store) == 2 * len(expected[0])
    assert store.mixes(subsidies[0], 3) == expected[0]
    assert len(calls) == len(store) == nodes


# each changes what reaches only the beliefs: the scenario's price curve
# or sigmas, or the evaluation seed
BELIEF_CHANGES = {
    "price curve": lambda s, seed: (replace(s, price_curve=(0.0, 20.0)), seed),
    "sigmas": lambda s, seed: (replace(s, sigma_m=1e-4, sigma_c=20.0), seed),
    "evaluation seed": lambda s, seed: (s, seed + 1),
}


@pytest.mark.parametrize("change", sorted(BELIEF_CHANGES))
def test_history_store_reuses_nodes_across_beliefs(monkeypatch, change):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    scenario = replace(scenario, price_curve=(0.0, 20.0), sigma_c=20.0)
    changed, seed = BELIEF_CHANGES[change](scenario, 3)
    expected = plain_mixes(changed, registry, rep, table, seed)
    base = plain_mixes(scenario, registry, rep, table, 3)
    calls = count_dispatches(monkeypatch)
    store = HistoryStore(scenario, registry, rep, table)
    assert store.mixes(scenario, 3) == base
    assert len(calls) == len(store) == 5
    assert store.mixes(changed, seed) == expected
    # the root and every year of the shared history were reused
    assert len(calls) == len(store) < 10
    assert store.mixes(scenario, 3) == base
    assert len(calls) == len(store)


CURVES = [(0.0, -30.0), (0.002, 20.0), (0.0, 20.0), (0.0, 30.0), (0.002, 20.0)]


@pytest.mark.parametrize("funds", [None, {"g1": -1e12, "g2": 0.0}], ids=["rich", "poor"])
def test_history_store_simulates_each_history_once(monkeypatch, funds):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    if funds is not None:  # some best candidates are unaffordable
        registry = PlantRegistry(plants=registry.plants, funds=funds)
    scenarios = [replace(scenario, price_curve=curve, sigma_c=20.0) for curve in CURVES]
    histories = set()
    expected = [plain_mixes(s, registry, rep, table, 3, histories) for s in scenarios]
    calls = count_dispatches(monkeypatch)
    store = HistoryStore(scenario, registry, rep, table)
    assert [store.mixes(s, 3) for s in scenarios] == expected
    assert len(calls) == len(store) == len(histories) < 5 * len(CURVES)


def _snapshot(world, settlements, mix):
    """Everything a walk reads from a year after its open phase, or a
    later year inherits from it."""
    return (world.year, [(p.plant_id, p.status) for p in world.plants], dict(world.funds),
            [(c.plant.plant_id, c.plant.status, c.tranches_left) for c in world.commitments],
            {gid: vars(s).copy() for gid, s in settlements.items()}, dict(mix))


def test_nodes_never_change_once_built(monkeypatch):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    scenario = replace(scenario, scheduled_retirements=(("coal0", 2022),),
                       price_curve=(0.002, 20.0))
    registry = PlantRegistry(plants=registry.plants, funds={"g1": 5e8, "g2": 0.0})
    # each year of a plain run as its open phase leaves it
    opened = []
    real = engine.open_year

    def recording(world):
        result = real(world)
        opened.append(_snapshot(world, result.settlements, result.objective_mix()))
        return result

    monkeypatch.setattr(engine, "open_year", recording)
    run(init_world(scenario, registry, rep, table, seed=3), lambda result: None)
    monkeypatch.setattr(engine, "open_year", real)
    store = HistoryStore(scenario, registry, rep, table)
    store.mixes(scenario, 3)
    path = list(store._roots.values())
    while path[-1].children:
        path.extend(path[-1].children.values())
    # later walks branch off every year of the first one
    for curve in CURVES:
        noisy = replace(scenario, price_curve=curve, sigma_c=20.0)
        assert store.mixes(noisy, 3) == plain_mixes(noisy, registry, rep, table, 3)
    assert len(store) > len(path)
    assert [_snapshot(n.world, n.settlements, n.mix) for n in path] == opened


PHASES = ("open_year", "decide", "close_year")


@pytest.mark.parametrize("phase", PHASES)
def test_failed_walk_leaves_no_node(monkeypatch, phase):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    walked = replace(scenario, price_curve=(0.002, 20.0))
    failing = replace(scenario, price_curve=(0.0, 20.0), sigma_c=20.0)
    store = HistoryStore(scenario, registry, rep, table)
    store.mixes(walked, 3)
    nodes = len(store)
    real = getattr(engine, phase)

    def broken(*args):
        real(*args)  # change what the phase changes, then fail
        raise RuntimeError(f"{phase} broke")

    monkeypatch.setattr(engine, phase, broken)
    with pytest.raises(RuntimeError, match="broke"):
        store.mixes(failing, 3)
    monkeypatch.setattr(engine, phase, real)
    assert len(store) == nodes
    for scenario in (failing, walked):
        assert store.mixes(scenario, 3) == plain_mixes(scenario, registry, rep, table, 3)


def test_failed_root_attaches_nothing(monkeypatch):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    other = replace(scenario, nuclear_subsidy=5.0)
    store = HistoryStore(scenario, registry, rep, table)
    store.mixes(scenario, 3)
    held = (dict(store._roots), len(store), store.slots_held)
    real = engine.open_year
    monkeypatch.setattr(engine, "open_year", lambda world: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        store.mixes(other, 3)
    monkeypatch.setattr(engine, "open_year", real)
    assert (store._roots, len(store), store.slots_held) == held
    for scenario in (other, scenario):
        assert store.mixes(scenario, 3) == plain_mixes(scenario, registry, rep, table, 3)


@pytest.mark.parametrize("subsidy", [np.nan, np.inf, -np.inf], ids=str)
def test_a_non_finite_subsidy_is_an_input_error(monkeypatch, subsidy):
    """The error a scenario with that subsidy raises, before anything
    is simulated and with the held root kept."""
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    with pytest.raises(InputError) as raised:
        replace(scenario, nuclear_subsidy=subsidy)
    store = HistoryStore(scenario, registry, rep, table)
    store.mixes(scenario, 3)
    nodes = len(store)
    calls = count_dispatches(monkeypatch)
    beliefs = Beliefs.of(scenario, 3)
    beliefs = replace(beliefs, **{f: np.repeat(getattr(beliefs, f), 2, axis=0)
                                  for f in ("curves", "sigma_m", "sigma_c", "seeds")})
    with pytest.raises(InputError, match=re.escape(str(raised.value))):
        store.walk(beliefs, np.array([0.0, subsidy]))
    assert calls == []
    assert len(store) == nodes


def test_history_store_empties_at_its_slot_bound(monkeypatch):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    scenarios = [replace(scenario, price_curve=curve) for curve in
                 [(0.0, -30.0), (0.002, 20.0), (0.0, 20.0), (0.002, 20.0), (0.0, -30.0)]]
    expected = [plain_mixes(s, registry, rep, table, 3) for s in scenarios]
    calls = count_dispatches(monkeypatch)
    unbounded = HistoryStore(scenario, registry, rep, table)
    assert [unbounded.mixes(s, 3) for s in scenarios] == expected
    unbounded_calls = len(calls)
    assert unbounded.slots_held == sum(len(nodes) for nodes in _plants_per_node(unbounded)) \
        + NODE_SLOTS * len(unbounded)
    # the root lists 3 plants and each later year at least 3
    monkeypatch.setattr(engine, "MAX_HELD_SLOTS", 3 * (NODE_SLOTS + 3))
    bounded = HistoryStore(scenario, registry, rep, table)
    for s, mixes in zip(scenarios, expected):
        assert bounded.mixes(s, 3) == mixes
        assert bounded.slots_held <= engine.MAX_HELD_SLOTS
        assert len(bounded) < 3
    assert len(calls) - unbounded_calls > unbounded_calls
    # a pickled copy starts empty
    copied = pickle.loads(pickle.dumps(bounded))
    assert (len(copied), copied.slots_held) == (0, 0)


def _plants_per_node(store):
    """Each held node's plant list."""
    todo = list(store._roots.values())
    while todo:
        node = todo.pop()
        yield node.world.plants
        todo.extend(node.children.values())


# each changes one scenario input of the bids or the appraisal plans and nothing else
PLAN_KEY_CHANGES = {
    "discount rate": lambda s: replace(s, discount_rate=0.03),
    "fuel price": lambda s: replace(s, fuel_price={**s.fuel_price, "gas": {
        y: 26.0 for y in s.years()}}),
    "demand scale": lambda s: replace(s, demand_scale={2020: 1.0, 2021: 1.2}),
}


@pytest.mark.parametrize("change", sorted(PLAN_KEY_CHANGES))
def test_shared_store_plans_follow_the_cost_inputs(change):
    scenario, registry, rep, table = invest_scenario(end_year=2024)
    scenario = replace(scenario, price_curve=(0.002, 50.0), sigma_c=4.0)
    changed = PLAN_KEY_CHANGES[change](scenario)

    def trajectory(scenario, plans):
        years = []
        run(init_world(scenario, registry, rep, table, seed=3, plans=plans), years.append)
        return ([r.bid_prices for r in years],
                [[ev.npv for ev in r.investment_log] for r in years])

    plans = PlanStore(scenario, rep, table)
    base = trajectory(scenario, plans)
    # other beliefs alone share the store's plans and bids, and match a fresh world
    noisier = replace(scenario, sigma_c=2.0)
    assert trajectory(noisier, plans) == trajectory(noisier, None) != base
    # a store of the changed scenario gives the changed trajectory
    fresh = trajectory(changed, None)
    assert trajectory(changed, PlanStore(changed, rep, table)) == fresh
    assert fresh[1] != base[1]
    assert trajectory(scenario, plans) == base == trajectory(scenario, None)
