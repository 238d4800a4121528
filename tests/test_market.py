"""Merit-order clearing and dispatch tests."""

import numpy as np
import pytest

from emsim.ingest import InputError, ScenarioConfig
from emsim.market import (
    Bid,
    annual_totals,
    clear_hours,
    clear_market,
    dispatch_year,
    marginal_cost,
    srmc,
)
from emsim.repdays import assemble_year
from toys import flat_rep_year, make_plant, simple_costs


def scenario_with(fuel_price, carbon, emission, fuel_map):
    return ScenarioConfig(
        start_year=2020, end_year=2020,
        fuel_price={f: {2020: p} for f, p in fuel_price.items()},
        carbon_price={2020: carbon},
        emission_factor=emission,
        fuel_map=fuel_map,
    )


# ---------------------------------------------------------------------------
# srmc


def test_srmc_wind_is_variable_om_only():
    plant = make_plant("w", "g", "Onshore", 100, 2015, simple_costs(variable_om=4.0))
    scenario = scenario_with({"gas": 999.0}, 999.0, {"gas": 9.0}, {"CCGT": "gas"})
    assert srmc(plant, scenario, 2020) == 4.0


def test_srmc_ccgt_hand_value():
    plant = make_plant("c", "g", "CCGT", 100, 2015,
                       simple_costs(efficiency=0.54, variable_om=3.0))
    scenario = scenario_with({"gas": 20.0}, 0.0, {"gas": 0.2}, {"CCGT": "gas"})
    assert srmc(plant, scenario, 2020) == pytest.approx(20.0 / 0.54 + 3.0, abs=1e-12)


def test_srmc_coal_with_carbon_hand_value():
    plant = make_plant("c", "g", "Coal", 100, 2015,
                       simple_costs(efficiency=0.32, variable_om=5.0))
    scenario = scenario_with({"coal": 10.0}, 25.0, {"coal": 0.34}, {"Coal": "coal"})
    expected = 10.0 / 0.32 + 25.0 * 0.34 / 0.32 + 5.0  # = 62.8125
    assert srmc(plant, scenario, 2020) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(62.8125)


def test_srmc_missing_fuel_price():
    plant = make_plant("c", "g", "CCGT", 100, 2015)
    scenario = scenario_with({"coal": 10.0}, 0.0, {}, {"Coal": "coal"})
    object.__setattr__(scenario, "fuel_map", {"CCGT": "gas", "Coal": "coal"})
    with pytest.raises(InputError):
        srmc(plant, scenario, 2020)


def test_srmc_zero_efficiency_fuel_burner_rejected():
    scenario = scenario_with({"gas": 10.0}, 0.0, {}, {"CCGT": "gas"})
    with pytest.raises(InputError, match="efficiency"):
        marginal_cost("CCGT", 0.0, 1.0, scenario, 2020)


# ---------------------------------------------------------------------------
# clear_market


def stack():
    return [Bid("a", 10.0, 100.0), Bid("b", 30.0, 100.0), Bid("c", 50.0, 100.0)]


def test_clear_hand_example():
    result = clear_market(stack(), 150.0)
    assert result.clearing_price == 30.0
    assert result.dispatch == {"a": 100.0, "b": 50.0, "c": 0.0}
    assert result.unserved == 0.0
    assert result.served == 150.0


def test_clear_zero_demand():
    result = clear_market(stack(), 0.0)
    assert result.clearing_price == 0.0
    assert all(v == 0.0 for v in result.dispatch.values())


def test_clear_shortfall_prices_at_cap():
    result = clear_market(stack(), 400.0, price_cap=300.0)
    assert result.served == 300.0
    assert result.unserved == 100.0
    assert result.clearing_price == 300.0


def test_clear_negative_demand_rejected():
    with pytest.raises(InputError):
        clear_market(stack(), -1.0)


def test_clear_tie_break_larger_quantity_then_id():
    bids = [Bid("small", 10.0, 40.0), Bid("big", 10.0, 100.0)]
    result = clear_market(bids, 100.0)
    assert result.dispatch == {"big": 100.0, "small": 0.0}
    bids = [Bid("z", 10.0, 50.0), Bid("a", 10.0, 50.0)]
    result = clear_market(bids, 50.0)
    assert result.dispatch == {"a": 50.0, "z": 0.0}


def test_clear_exact_boundary_marginal_price():
    result = clear_market(stack(), 100.0)
    assert result.clearing_price == 10.0
    result = clear_market(stack(), 200.0)
    assert result.clearing_price == 30.0


def test_clear_skips_zero_quantity_bids():
    bids = [Bid("empty", 1.0, 0.0), Bid("real", 20.0, 100.0)]
    result = clear_market(bids, 50.0)
    assert result.clearing_price == 20.0
    assert result.dispatch["empty"] == 0.0


def test_price_scaling_leaves_dispatch_unchanged():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bids = [Bid(f"p{i}", float(rng.integers(1, 100)), float(rng.integers(0, 500)))
                for i in range(6)]
        demand = float(rng.integers(0, 1500))
        base = clear_market(bids, demand)
        scaled = clear_market([Bid(b.plant_id, 3.5 * b.price, b.quantity) for b in bids], demand)
        assert base.dispatch == scaled.dispatch


def random_case(rng):
    n = int(rng.integers(1, 9))
    bids = [
        Bid(f"p{i}", float(rng.integers(0, 200)), float(rng.integers(0, 400)))
        for i in range(n)
    ]
    demand = float(rng.integers(0, 2000))
    return bids, demand


def assert_clearing_invariants(bids, demand, result):
    # conservation is exact: values are integers so every +,-,min is exact
    assert sum(result.dispatch.values()) + result.unserved == demand
    # merit-order dominance: no undispatched bid is strictly cheaper than
    # any dispatched bid
    dispatched_prices = [b.price for b in bids if result.dispatch[b.plant_id] > 0]
    if dispatched_prices:
        top = max(dispatched_prices)
        for b in bids:
            if result.dispatch[b.plant_id] == 0 and b.quantity > 0:
                assert b.price >= top
    for b in bids:
        assert result.dispatch[b.plant_id] <= b.quantity


def test_clearing_randomized_properties():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        bids, demand = random_case(rng)
        result = clear_market(bids, demand)
        assert_clearing_invariants(bids, demand, result)
        # uniform price weak monotonicity in demand
        higher = clear_market(bids, demand + float(rng.integers(1, 500)))
        assert higher.clearing_price >= result.clearing_price


def test_removing_a_plant_never_increases_served():
    rng = np.random.default_rng(7)
    for _ in range(200):
        bids, demand = random_case(rng)
        if not bids:
            continue
        full = clear_market(bids, demand)
        drop = int(rng.integers(0, len(bids)))
        reduced = clear_market(bids[:drop] + bids[drop + 1:], demand)
        assert reduced.served <= full.served


# ---------------------------------------------------------------------------
# clear_hours against the sequential reference


def _reference_clear(bids, demand, price_cap):
    """The one-bid-at-a-time merit-order loop the kernel replaces:
    (clearing price, plant id -> MW, unserved MW)."""
    dispatch = {b.plant_id: 0.0 for b in bids}
    if demand == 0:
        return 0.0, dispatch, 0.0
    remaining = demand
    price = None
    for bid in sorted(bids, key=lambda b: (b.price, -b.quantity, b.plant_id)):
        if remaining <= 0:
            break
        if bid.quantity <= 0:
            continue
        take = min(bid.quantity, remaining)
        dispatch[bid.plant_id] += take
        remaining -= take
        price = bid.price
    if remaining > 0:
        return price_cap, dispatch, remaining
    return price, dispatch, 0.0


def random_hours(rng):
    """A multi-hour case drawn to hit price ties, equal quantities, zero
    availability, zero demand, shortfalls and empty fleets."""
    n_plants = int(rng.integers(0, 9))
    n_hours = int(rng.integers(1, 6))
    ids = [f"p{i}" for i in rng.permutation(20)[:n_plants]]
    if rng.random() < 0.5:
        prices = rng.choice([-4.0, 0.0, 12.5, 30.0, 30.0, 75.0], size=n_plants)
        avail = rng.choice([0.0, 0.1, 40.0, 100.0, 100.0, 333.3], size=(n_hours, n_plants))
    else:
        prices = rng.uniform(-10.0, 250.0, n_plants)
        avail = rng.uniform(0.0, 400.0, (n_hours, n_plants))
        avail[rng.random((n_hours, n_plants)) < 0.2] = 0.0  # zero-CF hours
    demand = rng.uniform(0.0, 1500.0, n_hours)
    demand[rng.random(n_hours) < 0.2] = 0.0
    return ids, prices, avail, demand


def test_kernel_equals_reference_loop_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        ids, prices, avail, demand = random_hours(rng)
        dispatch, clearing, unserved = clear_hours(ids, prices, avail, demand, 300.0)
        for h in range(len(demand)):
            bids = [Bid(pid, float(prices[i]), float(avail[h, i])) for i, pid in enumerate(ids)]
            price, by_id, short = _reference_clear(bids, float(demand[h]), 300.0)
            assert clearing[h] == price
            assert unserved[h] == short
            assert dispatch[h].tolist() == [by_id[pid] for pid in ids]


def test_bid_validation():
    with pytest.raises(InputError, match="quantity"):
        Bid("a", 1.0, -1.0)
    with pytest.raises(InputError, match="non-finite"):
        Bid("a", np.inf, 1.0)


# ---------------------------------------------------------------------------
# dispatch_year


def test_single_nuclear_plant_serves_everything():
    plant = make_plant("n1", "g", "Nuclear", 2000.0, 2010,
                       simple_costs(efficiency=1.0, variable_om=5.0))
    rep = flat_rep_year(demand=1500.0)
    days = dispatch_year([plant], [5.0], rep, 300.0)
    for h in range(24):
        assert days[0].dispatch[h, 0] == 1500.0
        assert days[0].unserved[h] == 0.0
    energy, *_ = annual_totals([plant], days)
    assert energy[0] == pytest.approx(1500.0 * 24 * 365)


def test_offshore_rise_displaces_ccgt_at_hour_19():
    offshore = make_plant("w1", "g", "Offshore", 1000.0, 2015, simple_costs(variable_om=0.0))
    ccgt = make_plant("c1", "g", "CCGT", 1000.0, 2015,
                      simple_costs(efficiency=0.5, variable_om=2.0))
    profile = np.zeros((4, 24))
    profile[0, :] = 800.0              # flat demand
    profile[3, :] = 0.2                # offshore cf
    profile[3, 18:] = 0.8              # rises at hour 19 (1-based)
    scenario = scenario_with({"gas": 20.0}, 0.0, {"gas": 0.0}, {"CCGT": "gas"})
    costs = [0.0, srmc(ccgt, scenario, 2020)]
    days = dispatch_year([offshore, ccgt], costs, assemble_year(profile[None], [1.0]), 300.0)
    ccgt_dispatch = days[0].dispatch[:, 1].tolist()
    assert ccgt_dispatch[18] < ccgt_dispatch[17]
    assert all(d == ccgt_dispatch[17] for d in ccgt_dispatch[:18])


def test_two_plant_weighted_energy():
    a = make_plant("a", "g", "CCGT", 100.0, 2015, simple_costs(variable_om=1.0))
    b = make_plant("b", "g", "CCGT", 100.0, 2015, simple_costs(variable_om=2.0))
    rep = flat_rep_year(demand=100.0, weights=(0.5, 0.5))
    days = dispatch_year([a, b], [1.0, 2.0], rep, 300.0)
    energy, *_ = annual_totals([a, b], days[:1])
    # flat 100 MW dispatch on a half-weight day: 100 * 24 * 0.5 * 365 MWh
    assert energy[0] == pytest.approx(100.0 * 24 * 0.5 * 365)
    assert energy[1] == 0.0


def test_nuclear_subsidy_paid_outside_market():
    plant = make_plant("n1", "g", "Nuclear", 100.0, 2010,
                       simple_costs(efficiency=1.0, variable_om=5.0))
    rep = flat_rep_year(demand=100.0)
    days = dispatch_year([plant], [5.0], rep, 300.0)
    energy, revenue, subsidy, _ = annual_totals([plant], days, nuclear_subsidy=120.0)
    assert subsidy[0] == pytest.approx(120.0 * energy[0])
    assert revenue[0] == pytest.approx(5.0 * energy[0])
    assert revenue[0] + subsidy[0] == pytest.approx(125.0 * energy[0])


def test_demand_scale_multiplies_demand():
    plant = make_plant("n1", "g", "Nuclear", 500.0, 2010, simple_costs(efficiency=1.0))
    rep = flat_rep_year(demand=100.0)
    days = dispatch_year([plant], [0.0], rep, 300.0, demand_scale=2.0)
    # served plus unserved is the hour's demand
    assert days[0].dispatch[0].sum() + days[0].unserved[0] == 200.0


def test_dispatch_year_rejects_non_finite_cost_naming_plant():
    plant = make_plant("n1", "g", "Nuclear", 500.0, 2010, simple_costs(efficiency=1.0))
    with pytest.raises(InputError, match="'n1'"):
        dispatch_year([plant], [np.nan], flat_rep_year(), 300.0)
