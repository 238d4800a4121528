"""Price expectation, NPV and investment-decision tests."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from emsim.agents import (
    PRICE_CELLS,
    Commitment,
    InvestmentCandidate,
    InvestmentEvaluation,
    appraisal_plan,
    appraise,
    belief_curves,
    candidate_menu,
    expected_cashflow,
    invest_step,
    npv,
)
from emsim.engine import PlanStore
from emsim.ingest import CF_SERIES, CostTable, InputError, PlantCosts, PowerPlant, ScenarioConfig
from emsim.market import marginal_cost
from emsim.repdays import assemble_year
from toys import flat_rep_year, invest_cost_table, invest_scenario, npv_tolerance, simple_costs


def plain_scenario(**overrides):
    base = dict(
        start_year=2020, end_year=2024,
        fuel_price={"gas": {y: 20.0 for y in range(2020, 2025)}},
        carbon_price={y: 0.0 for y in range(2020, 2025)},
        fuel_map={"CCGT": "gas"},
        discount_rate=0.06,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def horizon(candidate):
    return candidate.lead_years + candidate.operating_years


def cashflow(candidate, scenario, rep_year, year=2020):
    """expected_cashflow on the beliefs of genco 0 under root seed 0."""
    curves = belief_curves(scenario, 0, 0, year, horizon(candidate))
    return expected_cashflow(candidate, curves, rep_year, scenario, year)


# ---------------------------------------------------------------------------
# belief curves


def test_zero_sigma_reproduces_base():
    scenario = plain_scenario(price_curve=(0.002, 25.0))
    curves = belief_curves(scenario, 0, 0, 2020, 6)
    assert curves.shape == (2, 6)
    assert curves.tolist() == [[0.002] * 6, [25.0] * 6]


def test_sigma_c_only_perturbs_intercept():
    scenario = plain_scenario(price_curve=(0.002, 25.0), sigma_c=0.0006)
    m, c = belief_curves(scenario, 1, 0, 2020, 8)
    assert np.all(m == 0.002)
    assert np.all(c != 25.0)
    assert np.all(np.abs(c - 25.0) < 0.01)


def test_sample_mean_converges():
    scenario = plain_scenario(price_curve=(0.001, 40.0), sigma_c=1.0)
    c = belief_curves(scenario, 2, 0, 2020, 10000)[1]
    # CLT: standard error is 0.01, so 0.05 is a five-sigma band
    assert abs(np.mean(c) - 40.0) < 0.05


@pytest.mark.parametrize("sigma_m, sigma_c", [(0.0, 1.0), (0.0005, 0.0), (0.0005, 2.0)])
def test_sample_spread_matches_sigma(sigma_m, sigma_c):
    scenario = plain_scenario(price_curve=(0.001, 40.0), sigma_m=sigma_m, sigma_c=sigma_c)
    m, c = belief_curves(scenario, 3, 1, 2020, 10000)
    # the sample standard deviation of n normal draws has a relative standard
    # error of 1/sqrt(2(n - 1)) = 0.0071, so 0.04 is a five-sigma band
    for values, sigma in ((m, sigma_m), (c, sigma_c)):
        if sigma:
            assert abs(np.std(values, ddof=1) / sigma - 1.0) < 0.04
        else:
            assert np.ptp(values) == 0.0


def test_belief_set_deterministic_and_cached():
    scenario = plain_scenario(sigma_m=0.0005, sigma_c=0.5, price_curve=(0.001, 30.0))
    a = belief_curves(scenario, 7, 0, 2020, 12)
    assert np.array_equal(a, belief_curves(scenario, 7, 0, 2020, 12))
    # a target year's draw does not depend on how many years are asked for
    assert np.array_equal(a[:, :5], belief_curves(scenario, 7, 0, 2020, 5))
    # another genco, simulated year or root seed gives independent draws
    for other in (belief_curves(scenario, 7, 1, 2020, 12),
                  belief_curves(scenario, 8, 0, 2020, 12)):
        assert np.all(other != a)
    assert np.all(belief_curves(scenario, 7, 0, 2021, 11) != a[:, 1:])


@pytest.mark.parametrize("root_seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 3])
def test_belief_noise_is_drawn_from_the_seed_tuple_stream(root_seed):
    scenario = plain_scenario(sigma_m=0.0005, sigma_c=0.5, price_curve=(0.001, 30.0))
    m, c = belief_curves(scenario, root_seed, 2, 2021, 6)
    # target year 2021 + t adds row t of one block drawn on that stream;
    # a longer block has the same first rows, so no draw depends on the horizon
    z = np.random.default_rng([root_seed, 2021, 2]).standard_normal((9, 2))
    for t in range(6):
        assert (m[t], c[t]) == (0.001 + 0.0005 * z[t, 0], 30.0 + 0.5 * z[t, 1])


def test_belief_set_uses_per_year_curves():
    scenario = plain_scenario(price_curve_by_year={2020: (0.0, 10.0), 2021: (0.0, 20.0)})
    # held at the last year beyond the table
    assert belief_curves(scenario, 0, 0, 2020, 4)[1].tolist() == [10.0, 20.0, 20.0, 20.0]
    assert belief_curves(scenario, 0, 0, 2020, 0).shape == (2, 0)


def test_zero_sigmas_build_no_generator(monkeypatch):
    built = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
    belief_curves(plain_scenario(price_curve=(0.001, 30.0)), 0, 0, 2020, 40)
    assert built == []
    # the counter sees the generators a nonzero sigma builds: one for all 40 target years
    belief_curves(plain_scenario(price_curve=(0.001, 30.0), sigma_m=1e-4), 0, 0, 2020, 40)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# npv


def test_npv_zero_discount_is_plain_sum():
    assert npv([100.0, 100.0, 100.0], 0.0) == 300.0


def test_npv_break_even_identity():
    assert npv([-1000.0, 1100.0], 0.1) == pytest.approx(0.0, abs=1e-9)


def test_npv_single_discounted_flow():
    assert npv([0.0, 105.0], 0.05) == pytest.approx(100.0, abs=1e-9)


def test_npv_linearity():
    rng = np.random.default_rng(3)
    r = rng.normal(size=12)
    s = rng.normal(size=12)
    i = 0.07
    assert npv(2.5 * r + 4.0 * s, i) == pytest.approx(2.5 * npv(r, i) + 4.0 * npv(s, i), rel=1e-12)


def test_npv_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        flows = rng.normal(scale=1e6, size=n)
        i = float(rng.uniform(-0.5, 0.3))
        oracle = sum(flows[t] / (1.0 + i) ** t for t in range(n))
        assert npv(flows, i) == pytest.approx(oracle, rel=1e-9)


def test_npv_invalid_rate():
    with pytest.raises(InputError):
        npv([1.0], -1.0)


# ---------------------------------------------------------------------------
# expected cashflow


def never_dispatched_candidate():
    costs = PlantCosts(
        efficiency=0.5, operating_period=3, predev_period=1, construction_period=1,
        predev_cost=100.0, construction_cost=900.0, infrastructure_cost=50.0,
        fixed_om=10.0, variable_om=2.0, insurance_cost=0.0, connection_cost=0.0,
    )
    return InvestmentCandidate("CCGT", 100.0, costs)


def test_cashflow_never_dispatched():
    # flat price 1.0 sits far below the candidate's marginal cost (42)
    scenario = plain_scenario(price_curve=(0.0, 1.0))
    cand = never_dispatched_candidate()
    flows = cashflow(cand, scenario, flat_rep_year(1000.0))
    capital = (100.0 + 900.0) * 100.0 + 50.0
    assert len(flows) == 2 + 3
    assert flows[0] == flows[1] == -capital / 2.0
    assert np.all(flows[2:] == -10.0 * 100.0)


def test_cashflow_flat_margin_hand_value():
    # flat price 50 vs marginal cost 40: a 100 MW plant earns
    # 100 * 8760 * 10 per operating year before fixed costs
    scenario = plain_scenario(price_curve=(0.0, 50.0))
    costs = PlantCosts(
        efficiency=0.5, operating_period=2, predev_period=1, construction_period=0,
        predev_cost=0.0, construction_cost=0.0, infrastructure_cost=0.0,
        fixed_om=7.0, variable_om=0.0, insurance_cost=0.0, connection_cost=0.0,
    )
    cand = InvestmentCandidate("CCGT", 100.0, costs)
    flows = cashflow(cand, scenario, flat_rep_year(1000.0))
    margin = 100.0 * 8760.0 * 10.0
    assert flows[1] == pytest.approx(margin - 7.0 * 100.0, rel=1e-12)
    assert flows[2] == pytest.approx(margin - 7.0 * 100.0, rel=1e-12)


def appraised_price(price_curve, demand):
    """The price a cost-free 100 MW onshore unit at capacity factor 0.5
    is paid in its one operating year, read back from its cash flow."""
    scenario = plain_scenario(price_curve=price_curve)
    cand = InvestmentCandidate("Onshore", 100.0, simple_costs(operating_period=1,
                                                              construction_period=0))
    flows = cashflow(cand, scenario, flat_rep_year(demand, onshore=0.5))
    return flows[1] / (100.0 * 0.5 * 8760.0)


def test_flat_curve():
    assert appraised_price((0.0, 50.0), 12345.0) == 50.0


def test_curve_crosses_zero():
    assert appraised_price((0.001, -30.0), 30000.0) == pytest.approx(0.0)


def test_curve_at_calibration_ceiling():
    # the upper corner of the calibration bounds: 300 currency at 50 GW
    assert appraised_price((0.004, 100.0), 50000.0) == pytest.approx(300.0, rel=1e-12)


def test_cashflow_nuclear_subsidy_adds_per_mwh():
    costs = PlantCosts(
        efficiency=1.0, operating_period=2, predev_period=1, construction_period=0,
        predev_cost=0.0, construction_cost=0.0, infrastructure_cost=0.0,
        fixed_om=0.0, variable_om=5.0, insurance_cost=0.0, connection_cost=0.0,
    )
    cand = InvestmentCandidate("Nuclear", 100.0, costs)
    rep = flat_rep_year(1000.0)
    flows0 = cashflow(cand, plain_scenario(price_curve=(0.0, 50.0)), rep)
    flows1 = cashflow(cand, plain_scenario(price_curve=(0.0, 50.0), nuclear_subsidy=120.0), rep)
    mwh = 100.0 * 8760.0
    assert flows1[1] - flows0[1] == pytest.approx(120.0 * mwh, rel=1e-12)


def test_cashflow_intermittent_sells_capacity_times_cf():
    costs = PlantCosts(
        efficiency=1.0, operating_period=1, predev_period=1, construction_period=0,
        predev_cost=0.0, construction_cost=0.0, infrastructure_cost=0.0,
        fixed_om=0.0, variable_om=0.0, insurance_cost=0.0, connection_cost=0.0,
    )
    cand = InvestmentCandidate("PV", 100.0, costs)
    scenario = plain_scenario(price_curve=(0.0, 30.0))
    flows = cashflow(cand, scenario, flat_rep_year(demand=1000.0, solar=0.25))
    assert flows[1] == pytest.approx(100.0 * 0.25 * 8760.0 * 30.0, rel=1e-12)


def test_cashflow_commit_year_outside_scenario():
    scenario = plain_scenario()
    cand = never_dispatched_candidate()
    with pytest.raises(InputError, match="outside scenario"):
        cashflow(cand, scenario, flat_rep_year(1000.0), year=2019)


def test_cashflow_needs_curves_for_every_year():
    scenario = plain_scenario()
    cand = never_dispatched_candidate()
    curves = belief_curves(scenario, 0, 0, 2020, horizon(cand) - 1)
    with pytest.raises(ValueError, match="cover 4 years, need 5"):
        expected_cashflow(cand, curves, flat_rep_year(1000.0), scenario, 2020)


def test_cashflow_reads_each_scenario_table_once(monkeypatch):
    tables = {y: 1.0 + (y - 2020) / 10 for y in range(2020, 2025)}
    scenario = plain_scenario(demand_scale=tables, carbon_price=tables,
                              emission_factor={"gas": 0.2}, price_curve=(0.001, 30.0))
    cand = InvestmentCandidate("CCGT", 500.0, simple_costs(
        efficiency=0.5, operating_period=45, predev_period=1, construction_period=2))
    curves = belief_curves(scenario, 0, 0, 2020, horizon(cand))
    calls = []
    held = type(scenario).held
    monkeypatch.setattr(type(scenario), "held",
                        lambda self, what, years: calls.append(what) or held(self, what, years))
    flows = expected_cashflow(cand, curves, flat_rep_year(1000.0), scenario, 2020)
    assert len(flows) == 48
    assert sorted(calls) == ["carbon_price", "demand_scale", "fuel_price.gas"]


def _reference_cashflow(candidate, scenario, root_seed, genco_index, rep_year, commit_year):
    """The appraisal as a loop over operating years, with each target
    year's curve read from row t of one long noise block drawn on the
    stream (root seed, commit year, genco index): the oracle that the
    array form must equal exactly."""
    # 64 rows: longer than any horizon `_random_case` draws
    z = np.random.default_rng([root_seed, commit_year, genco_index]).standard_normal((64, 2))

    def curve(year):
        m, c = scenario.curve_params_at(year)
        t = year - commit_year
        if scenario.sigma_m != 0:
            m = m + scenario.sigma_m * float(z[t, 0])
        if scenario.sigma_c != 0:
            c = c + scenario.sigma_c * float(z[t, 1])
        return m, c

    lead = candidate.lead_years
    n_years = lead + candidate.operating_years
    flows = np.zeros(n_years if n_years > 0 else 1)
    flows[:candidate.capital_tranches] -= candidate.capital_total / candidate.capital_tranches
    demand = rep_year.series("demand")
    weights = rep_year.hour_weights
    fixed = candidate.costs.fixed_om * candidate.capacity_mw
    for t in range(lead, n_years):
        year = commit_year + t
        m, c = curve(year)
        prices = m * np.asarray(demand * scenario.demand_scale_at(year), dtype=float) + c
        if candidate.plant_type == "Nuclear":
            prices = prices + scenario.nuclear_subsidy
        cost = marginal_cost(candidate.plant_type, candidate.costs.efficiency,
                             candidate.costs.variable_om, scenario, year)
        if candidate.plant_type in CF_SERIES:
            sold = candidate.capacity_mw * rep_year.series(CF_SERIES[candidate.plant_type])
        else:
            sold = np.where(prices >= cost, candidate.capacity_mw, 0.0)
        flows[t] += float(((prices - cost) * sold) @ weights) - fixed
    return flows


def _random_case(rng):
    """A random candidate, scenario, representative year and commit year."""
    years = range(2020, 2025)
    sigma = rng.integers(4)  # none, m only, c only, both
    first = int(rng.integers(2018, 2024))
    scenario = ScenarioConfig(
        start_year=2020, end_year=2024,
        fuel_price={f: {y: float(rng.uniform(5.0, 40.0)) for y in years}
                    for f in ("gas", "coal")},
        carbon_price={y: float(rng.uniform(0.0, 30.0)) for y in years},
        emission_factor={"gas": 0.2, "coal": 0.35},
        fuel_map={"CCGT": "gas", "Coal": "coal"},
        nuclear_subsidy=float(rng.uniform(0.0, 50.0)),
        sigma_m=float(rng.uniform(0.0, 5e-4)) if sigma in (1, 3) else 0.0,
        sigma_c=float(rng.uniform(0.0, 5.0)) if sigma in (2, 3) else 0.0,
        price_curve=(float(rng.uniform(0.0, 0.004)), float(rng.uniform(-50.0, 100.0))),
        price_curve_by_year={y: (float(rng.uniform(0.0, 0.004)), float(rng.uniform(-50.0, 100.0)))
                             for y in range(first, first + int(rng.integers(0, 8)))},
        demand_scale={y: float(rng.uniform(0.5, 1.5))
                      for y in range(first, first + int(rng.integers(0, 6)))},
    )
    costs = PlantCosts(
        efficiency=float(rng.uniform(0.3, 1.0)), operating_period=int(rng.integers(0, 31)),
        predev_period=int(rng.integers(0, 3)), construction_period=int(rng.integers(0, 4)),
        predev_cost=float(rng.uniform(0.0, 1e5)), construction_cost=float(rng.uniform(0.0, 2e6)),
        infrastructure_cost=float(rng.uniform(0.0, 2e4)), fixed_om=float(rng.uniform(0.0, 3e4)),
        variable_om=float(rng.uniform(0.0, 5.0)), insurance_cost=0.0, connection_cost=0.0,
    )
    ptype = str(rng.choice(["PV", "Onshore", "Offshore", "CCGT", "Coal", "Nuclear"]))
    candidate = InvestmentCandidate(ptype, float(rng.uniform(10.0, 3000.0)), costs)
    k = int(rng.integers(1, 9))
    profiles = rng.uniform(0.0, 1.0, size=(k, 4, 24))
    profiles[:, 0] *= 60000.0
    rep_year = assemble_year(profiles, rng.dirichlet(np.ones(k)))
    return candidate, scenario, rep_year, int(rng.integers(2020, 2025))


def test_cashflow_equals_reference_loop():
    rng = np.random.default_rng(20)
    kinds = set()
    for case in range(400):
        candidate, scenario, rep_year, year = _random_case(rng)
        root, genco = int(rng.integers(1000)), int(rng.integers(6))
        curves = belief_curves(scenario, root, genco, year, horizon(candidate))
        flows = expected_cashflow(candidate, curves, rep_year, scenario, year)
        oracle = _reference_cashflow(candidate, scenario, root, genco, rep_year, year)
        assert np.array_equal(flows, oracle), case
        kinds.add((candidate.plant_type, scenario.sigma_m > 0, scenario.sigma_c > 0,
                   candidate.lead_years == 0, candidate.operating_years == 0))
    # every plant type, every sigma pattern, zero lead and zero operating years
    assert {k[0] for k in kinds} == {"PV", "Onshore", "Offshore", "CCGT", "Coal", "Nuclear"}
    assert {k[1:3] for k in kinds} == {(False, False), (True, False), (False, True), (True, True)}
    assert any(k[3] for k in kinds) and any(k[4] for k in kinds)


def test_plan_appraisal_matches_the_reference_loop():
    rng = np.random.default_rng(21)
    kinds = set()
    for case in range(150):
        # a menu of one to four random candidates under the first one's scenario
        cases = [_random_case(rng) for _ in range(int(rng.integers(1, 5)))]
        _, scenario, rep_year, year = cases[0]
        scenario = replace(scenario, discount_rate=float(rng.choice([0.0, 0.06, 0.12])))
        menu = tuple(c[0] for c in cases)
        root, genco = int(rng.integers(1000)), int(rng.integers(6))
        plan = appraisal_plan(menu, rep_year, scenario, year)
        beliefs = belief_curves(scenario, root, genco, year, plan.horizon)
        [npvs] = appraise(plan, beliefs[None], scenario.nuclear_subsidy)
        assert len(npvs) == len(menu)
        for candidate, value in zip(menu, npvs):
            flows = _reference_cashflow(candidate, scenario, root, genco, rep_year, year)
            tolerance = npv_tolerance(flows, scenario.discount_rate)
            assert abs(value - npv(flows, scenario.discount_rate)) <= tolerance, case
            operating = beliefs[0, candidate.lead_years:horizon(candidate)]
            kinds.add((candidate.plant_type, bool((operating < 0).any()),
                       scenario.discount_rate == 0.0, candidate.lead_years == 0))
    types = {k[0] for k in kinds}
    assert types == {"PV", "Onshore", "Offshore", "CCGT", "Coal", "Nuclear"}
    # a negative slope from sigma noise on a dispatchable candidate, a zero
    # discount rate and zero lead years (the nuclear subsidy is never zero)
    assert any(k[1] and k[0] not in CF_SERIES for k in kinds)
    assert any(k[2] for k in kinds) and any(k[3] for k in kinds)


@pytest.mark.parametrize("subsidy", [0.0, 35.0], ids=["no subsidy", "subsidy"])
def test_stacked_appraisal_matches_each_belief_set_alone(subsidy):
    """Each belief set of a stack gets, bit for bit, the NPVs `appraise`
    gives it alone, at any stack size and in any order.

    This holds because the dispatchable margins are an (S, rows, hours)
    @ hour_weights product, for which numpy makes one matrix-vector
    product per belief set, the one a set alone makes. The same prices
    reshaped to (S x rows, hours) make one product over all the rows,
    whose sums BLAS may split in another order: in 40 random
    (S, rows, hours) trials, that reshape changed the last bits of most,
    and the stacked product of none."""
    rng = np.random.default_rng(23)
    negative_dispatchable = nuclear = sliced = False
    for size in (1, 2, 5, 17):
        for _ in range(4):
            cases = [_random_case(rng) for _ in range(int(rng.integers(2, 5)))]
            _, scenario, rep_year, year = cases[0]
            types = ["Nuclear", "CCGT"] + [c[0].plant_type for c in cases[2:]]
            menu = tuple(replace(c[0], plant_type=t) for c, t in zip(cases, types))
            # wide slope noise makes some believed slopes negative
            scenario = replace(scenario, nuclear_subsidy=subsidy, sigma_m=3e-3, sigma_c=20.0)
            plan = appraisal_plan(menu, rep_year, scenario, year)
            sets = np.array([belief_curves(scenario, int(rng.integers(1000)), genco, year,
                                           plan.horizon) for genco in range(size)])
            order = rng.permutation(size)
            stacked = appraise(plan, sets[order], subsidy)
            assert stacked.shape == (size, len(menu))
            for row, i in zip(stacked, order):
                assert row.tobytes() == appraise(plan, sets[i][None], subsidy)[0].tobytes()
            dispatchable = plan.column[:plan.dispatchable]
            negative_dispatchable |= bool((sets[:, 0, dispatchable] < 0).any())
            nuclear |= bool(plan.nuclear.any())
            sliced |= PRICE_CELLS < size * plan.dispatchable * len(plan.demand)
    # and some stacks were priced in slices
    assert negative_dispatchable and nuclear and sliced


def test_plan_appraisal_needs_curves_for_every_year():
    scenario = plain_scenario()
    cand = never_dispatched_candidate()
    plan = appraisal_plan((cand,), flat_rep_year(1000.0), scenario, 2020)
    curves = belief_curves(scenario, 0, 0, 2020, horizon(cand) - 1)
    with pytest.raises(ValueError, match="cover 4 years, need 5"):
        appraise(plan, curves[None], 0.0)
    with pytest.raises(InputError, match="outside scenario"):
        appraisal_plan((cand,), flat_rep_year(1000.0), scenario, 2025)


def test_plan_appraisal_of_an_empty_menu():
    plan = appraisal_plan((), flat_rep_year(1000.0), plain_scenario(), 2020)
    assert appraise(plan, np.zeros((1, 2, 0)), 10.0).shape == (1, 0)


# ---------------------------------------------------------------------------
# invest_step


def test_candidate_menu_largest_capacity_per_type():
    menu = candidate_menu(invest_cost_table(), 2020)
    assert [c.plant_type for c in menu] == ["CCGT", "Coal", "PV"]
    assert {c.plant_type: c.capacity_mw for c in menu} == \
        {"CCGT": 1500.0, "Coal": 1500.0, "PV": 1000.0}


def test_candidate_menu_built_once_per_table_and_year(monkeypatch):
    """A plan store builds each year's menu with its plan: one lookup per
    candidate per year, whatever the year's integer type; another store
    on the same table builds its own."""
    lookups = []
    lookup = CostTable.lookup

    def counting(self, *args):
        lookups.append(args)
        return lookup(self, *args)

    scenario, _, rep, table = invest_scenario()
    reference = candidate_menu(table, 2020)
    monkeypatch.setattr(CostTable, "lookup", counting)
    store = PlanStore(scenario, rep, table)
    menu = store.plan(2020).menu
    assert isinstance(menu, tuple)
    assert menu == reference
    assert len(lookups) == len(menu) == 3
    assert store.plan(np.int64(2020)) is store.plan(2020)
    assert len(lookups) == 3
    assert store.plan(np.int64(2021)) is store.plan(2021)
    assert len(lookups) == 6
    other = PlanStore(scenario, rep, table)
    assert other.plan(2020).menu == menu
    assert other.plan(2020).menu is not menu
    assert len(lookups) == 9


def test_plan_keeps_each_candidates_first_tranche():
    """The bits of `InvestmentCandidate.tranche`, which `commit` charges."""
    menu = oracle_menu()
    plan = appraisal_plan(menu, flat_rep_year(1000.0), plain_scenario(), 2021)
    assert plan.tranche.tobytes() == np.array([c.tranche for c in menu]).tobytes()
    assert appraisal_plan((), flat_rep_year(1000.0), plain_scenario(), 2021).tranche.shape == (0,)


def invest(menu, scenario, funds, rep_year=None, genco_id="g1"):
    curves = belief_curves(scenario, 0, 0, 2020, max(horizon(c) for c in menu))
    plan = appraisal_plan(menu, rep_year or flat_rep_year(1000.0), scenario, 2020)
    npvs = appraise(plan, curves[None], scenario.nuclear_subsidy)[0].tolist()
    return invest_step(genco_id, funds, 2020, plan, npvs)


def test_invest_step_no_positive_npv():
    scenario = plain_scenario(price_curve=(0.0, 1.0))
    commitment, evals = invest([never_dispatched_candidate()], scenario, 1e12)
    assert commitment is None
    assert len(evals) == 1
    assert evals[0].npv < 0


def test_invest_step_unaffordable_candidate():
    scenario = plain_scenario(price_curve=(0.0, 80.0))
    costs = simple_costs(efficiency=0.5, operating_period=10, predev_period=1,
                         construction_period=1, construction_cost=1000.0)
    menu = [InvestmentCandidate("CCGT", 100.0, costs)]
    commitment, evals = invest(menu, scenario, 10.0)  # tranche is 50,000
    assert commitment is None
    assert evals[0].npv > 0
    assert not evals[0].affordable
    # funds that just cover the tranche afford it
    commitment, evals = invest(menu, scenario, 50000.0)
    assert commitment is not None and evals[0].affordable


def test_invest_step_picks_argmax_npv():
    cheap = simple_costs(efficiency=0.5, operating_period=10, predev_period=1,
                         construction_period=1, construction_cost=100.0)
    rich = simple_costs(efficiency=0.8, operating_period=10, predev_period=1,
                        construction_period=1, construction_cost=100.0)
    menu = [InvestmentCandidate("CCGT", 100.0, cheap),
            InvestmentCandidate("Coal", 100.0, rich)]
    scenario = plain_scenario(
        price_curve=(0.0, 80.0),
        fuel_price={"gas": {y: 20.0 for y in range(2020, 2025)},
                    "coal": {y: 20.0 for y in range(2020, 2025)}},
        fuel_map={"CCGT": "gas", "Coal": "coal"},
    )
    commitment, evals = invest(menu, scenario, 1e9)
    by_type = {e.plant_type: e.npv for e in evals}
    assert by_type["Coal"] > by_type["CCGT"] > 0  # higher efficiency, same capital
    assert commitment is not None
    assert commitment.plant.plant_type == "Coal"
    assert commitment.plant.owner_id == "g1"
    assert commitment.online_year == 2022
    assert commitment.tranches_left == 1
    assert commitment.tranche == menu[1].capital_total / 2


def test_invest_step_deterministic_across_identical_gencos():
    menu = candidate_menu(invest_cost_table(), 2020)
    scenario = plain_scenario(
        price_curve=(0.0, 80.0),
        fuel_price={"gas": {y: 20.0 for y in range(2020, 2025)},
                    "coal": {y: 10.0 for y in range(2020, 2025)}},
        fuel_map={"CCGT": "gas", "Coal": "coal"},
        emission_factor={"gas": 0.2, "coal": 0.35},
    )
    rep = flat_rep_year(1000.0, solar=0.3)
    results = []
    for gid in ("g1", "g2"):
        # sigma = 0: all beliefs equal
        commitment, _ = invest(menu, scenario, 5e8, rep, genco_id=gid)
        results.append(None if commitment is None else commitment.plant.plant_type)
    assert results[0] == results[1]


def invest_step_two_pass(genco_id, funds, year, menu, npvs):
    """Oracle: the commit decision that records every candidate first and
    then rebuilds the best candidate's record."""
    log = logging.getLogger("emsim.agents")
    evaluations = []
    best = None
    best_npv = 0.0
    idx = -1
    for i, (cand, value) in enumerate(zip(menu, npvs)):
        evaluations.append(InvestmentEvaluation(
            genco_id, year, cand.plant_type, cand.capacity_mw, value,
            committed=False, online_year=year + cand.lead_years, affordable=True,
        ))
        if value > best_npv:
            best, best_npv, idx = cand, value, i
    if best is None:
        return None, evaluations
    tranche = best.capital_total / best.capital_tranches
    if funds < tranche:
        log.info("%s: cannot afford %s (needs %.0f, has %.0f)",
                 genco_id, best.plant_type, tranche, funds)
        evaluations[idx] = InvestmentEvaluation(
            genco_id, year, best.plant_type, best.capacity_mw, best_npv,
            committed=False, online_year=year + best.lead_years, affordable=False,
        )
        return None, evaluations
    online = year + best.lead_years
    plant = PowerPlant(
        plant_id=f"{genco_id}-{best.plant_type}-{year}", owner_id=genco_id,
        plant_type=best.plant_type, capacity_mw=best.capacity_mw, construction_year=online,
        costs=best.costs, status="under_construction",
    )
    evaluations[idx] = InvestmentEvaluation(
        genco_id, year, best.plant_type, best.capacity_mw, best_npv,
        committed=True, online_year=online, affordable=True,
    )
    log.info("%s commits to %s %.0f MW (npv %.0f, online %d)",
             genco_id, best.plant_type, best.capacity_mw, best_npv, online)
    return Commitment(plant, year, online, tranche, best.capital_tranches - 1), evaluations


def oracle_menu():
    """The toy table's menu plus candidates with 0 to 4 lead years."""
    extra = tuple(
        InvestmentCandidate("Nuclear", 300.0 + 100.0 * lead, simple_costs(
            predev_period=lead // 2, construction_period=lead - lead // 2,
            predev_cost=1000.0 * (lead + 1), construction_cost=5000.0,
            infrastructure_cost=250.0 * lead))
        for lead in range(5))
    return candidate_menu(invest_cost_table(), 2020) + extra


def oracle_npv_lists():
    n = len(oracle_menu())
    rng = np.random.default_rng(12)
    yield from (list(rng.normal(0.0, 1e6, n)) for _ in range(6))
    yield [5.0, 5.0, 1.0, 5.0, -1.0, 0.0, 2.0, 5.0]          # ties for the best
    yield [-1.0, 7.5, 7.5, 0.0, 7.5, -2.0, 7.5, 7.5]
    yield [-3.0, -1.0, 0.0, -0.5, -1e9, 0.0, -2.0, -4.0]     # nothing positive
    yield [0.0] * n                                           # exact zeros
    yield [0.0, 0.0, 0.0, 0.0, 0.0, 1e-300, 0.0, 0.0]
    yield [float("nan"), 2.0, float("nan"), 3.0, 0.0, 3.0, -1.0, float("nan")]


@pytest.mark.parametrize("npvs", list(oracle_npv_lists()))
def test_invest_step_equals_the_two_pass_oracle(npvs, caplog):
    menu = oracle_menu()
    plan = appraisal_plan(menu, flat_rep_year(1000.0), plain_scenario(), 2021)
    assert len(npvs) == len(menu)
    tranches = [c.capital_total / c.capital_tranches for c in menu]
    funds_cases = [0.0, 1e12, float("nan")]
    for tranche in tranches:  # below, at and above every candidate's first tranche
        funds_cases += [np.nextafter(tranche, -np.inf), tranche, tranche * 1.5]
    for funds in funds_cases:
        with caplog.at_level(logging.INFO, logger="emsim.agents"):
            caplog.clear()
            expected = invest_step_two_pass("g7", funds, 2021, menu, npvs)
            expected_log = [(r.levelno, r.getMessage()) for r in caplog.records]
            caplog.clear()
            got = invest_step("g7", funds, 2021, plan, npvs)
            got_log = [(r.levelno, r.getMessage()) for r in caplog.records]
        assert got == expected
        assert got_log == expected_log
