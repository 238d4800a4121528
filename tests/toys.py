"""Shared synthetic datasets and toy scenarios for the test suite.

Everything here is built deterministically from explicit seeds so tests
can freeze expected values.
"""

from __future__ import annotations

import csv

import numpy as np

from emsim.ingest import (
    CostTable,
    PlantCosts,
    PlantRegistry,
    PowerPlant,
    ScenarioConfig,
    TimeSeriesSet,
)
from emsim.repdays import RepresentativeYear, assemble_year


def synthetic_ts(n_days: int, seed: int = 0) -> TimeSeriesSet:
    """Correlated hourly demand/solar/wind series with seasonal and
    diurnal structure (demand peaks in winter evenings, solar in summer
    middays, offshore tracks onshore wind)."""
    rng = np.random.default_rng(seed)
    day = np.arange(n_days)[:, None]
    hour = np.arange(24)[None, :]

    season = np.cos(2 * np.pi * (day - 15) / 365.0)
    diurnal = np.sin(2 * np.pi * (hour - 9) / 24.0)
    demand = (
        30000.0
        + 5000.0 * season
        + 3500.0 * diurnal
        + 800.0 * rng.standard_normal((n_days, 24))
    )
    demand = np.maximum(demand, 0.0)

    solar_bell = np.clip(np.sin(np.pi * (hour - 6) / 12.0), 0.0, None)
    solar_amp = 0.45 - 0.30 * season + 0.10 * rng.standard_normal((n_days, 1))
    solar = np.clip(solar_amp * solar_bell + 0.02 * rng.standard_normal((n_days, 24)), 0.0, 1.0)

    wind_level = 0.35 + 0.15 * season + 0.12 * rng.standard_normal((n_days, 1))
    onshore = np.clip(wind_level + 0.05 * rng.standard_normal((n_days, 24)), 0.0, 1.0)
    offshore = np.clip(0.8 * onshore + 0.12 + 0.04 * rng.standard_normal((n_days, 24)), 0.0, 1.0)

    start = np.datetime64("2011-01-01T00:00:00", "s")
    stamps = start + np.arange(n_days * 24).astype("timedelta64[h]").astype("timedelta64[s]")
    return TimeSeriesSet(
        timestamps=stamps,
        values=np.stack([demand.ravel(), solar.ravel(), onshore.ravel(), offshore.ravel()]),
    )


def write_hourly_csv(path, ts: TimeSeriesSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "demand_mw", "solar_cf", "onshore_cf", "offshore_cf"])
        for i in range(ts.n_hours):
            stamp = np.datetime_as_string(ts.timestamps[i], unit="s")
            writer.writerow([stamp] + [repr(float(v)) for v in ts.values[:, i]])


def flat_rep_year(demand=1000.0, solar=0.0, onshore=0.0, offshore=0.0,
                  weights=(1.0,)) -> RepresentativeYear:
    """Representative year of constant-per-day profiles, one day per weight.

    Scalar series values apply to every cluster; sequences give one
    value per cluster.
    """
    k = len(weights)

    def expand(v):
        v = np.asarray(v, dtype=float)
        return np.full(k, float(v)) if v.ndim == 0 else v

    d, s, on, off = expand(demand), expand(solar), expand(onshore), expand(offshore)
    profiles = np.empty((k, 4, 24))
    for c in range(k):
        profiles[c, 0, :] = d[c]
        profiles[c, 1, :] = s[c]
        profiles[c, 2, :] = on[c]
        profiles[c, 3, :] = off[c]
    return assemble_year(profiles, np.asarray(weights, dtype=float))


def npv_tolerance(flows, discount_rate: float) -> float:
    """How far a batched appraisal's NPV may lie from `npv(flows)`: 1e-12
    of the sum of the absolute discounted flows."""
    flows = np.asarray(flows, dtype=float)
    return 1e-12 * float(np.abs(flows * (1.0 + discount_rate) ** -np.arange(len(flows))).sum())


def simple_costs(**overrides) -> PlantCosts:
    base = dict(
        efficiency=0.5, operating_period=25, predev_period=1, construction_period=1,
        predev_cost=0.0, construction_cost=0.0, infrastructure_cost=0.0,
        fixed_om=0.0, variable_om=0.0, insurance_cost=0.0, connection_cost=0.0,
    )
    base.update(overrides)
    return PlantCosts(**base)


def make_plant(pid, owner, ptype, capacity, year, costs=None) -> PowerPlant:
    return PowerPlant(pid, owner, ptype, capacity, year, costs or simple_costs())


# ---------------------------------------------------------------------------
# Transition toy: rising carbon price pushes four coal units past gas
# one by one from the third simulated year.


def transition_scenario() -> tuple[ScenarioConfig, PlantRegistry, RepresentativeYear]:
    scenario = ScenarioConfig(
        start_year=2020,
        end_year=2025,
        fuel_price={"gas": {y: 10.0 for y in range(2020, 2026)},
                    "coal": {y: 5.0 for y in range(2020, 2026)}},
        carbon_price={2020: 0.0, 2021: 0.5, 2022: 1.5, 2023: 2.5, 2024: 3.5, 2025: 4.5},
        emission_factor={"gas": 0.0, "coal": 1.0},
        fuel_map={"CCGT": "gas", "Coal": "coal"},
        price_cap=300.0,
    )
    plants = [
        make_plant("gas1", "g1", "CCGT", 1000.0, 2018,
                   simple_costs(efficiency=0.5, operating_period=100)),
    ]
    for i, eta in enumerate((0.45, 0.40, 0.35, 0.30)):
        plants.append(make_plant(f"coal{i}", "g2", "Coal", 250.0, 2015,
                                 simple_costs(efficiency=eta, operating_period=100)))
    registry = PlantRegistry(plants=tuple(plants), funds={"g1": 0.0, "g2": 0.0})
    rep = flat_rep_year(demand=1000.0)
    return scenario, registry, rep


# ---------------------------------------------------------------------------
# Investment toy: three technologies whose uptake responds to the
# predicted price curve; used for the GA-versus-grid-search oracle.


def invest_cost_table() -> CostTable:
    rows = {
        ("CCGT", 1500.0, 2020): PlantCosts(
            efficiency=0.5, operating_period=25, predev_period=1, construction_period=1,
            predev_cost=10000, construction_cost=500000, infrastructure_cost=15000,
            fixed_om=12000, variable_om=2, insurance_cost=0, connection_cost=0),
        ("Coal", 1500.0, 2020): PlantCosts(
            efficiency=0.35, operating_period=30, predev_period=1, construction_period=1,
            predev_cost=20000, construction_cost=1800000, infrastructure_cost=10000,
            fixed_om=30000, variable_om=3, insurance_cost=0, connection_cost=0),
        ("PV", 1000.0, 2020): PlantCosts(
            efficiency=1.0, operating_period=25, predev_period=1, construction_period=0,
            predev_cost=5000, construction_cost=700000, infrastructure_cost=0,
            fixed_om=6000, variable_om=0, insurance_cost=0, connection_cost=0),
    }
    return CostTable(rows=rows)


def invest_scenario(end_year: int = 2023) -> tuple[ScenarioConfig, PlantRegistry,
                                                   RepresentativeYear, CostTable]:
    years = range(2020, end_year + 1)
    scenario = ScenarioConfig(
        start_year=2020,
        end_year=end_year,
        fuel_price={"gas": {y: 20.0 for y in years}, "coal": {y: 10.0 for y in years}},
        carbon_price={y: 10.0 for y in years},
        emission_factor={"gas": 0.2, "coal": 0.35},
        fuel_map={"CCGT": "gas", "Coal": "coal"},
        price_cap=300.0,
        discount_rate=0.06,
    )
    table = invest_cost_table()
    plants = (
        make_plant("ccgt0", "g1", "CCGT", 15000.0, 2018, table.lookup("CCGT", 1500, 2020)),
        make_plant("coal0", "g2", "Coal", 14000.0, 2015, table.lookup("Coal", 1500, 2020)),
        make_plant("pv0", "g1", "PV", 4000.0, 2019, table.lookup("PV", 1000, 2020)),
    )
    registry = PlantRegistry(plants=plants, funds={"g1": 2.2e9, "g2": 1.4e9})
    rep = flat_rep_year(demand=(20000.0, 35000.0), solar=(0.2, 0.6), weights=(0.5, 0.5))
    return scenario, registry, rep, table


# ---------------------------------------------------------------------------
# CSV/YAML writers for CLI round trips


def write_registry_csv(path, registry: PlantRegistry) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plant_id", "owner_id", "type", "capacity_mw",
                         "construction_year", "funds"])
        for p in registry.plants:
            writer.writerow([p.plant_id, p.owner_id, p.plant_type, p.capacity_mw,
                             p.construction_year, registry.funds[p.owner_id]])


def write_cost_csv(path, table: CostTable) -> None:
    from emsim.ingest import save_cost_table
    save_cost_table(table, path)


def write_scenario_yaml(path, scenario: ScenarioConfig) -> None:
    import yaml

    doc = {
        "start_year": scenario.start_year,
        "end_year": scenario.end_year,
        "fuel_price": {f: dict(t) for f, t in scenario.fuel_price.items()},
        "carbon_price": dict(scenario.carbon_price),
        "discount_rate": scenario.discount_rate,
        "price_cap": scenario.price_cap,
        "nuclear_subsidy": scenario.nuclear_subsidy,
        "sigma_m": scenario.sigma_m,
        "sigma_c": scenario.sigma_c,
        "rng_seed": scenario.rng_seed,
        "emission_factor": dict(scenario.emission_factor),
        "fuel_map": dict(scenario.fuel_map),
        "price_curve": {"m": scenario.price_curve[0], "c": scenario.price_curve[1]},
    }
    if scenario.demand_scale:
        doc["demand_scale"] = dict(scenario.demand_scale)
    if scenario.scheduled_retirements:
        doc["scheduled_retirements"] = [
            {"plant_id": pid, "year": year} for pid, year in scenario.scheduled_retirements
        ]
    if scenario.price_curve_by_year:
        doc["price_curve_by_year"] = {
            y: {"m": m, "c": c} for y, (m, c) in scenario.price_curve_by_year.items()
        }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def write_target_csv(path, target: dict[int, dict[str, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "type", "share"])
        for year in sorted(target):
            for ptype in sorted(target[year]):
                writer.writerow([year, ptype, repr(float(target[year][ptype]))])
