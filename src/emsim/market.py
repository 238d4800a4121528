"""Hourly merit-order dispatch under uniform pricing.

Generators bid their short-run marginal cost each hour; bids are
accepted in ascending price order until demand is met and every
dispatched plant earns the marginal bid's price. Shortfall hours price
at the configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import InputError, PowerPlant, ScenarioConfig, SERIES_NAMES
from .repdays import DAYS_PER_YEAR, HOURS_PER_DAY, RepresentativeYear


def marginal_cost(plant_type: str, efficiency: float, variable_om: float,
                  scenario: ScenarioConfig, year: int) -> float:
    """Short-run marginal cost in currency/MWh.

    fuel/eta + carbon x emissions/eta + variable O&M. Types absent from
    the scenario's fuel map burn nothing and cost only their variable
    O&M (wind, solar, hydro).
    """
    fuel = scenario.fuel_of(plant_type)
    if fuel is None:
        return variable_om
    if efficiency <= 0.0:
        raise InputError(f"fuel-burning plant type '{plant_type}' needs efficiency > 0")
    fuel_price = scenario.fuel_price_at(fuel, year)
    carbon = scenario.carbon_price_at(year) * scenario.emission_factor.get(fuel, 0.0)
    return fuel_price / efficiency + carbon / efficiency + variable_om


def srmc(plant: PowerPlant, scenario: ScenarioConfig, year: int) -> float:
    return marginal_cost(plant.plant_type, plant.costs.efficiency,
                         plant.costs.variable_om, scenario, year)


@dataclass(frozen=True)
class Bid:
    plant_id: str
    price: float
    quantity: float  # MW available this hour

    def __post_init__(self):
        if self.quantity < 0:
            raise InputError(f"bid quantity < 0 for '{self.plant_id}'")
        if not np.isfinite(self.price):
            raise InputError(f"non-finite bid price for '{self.plant_id}'")


@dataclass(frozen=True)
class ClearingResult:
    clearing_price: float
    dispatch: dict[str, float]  # plant id -> MW
    served: float
    unserved: float
    demand: float


def clear_hours(plant_ids: list[str], prices, avail: np.ndarray, demand,
                price_cap: float = 300.0):
    """Clear H hours of P plants' bids at once; the merit-order kernel.

    `prices` (P,) is each plant's bid, `avail` (H, P) the MW it offers
    each hour and `demand` (H,) the load. Each hour takes bids in
    ascending price, then larger quantity, then plant id, until demand
    is met; the last accepted bid sets the uniform price. Zero demand
    clears at price 0; a supply shortfall leaves unserved demand priced
    at the cap. Open demand is reduced one bid at a time, as a
    sequential loop would, so no float residue is left unserved.

    Returns dispatch (H, P) MW in plant order, the clearing price (H,)
    and unserved MW (H,).
    """
    prices = np.asarray(prices, dtype=float)
    avail = np.asarray(avail, dtype=float)
    demand = np.asarray(demand, dtype=float)
    bad = ~np.isfinite(prices)
    if bad.any():
        raise InputError(f"non-finite bid price for '{plant_ids[int(np.argmax(bad))]}'")
    if (demand < 0).any():
        raise InputError("demand must be >= 0")

    n_plants = avail.shape[1]
    rank = np.empty(n_plants, dtype=np.int64)
    rank[sorted(range(n_plants), key=plant_ids.__getitem__)] = np.arange(n_plants)
    order = np.lexsort((np.broadcast_to(rank, avail.shape), -avail,
                        np.broadcast_to(prices, avail.shape)))
    offered = np.take_along_axis(avail, order, axis=1)
    # open demand before each bid and after the last one
    left = np.subtract.accumulate(np.column_stack([demand, offered]), axis=1)
    left = np.where(left > 0, left, 0.0)
    take = np.where(offered > 0, np.minimum(offered, left[:, :-1]), 0.0)
    dispatch = np.empty_like(take)
    np.put_along_axis(dispatch, order, take, axis=1)

    unserved = left[:, -1]
    accepted = dispatch > 0
    marginal = np.where(accepted, prices, -np.inf).max(axis=1, initial=-np.inf)
    clearing = np.where(unserved > 0, price_cap,
                        np.where(accepted.any(axis=1), marginal, 0.0))
    return dispatch, clearing, unserved


def clear_market(bids: list[Bid], demand: float, price_cap: float = 300.0) -> ClearingResult:
    """Clear one hour: the one-hour case of `clear_hours`."""
    ids = [b.plant_id for b in bids]
    dispatch, price, unserved = clear_hours(
        ids, [b.price for b in bids], np.array([[b.quantity for b in bids]]),
        [demand], price_cap)
    unserved = float(unserved[0])
    return ClearingResult(float(price[0]), dict(zip(ids, dispatch[0].tolist())),
                          demand - unserved, unserved, demand)


@dataclass(frozen=True)
class DayDispatch:
    """24 hourly clearings of one weighted representative day; plant
    columns follow the order of the plants dispatched."""

    weight: float
    clearings: np.ndarray  # (24,) clearing price per hour
    dispatch: np.ndarray   # (24, P) MW per plant
    unserved: np.ndarray   # (24,) MW


def dispatch_year(plants: list[PowerPlant], costs, rep_year: RepresentativeYear,
                  price_cap: float, demand_scale: float = 1.0) -> list[DayDispatch]:
    """Clear every hour of every weighted representative day.

    `costs` (P,) is each plant's bid. Intermittent plants offer capacity
    x capacity factor clipped to [0, 1], every other plant its full
    capacity.
    """
    hours = rep_year.values.shape[1]
    factors = np.vstack([np.clip(rep_year.values, 0.0, 1.0), np.ones(hours)])
    rows = [SERIES_NAMES.index(p.cf_series) if p.cf_series else -1 for p in plants]
    avail = factors[rows].T * np.array([p.capacity_mw for p in plants])
    dispatch, clearing, unserved = clear_hours(
        [p.plant_id for p in plants], costs, avail,
        rep_year.values[0] * demand_scale, price_cap)
    k, n = rep_year.k, len(plants)
    return [DayDispatch(float(w), c, d, u) for w, c, d, u in zip(
        rep_year.cluster_weights, clearing.reshape(k, HOURS_PER_DAY),
        dispatch.reshape(k, HOURS_PER_DAY, n), unserved.reshape(k, HOURS_PER_DAY))]


def annual_totals(plants: list[PowerPlant], days: list[DayDispatch],
                  nuclear_subsidy: float = 0.0):
    """Per-plant lists of annual MWh, market revenue and out-of-market
    subsidy, and the unserved MWh, of a dispatched year.

    Each representative hour stands for weight x 365 hours; nuclear
    plants also earn the per-MWh subsidy. Sums run over each day's hours
    in order, then over days, so totals do not depend on how the hours
    were batched.
    """
    per_mwh = np.array([nuclear_subsidy if p.plant_type == "Nuclear" else 0.0
                        for p in plants])
    energy = revenue = subsidy = unserved = 0.0
    for day in days:
        hours = day.weight * DAYS_PER_YEAR
        mwh = day.dispatch * hours
        energy = energy + _hour_sum(mwh)
        revenue = revenue + _hour_sum(mwh * day.clearings[:, None])
        subsidy = subsidy + _hour_sum(mwh * per_mwh)
        unserved = unserved + _hour_sum(day.unserved * hours)
    return energy.tolist(), revenue.tolist(), subsidy.tolist(), float(unserved)


def _hour_sum(values: np.ndarray):
    """Sum over the hour axis strictly in order (np.sum would pair terms)."""
    return np.add.accumulate(values, axis=0)[-1]
