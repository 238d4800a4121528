"""Generation company agents and their investment appraisal.

GenCos form expectations of future electricity prices with a linear
predicted price duration curve (price = m x demand + c), optionally
perturbed per company to model divergent beliefs. Candidate plants are
compared by the net present value of their expected cash flows and the
best positive-NPV candidate a company can afford is committed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ingest import CF_SERIES, InputError, PlantCosts, PowerPlant, ScenarioConfig
from .market import marginal_cost
from .repdays import RepresentativeYear

log = logging.getLogger(__name__)


def belief_curves(scenario: ScenarioConfig, root_seed: int, genco_index: int,
                  sim_year: int, horizon: int) -> np.ndarray:
    """One GenCo's predicted price curves (price = m x demand + c) for the
    target years sim_year, sim_year + 1, ...: a (2, horizon) array of m
    and c.

    Each target year perturbs its base curve with normal noise on m, then
    on c, drawn from the stream (root seed, simulated year, genco index,
    target year), so a draw never depends on which years are asked for.
    A zero sigma draws nothing, and zero sigmas build no generator.
    """
    years = np.arange(sim_year, sim_year + horizon)
    curves = np.array(scenario.curve_params_at(years)).T
    sigma_m, sigma_c = scenario.sigma_m, scenario.sigma_c
    if sigma_m or sigma_c:
        for t, year in enumerate(years):
            rng = np.random.default_rng([root_seed, sim_year, genco_index, year])
            if sigma_m:
                curves[0, t] = rng.normal(curves[0, t], sigma_m)
            if sigma_c:
                curves[1, t] = rng.normal(curves[1, t], sigma_c)
    return curves


@dataclass(frozen=True)
class InvestmentCandidate:
    plant_type: str
    capacity_mw: float
    costs: PlantCosts

    @property
    def lead_years(self) -> int:
        """Years of pre-development plus construction before operation."""
        return int(round(self.costs.predev_period + self.costs.construction_period))

    @property
    def operating_years(self) -> int:
        return int(round(self.costs.operating_period))

    @property
    def capital_total(self) -> float:
        return ((self.costs.predev_cost + self.costs.construction_cost) * self.capacity_mw
                + self.costs.infrastructure_cost)

    @property
    def capital_tranches(self) -> int:
        """Capital is spread uniformly over the lead years (one tranche
        when there is no lead time)."""
        return max(1, self.lead_years)


def candidate_menu(cost_table, year: int) -> list[InvestmentCandidate]:
    """One candidate per type in the table: the largest capacity it
    offers, costed by lookup at the given year."""
    menu = []
    for ptype in cost_table.types():
        caps = [k[1] for k in cost_table.keys_for(ptype)]
        capacity = max(caps)
        costs = cost_table.lookup(ptype, capacity, year)
        menu.append(InvestmentCandidate(ptype, capacity, costs))
    return menu


def expected_cashflow(candidate: InvestmentCandidate, curves: np.ndarray,
                      rep_year: RepresentativeYear, scenario: ScenarioConfig,
                      commit_year: int) -> np.ndarray:
    """Per-year net cash flows of a candidate committed this year.

    Capital is charged over the lead years; every operating year pays
    fixed O&M and earns the expected margin: for each weighted
    representative hour the predicted price (the year's column of
    `belief_curves` evaluated at that hour's scaled demand, plus the
    nuclear subsidy for nuclear) is compared with the candidate's
    marginal cost — intermittent plants sell capacity x capacity factor
    regardless, dispatchable plants sell full capacity only in hours
    where the expected price covers cost. Scenario prices beyond the
    configured horizon hold their last value.
    """
    if not scenario.start_year <= commit_year <= scenario.end_year:
        raise InputError(f"commitment year {commit_year} outside scenario years")
    lead = candidate.lead_years
    n_years = lead + candidate.operating_years
    if curves.shape[1] < n_years:
        raise ValueError(f"belief curves cover {curves.shape[1]} years, need {n_years}")
    cashflow = np.zeros(n_years if n_years > 0 else 1)

    tranche = candidate.capital_total / candidate.capital_tranches
    cashflow[:candidate.capital_tranches] -= tranche

    # one row per operating year, one column per representative hour
    years = np.arange(commit_year + lead, commit_year + n_years)
    scale = scenario.demand_scale_at(years)[:, None]
    cost = np.reshape(marginal_cost(candidate.plant_type, candidate.costs.efficiency,
                                    candidate.costs.variable_om, scenario, years), (-1, 1))
    m, c = curves[:, lead:n_years, None]
    prices = m * (rep_year.series("demand") * scale) + c
    if candidate.plant_type == "Nuclear":
        prices = prices + scenario.nuclear_subsidy
    if candidate.plant_type in CF_SERIES:
        sold = candidate.capacity_mw * rep_year.series(CF_SERIES[candidate.plant_type])
    else:
        sold = np.where(prices >= cost, candidate.capacity_mw, 0.0)
    # one 1-D dot per year: a matrix-vector product may round differently
    weights = rep_year.hour_weights
    margin = np.array([row @ weights for row in (prices - cost) * sold], dtype=float)
    cashflow[lead:n_years] += margin - candidate.costs.fixed_om * candidate.capacity_mw
    return cashflow


def npv(cashflows, discount_rate: float) -> float:
    """Net present value: sum of R_t / (1 + i)^t with t counted from 0.

    A zero discount rate reduces to the plain sum exactly.
    """
    if discount_rate <= -1:
        raise InputError("discount rate must be > -1")
    r = np.asarray(cashflows, dtype=float)
    if discount_rate == 0.0:
        return float(r.sum())
    discounts = (1.0 + discount_rate) ** -np.arange(len(r))
    return float(r @ discounts)


@dataclass
class Commitment:
    """A plant under construction with its remaining capital schedule."""

    plant: PowerPlant
    committed_year: int
    online_year: int
    tranche: float
    tranches_left: int


@dataclass(frozen=True)
class InvestmentEvaluation:
    genco_id: str
    year: int
    plant_type: str
    capacity_mw: float
    npv: float
    committed: bool
    online_year: int
    affordable: bool


def appraise(menu: list[InvestmentCandidate], beliefs: np.ndarray,
             rep_year: RepresentativeYear, scenario: ScenarioConfig,
             year: int) -> list[float]:
    """NPV of each menu candidate committed in `year` under one set of
    belief curves. Nothing about a company but its beliefs enters, so
    companies holding byte-equal beliefs share one appraisal."""
    return [npv(expected_cashflow(cand, beliefs, rep_year, scenario, year),
                scenario.discount_rate) for cand in menu]


def invest_step(genco_id: str, funds: float, year: int, menu: list[InvestmentCandidate],
                npvs: list[float]) -> tuple[Commitment | None, list[InvestmentEvaluation]]:
    """Commit to at most one plant of the appraised menu (`npvs[i]` is the
    NPV of `menu[i]`, as `appraise` returns it).

    The highest-NPV candidate is committed if its NPV is positive and
    `funds` cover the first capital tranche; the company's settlement pays
    that tranche this year and the rest over the lead years. Nothing
    passed in is changed.
    """
    evaluations: list[InvestmentEvaluation] = []
    best: InvestmentCandidate | None = None
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
        plant_id=f"{genco_id}-{best.plant_type}-{year}",
        owner_id=genco_id,
        plant_type=best.plant_type,
        capacity_mw=best.capacity_mw,
        construction_year=online,
        costs=best.costs,
        status="under_construction",
    )
    evaluations[idx] = InvestmentEvaluation(
        genco_id, year, best.plant_type, best.capacity_mw, best_npv,
        committed=True, online_year=online, affordable=True,
    )
    log.info("%s commits to %s %.0f MW (npv %.0f, online %d)",
             genco_id, best.plant_type, best.capacity_mw, best_npv, online)
    return Commitment(plant, year, online, tranche, best.capital_tranches - 1), evaluations
