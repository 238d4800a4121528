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

from .ingest import CF_SERIES, InputError, PlantCosts, PowerPlant, ScenarioConfig, held_rows
from .market import marginal_cost
from .repdays import RepresentativeYear

log = logging.getLogger(__name__)


def belief_curves(scenario: ScenarioConfig, root_seed: int, genco_index: int,
                  sim_year: int, horizon: int) -> np.ndarray:
    """One GenCo's predicted price curves (price = m x demand + c) for the
    target years sim_year, sim_year + 1, ...: a (2, horizon) array of m
    and c, the scenario's base curves with `add_belief_noise`."""
    curves = np.array(scenario.curve_params_at(np.arange(sim_year, sim_year + horizon))).T
    add_belief_noise(curves, root_seed, genco_index, sim_year, scenario.sigma_m, scenario.sigma_c)
    return curves


def add_belief_noise(curves: np.ndarray, root_seed: int, genco_index: int, sim_year: int,
                     sigma_m: float, sigma_c: float) -> None:
    """Perturb one GenCo's (2, horizon) base curves for the target years
    sim_year, sim_year + 1, ... in place.

    Target year t adds row t of one (horizon, 2) standard normal block,
    drawn from the stream (root seed, simulated year, genco index), times
    sigma_m on m and sigma_c on c. The block fills in C order, so no draw
    depends on the horizon. Zero sigmas build no generator.
    """
    if not (sigma_m or sigma_c):
        return
    z = np.random.default_rng([root_seed, sim_year, genco_index]).standard_normal(
        (curves.shape[1], 2))
    if sigma_m:
        curves[0] += sigma_m * z[:, 0]
    if sigma_c:
        curves[1] += sigma_c * z[:, 1]


@dataclass(frozen=True)
class Beliefs:
    """The price beliefs of a batch of G genomes: each one's base price
    curves as a year table, its belief noise, and the root seed its noise
    is drawn from. `Beliefs.of` is the one-scenario case."""

    first_year: int       # the year of the tables' first row
    curves: np.ndarray    # (G, years, 2) base (m, c); years outside hold the first or last row
    sigma_m: np.ndarray   # (G,)
    sigma_c: np.ndarray   # (G,)
    seeds: np.ndarray     # (G,) root seeds

    @classmethod
    def of(cls, scenario: ScenarioConfig, seed: int) -> Beliefs:
        first, values = scenario.curve_table()
        return cls(first, values[None], np.array([scenario.sigma_m]),
                   np.array([scenario.sigma_c]), np.array([seed]))

    def take(self, index) -> Beliefs:
        """The beliefs of the genomes at `index`, in that order."""
        return Beliefs(self.first_year, self.curves[index], self.sigma_m[index],
                       self.sigma_c[index], self.seeds[index])

    def stack(self, sim_year: int, horizon: int, companies: int) -> np.ndarray:
        """Each genome's belief curves for each of `companies` GenCos, a
        (G, companies, 2, horizon) array: entry [g, i] is what
        `belief_curves` gives GenCo i under genome g's scenario and seed,
        one noise generator per (genome, GenCo) where a sigma is nonzero."""
        years = np.arange(sim_year, sim_year + horizon)
        base = self.curves[:, held_rows(self.first_year, self.curves.shape[1], years)]
        stack = np.repeat(base.transpose(0, 2, 1)[:, None], companies, axis=1)
        for g in np.flatnonzero((self.sigma_m != 0) | (self.sigma_c != 0)):
            for i in range(companies):
                add_belief_noise(stack[g, i], int(self.seeds[g]), i, sim_year,
                                 float(self.sigma_m[g]), float(self.sigma_c[g]))
        return stack


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

    @property
    def tranche(self) -> float:
        """Each capital tranche; the first is paid in the commit year."""
        return self.capital_total / self.capital_tranches


def candidate_menu(cost_table, year: int) -> tuple[InvestmentCandidate, ...]:
    """One candidate per type in the table: the largest capacity it
    offers, costed by lookup at the given year."""
    return tuple(InvestmentCandidate(ptype, capacity, cost_table.lookup(ptype, capacity, year))
                 for ptype in cost_table.types()
                 for capacity in [cost_table.largest_capacity(ptype)])


def expected_cashflow(candidate: InvestmentCandidate, curves: np.ndarray,
                      rep_year: RepresentativeYear, scenario: ScenarioConfig,
                      commit_year: int) -> np.ndarray:
    """Per-year net cash flows of a candidate committed this year: the
    one-candidate reference form of `appraise`, which the simulation no
    longer calls.

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


@dataclass(frozen=True)
class AppraisalPlan:
    """Everything the appraisal of a menu committed in one year takes
    from neither the belief curves nor the nuclear subsidy: one row per
    (candidate, operating year), the dispatchable rows first.

    A row's cash flow is the one `expected_cashflow` gives that year;
    `fixed` holds each candidate's discounted capital and fixed O&M, and
    `tranche` its first capital tranche, the bits of `InvestmentCandidate.tranche`.
    """

    menu: tuple[InvestmentCandidate, ...]  # the candidates appraised, in menu order
    horizon: int               # belief columns the menu needs
    dispatchable: int          # rows before the first intermittent one
    candidate: np.ndarray      # (R,) each row's menu index
    column: np.ndarray         # (R,) each row's belief column: years since commitment
    cost: np.ndarray           # (R,) marginal cost in the row's year
    weight: np.ndarray         # (R,) discount factor x capacity
    scale: np.ndarray          # (R,) demand scale
    nuclear: np.ndarray        # (R,) 1.0 on a nuclear row, else 0.0
    cf_sum: np.ndarray         # (R,) sum of w x cf; 0 on a dispatchable row
    cf_demand_sum: np.ndarray  # (R,) scale x sum of w x cf x demand; 0 on a dispatchable row
    fixed: np.ndarray          # (candidates,) discounted capital and fixed O&M, as negative flows
    tranche: np.ndarray        # (candidates,) the capital tranche paid in the commit year
    demand: np.ndarray         # (H,) representative demand
    hour_weights: np.ndarray   # (H,)


def appraisal_plan(menu: tuple[InvestmentCandidate, ...], rep_year: RepresentativeYear,
                   scenario: ScenarioConfig, commit_year: int) -> AppraisalPlan:
    """The plan of `menu` committed in `commit_year`; see `appraise`."""
    if not scenario.start_year <= commit_year <= scenario.end_year:
        raise InputError(f"commitment year {commit_year} outside scenario years")
    horizon = max((c.lead_years + c.operating_years for c in menu), default=0)
    discount = (1.0 + scenario.discount_rate) ** -np.arange(max(horizon, 1))
    demand, hour_weights = rep_year.series("demand"), rep_year.hour_weights
    fixed, tranche, rows = [], [], [np.empty((9, 0))]
    for index, cand in enumerate(menu):
        lead, n_years = cand.lead_years, cand.lead_years + cand.operating_years
        tranches = cand.capital_tranches
        tranche.append(cand.tranche)
        fixed.append(-tranche[-1] * discount[:tranches].sum()
                     - cand.costs.fixed_om * cand.capacity_mw * discount[lead:n_years].sum())
        years = np.arange(commit_year + lead, commit_year + n_years)
        cost = marginal_cost(cand.plant_type, cand.costs.efficiency, cand.costs.variable_om,
                             scenario, years)
        scale = scenario.demand_scale_at(years)
        series = CF_SERIES.get(cand.plant_type)
        cf = rep_year.series(series) if series else 0.0 * demand
        rows.append(np.broadcast_arrays(
            series is not None, index, years - commit_year, cost,
            discount[lead:n_years] * cand.capacity_mw, scale, cand.plant_type == "Nuclear",
            cf @ hour_weights, scale * ((cf * demand) @ hour_weights)))
    table = np.concatenate(rows, axis=1, dtype=float)
    table = table[:, np.argsort(table[0], kind="stable")]  # dispatchable rows first
    return AppraisalPlan(menu, horizon, int((table[0] == 0).sum()), table[1].astype(np.intp),
                         table[2].astype(np.intp), *table[3:], np.array(fixed, dtype=float),
                         np.array(tranche, dtype=float), demand, hour_weights)


# `appraise` prices at most this many (belief set, row, hour) cells at a
# time, so a large stack takes no more memory than one paper-scale set.
PRICE_CELLS = 1 << 16


def appraise(plan: AppraisalPlan, beliefs: np.ndarray, nuclear_subsidy: float) -> np.ndarray:
    """NPV of each candidate of the plan's menu under each belief set of
    an (S, 2, horizon) stack, as an (S, candidates) array, from one pass
    over the plan's rows. Nothing about a company but its beliefs
    enters, so companies holding byte-equal beliefs share one appraisal.

    A dispatchable row earns in exactly the hours `expected_cashflow`
    sells in: the predicted price, computed as there, covers the cost.
    An intermittent row earns capacity x (m x scale x sum(w cf d) +
    (c - cost) x sum(w cf)), the same margin in closed form. The NPVs
    agree with `npv(expected_cashflow(...))` to 1e-12 of the sum of the
    absolute discounted flows; their last bits may differ.

    A belief set's NPVs have the same bits whether it is appraised alone
    or in any stack: the dispatchable margins are (sets, rows, hours) @
    hour_weights products, over slices of at most PRICE_CELLS prices,
    which make the same matrix-vector product per set as a set alone
    does; a (sets x rows, hours) product may sum in another order.
    """
    if beliefs.shape[-1] < plan.horizon:
        raise ValueError(f"belief curves cover {beliefs.shape[-1]} years, need {plan.horizon}")
    believed = beliefs[:, :, plan.column]
    m, c = believed[:, 0], believed[:, 1]
    n = plan.dispatchable
    margin = m * plan.cf_demand_sum + (c - plan.cost) * plan.cf_sum
    demand = plan.scale[:n, None] * plan.demand
    step = max(1, PRICE_CELLS // max(demand.size, 1))
    for start in range(0, len(beliefs), step):
        sets = slice(start, start + step)
        prices = demand * m[sets, :n, None]
        prices += c[sets, :n, None]
        if nuclear_subsidy:
            prices += (nuclear_subsidy * plan.nuclear[:n])[:, None]
        prices -= plan.cost[:n, None]
        # price - cost >= 0 exactly where price >= cost, so the max keeps the sold hours
        margin[sets, :n] = np.maximum(prices, 0.0, out=prices) @ plan.hour_weights
    sets, candidates = len(beliefs), len(plan.fixed)
    bins = (np.arange(sets)[:, None] * candidates + plan.candidate).ravel()
    return plan.fixed + np.bincount(bins, (margin * plan.weight).ravel(),
                                    sets * candidates).reshape(sets, candidates)


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


@dataclass(frozen=True)
class Commitment:
    """A plant committed to in `committed_year` and its capital schedule:
    `tranches` payments of `tranche`, the first in the commit year and one
    in each year after it. The plant operates from the year after the last."""

    plant: PowerPlant
    committed_year: int
    tranche: float
    tranches: int


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


def commit_rule(funds, tranche: np.ndarray, npvs):
    """The commit decision of companies holding `funds` over an appraised
    menu (`npvs[..., i]` is the NPV of candidate i, as `appraise` returns
    it, and `tranche[i]` its first capital tranche, as `AppraisalPlan`
    holds it; `funds` broadcasts against `npvs[..., 0]`): the index of the
    first highest positive NPV (-1 when none is positive), and whether
    the funds cover that candidate's first capital tranche, as arrays of
    the shape of `npvs[..., 0]`. A company commits only when both hold."""
    npvs = np.asarray(npvs, dtype=float)
    positive = np.where(npvs > 0.0, npvs, 0.0)
    if not len(tranche):
        index = np.full(npvs.shape[:-1], -1)
        return index, np.ones(index.shape, dtype=bool)
    # argmax gives the first of equal values
    index = np.where(positive.max(axis=-1) > 0.0, positive.argmax(axis=-1), -1)
    return index, (index < 0) | ~(np.asarray(funds) < tranche[index])


def commit(genco_id: str, year: int, candidate: InvestmentCandidate) -> Commitment:
    """The plant `genco_id` commits to building in `year`, with its capital
    schedule: the first tranche is paid this year and the rest over the
    lead years."""
    plant = PowerPlant(
        plant_id=f"{genco_id}-{candidate.plant_type}-{year}",
        owner_id=genco_id,
        plant_type=candidate.plant_type,
        capacity_mw=candidate.capacity_mw,
        construction_year=year + candidate.lead_years,
        costs=candidate.costs,
    )
    return Commitment(plant, year, candidate.tranche, candidate.capital_tranches)


def invest_step(genco_id: str, funds: float, year: int, plan: AppraisalPlan,
                npvs: list[float]) -> tuple[Commitment | None, list[InvestmentEvaluation]]:
    """Apply `commit_rule` to the plan's appraised menu and record every
    candidate: the commitment made, if any, and one evaluation row per
    candidate. Nothing passed in is changed.
    """
    menu = plan.menu
    idx, affordable = commit_rule(funds, plan.tranche, npvs)
    idx, affordable = int(idx), bool(affordable)
    commitment = None
    if idx >= 0:
        best = menu[idx]
        if not affordable:
            log.info("%s: cannot afford %s (needs %.0f, has %.0f)",
                     genco_id, best.plant_type, best.tranche, funds)
        else:
            commitment = commit(genco_id, year, best)
            log.info("%s commits to %s %.0f MW (npv %.0f, online %d)", genco_id, best.plant_type,
                     best.capacity_mw, npvs[idx], commitment.plant.construction_year)
    evaluations = [InvestmentEvaluation(
        genco_id, year, cand.plant_type, cand.capacity_mw, value,
        committed=i == idx and commitment is not None,
        online_year=year + cand.lead_years, affordable=i != idx or affordable,
    ) for i, (cand, value) in enumerate(zip(menu, npvs))]
    return commitment, evaluations
