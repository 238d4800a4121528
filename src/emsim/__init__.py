"""Agent-based electricity market simulator.

Pipeline: reduce multi-year hourly data to weighted representative days
(`repdays`), clear each hour in merit order under uniform pricing
(`market`), let generation companies invest by NPV against predicted
price curves (`agents`, `engine`) and calibrate those curves with a
genetic algorithm against a target electricity mix (`calibrate`).
"""

__version__ = "0.1.0"

from .ingest import (  # noqa: F401
    CostTable,
    InputError,
    PlantCosts,
    PlantRegistry,
    PowerPlant,
    ScenarioConfig,
    TimeSeriesSet,
    bundled_cost_table,
    load_cost_table,
    load_hourly_series,
    load_plant_registry,
    load_scenario,
)
from .repdays import (  # noqa: F401
    Clustering,
    DayMatrix,
    RepresentativeYear,
    assemble_year,
    build_day_matrix,
    evaluate_k_range,
    kmeans,
    select_representative,
)
from .market import (Bid, ClearingResult, clear_hours, clear_market,  # noqa: F401
                     dispatch_year, srmc)
from .agents import (  # noqa: F401
    InvestmentCandidate,
    appraisal_plan,
    appraise,
    belief_curves,
    expected_cashflow,
    invest_step,
    npv,
)
from .engine import (  # noqa: F401
    World,
    YearResult,
    init_world,
    run,
    step_year,
)
from .calibrate import (  # noqa: F401
    GAConfig,
    GAResult,
    ScenarioBundle,
    forecast_error_metrics,
    ga_run,
    longterm_layout,
    mix_error_longterm,
    mix_error_validation,
    objective_longterm,
    objective_validation,
    validation_layout,
)
