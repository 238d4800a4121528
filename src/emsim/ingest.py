"""Input data loading and validation.

Everything the simulator consumes from disk comes through here: hourly
demand/capacity-factor series, power plant cost tables (with
interpolation across capacity and year), plant registries and scenario
configuration files. All loaders are pure functions of the file
contents and return immutable-by-convention values.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

log = logging.getLogger(__name__)

HOURS_PER_DAY = 24

# Column names of the hourly series CSV, in file order.
SERIES_COLUMNS = ("demand_mw", "solar_cf", "onshore_cf", "offshore_cf")
# Internal series names used throughout the package (demand in MW, rest
# are capacity factors in [0, 1]).
SERIES_NAMES = ("demand", "solar_cf", "onshore_cf", "offshore_cf")

PLANT_TYPES = frozenset({
    "CCGT", "Coal", "Nuclear", "OCGT", "Offshore", "Onshore", "PV",
    "Hydro", "RecipDiesel", "RecipGas",
})
# Capacity-factor series that drives each intermittent plant type.
CF_SERIES = {"Offshore": "offshore_cf", "Onshore": "onshore_cf", "PV": "solar_cf"}


class InputError(ValueError):
    """An input file or configuration failed validation."""


# ---------------------------------------------------------------------------
# Hourly time series


@dataclass(frozen=True)
class TimeSeriesSet:
    """Aligned hourly series over complete days only.

    `values[s]` is series `SERIES_NAMES[s]`, one column per timestamp;
    the hour count is a multiple of 24. Demand is in MW, the three
    capacity-factor series are in [0, 1].
    """

    timestamps: np.ndarray  # datetime64[s]
    values: np.ndarray      # (4, hours)
    dropped_hours: int = 0
    rejected_rows: int = 0

    def __post_init__(self):
        n = len(self.timestamps)
        if self.values.shape != (len(SERIES_NAMES), n):
            raise InputError(f"series block shape {self.values.shape} != "
                             f"({len(SERIES_NAMES)}, {n} timestamps)")
        if n % HOURS_PER_DAY != 0:
            raise InputError("series length is not a whole number of days")
        for name in ("solar_cf", "onshore_cf", "offshore_cf"):
            v = self.series(name)
            if len(v) and (v.min() < 0.0 or v.max() > 1.0):
                raise InputError(f"capacity factor out of [0, 1] in '{name}'")
        if n and self.series("demand").min() < 0.0:
            raise InputError("negative demand")

    @property
    def n_hours(self) -> int:
        return len(self.timestamps)

    @property
    def n_days(self) -> int:
        return self.n_hours // HOURS_PER_DAY

    def series(self, name: str) -> np.ndarray:
        return self.values[SERIES_NAMES.index(name)]


def _parse_float(text: str, path, row_no: int, col: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise InputError(f"{path}: non-numeric value {text!r} in column '{col}' (row {row_no})")
    if not math.isfinite(value):
        raise InputError(f"{path}: non-finite value {text!r} in column '{col}' (row {row_no})")
    return value


def _parse_int(text: str, path, row_no: int, col: str) -> int:
    value = _parse_float(text, path, row_no, col)
    if not value.is_integer():
        raise InputError(f"{path}: non-integer value {text!r} in column '{col}' (row {row_no})")
    return int(value)


def _parse_timestamp(text: str) -> np.datetime64:
    """ISO-8601 to naive datetime64[s]; offsets (incl. 'Z') become UTC."""
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(stamp, "s")


def load_hourly_series(path) -> TimeSeriesSet:
    """Load the hourly series CSV, keeping only complete 24-hour days.

    Rows whose capacity factors fall outside [0, 1] (or whose demand is
    negative) are rejected; loading fails if more than 1% of rows are
    rejected. Partial days at the boundaries (or days broken by
    rejected/missing hours) are dropped and the dropped-hour count is
    reported on the returned set.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("timestamp",) + SERIES_COLUMNS if c not in header]
        if missing:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")

        stamps: list[np.datetime64] = []
        values: list[tuple[float, float, float, float]] = []
        rejected = 0
        total = 0
        prev = None
        for row_no, row in enumerate(reader, start=2):
            total += 1
            try:
                ts = _parse_timestamp(row["timestamp"])
            except ValueError:
                raise InputError(f"{path}: bad timestamp {row['timestamp']!r} (row {row_no})")
            if prev is not None and ts <= prev:
                raise InputError(f"{path}: timestamps not strictly increasing (row {row_no})")
            prev = ts
            vals = tuple(_parse_float(row[c], path, row_no, c) for c in SERIES_COLUMNS)
            if vals[0] < 0.0 or any(v < 0.0 or v > 1.0 for v in vals[1:]):
                rejected += 1
                continue
            stamps.append(ts)
            values.append(vals)

        if total and rejected / total > 0.01:
            raise InputError(
                f"{path}: {rejected} of {total} rows rejected (>1% out of range)"
            )

    ts_arr = np.array(stamps, dtype="datetime64[s]")
    val_arr = np.array(values, dtype=float).reshape(-1, 4)

    keep = _complete_day_mask(ts_arr)
    dropped = int(len(ts_arr) - keep.sum())
    if dropped:
        log.info("%s: dropped %d hour(s) outside complete days", path, dropped)
    if rejected:
        log.info("%s: rejected %d out-of-range row(s)", path, rejected)

    return TimeSeriesSet(
        timestamps=ts_arr[keep],
        values=np.ascontiguousarray(val_arr[keep].T),
        dropped_hours=dropped,
        rejected_rows=rejected,
    )


def _complete_day_mask(timestamps: np.ndarray) -> np.ndarray:
    """True for hours belonging to a calendar day with all 24 hours present."""
    n = len(timestamps)
    if not n:
        return np.zeros(0, dtype=bool)
    days = timestamps.astype("datetime64[D]")
    hours = (timestamps - days).astype("timedelta64[h]").astype(int)
    starts = np.flatnonzero(np.r_[True, days[1:] != days[:-1]])
    lengths = np.diff(np.r_[starts, n])
    # a day run is complete when it holds 24 stamps reading hours 0..23 in order
    on_clock = hours == np.arange(n) - np.repeat(starts, lengths)
    complete = (lengths == HOURS_PER_DAY) & np.logical_and.reduceat(on_clock, starts)
    return np.repeat(complete, lengths)


# ---------------------------------------------------------------------------
# Plant cost table


@dataclass(frozen=True)
class PlantCosts:
    """Techno-economic record for one plant type/size/vintage.

    Periods are in years; costs are currency per MW except
    infrastructure_cost which is an absolute amount. connection_cost may
    be negative (reciprocating engines).
    """

    efficiency: float
    operating_period: float
    predev_period: float
    construction_period: float
    predev_cost: float
    construction_cost: float
    infrastructure_cost: float
    fixed_om: float
    variable_om: float
    insurance_cost: float
    connection_cost: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise InputError(f"efficiency {self.efficiency} outside [0, 1]")
        for name in ("operating_period", "predev_period", "construction_period"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")
        for name in ("predev_cost", "construction_cost", "infrastructure_cost",
                     "fixed_om", "variable_om", "insurance_cost"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "PlantCosts":
        names = [f.name for f in fields(cls)]
        return cls(**{n: float(v) for n, v in zip(names, arr)})


COST_COLUMNS = ("efficiency", "op", "pd", "cd", "pc", "cc", "ic", "fc", "vc", "inc", "conc")
_COST_FIELDS = tuple(f.name for f in fields(PlantCosts))

CostKey = tuple[str, float, int]


@dataclass(frozen=True)
class CostTable:
    """Cost records keyed by (type, capacity, year)."""

    rows: dict[CostKey, PlantCosts]

    def types(self) -> list[str]:
        return sorted({k[0] for k in self.rows})

    def keys_for(self, plant_type: str) -> list[CostKey]:
        return sorted(k for k in self.rows if k[0] == plant_type)

    def years_for(self, plant_type: str) -> list[int]:
        return sorted({k[2] for k in self.rows if k[0] == plant_type})

    def capacities_at(self, plant_type: str, year: int) -> list[float]:
        return sorted({k[1] for k in self.rows if k[0] == plant_type and k[2] == year})

    def lookup(self, plant_type: str, capacity_mw: float, year: int) -> PlantCosts:
        costs, path = self.resolve(plant_type, capacity_mw, year)
        log.debug("cost lookup (%s, %s, %s): %s", plant_type, capacity_mw, year, path)
        return costs

    def resolve(self, plant_type: str, capacity_mw: float, year: int) -> tuple[PlantCosts, str]:
        """Resolve costs plus a description of how the value was obtained.

        Exact keys are returned verbatim. Otherwise each field is
        linearly interpolated across capacity at the two bracketing
        years, then across year; queries outside the table hull are
        clamped to the nearest row.
        """
        if plant_type not in {k[0] for k in self.rows}:
            raise InputError(f"unknown plant type '{plant_type}' in cost table")
        capacity_mw = float(capacity_mw)
        year = int(year)

        key = (plant_type, capacity_mw, year)
        if key in self.rows:
            return self.rows[key], "exact"

        years = self.years_for(plant_type)
        y_lo, y_hi, y_note = _bracket(years, year)
        lo_arr, lo_note = self._capacity_interp(plant_type, y_lo, capacity_mw)
        if y_hi == y_lo:
            return PlantCosts.from_array(lo_arr), f"year={y_note}, capacity={lo_note}"
        hi_arr, hi_note = self._capacity_interp(plant_type, y_hi, capacity_mw)
        frac = (year - y_lo) / (y_hi - y_lo)
        arr = lo_arr + frac * (hi_arr - lo_arr)
        path = f"year=interp({y_lo}..{y_hi}), capacity=[{lo_note} @ {y_lo}, {hi_note} @ {y_hi}]"
        return PlantCosts.from_array(arr), path

    def _capacity_interp(self, plant_type: str, year: int, capacity_mw: float) -> tuple[np.ndarray, str]:
        caps = self.capacities_at(plant_type, year)
        c_lo, c_hi, note = _bracket(caps, capacity_mw)
        lo = self.rows[(plant_type, c_lo, year)].as_array()
        if c_hi == c_lo:
            return lo, note
        hi = self.rows[(plant_type, c_hi, year)].as_array()
        frac = (capacity_mw - c_lo) / (c_hi - c_lo)
        return lo + frac * (hi - lo), note


def _bracket(sorted_values, x):
    """Bracketing pair of x within sorted_values, clamped at the ends."""
    if x <= sorted_values[0]:
        v = sorted_values[0]
        note = "exact" if x == v else f"clamped({v})"
        return v, v, note
    if x >= sorted_values[-1]:
        v = sorted_values[-1]
        note = "exact" if x == v else f"clamped({v})"
        return v, v, note
    for lo, hi in zip(sorted_values, sorted_values[1:]):
        if lo <= x <= hi:
            if x == lo:
                return lo, lo, "exact"
            if x == hi:
                return hi, hi, "exact"
            return lo, hi, f"interp({lo}..{hi})"
    raise AssertionError("unreachable")


def _expand_year_cell(cell: str, path, row_no: int) -> list[int]:
    """Expand a composite year cell such as '2018/20/25' into full years."""
    malformed = InputError(f"{path}: malformed year cell {cell!r} (row {row_no})")
    parts = cell.strip().split("/")
    if not parts[0].isdigit() or len(parts[0]) != 4:
        raise malformed
    base = parts[0]
    years = [int(base)]
    for p in parts[1:]:
        if len(p) == 4 and p.isdigit():
            years.append(int(p))
        elif len(p) == 2 and p.isdigit():
            years.append(int(base[:2] + p))
        else:
            raise malformed
    return years


def load_cost_table(path) -> CostTable:
    """Load a plant cost CSV (columns: type,capacity_mw,year,efficiency,
    op,pd,cd,pc,cc,ic,fc,vc,inc,conc). Composite year cells expand to
    one row per year; duplicate (type, capacity, year) keys are an error.
    """
    path = Path(path)
    rows: dict[CostKey, PlantCosts] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = ("type", "capacity_mw", "year") + COST_COLUMNS
        missing = [c for c in required if c not in header]
        if missing:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
        for row_no, row in enumerate(reader, start=2):
            ptype = row["type"].strip()
            if ptype not in PLANT_TYPES:
                raise InputError(f"{path}: unknown plant type {ptype!r} (row {row_no})")
            cap = _parse_float(row["capacity_mw"], path, row_no, "capacity_mw")
            vals = [_parse_float(row[c], path, row_no, c) for c in COST_COLUMNS]
            if vals[0] > 1.0:
                raise InputError(f"{path}: efficiency > 1 (row {row_no})")
            try:
                costs = PlantCosts(**dict(zip(_COST_FIELDS, vals)))
            except InputError as exc:
                raise InputError(f"{path}: {exc} (row {row_no})")
            for year in _expand_year_cell(row["year"], path, row_no):
                key = (ptype, cap, year)
                if key in rows:
                    raise InputError(f"{path}: duplicate cost row for {key}")
                rows[key] = costs
    if not rows:
        raise InputError(f"{path}: empty cost table")
    return CostTable(rows=rows)


def save_cost_table(table: CostTable, path) -> None:
    """Write a cost table back to CSV (one row per expanded year)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("type", "capacity_mw", "year") + COST_COLUMNS)
        for (ptype, cap, year), costs in sorted(table.rows.items()):
            writer.writerow([ptype, repr(cap), year] + [repr(getattr(costs, f)) for f in _COST_FIELDS])


_DATA_DIR = Path(__file__).parent / "data"


def bundled_cost_table() -> CostTable:
    """The packaged modern + historic cost tables merged into one."""
    modern = load_cost_table(_DATA_DIR / "modern_plant_costs.csv")
    historic = load_cost_table(_DATA_DIR / "historic_plant_costs.csv")
    rows = dict(historic.rows)
    overlap = rows.keys() & modern.rows.keys()
    if overlap:
        raise InputError(f"bundled tables overlap on {sorted(overlap)[:3]}")
    rows.update(modern.rows)
    return CostTable(rows=rows)


# ---------------------------------------------------------------------------
# Plant registry


@dataclass
class PowerPlant:
    plant_id: str
    owner_id: str
    plant_type: str
    capacity_mw: float
    construction_year: int
    costs: PlantCosts
    status: str = "operating"  # operating | under_construction | retired

    def __post_init__(self):
        if self.plant_type not in PLANT_TYPES:
            raise InputError(f"unknown plant type '{self.plant_type}'")
        if self.capacity_mw <= 0:
            raise InputError(f"plant {self.plant_id}: capacity must be > 0")

    @property
    def cf_series(self) -> str | None:
        return CF_SERIES.get(self.plant_type)


@dataclass(frozen=True)
class PlantRegistry:
    plants: tuple[PowerPlant, ...]
    funds: dict[str, float]  # owner id -> opening funds


def load_plant_registry(path, cost_table: CostTable) -> PlantRegistry:
    """Load the plant registry CSV and resolve each plant's costs.

    Columns: plant_id,owner_id,type,capacity_mw,construction_year with an
    optional funds column giving the owner's opening funds (all rows of
    one owner must agree; absent means 0).
    """
    path = Path(path)
    plants: list[PowerPlant] = []
    funds: dict[str, float] = {}
    seen_ids: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = ("plant_id", "owner_id", "type", "capacity_mw", "construction_year")
        missing = [c for c in required if c not in header]
        if missing:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
        has_funds = "funds" in header
        for row_no, row in enumerate(reader, start=2):
            pid = row["plant_id"].strip()
            owner = row["owner_id"].strip()
            if not pid:
                raise InputError(f"{path}: empty plant_id (row {row_no})")
            if pid in seen_ids:
                raise InputError(f"{path}: duplicate plant_id '{pid}' (row {row_no})")
            seen_ids.add(pid)
            if not owner:
                raise InputError(f"{path}: plant '{pid}' has no owner id (row {row_no})")
            ptype = row["type"].strip()
            cap = _parse_float(row["capacity_mw"], path, row_no, "capacity_mw")
            year = _parse_int(row["construction_year"], path, row_no, "construction_year")
            costs = cost_table.lookup(ptype, cap, year)
            plants.append(PowerPlant(pid, owner, ptype, cap, year, costs))
            if has_funds and row["funds"].strip():
                f = _parse_float(row["funds"], path, row_no, "funds")
                if owner in funds and funds[owner] != f:
                    raise InputError(f"{path}: conflicting funds for owner '{owner}' (row {row_no})")
                funds[owner] = f
            else:
                funds.setdefault(owner, 0.0)
    return PlantRegistry(plants=tuple(plants), funds=funds)


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Exogenous simulation inputs: years, prices, policy parameters."""

    start_year: int
    end_year: int
    fuel_price: dict[str, dict[int, float]] = field(default_factory=dict)
    carbon_price: dict[int, float] = field(default_factory=dict)
    demand_scale: dict[int, float] = field(default_factory=dict)
    scheduled_retirements: tuple[tuple[str, int], ...] = ()
    discount_rate: float = 0.06
    price_cap: float = 300.0
    nuclear_subsidy: float = 0.0
    sigma_m: float = 0.0
    sigma_c: float = 0.0
    rng_seed: int = 0
    emission_factor: dict[str, float] = field(default_factory=dict)
    fuel_map: dict[str, str] = field(default_factory=dict)
    price_curve: tuple[float, float] = (0.0, 0.0)  # (m, c), used when no per-year curve
    price_curve_by_year: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for what, table in self._year_tables().items():  # held outside, never filled inside
            gaps = sorted(set(range(min(table), max(table) + 1)) - set(table)) if table else []
            if gaps:
                raise InputError(f"{what} has no entry for year {gaps[0]} "
                                 f"(its years run {min(table)}-{max(table)})")
        if self.end_year < self.start_year:
            raise InputError("end_year must be >= start_year")
        if self.sigma_m < 0 or self.sigma_c < 0:
            raise InputError("sigma_m and sigma_c must be >= 0")
        if self.discount_rate <= -1:
            raise InputError("discount_rate must be > -1")
        for year in self.years():
            if year not in self.carbon_price:
                raise InputError(f"carbon price missing for simulated year {year}")
            for fuel in set(self.fuel_map.values()):
                if year not in self.fuel_price.get(fuel, {}):
                    raise InputError(f"fuel price for '{fuel}' missing for simulated year {year}")
        if any(scale < 0 for scale in self.demand_scale.values()):
            raise InputError("demand_scale must be >= 0")

    def _year_tables(self) -> dict[str, dict]:
        """Every year table by the name `held` reads it under; an empty demand
        scale holds 1.0 and no per-year curves hold the single price curve."""
        return {**{f"fuel_price.{fuel}": t for fuel, t in self.fuel_price.items()},
                "price_curve_by_year": self.price_curve_by_year or {0: self.price_curve},
                "carbon_price": self.carbon_price, "demand_scale": self.demand_scale or {0: 1.0}}

    @cached_property
    def _tables(self) -> dict[str, tuple[int, np.ndarray]]:
        """Each non-empty year table as its first year and its values in
        year order, built on first use."""
        return {what: (min(t), np.array([t[y] for y in sorted(t)], dtype=float))
                for what, t in self._year_tables().items() if t}

    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)

    def held(self, what: str, years):
        """Values of the named year table for an int or an array of years;
        a year before or after the table holds its first or last value."""
        if what not in self._tables:
            raise InputError(f"{what} has no entries")
        first, values = self._tables[what]
        return values[np.minimum(np.maximum(np.asarray(years) - first, 0), len(values) - 1)]

    def demand_scale_at(self, years):
        """Held demand scale per year; 1.0 when the table is empty."""
        return self.held("demand_scale", years)

    def curve_params_at(self, years) -> np.ndarray:
        """Held base price curve (m, c) per year, on the last axis; the
        single `price_curve` when no per-year curves are given."""
        return self.held("price_curve_by_year", years)


_SCENARIO_KEYS = {
    "start_year", "end_year", "fuel_price", "carbon_price", "demand_scale",
    "scheduled_retirements", "discount_rate", "price_cap", "nuclear_subsidy",
    "sigma_m", "sigma_c", "rng_seed", "emission_factor", "fuel_map",
    "price_curve", "price_curve_by_year",
}


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario configuration (YAML key/value + per-year tables).

    Unknown keys are errors so typos fail loudly.
    """
    path = Path(path)
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: scenario must be a mapping")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise InputError(f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    for key in ("start_year", "end_year"):
        if key not in raw:
            raise InputError(f"{path}: missing required key '{key}'")

    def number(value, key: str) -> float:
        try:
            x = float(value)
        except (TypeError, ValueError):
            raise InputError(f"{path}: {key} must be numeric (got {value!r})") from None
        if not math.isfinite(x):
            raise InputError(f"{path}: {key} must be finite (got {value!r})")
        return x

    def whole(value, key: str) -> int:
        """2020 and 2020.0 load as 2020; 2020.7 is an error, not 2020."""
        if isinstance(value, int):
            return int(value)
        x = number(value, key)
        if not x.is_integer():
            raise InputError(f"{path}: {key} must be a whole number (got {value!r})")
        return int(x)

    def year_table(obj, what) -> dict[int, float]:
        if obj is None:
            return {}
        if not isinstance(obj, dict):
            raise InputError(f"{path}: {what} must be a year -> value mapping")
        return {whole(y, f"{what} year"): number(v, f"{what}.{y}") for y, v in obj.items()}

    fuel_price = {
        str(fuel): year_table(tbl, f"fuel_price.{fuel}")
        for fuel, tbl in (raw.get("fuel_price") or {}).items()
    }
    retirements = []
    for item in raw.get("scheduled_retirements") or []:
        if not isinstance(item, dict) or "plant_id" not in item or "year" not in item:
            raise InputError(f"{path}: scheduled_retirements entries need plant_id and year")
        retirements.append((str(item["plant_id"]),
                            whole(item["year"], "scheduled_retirements year")))

    def curve_pair(obj, what) -> tuple[float, float]:
        if not isinstance(obj, dict) or set(obj) != {"m", "c"}:
            raise InputError(f"{path}: {what} must be a mapping with keys m and c")
        return (number(obj["m"], f"{what}.m"), number(obj["c"], f"{what}.c"))

    curve = curve_pair(raw["price_curve"], "price_curve") if "price_curve" in raw else (0.0, 0.0)
    curve_by_year = {
        whole(y, "price_curve_by_year year"): curve_pair(v, f"price_curve_by_year.{y}")
        for y, v in (raw.get("price_curve_by_year") or {}).items()
    }

    config = dict(
        start_year=whole(raw["start_year"], "start_year"),
        end_year=whole(raw["end_year"], "end_year"),
        fuel_price=fuel_price,
        carbon_price=year_table(raw.get("carbon_price"), "carbon_price"),
        demand_scale=year_table(raw.get("demand_scale"), "demand_scale"),
        scheduled_retirements=tuple(retirements),
        discount_rate=number(raw.get("discount_rate", 0.06), "discount_rate"),
        price_cap=number(raw.get("price_cap", 300.0), "price_cap"),
        nuclear_subsidy=number(raw.get("nuclear_subsidy", 0.0), "nuclear_subsidy"),
        sigma_m=number(raw.get("sigma_m", 0.0), "sigma_m"),
        sigma_c=number(raw.get("sigma_c", 0.0), "sigma_c"),
        rng_seed=whole(raw.get("rng_seed", 0), "rng_seed"),
        emission_factor={str(k): number(v, f"emission_factor.{k}")
                         for k, v in (raw.get("emission_factor") or {}).items()},
        fuel_map={str(k): str(v) for k, v in (raw.get("fuel_map") or {}).items()},
        price_curve=curve,
        price_curve_by_year=curve_by_year,
    )
    try:
        return ScenarioConfig(**config)
    except InputError as exc:
        raise InputError(f"{path}: {exc}")
