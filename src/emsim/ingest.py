"""Input data loading and validation.

Everything the simulator consumes from disk comes through here: hourly
demand/capacity-factor series, power plant cost tables (with
interpolation across capacity and year), plant registries and scenario
configuration files. All loaders are pure functions of the file
contents and return immutable-by-convention values.
"""

from __future__ import annotations

import bisect
import csv
import io
import logging
import math
import warnings
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


def open_new(path, newline: str | None = None):
    """A new file at `path`, open for writing text. A file already there is
    unlinked first, not truncated, so a hard link to it keeps the old text."""
    Path(path).unlink(missing_ok=True)
    return open(path, "w", newline=newline)


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
    if "\0" in text:  # fromisoformat may stop reading at a NUL and take the text before it
        raise ValueError(f"NUL in timestamp {text!r}")
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(stamp, "s")


def csv_rows(path, required):
    """Yield (row number, row as a column -> cell dict) for each data row
    of a CSV file whose header names every `required` column; the header
    is row 1 and blank lines are skipped and not numbered. A row with more
    or fewer cells than the header, or text the reader cannot read, is an
    error raised at that row."""
    row_no = 0
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
            row_no = 1
            for cells in reader:
                if cells:
                    row_no += 1
                    if len(cells) != len(header):
                        raise InputError(f"{path}: {len(cells)} cells where the header has "
                                         f"{len(header)} (row {row_no})")
                    yield row_no, dict(zip(header, cells))
    except csv.Error as exc:
        raise InputError(f"{path}: unreadable CSV: {exc} (row {row_no + 1})") from None
    except UnicodeDecodeError as exc:  # decoded in chunks, so its row is not known
        raise InputError(f"{path}: not {exc.encoding} text ({exc.reason})") from None


HOURLY_COLUMNS = ("timestamp",) + SERIES_COLUMNS


def load_hourly_series(path) -> TimeSeriesSet:
    """Load the hourly series CSV, keeping only complete 24-hour days.

    Rows whose capacity factors fall outside [0, 1] (or whose demand is
    negative) are rejected; loading fails if more than 1% of rows are
    rejected. Partial days at the boundaries (or days broken by
    rejected/missing hours) are dropped and the dropped-hour count is
    reported on the returned set.

    A file `_bulk_parse` takes is parsed in one step; any other, every
    faulty one included, by `_walk_rows`.
    """
    path = Path(path)
    stamps, values = _bulk_parse(path) or _walk_rows(path)
    total = len(stamps)
    keep = (values[0] >= 0.0) & ((values[1:] >= 0.0) & (values[1:] <= 1.0)).all(axis=0)
    rejected = total - int(keep.sum())
    if total and rejected / total > 0.01:
        raise InputError(
            f"{path}: {rejected} of {total} rows rejected (>1% out of range)"
        )
    stamps, values = stamps[keep], values[:, keep]

    keep = _complete_day_mask(stamps)
    dropped = int(len(stamps) - keep.sum())
    if dropped:
        log.info("%s: dropped %d hour(s) outside complete days", path, dropped)
    if rejected:
        log.info("%s: rejected %d out-of-range row(s)", path, rejected)

    return TimeSeriesSet(
        timestamps=stamps[keep],
        values=np.ascontiguousarray(values[:, keep]),
        dropped_hours=dropped,
        rejected_rows=rejected,
    )


def _bulk_parse(path):
    """The stamps and (4, rows) values of an hourly CSV in one step, or None
    for a file the step does not take; `_walk_rows` then parses it.

    The step takes a file whose text splits into cells at every comma (it
    holds no quote or NUL), whose rows all have the header's cell count,
    whose series cells `np.loadtxt` reads as finite values, and whose stamps
    increase and are numpy's ISO text to the second, all with a 'Z' or all
    without. Its values are then those `_walk_rows` reads. The first row is
    checked before the rest of the file is read, so a file of other stamps
    costs two lines. Its stamp must be one `fromisoformat` reads; so are
    the later ones, which increase from it and stop short of year 10000,
    which does not print in 19 characters.
    """
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            first = fh.readline()
            index = {name: i for i, name in enumerate(header)}  # the last of a repeated name
            cells = first.rstrip("\r\n").split(",")
            if not set(HOURLY_COLUMNS) <= index.keys() or len(cells) != len(header):
                return None
            cols = [index[c] for c in HOURLY_COLUMNS]
            stamp = cells[cols[0]]
            bare = stamp.removesuffix("Z")
            if len(bare) != 19 or datetime.fromisoformat(bare).isoformat() != bare:
                return None
            body = first + fh.read()
        if '"' in body or "\0" in body:
            return None
        last = len(header) - 1  # read too, so that every row holds the header's cells or more
        dtype = [("stamp", "S21")] + [(name, float) for name in SERIES_COLUMNS]
        if last not in cols:
            cols, dtype = cols + [last], dtype + [("last", "U1")]
        # as bytes, a quarter of the memory a StringIO of the body takes
        table = np.loadtxt(io.BytesIO(body.encode()), dtype=dtype, delimiter=",", usecols=cols,
                           comments=None, ndmin=1, encoding="utf-8")
        texts = table["stamp"]  # 21 bytes: a cell longer than a 'Z' stamp cannot print back
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns of an offset; the text check rejects it
            stamps = texts.astype("S19").astype("datetime64[s]")
        printed = stamps.astype("S19")  # np.datetime_as_string(stamps, unit="s"), as bytes
    except ValueError:  # an undecodable file, or a cell the step cannot read
        return None
    if stamp != bare:
        printed = np.char.add(printed, b"Z")
    values = np.stack([table[name] for name in SERIES_COLUMNS])
    sound = (body.count(",") == len(table) * last  # so no row holds more cells either
             and (printed == texts).all() and np.isfinite(values).all()
             and (np.diff(stamps) > 0).all())
    return (stamps, values) if sound else None


def _walk_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The stamps and (4, rows) values of an hourly CSV, one row at a time
    through the per-cell parsers, raising at the first faulty row: a bad
    timestamp, a stamp not after the one before, then each series cell in
    column order."""
    stamps, values = [], []
    for row_no, row in csv_rows(path, HOURLY_COLUMNS):
        text = row["timestamp"]
        try:
            ts = _parse_timestamp(text)
        except ValueError:
            raise InputError(f"{path}: bad timestamp {text!r} (row {row_no})")
        if stamps and ts <= stamps[-1]:
            raise InputError(f"{path}: timestamps not strictly increasing (row {row_no})")
        stamps.append(ts)
        values.extend([_parse_float(row[c], path, row_no, c) for c in SERIES_COLUMNS])
    return (np.array(stamps, dtype="datetime64[s]"),
            np.array(values, dtype=float).reshape(-1, len(SERIES_COLUMNS)).T)


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
    """Cost records keyed by (type, capacity, year); `rows` is not changed
    after construction."""

    rows: dict[CostKey, PlantCosts]

    @cached_property
    def _index(self) -> dict[str, tuple[list[int], list[tuple[list[float], np.ndarray]]]]:
        """type -> (its years ascending, and per year its capacities
        ascending with their rows as one array), built on first use."""
        grid: dict[str, dict[int, dict[float, np.ndarray]]] = {}
        # year-major order, so each type's years (and each year's capacities) ascend
        for ptype, cap, year in sorted(self.rows, key=lambda k: (k[0], k[2], k[1])):
            row = self.rows[ptype, cap, year].as_array()
            grid.setdefault(ptype, {}).setdefault(year, {})[cap] = row
        return {ptype: (list(by_year), [(list(caps), np.array(list(caps.values())))
                                        for caps in by_year.values()])
                for ptype, by_year in grid.items()}

    def types(self) -> list[str]:
        return list(self._index)

    def largest_capacity(self, plant_type: str) -> float:
        """The largest capacity the table lists for the type, in any year."""
        return max(caps[-1] for caps, _ in self._index[plant_type][1])

    def lookup(self, plant_type: str, capacity_mw: float, year: int) -> PlantCosts:
        """Costs of one plant. An exact row is returned as it is; otherwise
        each field is interpolated linearly across capacity at the two
        bracketing years, then across year, and a query outside the table
        is clamped to its nearest capacity and year."""
        if plant_type not in self._index:
            raise InputError(f"unknown plant type '{plant_type}' in cost table")
        capacity_mw, year = float(capacity_mw), int(year)
        if math.isnan(capacity_mw):
            raise InputError(f"capacity of a '{plant_type}' plant is not a number")
        exact = self.rows.get((plant_type, capacity_mw, year))
        if exact is not None:
            return exact
        years, by_year = self._index[plant_type]
        lo, hi, _ = _bracket(years, year)
        at_years = np.array([_interp(*by_year[i], capacity_mw) for i in range(lo, hi + 1)])
        return PlantCosts.from_array(_interp(years[lo:hi + 1], at_years, year))


def _bracket(values: list, x) -> tuple[int, int, float]:
    """Indices of the entries of ascending `values` either side of x, and
    x's fraction of the way from the first to the second; one index twice
    when x is listed, or lies beyond an end and is clamped to it."""
    i = bisect.bisect_left(values, x)
    if i == len(values):
        return i - 1, i - 1, 0.0
    if i == 0 or values[i] == x:
        return i, i, 0.0
    return i - 1, i, (x - values[i - 1]) / (values[i] - values[i - 1])


def _interp(values: list, rows: np.ndarray, x) -> np.ndarray:
    """The row at x, interpolated between the rows of the entries of
    ascending `values` either side of it."""
    lo, hi, frac = _bracket(values, x)
    if hi == lo:
        return rows[lo]
    return rows[lo] + frac * (rows[hi] - rows[lo])


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
    for row_no, row in csv_rows(path, ("type", "capacity_mw", "year") + COST_COLUMNS):
        ptype = row["type"].strip()
        if ptype not in PLANT_TYPES:
            raise InputError(f"{path}: unknown plant type {ptype!r} (row {row_no})")
        cap = _parse_float(row["capacity_mw"], path, row_no, "capacity_mw")
        vals = [_parse_float(row[c], path, row_no, c) for c in COST_COLUMNS]
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
    with open_new(path, newline="") as fh:
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


def load_plant_registry(path, cost_table: CostTable,
                        start_year: int | None = None) -> PlantRegistry:
    """Load the plant registry CSV and resolve each plant's costs.

    Columns: plant_id,owner_id,type,capacity_mw,construction_year with an
    optional funds column giving the owner's opening funds (all rows of
    one owner must agree; absent means 0). Given the scenario's
    `start_year`, a plant built after it is an InputError at its row.
    """
    path = Path(path)
    plants: list[PowerPlant] = []
    funds: dict[str, float] = {}
    seen_ids: set[str] = set()
    required = ("plant_id", "owner_id", "type", "capacity_mw", "construction_year")
    for row_no, row in csv_rows(path, required):
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
        if start_year is not None and year > start_year:
            raise InputError(f"{path}: plant '{pid}' is built in {year}, "
                             f"after the start year {start_year} (row {row_no})")
        try:
            plants.append(PowerPlant(pid, owner, ptype, cap, year,
                                     cost_table.lookup(ptype, cap, year)))
        except InputError as exc:
            raise InputError(f"{path}: {exc} (row {row_no})")
        if (row.get("funds") or "").strip():
            f = _parse_float(row["funds"], path, row_no, "funds")
            if owner in funds and funds[owner] != f:
                raise InputError(f"{path}: conflicting funds for owner '{owner}' (row {row_no})")
            funds[owner] = f
        else:
            funds.setdefault(owner, 0.0)
    return PlantRegistry(plants=tuple(plants), funds=funds)


# ---------------------------------------------------------------------------
# Scenario configuration


def held_rows(first: int, count: int, years):
    """The row of each year in a year table of `count` rows whose first
    row is year `first`: a year before or after the table holds its
    first or last row."""
    return np.minimum(np.maximum(np.asarray(years) - first, 0), count - 1)


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
        for name, value in self._named_floats():
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite (got {value!r})")
        for what, table in self._year_tables().items():  # held outside, never filled inside
            gaps = sorted(set(range(min(table), max(table) + 1)) - set(table)) if table else []
            if gaps:
                raise InputError(f"{what} has no entry for year {gaps[0]} "
                                 f"(its years run {min(table)}-{max(table)})")
        if self.end_year < self.start_year:
            raise InputError("end_year must be >= start_year")
        if self.sigma_m < 0 or self.sigma_c < 0:
            raise InputError("sigma_m and sigma_c must be >= 0")
        if self.rng_seed < 0:
            raise InputError(f"rng_seed must be >= 0 (got {self.rng_seed})")
        if self.discount_rate <= -1:
            raise InputError("discount_rate must be > -1")
        if self.price_cap <= 0:
            raise InputError(f"price_cap must be > 0 (got {self.price_cap!r})")
        for year in self.years():
            if year not in self.carbon_price:
                raise InputError(f"carbon price missing for simulated year {year}")
            for fuel in set(self.fuel_map.values()):
                if year not in self.fuel_price.get(fuel, {}):
                    raise InputError(f"fuel price for '{fuel}' missing for simulated year {year}")
        if any(scale < 0 for scale in self.demand_scale.values()):
            raise InputError("demand_scale must be >= 0")

    def _named_floats(self):
        """Every float the scenario holds, under the name an error gives it."""
        curves = {"price_curve": self.price_curve,
                  **{f"price_curve_by_year.{y}": mc for y, mc in self.price_curve_by_year.items()}}
        tables = {"carbon_price": self.carbon_price, "demand_scale": self.demand_scale,
                  "emission_factor": self.emission_factor,
                  **{f"fuel_price.{fuel}": t for fuel, t in self.fuel_price.items()},
                  **{what: dict(zip("mc", mc)) for what, mc in curves.items()}}
        for name in ("discount_rate", "price_cap", "nuclear_subsidy", "sigma_m", "sigma_c"):
            yield name, getattr(self, name)
        for what, table in tables.items():
            yield from ((f"{what}.{key}", value) for key, value in table.items())

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
        return values[held_rows(first, len(values), years)]

    def demand_scale_at(self, years):
        """Held demand scale per year; 1.0 when the table is empty."""
        return self.held("demand_scale", years)

    def curve_params_at(self, years) -> np.ndarray:
        """Held base price curve (m, c) per year, on the last axis; the
        single `price_curve` when no per-year curves are given."""
        return self.held("price_curve_by_year", years)

    def curve_table(self) -> tuple[int, np.ndarray]:
        """The base price curves as the first year of their table and a
        (years, 2) array of (m, c), which `held_rows` reads."""
        return self._tables["price_curve_by_year"]


# libyaml's safe loader where PyYAML was built with it, else the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario configuration (YAML key/value + per-year tables).

    Unknown keys are errors so typos fail loudly, and so is text that is
    not YAML or that asks for a Python object.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        problem = getattr(exc, "problem", None) or getattr(exc, "reason", exc)
        raise InputError(f"{path}: invalid scenario YAML: {problem}{where}") from None
    if not isinstance(raw, dict):
        raise InputError(f"{path}: scenario must be a mapping")
    unknown = set(raw) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise InputError(f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    for key in ("start_year", "end_year"):
        if key not in raw:
            raise InputError(f"{path}: missing required key '{key}'")

    def number(value, key: str) -> float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise InputError(f"{path}: {key} must be numeric (got {value!r})") from None

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

    def retirements(items) -> tuple[tuple[str, int], ...]:
        pairs = []
        for item in items or []:
            if not isinstance(item, dict) or "plant_id" not in item or "year" not in item:
                raise InputError(f"{path}: scheduled_retirements entries need plant_id and year")
            pairs.append((str(item["plant_id"]),
                          whole(item["year"], "scheduled_retirements year")))
        return tuple(pairs)

    def curve_pair(obj, what) -> tuple[float, float]:
        if not isinstance(obj, dict) or set(obj) != {"m", "c"}:
            raise InputError(f"{path}: {what} must be a mapping with keys m and c")
        return (number(obj["m"], f"{what}.m"), number(obj["c"], f"{what}.c"))

    # each key's parser, in the order their errors are raised; a key the
    # file leaves out takes ScenarioConfig's default
    parsers = {
        "fuel_price": lambda obj: {str(fuel): year_table(tbl, f"fuel_price.{fuel}")
                                   for fuel, tbl in (obj or {}).items()},
        "scheduled_retirements": retirements,
        "price_curve": lambda obj: curve_pair(obj, "price_curve"),
        "price_curve_by_year": lambda obj: {
            whole(y, "price_curve_by_year year"): curve_pair(v, f"price_curve_by_year.{y}")
            for y, v in (obj or {}).items()},
        "start_year": lambda v: whole(v, "start_year"),
        "end_year": lambda v: whole(v, "end_year"),
        "carbon_price": lambda obj: year_table(obj, "carbon_price"),
        "demand_scale": lambda obj: year_table(obj, "demand_scale"),
        **{key: (lambda v, key=key: number(v, key)) for key in (
            "discount_rate", "price_cap", "nuclear_subsidy", "sigma_m", "sigma_c")},
        "rng_seed": lambda v: whole(v, "rng_seed"),
        "emission_factor": lambda obj: {str(k): number(v, f"emission_factor.{k}")
                                        for k, v in (obj or {}).items()},
        "fuel_map": lambda obj: {str(k): str(v) for k, v in (obj or {}).items()},
    }
    config = {key: parse(raw[key]) for key, parse in parsers.items() if key in raw}
    try:
        return ScenarioConfig(**config)
    except InputError as exc:
        raise InputError(f"{path}: {exc}")
