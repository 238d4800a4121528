"""Loader and cost-table tests."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from emsim.ingest import (
    InputError,
    PlantCosts,
    ScenarioConfig,
    _complete_day_mask,
    bundled_cost_table,
    load_cost_table,
    load_hourly_series,
    load_plant_registry,
    load_scenario,
    save_cost_table,
)
from toys import synthetic_ts, write_hourly_csv

COST_FIELDS = [f.name for f in fields(PlantCosts)]


# ---------------------------------------------------------------------------
# hourly series


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "demand_mw", "solar_cf", "onshore_cf", "offshore_cf"])
        writer.writerows(rows)


def _hour_rows(n, demand=30000.0, cf=0.5, start="2013-01-01T00:00:00"):
    t0 = np.datetime64(start, "s")
    rows = []
    for i in range(n):
        stamp = np.datetime_as_string(t0 + np.timedelta64(i, "h"), unit="s")
        rows.append([stamp, demand, cf, cf, cf])
    return rows


def test_single_complete_day(tmp_path):
    path = tmp_path / "day.csv"
    _write_rows(path, _hour_rows(24))
    ts = load_hourly_series(path)
    assert ts.n_hours == 24
    assert ts.n_days == 1
    assert ts.dropped_hours == 0
    assert np.all(ts.series("demand") == 30000.0)


def test_partial_day_dropped(tmp_path):
    path = tmp_path / "day_plus_one.csv"
    _write_rows(path, _hour_rows(25))
    ts = load_hourly_series(path)
    assert ts.n_hours == 24
    assert ts.dropped_hours == 1


def test_2772_days_load(tmp_path):
    # the reference dataset size: 2772 complete days = 66,528 hours
    ts = synthetic_ts(2772, seed=1)
    path = tmp_path / "big.csv"
    write_hourly_csv(path, ts)
    loaded = load_hourly_series(path)
    assert loaded.n_days == 2772
    assert loaded.n_hours == 66528


def test_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("timestamp,demand_mw,solar_cf,onshore_cf\n")
        fh.write("2013-01-01T00:00:00,1,0.5,0.5\n")
    with pytest.raises(InputError, match="offshore_cf"):
        load_hourly_series(path)


def test_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    rows = _hour_rows(24)
    rows[3][1] = "oops"
    _write_rows(path, rows)
    with pytest.raises(InputError, match=r"bad\.csv: non-numeric .*'demand_mw' \(row 5\)"):
        load_hourly_series(path)


def test_out_of_range_row_rejected_and_day_dropped(tmp_path):
    # 13 days; one row of day 5 carries cf > 1 -> row rejected (under the
    # 1% budget) and the broken day drops out entirely
    path = tmp_path / "reject.csv"
    rows = _hour_rows(13 * 24)
    rows[5 * 24 + 7][2] = 1.5
    _write_rows(path, rows)
    ts = load_hourly_series(path)
    assert ts.rejected_rows == 1
    assert ts.n_days == 12
    assert ts.dropped_hours == 23


def test_too_many_rejected_rows(tmp_path):
    path = tmp_path / "reject.csv"
    rows = _hour_rows(5 * 24)
    for i in range(4):  # 4/120 > 1%
        rows[i * 24 + 3][2] = 1.7
    _write_rows(path, rows)
    with pytest.raises(InputError, match="rejected"):
        load_hourly_series(path)


def test_utc_suffix_timestamps_accepted(tmp_path):
    path = tmp_path / "z.csv"
    rows = _hour_rows(24)
    rows = [[r[0] + "Z"] + r[1:] for r in rows]
    _write_rows(path, rows)
    ts = load_hourly_series(path)
    assert ts.n_days == 1


def test_nan_cell_names_file_and_row(tmp_path):
    path = tmp_path / "bad.csv"
    rows = _hour_rows(24)
    rows[3][1] = "nan"
    _write_rows(path, rows)
    with pytest.raises(InputError, match=r"bad\.csv: non-finite .*'demand_mw' \(row 5\)"):
        load_hourly_series(path)


def test_non_increasing_timestamps(tmp_path):
    path = tmp_path / "bad.csv"
    rows = _hour_rows(24)
    rows[5][0] = rows[4][0]
    _write_rows(path, rows)
    with pytest.raises(InputError, match="increasing"):
        load_hourly_series(path)


def _reference_complete_day_mask(timestamps):
    """The per-row loop the run-length mask replaces."""
    keep = np.zeros(len(timestamps), dtype=bool)
    if not len(timestamps):
        return keep
    days = timestamps.astype("datetime64[D]")
    hours = (timestamps - days).astype("timedelta64[h]").astype(int)
    start = 0
    for i in range(1, len(timestamps) + 1):
        if i == len(timestamps) or days[i] != days[start]:
            block_hours = hours[start:i]
            if len(block_hours) == 24 and block_hours[0] == 0 and np.all(np.diff(block_hours) == 1):
                keep[start:i] = True
            start = i
    return keep


def random_stamps(rng):
    """Increasing stamps over 1-5 days, mostly whole days, sometimes with
    half-hour stamps, missing hours, partial first or last days or an
    offset off the hour."""
    n_days = int(rng.integers(1, 6))
    minutes = np.arange(n_days * 24) * 60
    if rng.random() < 0.2:
        minutes = np.union1d(minutes, minutes[rng.random(len(minutes)) < 0.05] + 30)
    if rng.random() < 0.2:
        minutes = minutes[rng.random(len(minutes)) > 0.03]
    if rng.random() < 0.2:
        minutes = minutes[int(rng.integers(1, 30)):]
    if rng.random() < 0.2:
        minutes = minutes[:len(minutes) - int(rng.integers(1, 30))]
    if rng.random() < 0.1:
        minutes = minutes + int(rng.choice([30, 60, 23 * 60]))
    start = np.datetime64("2012-02-27T00:00:00", "s") + np.timedelta64(int(rng.integers(400)), "D")
    return start + (minutes * 60).astype("timedelta64[s]")


def test_complete_day_mask_equals_reference_loop():
    rng = np.random.default_rng(77)
    cases = [np.array([], dtype="datetime64[s]"),
             np.datetime64("2013-01-01T00:00:00", "s") + np.arange(24).astype("timedelta64[h]")]
    cases += [random_stamps(rng) for _ in range(3000)]
    kept = dropped = 0
    for stamps in cases:
        mask = _complete_day_mask(stamps)
        expected = _reference_complete_day_mask(stamps)
        assert mask.dtype == bool and mask.shape == expected.shape
        assert (mask == expected).all()
        kept += int(mask.sum())
        dropped += int((~mask).sum())
    assert kept > dropped > 0  # mostly complete days, and some hours dropped


# ---------------------------------------------------------------------------
# cost table


def test_modern_table_rows():
    table = bundled_cost_table()
    # frozen reference rows from the modern cost data
    ccgt = table.lookup("CCGT", 1200, 2018)
    assert ccgt.efficiency == 0.54
    assert ccgt.operating_period == 25
    assert ccgt.predev_cost == 10000
    assert ccgt.construction_cost == 500000
    assert ccgt.infrastructure_cost == 15100
    assert ccgt.fixed_om == 12200
    assert ccgt.variable_om == 3

    nuclear = table.lookup("Nuclear", 3300, 2025)
    assert nuclear.efficiency == 1.0
    assert nuclear.operating_period == 60
    assert nuclear.predev_period == 5
    assert nuclear.construction_period == 8
    assert nuclear.predev_cost == 240000
    assert nuclear.construction_cost == 4100000


def test_historic_table_rows():
    table = bundled_cost_table()
    row = table.lookup("CCGT", 1200, 1990)
    assert row.predev_cost == 59884
    assert row.construction_cost == 2994246
    assert row.fixed_om == 73059


def test_composite_year_expansion():
    table = bundled_cost_table()
    for year in (2018, 2020, 2025):
        assert ("CCGT", 1200.0, year) in table.rows
    # expanded rows share the same record
    assert table.rows[("CCGT", 1200.0, 2018)] == table.rows[("CCGT", 1200.0, 2025)]


def test_negative_connection_cost_accepted():
    table = bundled_cost_table()
    assert table.lookup("RecipDiesel", 20, 2018).connection_cost == -31900


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    with open(path, "w") as fh:
        fh.write("type,capacity_mw,year,efficiency,op,pd,cd,pc,cc,ic,fc,vc,inc,conc\n")
        fh.write("CCGT,100,2018,0.5,25,1,1,1,1,1,1,1,1,1\n")
        fh.write("CCGT,100,2018,0.5,25,1,1,2,2,2,2,2,2,2\n")
    with pytest.raises(InputError, match="duplicate"):
        load_cost_table(path)


def test_malformed_year_cell(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("type,capacity_mw,year,efficiency,op,pd,cd,pc,cc,ic,fc,vc,inc,conc\n")
        fh.write("CCGT,100,20x8,0.5,25,1,1,1,1,1,1,1,1,1\n")
    with pytest.raises(InputError, match=r"bad\.csv: malformed year cell .*\(row 2\)"):
        load_cost_table(path)


COST_HEADER = "type,capacity_mw,year,efficiency,op,pd,cd,pc,cc,ic,fc,vc,inc,conc\n"


@pytest.mark.parametrize("row, column", [
    ("CCGT,big,2018,0.5,25,1,1,1,1,1,1,1,1,1", "'capacity_mw'"),
    ("CCGT,100,2018,0.5,25,1,1,1,1,1,1,n/a,1,1", "'vc'"),
])
def test_cost_table_parse_error_names_file_and_row(tmp_path, row, column):
    path = tmp_path / "costs.csv"
    path.write_text(COST_HEADER + "CCGT,100,2017,0.5,25,1,1,1,1,1,1,1,1,1\n" + row + "\n")
    with pytest.raises(InputError, match=r"costs\.csv: .*" + column + r".*\(row 3\)"):
        load_cost_table(path)


def test_efficiency_above_one_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("type,capacity_mw,year,efficiency,op,pd,cd,pc,cc,ic,fc,vc,inc,conc\n")
        fh.write("CCGT,100,2018,1.2,25,1,1,1,1,1,1,1,1,1\n")
    with pytest.raises(InputError, match="efficiency"):
        load_cost_table(path)


def test_lookup_exact_exhaustive():
    table = bundled_cost_table()
    for (ptype, cap, year), expected in table.rows.items():
        costs, path = table.resolve(ptype, cap, year)
        assert path == "exact"
        assert costs == expected


def test_lookup_year_midpoint_matches_hand_interpolation():
    table = bundled_cost_table()
    lo = table.lookup("CCGT", 1200, 1990)
    hi = table.lookup("CCGT", 1200, 2000)
    mid = table.lookup("CCGT", 1200, 1995)
    for name in COST_FIELDS:
        expected = (getattr(lo, name) + getattr(hi, name)) / 2.0
        assert getattr(mid, name) == pytest.approx(expected, rel=1e-9)
    assert mid.construction_cost == pytest.approx((2994246 + 2483747) / 2.0, rel=1e-12)


def test_lookup_capacity_midpoint_matches_hand_interpolation():
    table = bundled_cost_table()
    lo = table.lookup("CCGT", 1200, 2018)
    hi = table.lookup("CCGT", 1471, 2018)
    mid = table.lookup("CCGT", (1200 + 1471) / 2.0, 2018)
    for name in COST_FIELDS:
        expected = (getattr(lo, name) + getattr(hi, name)) / 2.0
        assert getattr(mid, name) == pytest.approx(expected, rel=1e-9)


def test_lookup_clamps_outside_hull():
    table = bundled_cost_table()
    assert table.lookup("CCGT", 1200, 1950) == table.lookup("CCGT", 1200, 1980)
    assert table.lookup("CCGT", 50, 2018) == table.lookup("CCGT", 168, 2018)
    _, path = table.resolve("CCGT", 1200, 1950)
    assert "clamped" in path


def test_lookup_unknown_type():
    table = bundled_cost_table()
    with pytest.raises(InputError, match="unknown plant type"):
        table.lookup("Fusion", 100, 2020)


def test_cost_table_round_trip(tmp_path):
    table = bundled_cost_table()
    path = tmp_path / "rt.csv"
    save_cost_table(table, path)
    reloaded = load_cost_table(path)
    assert reloaded.rows == table.rows


# ---------------------------------------------------------------------------
# registry


def _write_registry(path, rows, with_funds=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["plant_id", "owner_id", "type", "capacity_mw", "construction_year"]
        if with_funds:
            header.append("funds")
        writer.writerow(header)
        writer.writerows(rows)


def test_registry_resolves_costs(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["n1", "edf", "Nuclear", 3300, 2010, 1e9]])
    registry = load_plant_registry(path, bundled_cost_table())
    assert len(registry.plants) == 1
    plant = registry.plants[0]
    assert plant.costs.construction_cost == 6636156  # historic Nuclear 3300 2010
    assert registry.funds == {"edf": 1e9}


def test_registry_funds_optional(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["n1", "edf", "Nuclear", 3300, 2010]], with_funds=False)
    registry = load_plant_registry(path, bundled_cost_table())
    assert registry.funds == {"edf": 0.0}


def test_registry_conflicting_funds(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [
        ["a", "g1", "CCGT", 1200, 2010, 5.0],
        ["b", "g1", "CCGT", 1200, 2010, 6.0],
    ])
    with pytest.raises(InputError, match="conflicting funds"):
        load_plant_registry(path, bundled_cost_table())


def test_registry_blank_owner_rejected(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["a", "", "CCGT", 1200, 2010, 5.0]])
    with pytest.raises(InputError, match="no owner"):
        load_plant_registry(path, bundled_cost_table())


@pytest.mark.parametrize("row, column", [
    (["b", "g1", "CCGT", "huge", 2010, 5.0], "'capacity_mw'"),
    (["b", "g1", "CCGT", 1200, "2010.7", 5.0], "non-integer .*'construction_year'"),
    (["b", "g1", "CCGT", 1200, "old", 5.0], "'construction_year'"),
    (["b", "g1", "CCGT", 1200, 2010, "rich"], "'funds'"),
])
def test_registry_parse_error_names_file_and_row(tmp_path, row, column):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["a", "g1", "CCGT", 1200, 2010, 5.0], row])
    with pytest.raises(InputError, match=r"reg\.csv: .*" + column + r".*\(row 3\)"):
        load_plant_registry(path, bundled_cost_table())


@pytest.mark.parametrize("row, column", [
    (["b", "g1", "CCGT", "inf", 2010, 5.0], "capacity_mw"),
    (["b", "g1", "CCGT", "nan", 2010, 5.0], "capacity_mw"),
    (["b", "g1", "CCGT", 1200, 2010, "nan"], "funds"),
])
def test_registry_non_finite_value_names_file_and_row(tmp_path, row, column):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["a", "g1", "CCGT", 1200, 2010, 5.0], row])
    with pytest.raises(InputError, match=fr"reg\.csv: non-finite .*'{column}' \(row 3\)"):
        load_plant_registry(path, bundled_cost_table())


def test_registry_integral_float_year_accepted(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["a", "g1", "CCGT", 1200, "2010.0", 5.0]])
    assert load_plant_registry(path, bundled_cost_table()).plants[0].construction_year == 2010


def test_registry_duplicate_plant_id(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [
        ["a", "g1", "CCGT", 1200, 2010, 5.0],
        ["a", "g1", "CCGT", 1200, 2010, 5.0],
    ])
    with pytest.raises(InputError, match="duplicate plant_id"):
        load_plant_registry(path, bundled_cost_table())


# ---------------------------------------------------------------------------
# scenario


SCENARIO_YAML = """
start_year: 2013
end_year: 2018
discount_rate: 0.06
price_cap: 300.0
rng_seed: 7
fuel_price:
  gas: {2013: 20.0, 2014: 20.5, 2015: 21.0, 2016: 21.5, 2017: 22.0, 2018: 22.5}
  coal: {2013: 10.0, 2014: 10.0, 2015: 10.0, 2016: 10.0, 2017: 10.0, 2018: 10.0}
carbon_price: {2013: 5.0, 2014: 9.0, 2015: 18.0, 2016: 18.0, 2017: 18.0, 2018: 18.0}
emission_factor: {gas: 0.184, coal: 0.34}
fuel_map: {CCGT: gas, OCGT: gas, Coal: coal}
scheduled_retirements:
  - {plant_id: coal-a, year: 2016}
  - {plant_id: coal-b, year: 2016}
  - {plant_id: coal-c, year: 2016}
price_curve: {m: 0.002, c: 20.0}
"""


def test_scenario_load(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(SCENARIO_YAML)
    scenario = load_scenario(path)
    assert scenario.start_year == 2013
    assert scenario.end_year == 2018
    # the three known coal retirements scheduled for 2016
    assert len(scenario.scheduled_retirements) == 3
    assert all(year == 2016 for _, year in scenario.scheduled_retirements)
    assert scenario.price_curve == (0.002, 20.0)
    # 2015 from the table, 2030 holds the last value beyond the horizon
    assert scenario.held("fuel_price.gas", [2015, 2030]).tolist() == [21.0, 22.5]


def test_scenario_unknown_key(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(SCENARIO_YAML + "\nbogus_key: 3\n")
    with pytest.raises(InputError, match="bogus_key"):
        load_scenario(path)


def test_scenario_missing_carbon_year(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(SCENARIO_YAML.replace("2016: 18.0, ", ""))
    with pytest.raises(InputError, match="2016"):
        load_scenario(path)


def test_scenario_end_before_start(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text("start_year: 2020\nend_year: 2019\ncarbon_price: {2019: 0.0, 2020: 0.0}\n")
    with pytest.raises(InputError, match="end_year"):
        load_scenario(path)


def test_demand_scale_gap_year_rejected():
    carbon = {2018: 0.0, 2019: 0.0, 2020: 0.0}
    with pytest.raises(InputError, match="2019"):
        ScenarioConfig(start_year=2018, end_year=2020, carbon_price=carbon,
                       demand_scale={2018: 1.1, 2020: 1.3})
    scenario = ScenarioConfig(start_year=2018, end_year=2020, carbon_price=carbon,
                              demand_scale={2018: 1.1, 2019: 1.2, 2020: 1.3})
    assert scenario.demand_scale_at(2020) == 1.3
    assert scenario.demand_scale_at(2025) == 1.3  # held beyond the table
    unscaled = ScenarioConfig(start_year=2018, end_year=2020, carbon_price=carbon)
    assert unscaled.demand_scale_at(2019) == 1.0


@pytest.mark.parametrize("old, new, key", [
    ("start_year: 2013", "start_year: soon", "start_year"),
    ("end_year: 2018", "end_year: [2018]", "end_year"),
    ("2015: 18.0", "2015: lots", r"carbon_price\.2015"),
    ("gas: {2013: 20.0", "gas: {2013: cheap", r"fuel_price\.gas\.2013"),
    ("price_curve: {m: 0.002", "price_curve: {m: steep", r"price_curve\.m"),
])
def test_scenario_non_numeric_value_names_file_and_key(tmp_path, old, new, key):
    path = tmp_path / "scen.yaml"
    assert old in SCENARIO_YAML
    path.write_text(SCENARIO_YAML.replace(old, new, 1))
    with pytest.raises(InputError, match=r"scen\.yaml: " + key + " must be numeric"):
        load_scenario(path)


@pytest.mark.parametrize("old, new, key", [
    ("start_year: 2013", "start_year: 2013.7", "start_year"),
    ("end_year: 2018", "end_year: 2018.5", "end_year"),
    ("rng_seed: 7", "rng_seed: 7.5", "rng_seed"),
    ("2015: 18.0", "2015.5: 18.0", "carbon_price year"),
    ("gas: {2013: 20.0", "gas: {2013.2: 20.0", r"fuel_price\.gas year"),
    ("{plant_id: coal-a, year: 2016}", "{plant_id: coal-a, year: 2016.5}",
     "scheduled_retirements year"),
])
def test_scenario_fractional_year_names_file_and_key(tmp_path, old, new, key):
    path = tmp_path / "scen.yaml"
    assert old in SCENARIO_YAML
    path.write_text(SCENARIO_YAML.replace(old, new, 1))
    with pytest.raises(InputError, match=r"scen\.yaml: " + key + " must be a whole number"):
        load_scenario(path)


@pytest.mark.parametrize("old, new, key", [
    ("discount_rate: 0.06", "discount_rate: .nan", "discount_rate"),
    ("2015: 18.0", "2015: .inf", r"carbon_price\.2015"),
    ("price_curve: {m: 0.002", "price_curve: {m: -.inf", r"price_curve\.m"),
])
def test_scenario_non_finite_value_names_file_and_key(tmp_path, old, new, key):
    path = tmp_path / "scen.yaml"
    assert old in SCENARIO_YAML
    path.write_text(SCENARIO_YAML.replace(old, new, 1))
    with pytest.raises(InputError, match=r"scen\.yaml: " + key + " must be finite"):
        load_scenario(path)


def test_scenario_integral_float_year_loads(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(SCENARIO_YAML.replace("start_year: 2013", "start_year: 2013.0")
                    .replace("{plant_id: coal-a, year: 2016}", "{plant_id: coal-a, year: 2016.0}"))
    scenario = load_scenario(path)
    assert scenario.start_year == 2013 and type(scenario.start_year) is int
    assert ("coal-a", 2016) in scenario.scheduled_retirements


@pytest.mark.parametrize("old, new, key, year", [
    ("2014: 9.0, ", "", "carbon_price", 2014),
    ("2014: 20.5, ", "", r"fuel_price\.gas", 2014),
    ("carbon_price: {", "carbon_price: {2010: 1.0, ", "carbon_price", 2011),
    ("price_curve: {", "demand_scale: {2013: 1.0, 2015: 1.1}\nprice_curve: {",
     "demand_scale", 2014),
    ("price_curve: {", "price_curve_by_year: {2013: {m: 0.001, c: 10.0}, "
     "2016: {m: 0.002, c: 20.0}}\nprice_curve: {", "price_curve_by_year", 2014),
])
def test_scenario_gap_year_table_names_file_and_key(tmp_path, old, new, key, year):
    # a gap fails at load, also outside the simulated years (2010-2011)
    # and before the check for a price missing in a simulated year
    path = tmp_path / "scen.yaml"
    assert old in SCENARIO_YAML
    path.write_text(SCENARIO_YAML.replace(old, new, 1))
    with pytest.raises(InputError, match=fr"scen\.yaml: {key} has no entry for year {year}"):
        load_scenario(path)


def test_price_curve_gap_year_rejected():
    carbon = {2018: 0.0, 2019: 0.0, 2020: 0.0}
    with pytest.raises(InputError, match="price_curve_by_year has no entry for year 2019"):
        ScenarioConfig(start_year=2018, end_year=2020, carbon_price=carbon,
                       price_curve_by_year={2018: (0.001, 10.0), 2020: (0.003, 30.0)})
    scenario = ScenarioConfig(start_year=2018, end_year=2020, carbon_price=carbon,
                              price_curve_by_year={2018: (0.001, 10.0), 2019: (0.002, 20.0),
                                                   2020: (0.003, 30.0)})
    assert tuple(scenario.curve_params_at(2017)) == (0.001, 10.0)  # held before the table
    assert tuple(scenario.curve_params_at(2020)) == (0.003, 30.0)
    assert tuple(scenario.curve_params_at(2025)) == (0.003, 30.0)  # held beyond the table
    single = ScenarioConfig(start_year=2018, end_year=2020, carbon_price=carbon,
                            price_curve=(0.002, 20.0))
    assert tuple(single.curve_params_at(2019)) == (0.002, 20.0)


def _reference_held(table: dict, year: int, what: str):
    """The per-lookup rule `held` replaced: the oracle it must equal."""
    if not table:
        raise InputError(f"{what} has no entries")
    if year in table:
        return table[year]
    keys = sorted(table)
    if year > keys[-1]:
        return table[keys[-1]]
    if year < keys[0]:
        return table[keys[0]]
    raise InputError(f"{what} missing for year {year}")


def test_held_equals_reference_lookup():
    rng = np.random.default_rng(12)
    sizes = set()
    for case in range(300):
        def table(pair=False):
            first, n = int(rng.integers(2000, 2040)), int(rng.integers(1, 7))
            values = rng.uniform(0.0, 100.0, size=(n, 2) if pair else n).tolist()
            return {first + i: tuple(v) if pair else v for i, v in enumerate(values)}

        carbon = table()
        year = min(carbon)
        scenario = ScenarioConfig(
            start_year=year, end_year=year, carbon_price=carbon,
            fuel_price={"gas": table(), "coal": table()}, demand_scale=table(),
            price_curve_by_year=table(pair=True))
        names = {"carbon_price": carbon, "demand_scale": scenario.demand_scale,
                 "price_curve_by_year": scenario.price_curve_by_year,
                 **{f"fuel_price.{f}": t for f, t in scenario.fuel_price.items()}}
        for what, tbl in names.items():
            sizes.add(len(tbl))
            years = np.arange(min(tbl) - 3, max(tbl) + 4)
            expected = [_reference_held(tbl, int(y), what) for y in years]
            for y, value in zip(years, expected):
                got = scenario.held(what, int(y))
                assert (tuple(got) if np.ndim(got) else got) == value, (case, what, y)
            got = scenario.held(what, years)
            assert got.shape == np.shape(expected)
            assert (got == np.array(expected)).all(), (case, what)
    assert sizes == {1, 2, 3, 4, 5, 6}
    with pytest.raises(InputError, match="fuel_price.oil has no entries"):
        scenario.held("fuel_price.oil", 2020)
