"""Loader and cost-table tests."""

import csv
import os
from dataclasses import fields
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from emsim import ingest
from emsim.agents import InvestmentCandidate, candidate_menu
from emsim.cli import _load_target
from emsim.ingest import (
    COST_COLUMNS,
    HOURLY_COLUMNS,
    SERIES_COLUMNS,
    InputError,
    PlantCosts,
    ScenarioConfig,
    TimeSeriesSet,
    _complete_day_mask,
    _parse_float,
    _parse_timestamp,
    bundled_cost_table,
    load_cost_table,
    load_hourly_series,
    load_plant_registry,
    load_scenario,
    save_cost_table,
)
from emsim.repdays import REPDAYS_COLUMNS, load_representative_days
from toys import invest_scenario, synthetic_ts, write_hourly_csv, write_scenario_yaml

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



def _reference_load_hourly_series(path):
    """A plain per-row loop the loader must match: a dict per row, the
    per-cell parsers for every cell and one datetime64 per stamp."""
    path = Path(path)
    stamps, values = [], []
    rejected = total = 0
    prev = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in ("timestamp",) + SERIES_COLUMNS if c not in header]
        if missing:
            raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
        row_no = 1
        for cells in reader:
            if not cells:
                continue
            row_no += 1
            if len(cells) != len(header):
                raise InputError(f"{path}: {len(cells)} cells where the header has "
                                 f"{len(header)} (row {row_no})")
            row = dict(zip(header, cells))
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
        raise InputError(f"{path}: {rejected} of {total} rows rejected (>1% out of range)")
    ts_arr = np.array(stamps, dtype="datetime64[s]")
    val_arr = np.array(values, dtype=float).reshape(-1, 4)
    keep = _complete_day_mask(ts_arr)
    return TimeSeriesSet(timestamps=ts_arr[keep], values=np.ascontiguousarray(val_arr[keep].T),
                         dropped_hours=int(len(ts_arr) - keep.sum()), rejected_rows=rejected)


def _outcome(load, path):
    """All four fields of the loaded set as bytes, or the error message."""
    try:
        ts = load(path)
    except InputError as exc:
        return str(exc)
    return (ts.timestamps.dtype.str, ts.timestamps.tobytes(), ts.values.shape,
            ts.values.tobytes(), ts.dropped_hours, ts.rejected_rows)


def _stamp_text(form: int, rng, hour: datetime) -> str:
    """The hour as naive (forms 0 and 5), 'Z', offset or fractional-second
    ISO text."""
    if form == 1:
        return hour.isoformat() + "Z"
    if form == 2:
        return (hour + timedelta(hours=1)).isoformat() + "+01:00"
    if form == 3:
        return (hour - timedelta(hours=5, minutes=30)).isoformat() + "-05:30"
    if form == 4:  # a fraction floors to the whole second
        return (hour + timedelta(microseconds=int(rng.integers(1, 10**6)))).isoformat()
    return hour.isoformat()


def _random_hourly_file(rng, path, n_rows, faults=0, form=None) -> bool:
    """An hourly CSV of `n_rows` from a random start, with missing hours
    (so partial days), out-of-range rows, extra, repeated and reordered
    columns, blank lines and every stamp form of `_stamp_text`, or only
    `form`; `faults` random cells or stamps are made bad. Returns whether
    the loader's bulk step takes the file: its stamps are all naive or all
    'Z', and it holds no bad cell."""
    start = datetime(2012, 2, 27) + timedelta(hours=int(rng.integers(24 * 400)))
    offsets = np.sort(rng.choice(n_rows + n_rows // 20 + 1, size=n_rows, replace=False))
    forms = [int(rng.integers(6)) if form is None else form for _ in range(n_rows)]
    rows = []
    for h, f in zip(offsets.tolist(), forms):
        demand = float(rng.uniform(0.0, 50000.0))
        demand = repr(demand) if rng.random() < 0.5 else f"{demand:.1f}"
        cfs = [repr(float(rng.random())) for _ in range(3)]
        if rng.random() < 0.004:  # out of range: rejected, unless too many are
            cfs[int(rng.integers(3))] = "1.5"
        if rng.random() < 0.002:
            demand = "-3.0"
        rows.append([_stamp_text(f, rng, start + timedelta(hours=h)), demand, *cfs])
    for _ in range(faults):
        i, col = int(rng.integers(n_rows)), int(rng.integers(5))
        if col == 0:
            rows[i][0] = rows[i - 1][0] if i and rng.random() < 0.5 else "soon"
        else:
            rows[i][col] = str(rng.choice(["oops", "nan", "inf", "-inf", ""]))
    # a repeated column name reads its last column, as a dict of the row does
    extras = [("region", "GB"), ("note", ""), ("solar_cf", "0.25")][:int(rng.integers(4))]
    header = ["timestamp", *SERIES_COLUMNS, *(name for name, _ in extras)]
    order = rng.permutation(len(header))
    lines = [",".join(header[j] for j in order)]
    for row in rows:
        cells = row + [cell for _, cell in extras]
        lines.append(",".join(cells[j] for j in order))
        if rng.random() < 0.03:
            lines.append("")
    path.write_text("\n".join(lines) + "\n")
    return (set(forms) <= {0, 5} or set(forms) == {1}) and not faults


def _steps_taken(monkeypatch) -> list[bool]:
    """Record, per `load_hourly_series` call, whether its bulk step took the file."""
    taken, bulk_parse = [], ingest._bulk_parse

    def recording(path):
        parsed = bulk_parse(path)
        taken.append(parsed is not None)
        return parsed
    monkeypatch.setattr(ingest, "_bulk_parse", recording)
    return taken


def test_block_loader_equals_the_per_row_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(2024)
    path = tmp_path / "hourly.csv"
    taken = _steps_taken(monkeypatch)
    loaded = failed = 0
    for case in range(400):
        rng.choice([1, 2, 5, 24, 37, 100])  # a spare draw: it fixes the files this seed writes
        # one file in four has naive stamps only, one in four 'Z' stamps only
        bulk = _random_hourly_file(rng, path, int(rng.integers(1, 6 * 24 + 1)),
                                   faults=int(rng.integers(3)) if case % 3 == 0 else 0,
                                   form={1: 0, 2: 1}.get(case % 4))
        want = _outcome(_reference_load_hourly_series, path)
        assert _outcome(load_hourly_series, path) == want, case
        assert taken[-1] == bulk, case
        loaded += isinstance(want, tuple)
        failed += isinstance(want, str)
    assert loaded > 200 and failed > 50
    assert sum(taken) > 150  # the files of one stamp form without a bad cell


def test_block_loader_equals_the_per_row_loop_past_one_block(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "hourly.csv"
    _random_hourly_file(rng, path, 2548)
    want = _outcome(_reference_load_hourly_series, path)
    assert isinstance(want, tuple) and want[4] > 0 and want[5] > 0  # hours dropped, rows rejected
    assert _outcome(load_hourly_series, path) == want


def _hours_with(edits):
    """3.5 days of rows, each edit setting one cell: (row index, column,
    text), where an int text copies that row's stamp; row index i is file
    row i + 2."""
    rows = [[str(c) for c in r] for r in _hour_rows(84)]
    for i, col, text in edits:
        rows[i][col] = rows[text][0] if isinstance(text, int) else text
    return rows


@pytest.mark.parametrize("rows, message", [
    # a non-increasing stamp before a non-numeric cell 20 rows on
    (_hours_with([(10, 0, 9), (30, 1, "oops")]), "timestamps not strictly increasing (row 12)"),
    # a bad timestamp and a bad value in one row: the stamp is checked first
    (_hours_with([(40, 0, "soon"), (40, 2, "x")]), "bad timestamp 'soon' (row 42)"),
    # row 26 repeats the stamp of row 25
    (_hours_with([(24, 0, 23)]), "timestamps not strictly increasing (row 26)"),
    # a nan in the last, partial day
    (_hours_with([(80, 3, "nan")]), "non-finite value 'nan' in column 'onshore_cf' (row 82)"),
    # a bad cell before a short row
    (_hours_with([(30, 1, "oops")])[:35] + [["2013-01-02T11:00:00", "1"]],
     "non-numeric value 'oops' in column 'demand_mw' (row 32)"),
])
def test_the_first_fault_wins_across_blocks(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    _write_rows(path, rows)
    want = _outcome(_reference_load_hourly_series, path)
    assert want == f"{path}: {message}"
    assert _outcome(load_hourly_series, path) == want


# every CSV loader, by the columns its header must name
CSV_LOADERS = {
    "hourly": (HOURLY_COLUMNS, load_hourly_series),
    "costs": (("type", "capacity_mw", "year") + COST_COLUMNS, load_cost_table),
    "registry": (("plant_id", "owner_id", "type", "capacity_mw", "construction_year"),
                 lambda path: load_plant_registry(path, bundled_cost_table())),
    "repdays": (REPDAYS_COLUMNS, load_representative_days),
    "target": (("year", "type", "share"), _load_target),
}


@pytest.mark.parametrize("loader", sorted(CSV_LOADERS))
def test_a_byte_that_is_not_text_names_the_file(tmp_path, loader):
    columns, load = CSV_LOADERS[loader]
    path = tmp_path / "latin1.csv"
    path.write_bytes(",".join(columns).encode() + b"\n" + b",".join([b"caf\xe9"] * len(columns)))
    with pytest.raises(InputError) as raised:
        load(path)
    message = str(raised.value)
    # decoded in chunks, so the reader cannot tell the row
    assert message.startswith(f"{path}: not ") and " text (" in message and "row" not in message


@pytest.mark.parametrize("loader", sorted(CSV_LOADERS))
def test_a_cell_past_the_field_limit_names_the_file_and_row(tmp_path, loader):
    columns, load = CSV_LOADERS[loader]
    path = tmp_path / "long.csv"
    cells = ['"' + "1" * 200_000 + '"'] + ["1"] * (len(columns) - 1)
    path.write_text(",".join(columns) + "\n\n" + ",".join(cells) + "\n")
    with pytest.raises(InputError, match=r"long\.csv: unreadable CSV: field larger than "
                                         r"field limit .* \(row 2\)$"):
        load(path)


def _edge_case_text(case: str) -> str:
    """Two days of hourly rows written as `case` says; the first row is
    file row 2."""
    header = ["timestamp", *SERIES_COLUMNS]
    rows = [[f"2013-03-0{1 + h // 24}T{h % 24:02d}:00:00", f"{30000 + 7 * h}.5",
             f"{h / 100}", f"0.{h % 10}", "0.25"] for h in range(48)]
    end, blank = "\n", None
    if case == "z":
        rows = [[r[0] + "Z", *r[1:]] for r in rows]
    elif case == "z but one":
        rows = [[r[0] + "Z", *r[1:]] for r in rows[:-1]] + rows[-1:]
    elif case == "z, one with a character after":
        rows = [[r[0] + "Z", *r[1:]] for r in rows]
        rows[8][0] += "x"
    elif case == "year 0":  # numpy reads it, fromisoformat does not
        rows[0][0] = "0000-03-01T00:00:00"
    elif case == "+01:00":
        rows = [[f"2013-03-0{1 + (h + 1) // 24}T{(h + 1) % 24:02d}:00:00+01:00", *r[1:]]
                for h, r in enumerate(rows)]
    elif case == "an offset after the first":  # 05:00 UTC, though it reads 05:30
        rows[5][0] = "2013-03-01T05:30:00+00:30"
    elif case == "fractional second":
        rows[7][0] += ".5"
    elif case == "space separated":
        rows[7][0] = rows[7][0].replace("T", " ")
    elif case == "crlf":
        end = "\r\n"
    elif case == "blank lines":
        blank = ""
    elif case == "whitespace-only line":
        blank = "  "
    elif case == "# in a cell":
        header.append("note")
        rows = [[*r, "#1"] for r in rows]
    elif case == "1_0":
        rows[9][1] = "3_0000"
    elif case == "extra, reordered and repeated columns":
        header = ["region", "offshore_cf", "timestamp", "solar_cf", "demand_mw", "onshore_cf",
                  "solar_cf"]
        rows = [["GB", r[4], r[0], "0.9", r[1], r[3], r[2]] for r in rows]
    elif case == "an extra cell":
        rows[30].append("1")
    elif case == "NUL after a stamp":
        rows[12][0] += "\0"
    elif case == "stamp out of order":
        rows[20][0] = rows[19][0]
    elif case == "nan":
        rows[25][2] = "nan"
    lines = [",".join(header)] + [",".join(r) for r in rows]
    if case == "quoted cells":
        lines = [",".join(f'"{cell}"' for cell in line.split(",")) for line in lines]
    if blank is not None:
        lines[10:10] = [blank]
    return end.join(lines) + end


@pytest.mark.parametrize("case, bulk", [
    ("canonical", True), ("z", True), ("crlf", True), ("blank lines", True),
    ("# in a cell", True), ("extra, reordered and repeated columns", True),
    ("z but one", False), ("z, one with a character after", False), ("year 0", False),
    ("+01:00", False), ("an offset after the first", False),
    ("fractional second", False), ("space separated", False), ("quoted cells", False),
    ("whitespace-only line", False), ("1_0", False), ("an extra cell", False),
    ("NUL after a stamp", False), ("stamp out of order", False), ("nan", False),
])
def test_the_bulk_step_takes_only_what_the_row_walk_reads_alike(tmp_path, monkeypatch, case,
                                                                bulk):
    path = tmp_path / "hourly.csv"
    with open(path, "w", newline="") as fh:
        fh.write(_edge_case_text(case))
    taken = _steps_taken(monkeypatch)
    want = _outcome(_reference_load_hourly_series, path)
    assert _outcome(load_hourly_series, path) == want
    assert taken == [bulk]


def test_a_stamp_with_a_nul_is_a_bad_timestamp(tmp_path):
    path = tmp_path / "hourly.csv"
    with open(path, "w", newline="") as fh:
        fh.write(_edge_case_text("NUL after a stamp"))
    with pytest.raises(InputError) as err:
        load_hourly_series(path)
    assert str(err.value) == f"{path}: bad timestamp '2013-03-01T12:00:00\\x00' (row 14)"


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


@pytest.mark.parametrize("name, value", [("operating_period", float("inf")),
                                         ("construction_period", float("nan")),
                                         ("connection_cost", float("-inf"))])
def test_plant_costs_built_in_code_must_be_finite(name, value):
    # an infinite operating period gives a plant no retirement year
    costs = vars(bundled_cost_table().lookup("CCGT", 1200, 2020))
    with pytest.raises(InputError, match=f"^{name} must be finite"):
        PlantCosts(**{**costs, name: value})


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
    for efficiency in ("1.2", "-0.1"):
        path.write_text(COST_HEADER + f"CCGT,100,2018,{efficiency},25,1,1,1,1,1,1,1,1,1\n")
        with pytest.raises(InputError, match=r"bad\.csv: efficiency .*\(row 2\)"):
            load_cost_table(path)


def test_lookup_exact_exhaustive():
    table = bundled_cost_table()
    for (ptype, cap, year), expected in table.rows.items():
        costs = table.lookup(ptype, cap, year)
        assert costs is expected


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


def test_lookup_unknown_type():
    table = bundled_cost_table()
    with pytest.raises(InputError, match="unknown plant type"):
        table.lookup("Fusion", 100, 2020)


def test_lookup_nan_capacity_rejected():
    # a NaN falls in no bracket; it must not clamp to a listed capacity
    with pytest.raises(InputError, match="not a number"):
        bundled_cost_table().lookup("CCGT", float("nan"), 2020)


def _reference_lookup(table, plant_type: str, capacity_mw: float, year: int) -> PlantCosts:
    """The scan-based lookup the index replaced: the oracle it must equal.
    Each query rescans the rows for the type's years and the capacities
    at a year."""
    capacity_mw, year = float(capacity_mw), int(year)
    if (plant_type, capacity_mw, year) in table.rows:
        return table.rows[(plant_type, capacity_mw, year)]

    def bracket(values, x):
        if x <= values[0]:
            return values[0], values[0]
        if x >= values[-1]:
            return values[-1], values[-1]
        for lo, hi in zip(values, values[1:]):
            if lo <= x <= hi:
                if x == lo:
                    return lo, lo
                if x == hi:
                    return hi, hi
                return lo, hi

    def capacity_interp(y):
        caps = sorted({k[1] for k in table.rows if k[0] == plant_type and k[2] == y})
        c_lo, c_hi = bracket(caps, capacity_mw)
        lo = table.rows[(plant_type, c_lo, y)].as_array()
        if c_hi == c_lo:
            return lo
        hi = table.rows[(plant_type, c_hi, y)].as_array()
        frac = (capacity_mw - c_lo) / (c_hi - c_lo)
        return lo + frac * (hi - lo)

    y_lo, y_hi = bracket(sorted({k[2] for k in table.rows if k[0] == plant_type}), year)
    lo_arr = capacity_interp(y_lo)
    if y_hi == y_lo:
        return PlantCosts.from_array(lo_arr)
    hi_arr = capacity_interp(y_hi)
    frac = (year - y_lo) / (y_hi - y_lo)
    return PlantCosts.from_array(lo_arr + frac * (hi_arr - lo_arr))


def test_lookup_equals_reference_scan():
    table = bundled_cost_table()
    count = 0
    for ptype in sorted({k[0] for k in table.rows}):
        listed = sorted({k[1] for k in table.rows if k[0] == ptype})
        years = sorted({k[2] for k in table.rows if k[0] == ptype})
        caps = [c * f for c in listed for f in (1.0, 0.5, 1.37)] + [1.0, 1e5]
        for cap in caps:
            for year in range(years[0] - 3, years[-1] + 4):
                got = table.lookup(ptype, cap, year).as_array().tobytes()
                want = _reference_lookup(table, ptype, cap, year).as_array().tobytes()
                assert got == want, (ptype, cap, year)
                count += 1
    assert count > 4000
    for year in range(1975, 2041):
        reference = [InvestmentCandidate(ptype, cap, _reference_lookup(table, ptype, cap, year))
                     for ptype in sorted({k[0] for k in table.rows})
                     for cap in [max(k[1] for k in table.rows if k[0] == ptype)]]
        assert candidate_menu(table, year) == tuple(reference), year


def test_cost_table_round_trip(tmp_path):
    table = bundled_cost_table()
    path = tmp_path / "rt.csv"
    save_cost_table(table, path)
    reloaded = load_cost_table(path)
    assert reloaded.rows == table.rows


def test_saving_over_a_file_replaces_it(tmp_path):
    path, link = tmp_path / "costs.csv", tmp_path / "old.csv"
    path.write_text("old\n")
    os.link(path, link)
    save_cost_table(bundled_cost_table(), path)
    assert not os.path.samefile(path, link)
    assert link.read_text() == "old\n"
    assert load_cost_table(path).rows == bundled_cost_table().rows


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


def test_registry_plant_built_after_the_start_year_names_its_row(tmp_path):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["a", "g1", "CCGT", 1200, 2020], ["b", "g1", "CCGT", 1200, 2021]],
                    with_funds=False)
    assert len(load_plant_registry(path, bundled_cost_table()).plants) == 2
    assert len(load_plant_registry(path, bundled_cost_table(), 2021).plants) == 2
    with pytest.raises(InputError, match=r"reg\.csv: plant 'b' is built in 2021, "
                                         r"after the start year 2020 \(row 3\)$"):
        load_plant_registry(path, bundled_cost_table(), 2020)


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


@pytest.mark.parametrize("row, message", [
    (["b", "g1", "Fusion", 1200, 2010, 5.0], "unknown plant type 'Fusion'"),
    (["b", "g1", "CCGT", 0, 2010, 5.0], "capacity must be > 0"),
    (["b", "g1", "CCGT", -5, 2010, 5.0], "capacity must be > 0"),
])
def test_registry_bad_plant_names_file_and_row(tmp_path, row, message):
    path = tmp_path / "reg.csv"
    _write_registry(path, [["a", "g1", "CCGT", 1200, 2010, 5.0], row])
    with pytest.raises(InputError, match=r"reg\.csv: .*" + message + r".*\(row 3\)"):
        load_plant_registry(path, bundled_cost_table())


@pytest.mark.parametrize("row, cells", [("p1,g1", 2), ("p1,g1,CCGT,1200,2010,5.0", 6)])
def test_registry_row_with_other_cell_count_names_file_and_row(tmp_path, row, cells):
    path = tmp_path / "reg.csv"
    path.write_text("plant_id,owner_id,type,capacity_mw,construction_year\n"
                    "a,g1,CCGT,1200,2010\n" + row + "\n")
    with pytest.raises(InputError, match=fr"reg\.csv: {cells} cells where the header has 5 "
                                         r"\(row 3\)"):
        load_plant_registry(path, bundled_cost_table())



def test_registry_bad_cell_before_a_short_row_is_reported_first(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("plant_id,owner_id,type,capacity_mw,construction_year\n"
                    "a,g1,CCGT,1200,2010\nb,g1,CCGT,huge,2010\nc,g1\n")
    with pytest.raises(InputError, match=r"reg\.csv: .*'capacity_mw' \(row 3\)"):
        load_plant_registry(path, bundled_cost_table())

def test_cost_table_short_row_names_file_and_row(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text(COST_HEADER + "CCGT,100,2017,0.5,25,1,1,1,1,1,1,1,1,1\n"
                    "\n" + "CCGT,200,2017,0.5,25,1,1,1,1,1,1,1\n")
    # the blank line is skipped, not counted
    with pytest.raises(InputError, match=r"costs\.csv: 12 cells where the header has 14 "
                                         r"\(row 3\)"):
        load_cost_table(path)


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


# PyYAML's safe loaders: the pure-Python one, and libyaml's where it is built
YAML_LOADERS = [
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                          reason="PyYAML built without libyaml")),
]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_scenarios_load_alike_under_both_yaml_loaders(tmp_path, monkeypatch):
    assert ingest._YAML_LOADER is yaml.CSafeLoader
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import fixtures
    paths = [tmp_path / "toy.yaml", tmp_path / "scen.yaml"]
    write_scenario_yaml(paths[0], invest_scenario()[0])
    paths[1].write_text(SCENARIO_YAML)
    paths += [fixtures.generate(workload, 101, tmp_path / workload)["scenario"]
              for workload in ("calibrate_small", "simulate_paper")]
    for path in paths:
        loaded = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(ingest, "_YAML_LOADER", loader)
            loaded.append(load_scenario(path))
        assert loaded[0] == loaded[1], path


@pytest.mark.parametrize("loader", YAML_LOADERS)
@pytest.mark.parametrize("text, line", [
    # the list is still open at the end of the file
    pytest.param(b"start_year: 2020\nend_year: [2021\n", 3, id="open list"),
    pytest.param(b"start_year: 2020\nend_year: !!python/object:collections.OrderedDict {}\n", 2,
                 id="python object"),
    # decoded before it is parsed, so no line is known
    pytest.param(b"start_year: 2020\nend_year: 2021  # caf\xe9\n", None, id="not UTF-8"),
])
def test_scenario_that_is_not_safe_yaml_names_the_file_and_line(tmp_path, monkeypatch, loader,
                                                                text, line):
    monkeypatch.setattr(ingest, "_YAML_LOADER", loader)
    path = tmp_path / "scen.yaml"
    path.write_bytes(text)
    with pytest.raises(InputError, match=r"scen\.yaml: invalid scenario YAML: ") as raised:
        load_scenario(path)
    message = str(raised.value)
    assert message.endswith(f" (line {line})") if line else "line" not in message


def test_scenario_accepts_every_field_as_a_key(tmp_path):
    extra = {"demand_scale": "{2013: 1.0, 2014: 1.1}", "nuclear_subsidy": "5.0",
             "sigma_m": "0.0001", "sigma_c": "2.0",
             "price_curve_by_year": "{2013: {m: 0.001, c: 10.0}}"}
    path = tmp_path / "scen.yaml"
    path.write_text(SCENARIO_YAML + "".join(f"{k}: {v}\n" for k, v in extra.items()))
    assert {f.name for f in fields(ScenarioConfig)} == set(yaml.safe_load(path.read_text()))
    scenario = load_scenario(path)
    assert (scenario.demand_scale, scenario.nuclear_subsidy, scenario.sigma_m,
            scenario.sigma_c, scenario.price_curve_by_year) == \
        ({2013: 1.0, 2014: 1.1}, 5.0, 0.0001, 2.0, {2013: (0.001, 10.0)})


def test_scenario_without_optional_keys_takes_the_config_defaults(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text("start_year: 2020\nend_year: 2021\ncarbon_price: {2020: 5.0, 2021: 6.0}\n")
    assert load_scenario(path) == ScenarioConfig(start_year=2020, end_year=2021,
                                                 carbon_price={2020: 5.0, 2021: 6.0})


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


def test_scheduled_retirement_before_the_start_year():
    scenario = invest_scenario()[0]
    assert scenario.start_year == 2020
    message = "scheduled retirement of 'coal0' in 2010 is before start_year 2020"
    with pytest.raises(InputError, match=f"^{message}$"):
        ScenarioConfig(**{**scenario.__dict__, "scheduled_retirements": (("coal0", 2010),)})
    # a retirement in the start year is a retirement, not an error
    ScenarioConfig(**{**scenario.__dict__, "scheduled_retirements": (("coal0", 2020),)})


def test_scenario_retirement_before_the_start_year_names_the_file(tmp_path):
    path = tmp_path / "scen.yaml"
    path.write_text(SCENARIO_YAML.replace("{plant_id: coal-b, year: 2016}",
                                          "{plant_id: coal-b, year: 2012}"))
    with pytest.raises(InputError, match=r"^.*scen\.yaml: scheduled retirement of 'coal-b' "
                                         r"in 2012 is before start_year 2013$"):
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


@pytest.mark.parametrize("overrides, key", [
    ({"discount_rate": float("nan")}, "discount_rate"),
    ({"sigma_m": float("inf")}, "sigma_m"),
    ({"price_cap": float("inf")}, "price_cap"),
    ({"carbon_price": {2020: float("nan")}}, r"carbon_price\.2020"),
    ({"fuel_price": {"gas": {2020: float("inf")}}}, r"fuel_price\.gas\.2020"),
    ({"demand_scale": {2020: float("-inf")}}, r"demand_scale\.2020"),
    ({"emission_factor": {"gas": float("nan")}}, r"emission_factor\.gas"),
    ({"price_curve": (float("inf"), 0.0)}, r"price_curve\.m"),
    ({"price_curve_by_year": {2020: (0.001, float("nan"))}}, r"price_curve_by_year\.2020\.c"),
])
def test_scenario_in_code_non_finite_value_names_key(overrides, key):
    with pytest.raises(InputError, match=key + " must be finite"):
        ScenarioConfig(**{"start_year": 2020, "end_year": 2020, "carbon_price": {2020: 1.0},
                          **overrides})



@pytest.mark.parametrize("overrides, message", [
    ({"discount_rate": -1.0}, "discount_rate must be > -1"),
    ({"sigma_m": -1e-4}, "sigma_m and sigma_c must be >= 0"),
    ({"sigma_c": -2.0}, "sigma_m and sigma_c must be >= 0"),
    ({"demand_scale": {2020: -0.5}}, "demand_scale must be >= 0"),
    ({"price_cap": 0.0}, r"price_cap must be > 0 \(got 0\.0\)"),
    ({"price_cap": -5.0}, r"price_cap must be > 0 \(got -5\.0\)"),
], ids=["discount_rate", "sigma_m", "sigma_c", "demand_scale", "zero price_cap",
        "negative price_cap"])
def test_scenario_out_of_range_value_names_key(overrides, message):
    with pytest.raises(InputError, match=message):
        ScenarioConfig(**{"start_year": 2020, "end_year": 2020, "carbon_price": {2020: 1.0},
                          **overrides})

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
