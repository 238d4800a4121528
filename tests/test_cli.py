"""End-to-end command line tests."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import emsim
from emsim import calibrate, repdays
from emsim.cli import main
from emsim.ingest import SERIES_NAMES, PlantRegistry, load_hourly_series
from emsim.repdays import save_representative_days
from toys import (
    invest_scenario,
    make_plant,
    synthetic_ts,
    write_cost_csv,
    write_hourly_csv,
    write_registry_csv,
    write_scenario_yaml,
    write_target_csv,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["repdays", "--nope"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_repdays_end_to_end(tmp_path):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(60, seed=1))
    out = tmp_path / "out"
    rc = main(["repdays", "--input", str(data), "--k", "4", "--method", "medoid",
               "--seed", "1", "--sweep", "1,4", "--out", str(out)])
    assert rc == 0
    rep_rows = read_csv(out / "representative_days.csv")
    assert len(rep_rows) == 4 * 24
    metric_rows = read_csv(out / "metrics.csv")
    assert [r["k"] for r in metric_rows] == ["1", "4"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "repdays"
    assert manifest["finished"] is not None
    assert "sha256" in manifest["inputs"]["input"]


def test_repdays_metrics_row_describes_written_days(tmp_path):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(60, seed=1))
    out = tmp_path / "out"
    assert main(["repdays", "--input", str(data), "--k", "4", "--seed", "3",
                 "--sweep", "2,4", "--out", str(out)]) == 0
    ts = load_hourly_series(data)
    observed = repdays.summarize(np.stack([ts.series(n) for n in SERIES_NAMES]),
                                 np.ones(ts.n_hours))
    rep = repdays.load_representative_days(out / "representative_days.csv")
    approx = repdays.summarize(rep.values, rep.hour_weights)
    row = next(r for r in read_csv(out / "metrics.csv") if r["k"] == "4")
    assert float(row["ce_av"]) == repdays.ce_av(observed, approx)
    assert float(row["nrmse_av"]) == repdays.nrmse_av(observed, approx)
    assert float(row["ree_av"]) == repdays.ree_av(observed, approx)


def test_repdays_clusters_each_k_once(tmp_path, monkeypatch):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(60, seed=1))
    calls = []
    kmeans = repdays.kmeans

    def counted(dm, k, seed=0):
        calls.append(k)
        return kmeans(dm, k, seed=seed)

    monkeypatch.setattr(repdays, "kmeans", counted)
    assert main(["repdays", "--input", str(data), "--k", "4", "--sweep", "2,4,6",
                 "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [2, 4, 6]


def test_repdays_k_outside_sweep(tmp_path):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(60, seed=1))
    out = tmp_path / "out"
    assert main(["repdays", "--input", str(data), "--k", "5", "--sweep", "2,3",
                 "--out", str(out)]) == 0
    assert [r["k"] for r in read_csv(out / "metrics.csv")] == ["2", "3"]
    rows = read_csv(out / "representative_days.csv")
    assert len(rows) == 5 * 24
    assert sorted({r["cluster"] for r in rows}) == [str(c) for c in range(5)]


def test_repdays_more_clusters_than_distinct_days_exits_one(tmp_path, capsys):
    ts = synthetic_ts(6, seed=1)
    for name in SERIES_NAMES:  # days 0 and 1, three times over
        ts.series(name)[48:] = np.tile(ts.series(name)[:48], 2)
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, ts)
    assert main(["repdays", "--input", str(data), "--k", "3",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(data) in err
    assert "max k 3 exceeds the 2 distinct days of 6" in err and "--k" in err


@pytest.mark.parametrize("sweep, bad", [("1,,2", "''"), ("1,x", "'x'"), ("2.5", "'2.5'")])
def test_repdays_bad_sweep_exits_one(tmp_path, capsys, sweep, bad):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(3, seed=1))
    out = tmp_path / "out"
    assert main(["repdays", "--input", str(data), "--sweep", sweep, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert f"argument --sweep: not an integer: {bad}" in err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (["--k", "0"], "argument --k: must be >= 1 (got 0)"),
    (["--k", "-1"], "argument --k: must be >= 1 (got -1)"),
    (["--sweep", "2,0"], "argument --sweep: must be >= 1 (got 0)"),
])
def test_repdays_cluster_count_below_one_exits_one_before_loading(tmp_path, capsys, option,
                                                                  message):
    out = tmp_path / "out"
    # the input does not exist: the arguments fail before anything is read
    assert main(["repdays", "--input", str(tmp_path / "absent.csv"), *option,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err
    assert not out.exists()


def test_repdays_constant_series_named(tmp_path, capsys):
    ts = synthetic_ts(20, seed=1)
    ts.series("offshore_cf")[:] = 0.0
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, ts)
    out = tmp_path / "out"
    assert main(["repdays", "--input", str(data), "--k", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(data) in err
    assert "zero-variance series 'offshore_cf'" in err
    assert not (out / "metrics.csv").exists()


def test_repdays_missing_input(tmp_path, capsys):
    rc = main(["repdays", "--input", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "absent.csv" in capsys.readouterr().err


def _write_sim_inputs(tmp_path, price_curve=(0.002, 40.0), end_year=2023, **fields):
    scenario, registry, rep, table = invest_scenario(end_year)
    scenario = type(scenario)(**{**scenario.__dict__, "price_curve": price_curve, **fields})
    paths = {
        "scenario": tmp_path / "scenario.yaml",
        "registry": tmp_path / "registry.csv",
        "repdays": tmp_path / "repdays.csv",
        "costs": tmp_path / "costs.csv",
    }
    write_scenario_yaml(paths["scenario"], scenario)
    write_registry_csv(paths["registry"], registry)
    save_representative_days(rep, paths["repdays"])
    write_cost_csv(paths["costs"], table)
    return paths


def test_simulate_end_to_end(tmp_path):
    paths = _write_sim_inputs(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]),
               "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]),
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    mix = read_csv(out / "mix_by_year.csv")
    years = sorted({r["year"] for r in mix})
    assert years == ["2020", "2021", "2022", "2023"]
    for year in years:
        shares = [float(r["share"]) for r in mix if r["year"] == year]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    funds = read_csv(out / "funds_by_year.csv")
    assert {r["genco_id"] for r in funds} == {"g1", "g2"}
    assert (out / "investments.csv").exists()
    assert not (out / "dispatch_log.csv").exists()


def test_simulate_logs_whether_the_best_candidate_was_affordable(tmp_path):
    paths = _write_sim_inputs(tmp_path)
    rows = read_csv(paths["registry"])
    with open(paths["registry"], "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "funds": "-1e12"} for row in rows)  # nothing is affordable
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--seed", "3", "--out", str(out)])
    assert rc == 0
    logged = read_csv(out / "investments.csv")
    assert list(logged[0]) == ["year", "genco_id", "type", "capacity_mw", "npv",
                               "committed", "online_year", "affordable"]
    by_choice: dict = {}
    for row in logged:
        by_choice.setdefault((row["year"], row["genco_id"]), []).append(row)
    for rows in by_choice.values():
        best = max(rows, key=lambda r: float(r["npv"]))
        assert float(best["npv"]) > 0
        assert [r["affordable"] for r in rows] == ["0" if r is best else "1" for r in rows]
        assert {r["committed"] for r in rows} == {"0"}


def test_simulate_seed_defaults_to_scenario_rng_seed(tmp_path):
    paths = _write_sim_inputs(tmp_path, sigma_c=5.0, rng_seed=7)
    common = ["simulate", "--scenario", str(paths["scenario"]),
              "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
              "--costs", str(paths["costs"])]
    runs = {}
    for name, seed_args in (("default", []), ("seed7", ["--seed", "7"]),
                            ("seed0", ["--seed", "0"])):
        out = tmp_path / name
        assert main([*common, *seed_args, "--out", str(out)]) == 0
        runs[name] = (out / "investments.csv").read_bytes()
        assert json.loads((out / "manifest.json").read_text())["seed"] == (
            0 if name == "seed0" else 7)
    assert runs["default"] == runs["seed7"]
    assert runs["default"] != runs["seed0"]


def _seeded_args(tmp_path, subcommand, seed):
    """Valid arguments of `subcommand` with --seed `seed`."""
    if subcommand == "repdays":
        data = tmp_path / "hourly.csv"
        write_hourly_csv(data, synthetic_ts(20, seed=1))
        return ["repdays", "--input", str(data), "--k", "2", "--seed", seed,
                "--out", str(tmp_path / "out")]
    paths = _write_sim_inputs(tmp_path, sigma_c=5.0)
    args = [subcommand, "--scenario", str(paths["scenario"]),
            "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
            "--costs", str(paths["costs"]), "--seed", seed, "--out", str(tmp_path / "out")]
    if subcommand == "calibrate":
        write_target_csv(tmp_path / "target.csv", {2023: ALL_TYPES})
        args[1:1] = ["validation"]
        args += ["--target", str(tmp_path / "target.csv"), "--pop", "2", "--gens", "0",
                 "--workers", "1"]
    return args


@pytest.mark.parametrize("subcommand", ["simulate", "calibrate", "repdays"])
def test_negative_seed_exits_one_before_any_output(tmp_path, capsys, subcommand):
    assert main(_seeded_args(tmp_path, subcommand, "1")) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for path in out.iterdir():
        path.unlink()
    assert main(_seeded_args(tmp_path, subcommand, "-3")) == 1
    assert "argument --seed: must be >= 0 (got -3)" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_negative_scenario_rng_seed_exits_one(tmp_path, capsys):
    paths = _write_sim_inputs(tmp_path, sigma_c=5.0, rng_seed=5)
    text = paths["scenario"].read_text()
    assert "rng_seed: 5\n" in text
    paths["scenario"].write_text(text.replace("rng_seed: 5\n", "rng_seed: -5\n"))
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    assert f"{paths['scenario']}: rng_seed must be >= 0 (got -5)" in capsys.readouterr().err
    assert not (out / "mix_by_year.csv").exists()


def test_simulate_dispatch_log(tmp_path):
    paths = _write_sim_inputs(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]),
               "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]),
               "--dispatch-log", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "dispatch_log.csv")
    assert set(rows[0]) == {"year", "cluster", "hour", "weight", "plant_id", "price",
                            "dispatch_mw", "clearing_price", "unserved_mw"}
    # 4 years x 2 clusters x 24 hours x >=3 plants
    assert len(rows) >= 4 * 2 * 24 * 3
    # energy conservation visible per row group
    first_hour = [r for r in rows if r["year"] == "2020" and r["cluster"] == "0"
                  and r["hour"] == "1"]
    served = sum(float(r["dispatch_mw"]) for r in first_hour)
    assert served + float(first_hour[0]["unserved_mw"]) == pytest.approx(20000.0)


def test_simulate_missing_scenario_names_path(tmp_path, capsys):
    rc = main(["simulate", "--scenario", str(tmp_path / "nope.yaml"),
               "--registry", "x", "--repdays", "y", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "nope.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("name, old, new, message", [
    ("scenario", "start_year: 2020", "start_year: soon", "start_year must be numeric"),
    ("repdays", "\n0,", "\nzero,", "'cluster' (row 2)"),
    ("registry", ",2015,", ",2015.5,", "'construction_year' (row 3)"),
])
def test_simulate_non_numeric_input_exits_one(tmp_path, capsys, name, old, new, message):
    paths = _write_sim_inputs(tmp_path)
    text = paths[name].read_text()
    assert old in text
    paths[name].write_text(text.replace(old, new, 1))
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(paths[name]) in err and message in err


@pytest.mark.parametrize("text", [
    pytest.param("end_year: [2023", id="open list"),
    pytest.param("end_year: !!python/object:collections.OrderedDict {}", id="python object"),
])
def test_simulate_scenario_that_is_not_safe_yaml_exits_one(tmp_path, capsys, text):
    paths = _write_sim_inputs(tmp_path)
    body = paths["scenario"].read_text()
    assert "end_year: 2023" in body
    paths["scenario"].write_text(body.replace("end_year: 2023", text))
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{paths['scenario']}: invalid scenario YAML" in err and "(line " in err
    assert json.loads((out / "manifest.json").read_text())["status"] == "input_error"


def test_repdays_input_that_is_not_text_exits_one(tmp_path, capsys):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(3, seed=1))
    data.write_bytes(data.read_bytes().replace(b"T12:00:00", b"T12:00:00\xe9", 1))
    out = tmp_path / "out"
    assert main(["repdays", "--input", str(data), "--k", "1", "--out", str(out)]) == 1
    assert f"{data}: not " in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "input_error"


def test_calibrate_target_cell_past_the_field_limit_exits_one(tmp_path, capsys):
    rc, out = _calibrate(tmp_path, 'year,type,share\n2023,"' + "x" * 200_000 + '",0.5\n',
                         "validation")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'target.csv'}: unreadable CSV: field larger than field limit" in err
    assert "(row 2)" in err
    assert json.loads((out / "manifest.json").read_text())["status"] == "input_error"


@pytest.mark.parametrize("name, old, new, message", [
    ("registry", ",15000.0,", ",inf,", "non-finite value 'inf' in column 'capacity_mw' (row 2)"),
    ("scenario", "discount_rate: 0.06", "discount_rate: .nan",
     "discount_rate must be finite"),
])
def test_simulate_non_finite_input_exits_one(tmp_path, capsys, name, old, new, message):
    paths = _write_sim_inputs(tmp_path)
    text = paths[name].read_text()
    assert old in text
    paths[name].write_text(text.replace(old, new, 1))
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(paths[name]) in err and message in err
    assert not (out / "investments.csv").exists()



def test_simulate_plant_built_after_the_start_year_exits_one(tmp_path, capsys):
    paths = _write_sim_inputs(tmp_path)
    text = paths["registry"].read_text()
    assert "ccgt0,g1,CCGT,15000.0,2018," in text
    paths["registry"].write_text(text.replace(",2018,", ",2030,", 1))
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    assert (f"{paths['registry']}: plant 'ccgt0' is built in 2030, after the start year 2020 "
            "(row 2)") in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "input_error"
    assert not (out / "mix_by_year.csv").exists()


def test_calibrate_plant_built_after_the_start_year_exits_one(tmp_path, capsys):
    paths = _write_sim_inputs(tmp_path)
    text = paths["registry"].read_text()
    assert "pv0,g1,PV,4000.0,2019," in text
    paths["registry"].write_text(text.replace(",2019,", ",2030,", 1))
    write_target_csv(tmp_path / "target.csv", {2023: ALL_TYPES})
    out = tmp_path / "out"
    rc = main(["calibrate", "validation", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--target", str(tmp_path / "target.csv"),
               "--pop", "2", "--gens", "0", "--workers", "2", "--out", str(out)])
    assert rc == 1
    assert (f"{paths['registry']}: plant 'pv0' is built in 2030, after the start year 2020 "
            "(row 4)") in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "input_error"
    assert not (out / "best.csv").exists()


def test_simulate_out_of_range_repdays_row_exits_one(tmp_path, capsys):
    paths = _write_sim_inputs(tmp_path)
    lines = paths["repdays"].read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = "-5.0"  # demand_mw
    lines[3] = ",".join(cells)
    paths["repdays"].write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    assert f"{paths['repdays']}: demand_mw -5.0 outside [0, inf] (row 4)" in capsys.readouterr().err
    assert not (out / "investments.csv").exists()


def test_simulate_short_registry_row_exits_one(tmp_path, capsys):
    paths = _write_sim_inputs(tmp_path)
    with open(paths["registry"], "a") as fh:
        fh.write("p1,g1\n")
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{paths['registry']}: 2 cells where the header has 6 (row " in err


def test_simulate_gap_year_curve_exits_before_output(tmp_path, capsys):
    paths = _write_sim_inputs(tmp_path, end_year=2022)
    with open(paths["scenario"], "a") as fh:
        fh.write("price_curve_by_year: {2020: {m: 0.002, c: 40.0}, 2022: {m: 0.002, c: 45.0}}\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(paths["scenario"]) in err
    assert "price_curve_by_year has no entry for year 2021" in err
    assert not (out / "mix_by_year.csv").exists()


def test_calibrate_end_to_end(tmp_path):
    paths = _write_sim_inputs(tmp_path)
    target = tmp_path / "target.csv"
    write_target_csv(target, {2023: {"wind": 0.0, "nuclear": 0.0, "solar": 0.15,
                                     "CCGT": 0.35, "coal": 0.50}})
    out = tmp_path / "out"
    rc = main(["calibrate", "validation",
               "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]),
               "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]),
               "--target", str(target),
               "--pop", "8", "--gens", "2", "--seed", "5", "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    log_rows = read_csv(out / "generation_log.csv")
    assert {r["generation"] for r in log_rows} == {"0", "1", "2"}
    assert set(log_rows[0]) == {"generation", "individual", "fitness", "gene_0", "gene_1"}
    best = read_csv(out / "best.csv")[0]
    assert float(best["fitness"]) >= 0.0
    assert set(best) == {"fitness", "m", "c"}


ALL_TYPES = {"wind": 0.1, "nuclear": 0.1, "solar": 0.2, "CCGT": 0.3, "coal": 0.3}


def _calibrate(tmp_path, target, *extra, workers=1, **scenario_fields):
    tmp_path.mkdir(exist_ok=True)
    paths = _write_sim_inputs(tmp_path, **scenario_fields)
    path = tmp_path / "target.csv"
    if isinstance(target, str):
        path.write_text(target)
    else:
        write_target_csv(path, target)
    out = tmp_path / "out"
    rc = main(["calibrate", *extra, "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--target", str(path),
               "--pop", "2", "--gens", "0", "--workers", str(workers), "--out", str(out)])
    return rc, out


def _linked_rerun(out, names, rerun) -> None:
    """Hard-link each named output, rerun into the same directory, and
    check that the rerun replaced each file, leaving the link its old text."""
    for name in names:
        os.link(out / name, out / f"{name}.old")
    before = {name: (out / name).read_bytes() for name in names}
    rerun()
    for name in names:
        assert not os.path.samefile(out / name, out / f"{name}.old"), name
        assert os.stat(out / name).st_nlink == 1, name
        assert (out / f"{name}.old").read_bytes() == before[name], name


def test_calibrate_rerun_replaces_its_outputs(tmp_path):
    target = {y: ALL_TYPES for y in range(2020, 2024)}
    rc, out = _calibrate(tmp_path, target, "validation")
    assert rc == 0
    names = ["best.csv", "generation_log.csv", "telemetry.json", "manifest.json"]
    _linked_rerun(out, names, lambda: _calibrate(tmp_path, target, "validation"))
    assert (out / "best.csv").read_bytes() == (out / "best.csv.old").read_bytes()


def test_simulate_rerun_replaces_its_outputs(tmp_path):
    paths = _write_sim_inputs(tmp_path)
    out = tmp_path / "out"
    args = ["simulate", "--scenario", str(paths["scenario"]), "--registry",
            str(paths["registry"]), "--repdays", str(paths["repdays"]), "--seed", "3",
            "--dispatch-log", "--out", str(out)]
    assert main(args) == 0
    names = ["mix_by_year.csv", "funds_by_year.csv", "investments.csv", "dispatch_log.csv",
             "manifest.json"]
    _linked_rerun(out, names, lambda: main(args))


def test_calibrate_target_missing_type_exits_one(tmp_path, capsys):
    target = {2023: {t: v for t, v in ALL_TYPES.items() if t != "nuclear"}}
    rc, out = _calibrate(tmp_path, target, "validation")
    assert rc == 1
    err = capsys.readouterr().err
    assert "target.csv" in err and "nuclear" in err and "2023" in err
    assert not (out / "best.csv").exists()


@pytest.mark.parametrize("mode", ["validation", "longterm"])
def test_calibrate_writes_telemetry_next_to_its_outputs(tmp_path, mode):
    rc, out = _calibrate(tmp_path, {y: ALL_TYPES for y in range(2020, 2024)}, mode)
    assert rc == 0
    with open(out / "generation_log.csv", newline="") as fh:
        fitness = [float(r["fitness"]) for r in csv.DictReader(fh)]
    with open(out / "telemetry.json") as fh:
        [entry] = json.load(fh)  # --gens 0: generation 0 only
    assert entry["generation"] == 0
    assert entry["evaluated"] + entry["reused"] == len(fitness) == 2
    assert entry["failed"] == 0
    assert entry["best_fitness"] == min(fitness)
    assert entry["seconds"] >= 0.0


def test_calibrate_longterm_target_missing_first_year(tmp_path, capsys):
    target = {y: ALL_TYPES for y in (2021, 2022, 2023)}
    rc, out = _calibrate(tmp_path / "all", target, "longterm")
    assert rc == 1
    assert "2020" in capsys.readouterr().err
    rc, out = _calibrate(tmp_path / "excluded", target, "longterm", "--exclude-first-year")
    assert rc == 0
    assert float(read_csv(out / "best.csv")[0]["fitness"]) < float("inf")


def test_calibrate_longterm_scoring_no_year_exits_one(tmp_path, capsys):
    rc, out = _calibrate(tmp_path, {2020: ALL_TYPES}, "longterm", "--exclude-first-year",
                         end_year=2020)
    assert rc == 1
    err = capsys.readouterr().err
    assert "target.csv" in err and "scores no year" in err
    assert not (out / "best.csv").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_calibrate_input_error_inside_evaluation_exits_one(tmp_path, capsys, monkeypatch,
                                                            workers):
    # a pool process however small the work, so the error also crosses the pool
    monkeypatch.setattr(calibrate, "POOL_PROCESS_CELLS", 1)
    started, start = [], multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda proc: (started.append(proc), start(proc)))
    rc, out = _calibrate(tmp_path, {2023: ALL_TYPES}, "validation", workers=workers,
                         scheduled_retirements=(("ghost", 2021),))
    assert len(started) == workers - 1
    assert rc == 1
    assert "unknown plant 'ghost'" in capsys.readouterr().err
    assert not (out / "best.csv").exists()


def test_calibrate_without_a_finite_fitness_exits_two(tmp_path, capsys, monkeypatch):
    def broken_open(world):
        raise RuntimeError("engine broke")

    monkeypatch.setattr("emsim.engine.open_year", broken_open)
    rc, out = _calibrate(tmp_path, {2023: ALL_TYPES}, "validation")
    assert rc == 2
    assert "generation 0" in capsys.readouterr().err
    assert not (out / "best.csv").exists()


def test_calibrate_default_workers_are_the_cpus_this_process_may_use(monkeypatch):
    from emsim.cli import build_parser
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = build_parser().parse_args(["calibrate", "validation", "--scenario", "s",
                                      "--registry", "r", "--repdays", "d", "--target", "t",
                                      "--out", "o"])
    assert args.workers == 1


@pytest.mark.parametrize("option, value, message", [
    ("--workers", "0", "parallel_workers must be >= 1 (got 0)"),
    ("--workers", "-2", "parallel_workers must be >= 1 (got -2)"),
    ("--gens", "-3", "max_generations must be >= 0 (got -3)"),
])
def test_calibrate_invalid_ga_size_exits_one(tmp_path, capsys, option, value, message):
    paths = _write_sim_inputs(tmp_path)
    target = tmp_path / "target.csv"
    write_target_csv(target, {2023: ALL_TYPES})
    out = tmp_path / "out"
    args = {"--pop": "4", "--gens": "1", "--workers": "1", option: value}
    rc = main(["calibrate", "validation", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]), "--repdays", str(paths["repdays"]),
               "--costs", str(paths["costs"]), "--target", str(target),
               *[item for pair in args.items() for item in pair], "--out", str(out)])
    assert rc == 1
    assert f"error: {option}: {message}" in capsys.readouterr().err
    assert not (out / "generation_log.csv").exists()


@pytest.mark.parametrize("bad_row", ["2023,coal,lots", "twenty,coal,0.3"])
def test_calibrate_non_numeric_target_exits_one(tmp_path, capsys, bad_row):
    rc, _ = _calibrate(tmp_path, f"year,type,share\n2023,CCGT,0.3\n{bad_row}\n",
                       "validation")
    assert rc == 1
    err = capsys.readouterr().err
    assert "target.csv" in err and "row 3" in err


def test_calibrate_long_target_row_exits_one(tmp_path, capsys):
    rows = [f"2023,{t},{v}" for t, v in ALL_TYPES.items()]
    rows[2] += ",0.1"
    rc, out = _calibrate(tmp_path, "\n".join(["year,type,share", *rows, ""]), "validation")
    assert rc == 1
    assert "target.csv: 4 cells where the header has 3 (row 4)" in capsys.readouterr().err
    assert not (out / "best.csv").exists()


@pytest.mark.parametrize("coal_rows, message", [
    ("2023,coal,nan", "share must be finite and >= 0 (row 6)"),
    ("2023,coal,inf", "share must be finite and >= 0 (row 6)"),
    ("2023,coal,-5", "share must be finite and >= 0 (row 6)"),
    ("2023,coal,0.3\n2023,coal,0.4", "duplicate year 2023 type 'coal' (row 7)"),
])
def test_calibrate_bad_target_share_exits_one(tmp_path, capsys, coal_rows, message):
    rows = [f"2023,{t},{v}" for t, v in ALL_TYPES.items() if t != "coal"]
    rc, out = _calibrate(tmp_path, "\n".join(["year,type,share", *rows, coal_rows, ""]),
                         "validation")
    assert rc == 1
    err = capsys.readouterr().err
    assert "target.csv" in err and message in err
    assert not (out / "best.csv").exists()


def test_metrics_end_to_end(tmp_path):
    observed = {2013: {"coal": 0.5, "CCGT": 0.3}, 2014: {"coal": 0.4, "CCGT": 0.35},
                2015: {"coal": 0.3, "CCGT": 0.4}}
    simulated = {2014: {"coal": 0.45, "CCGT": 0.33}, 2015: {"coal": 0.35, "CCGT": 0.42}}
    obs_path, sim_path = tmp_path / "obs.csv", tmp_path / "sim.csv"
    write_target_csv(obs_path, observed)
    write_target_csv(sim_path, simulated)
    out = tmp_path / "out"
    rc = main(["metrics", "--simulated", str(sim_path), "--observed", str(obs_path),
               "--baseline-year", "2013", "--out", str(out)])
    assert rc == 0
    rows = {r["type"]: r for r in read_csv(out / "forecast_metrics.csv")}
    assert float(rows["coal"]["mae"]) == pytest.approx(0.05, rel=1e-12)
    assert float(rows["coal"]["mase"]) == pytest.approx(0.05 / 0.15, rel=1e-9)


def test_simulate_byte_identical_reruns(tmp_path):
    # the second run is a separate process with another string-hash seed
    paths = _write_sim_inputs(tmp_path)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        args = ["simulate", "--scenario", str(paths["scenario"]),
                "--registry", str(paths["registry"]),
                "--repdays", str(paths["repdays"]),
                "--costs", str(paths["costs"]),
                "--seed", "9", "--dispatch-log", "--out", str(out)]
        if name == "a":
            rc = main(args)
        else:
            hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
            path = os.pathsep.join([str(Path(emsim.__file__).parents[1]),
                                    os.environ.get("PYTHONPATH", "")])
            rc = subprocess.run([sys.executable, "-m", "emsim.cli", *args],
                                env={**os.environ, "PYTHONHASHSEED": hash_seed,
                                     "PYTHONPATH": path}).returncode
        assert rc == 0
        outputs.append([(out / f).read_bytes() for f in (
            "mix_by_year.csv", "funds_by_year.csv", "investments.csv", "dispatch_log.csv")])
    assert outputs[0] == outputs[1]


def _permute_rows(path, seed) -> None:
    """Rewrite a CSV file with its data rows in a shuffled order."""
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(rows))
    assert (order != np.arange(len(rows))).any()
    path.write_text(header + "".join(rows[i] for i in order))


@pytest.mark.parametrize("table", ["registry", "costs"])
def test_simulate_does_not_depend_on_the_order_of_input_rows(tmp_path, table):
    """Permuted registry or cost-table rows give byte-identical result
    CSVs. Each company owns plants of several types and random
    capacities, so the last bits of its settlement sums depend on the
    order they are added in."""
    scenario, registry, rep, costs = invest_scenario()
    rng = np.random.default_rng(1)
    plants = registry.plants
    for i, ptype in enumerate(["CCGT", "Coal", "PV"] * 2):
        capacity = float(np.round(rng.uniform(100.0, 3000.0), 3))
        plants += (make_plant(f"{ptype.lower()}{i + 1}", f"g{1 + i % 2}", ptype, capacity,
                              int(rng.integers(2012, 2020)),
                              costs.lookup(ptype, capacity, 2020)),)
    registry = PlantRegistry(plants=tuple(sorted(plants, key=lambda p: p.plant_id)),
                             funds=registry.funds)
    outputs = []
    for name in ("sorted", "permuted"):
        folder = tmp_path / name
        folder.mkdir()
        paths = {"scenario": folder / "scenario.yaml", "registry": folder / "registry.csv",
                 "repdays": folder / "repdays.csv", "costs": folder / "costs.csv"}
        write_scenario_yaml(paths["scenario"], replace(scenario, price_curve=(0.002, 40.0),
                                                       sigma_c=5.0))
        write_registry_csv(paths["registry"], registry)
        save_representative_days(rep, paths["repdays"])
        write_cost_csv(paths["costs"], costs)
        if name == "permuted":
            _permute_rows(paths[table], 5)
        out = folder / "out"
        assert main(["simulate", *[a for role in ("scenario", "registry", "repdays", "costs")
                                   for a in (f"--{role}", str(paths[role]))],
                     "--seed", "3", "--dispatch-log", "--out", str(out)]) == 0
        outputs.append({f: (out / f).read_bytes() for f in (
            "mix_by_year.csv", "funds_by_year.csv", "investments.csv", "dispatch_log.csv")})
    assert outputs[0] == outputs[1]


def test_manifest_records_how_the_run_ended(tmp_path, monkeypatch):
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data, synthetic_ts(20, seed=1))
    assert main(["repdays", "--input", str(data), "--k", "2", "--out", str(tmp_path / "ok")]) == 0
    ok = json.loads((tmp_path / "ok" / "manifest.json").read_text())
    assert ok["status"] == "ok" and ok["finished"] is not None and ok["wall_s"] > 0
    assert ok["peak_rss_mb"]["self"] > 0 and ok["peak_rss_mb"]["children"] >= 0

    ts = synthetic_ts(20, seed=1)
    ts.series("offshore_cf")[:] = 0.0
    write_hourly_csv(data, ts)
    assert main(["repdays", "--input", str(data), "--k", "2", "--out", str(tmp_path / "bad")]) == 1
    bad = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert bad["status"] == "input_error" and bad["finished"] is not None

    def fail(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(repdays, "evaluate_k_range", fail)
    assert main(["repdays", "--input", str(data), "--k", "2", "--out", str(tmp_path / "rt")]) == 2
    assert json.loads((tmp_path / "rt" / "manifest.json").read_text())["status"] == \
        "runtime_failure"


def test_manifest_written_before_failure(tmp_path):
    # bad input content (not a representative-days file) fails after the
    # manifest exists
    paths = _write_sim_inputs(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n1\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--scenario", str(paths["scenario"]),
               "--registry", str(paths["registry"]),
               "--repdays", str(bad),
               "--costs", str(paths["costs"]), "--out", str(out)])
    assert rc == 1
    assert (out / "manifest.json").exists()
