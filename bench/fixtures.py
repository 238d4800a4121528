"""Seeded input generators for the benchmark workloads.

Each workload's inputs are built here from its seed and written as the
CSV/YAML files `emsim` reads; the program sees only those files. The
same seed gives byte-identical files. Sizes are fixed per workload so
that every seed does about the same amount of work; the seed varies the
weather, which plant has which age and owner, fuel prices, the GenCos'
funds and belief noise, and the cost and target jitter of the GA fixture.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import yaml

# Input sizes per workload. `BENCHMARK.json` repeats the headline sizes in
# each workload's one-line reason. It leaves simulate_paper out: on a
# shared 2-vCPU host the medians of ten of its runs spread by 17-28%
# (quartile distance over median) as the host's speed drifted, against a
# 25% bound. Run it with bench/run.py or bench/all.py; calibrate_small
# covers every layer it does.
WORKLOADS = {
    "repdays_sweep": {
        "why": "ingest and k-means only; the no-change control for every "
               "dispatch, appraisal or GA change",
        "rows": 1825 * 24, "days": 1825, "k": 8, "method": "medoid",
        "sweep": list(range(1, 25)),
    },
    "simulate_paper": {
        "why": "one long-term objective evaluation plus the result writes; "
               "exercises the market kernel and the engine loop, beliefs differ "
               "per GenCo (sigma > 0)",
        "plants": 194, "types": 8, "gencos": 6, "start_year": 2018,
        "end_year": 2035, "years": 18, "k": 8, "source_days": 730,
        # writing the ~466k-row log from Python doubled a run's time and its
        # run-to-run spread, so only the checked warm-up run writes it
        "dispatch_log": "warm-up run only",
    },
    "calibrate_small": {
        "why": "GA machinery, pool start-up and appraisal dominate; holds "
               "repeated genomes and shared beliefs (sigma = 0)",
        "plants": 3, "gencos": 2, "start_year": 2020, "end_year": 2023,
        "years": 4, "k": 2, "pop": 40, "gens": 10, "workers": 2,
    },
}

HOURS = 24

# simulate_paper fleet: plants per type, and the capacities cycled through.
# Each capacity is a row of the bundled cost tables in every year it
# lists, so a plant's operating period is that row's, never interpolated.
PAPER_FLEET = {
    "CCGT": (22, (1200.0, 1471.0)),
    "Coal": (12, (552.0, 624.0, 652.0, 734.0, 760.0)),
    "Nuclear": (3, (3300.0,)),
    "OCGT": (15, (96.0, 299.0, 311.0, 400.0, 625.0)),
    "Offshore": (14, (321.0, 844.0)),
    "Onshore": (50, (20.0,)),
    "PV": (60, (16.0,)),
    "Hydro": (18, (11.0,)),
}
# Operating period (years) of those rows; plants start at an age below it.
PAPER_OPERATING_PERIOD = {
    ("CCGT", 1200.0): 25, ("CCGT", 1471.0): 25, ("Coal", 552.0): 25,
    ("Coal", 624.0): 25, ("Coal", 652.0): 25, ("Coal", 734.0): 25,
    ("Coal", 760.0): 25, ("Nuclear", 3300.0): 60, ("OCGT", 96.0): 25,
    ("OCGT", 299.0): 25, ("OCGT", 311.0): 25, ("OCGT", 400.0): 25,
    ("OCGT", 625.0): 25, ("Offshore", 321.0): 23, ("Offshore", 844.0): 22,
    ("Onshore", 20.0): 24, ("PV", 16.0): 25, ("Hydro", 11.0): 41,
}

def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(ch) * (i + 1) for i, ch in enumerate(workload))
    return np.random.default_rng([int(seed), tag])


def synthetic_days(n_days: int, rng: np.random.Generator) -> np.ndarray:
    """(n_days, 4, 24) demand [MW] and solar/onshore/offshore capacity
    factors with seasonal, weekly and diurnal shape and persistent
    day-to-day weather."""
    day = np.arange(n_days)[:, None]
    hour = np.arange(HOURS)[None, :]
    winter = np.cos(2 * np.pi * (day - 15) / 365.25)
    weekend = (day % 7 >= 5).astype(float)

    demand = (31000.0 + 6000.0 * winter - 2500.0 * weekend
              + 4000.0 * np.sin(2 * np.pi * (hour - 10) / 24.0)
              + 900.0 * rng.standard_normal((n_days, HOURS)))

    # AR(1) daily weather: wind persists over days, cloud cover less so
    wind = np.empty(n_days)
    cloud = np.empty(n_days)
    w = c = 0.0
    shocks = rng.standard_normal((n_days, 2))
    for d in range(n_days):
        w = 0.75 * w + 0.66 * shocks[d, 0]
        c = 0.40 * c + 0.92 * shocks[d, 1]
        wind[d], cloud[d] = w, c
    onshore = np.clip(0.30 + 0.10 * winter + 0.12 * wind[:, None]
                      + 0.04 * rng.standard_normal((n_days, HOURS)), 0.0, 1.0)
    offshore = np.clip(0.85 * onshore + 0.10
                       + 0.03 * rng.standard_normal((n_days, HOURS)), 0.0, 1.0)
    bell = np.clip(np.sin(np.pi * (hour - 5) / 14.0), 0.0, None)
    amplitude = np.clip(0.50 - 0.30 * winter - 0.08 * cloud[:, None], 0.02, 0.9)
    solar = np.clip(amplitude * bell + 0.01 * rng.standard_normal((n_days, HOURS)),
                    0.0, 1.0)
    days = np.stack([np.maximum(demand, 0.0), solar, onshore, offshore], axis=1)
    # the written precision, so that generated and re-read values agree
    days[:, 0] = np.round(days[:, 0], 1)
    days[:, 1:] = np.round(days[:, 1:], 4)
    return days


def write_hourly_csv(path: Path, days: np.ndarray, first_day: str) -> None:
    start = np.datetime64(first_day, "h")
    stamps = np.datetime_as_string(start + np.arange(days.shape[0] * HOURS), unit="s")
    flat = days.transpose(0, 2, 1).reshape(-1, 4)
    lines = ["timestamp,demand_mw,solar_cf,onshore_cf,offshore_cf\n"]
    lines += [f"{s},{d:.1f},{a:.4f},{b:.4f},{c:.4f}\n"
              for s, (d, a, b, c) in zip(stamps, flat.tolist())]
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def representative_days(days: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k weighted days by the benchmark's own rule, independent of emsim:
    rank days by mean demand, cut the ranking into k equal groups and
    keep the member nearest its group's mean profile."""
    order = np.argsort(days[:, 0].mean(axis=1), kind="stable")
    groups = np.array_split(order, k)
    profiles = np.empty((k, 4, HOURS))
    weights = np.empty(k)
    for c, members in enumerate(groups):
        block = days[members]
        mean = block.mean(axis=0)
        scale = block.reshape(len(members), 4, HOURS).std(axis=(0, 2))[None, :, None] + 1e-9
        dist = (((block - mean) / scale) ** 2).sum(axis=(1, 2))
        profiles[c] = block[int(np.argmin(dist))]
        weights[c] = len(members)
    return profiles, weights / weights.sum()


def write_repdays_csv(path: Path, profiles: np.ndarray, weights: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "weight", "hour", "demand_mw", "solar_cf",
                         "onshore_cf", "offshore_cf"])
        for c in range(len(weights)):
            for h in range(HOURS):
                writer.writerow([c, repr(float(weights[c])), h + 1]
                                + [repr(float(v)) for v in profiles[c, :, h]])


def _write_yaml(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def _year_table(years, values) -> dict[int, float]:
    return {int(y): round(float(v), 4) for y, v in zip(years, values)}


def _generate_repdays_sweep(seed: int, out: Path) -> dict:
    spec = WORKLOADS["repdays_sweep"]
    rng = _rng(seed, "repdays_sweep")
    write_hourly_csv(out / "hourly.csv", synthetic_days(spec["days"], rng), "2013-01-01")
    return {"input": out / "hourly.csv"}


def _paper_scenario(rng: np.random.Generator) -> dict:
    spec = WORKLOADS["simulate_paper"]
    years = np.arange(spec["start_year"], spec["end_year"] + 1)
    t = years - years[0]
    drift = rng.normal(0.0, 0.02, size=(4, len(years))).cumsum(axis=1)
    sigma = round(float(rng.uniform(4e-4, 6e-4)), 6)
    return {
        "start_year": int(years[0]),
        "end_year": int(years[-1]),
        "fuel_price": {
            "gas": _year_table(years, 20.0 * (1.0 + 0.01 * t) * np.exp(drift[0])),
            "coal": _year_table(years, 9.0 * np.exp(drift[1])),
            "oil": _year_table(years, 40.0 * (1.0 + 0.015 * t) * np.exp(drift[2])),
            "uranium": _year_table(years, 4.0 * np.exp(drift[3])),
        },
        "carbon_price": _year_table(years, 18.0 + 4.0 * t),
        "demand_scale": _year_table(years, 1.0 + 0.004 * t),
        "emission_factor": {"gas": 0.2, "coal": 0.34, "oil": 0.27, "uranium": 0.0},
        "fuel_map": {"CCGT": "gas", "OCGT": "gas", "RecipGas": "gas", "Coal": "coal",
                     "RecipDiesel": "oil", "Nuclear": "uranium"},
        "discount_rate": 0.06,
        "price_cap": 300.0,
        "nuclear_subsidy": round(float(rng.uniform(0.0, 20.0)), 3),
        # as in a long-term genome: per-year curves and equal belief noise
        "sigma_m": sigma,
        "sigma_c": sigma,
        "rng_seed": int(rng.integers(0, 2**31)),
        # a fixed base curve: the work of a run depends on how many plants
        # are built, which must not swing with the seed
        "price_curve_by_year": {
            int(y): {"m": 0.0022, "c": 5.0 + 0.5 * float(t[i])}
            for i, y in enumerate(years[:-1])
        },
    }


def paper_registry(rng: np.random.Generator) -> list[dict]:
    """The fleet of simulate_paper. Capacities and ages are spread evenly
    over each type and only their order is drawn, so every seed retires
    the same number of plants per year."""
    spec = WORKLOADS["simulate_paper"]
    owners = [f"G{i + 1}" for i in range(spec["gencos"])]
    funds = {o: round(float(3e10 * rng.uniform(0.9, 1.1)), 0) for o in owners}
    rows = []
    for ptype, (count, capacities) in PAPER_FLEET.items():
        rank = rng.permutation(count)
        for i in range(count):
            cap = capacities[i % len(capacities)]
            age = int((rank[i] + 0.5) * PAPER_OPERATING_PERIOD[(ptype, cap)] / count)
            owner = owners[int(rng.integers(len(owners)))]
            rows.append({"plant_id": f"{ptype}-{i:02d}", "owner_id": owner,
                         "type": ptype, "capacity_mw": cap,
                         "construction_year": spec["start_year"] - age,
                         "funds": funds[owner]})
    return rows


def _write_registry(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plant_id", "owner_id", "type", "capacity_mw",
                         "construction_year", "funds"])
        for r in rows:
            writer.writerow([r["plant_id"], r["owner_id"], r["type"], repr(r["capacity_mw"]),
                             r["construction_year"], repr(r["funds"])])


def _generate_simulate_paper(seed: int, out: Path) -> dict:
    spec = WORKLOADS["simulate_paper"]
    rng = _rng(seed, "simulate_paper")
    profiles, weights = representative_days(synthetic_days(spec["source_days"], rng), spec["k"])
    write_repdays_csv(out / "repdays.csv", profiles, weights)
    _write_yaml(out / "scenario.yaml", _paper_scenario(rng))
    _write_registry(out / "registry.csv", paper_registry(rng))
    return {"scenario": out / "scenario.yaml", "registry": out / "registry.csv",
            "repdays": out / "repdays.csv"}


# calibrate_small cost rows: (type, capacity, efficiency, operating period,
# predevelopment and construction years, predevelopment, construction and
# infrastructure cost, fixed and variable O&M)
_SMALL_COSTS = (
    ("CCGT", 1500.0, 0.5, 25, 1, 1, 10000.0, 500000.0, 15000.0, 12000.0, 2.0),
    ("Coal", 1500.0, 0.35, 30, 1, 1, 20000.0, 1800000.0, 10000.0, 30000.0, 3.0),
    ("PV", 1000.0, 1.0, 25, 1, 0, 5000.0, 700000.0, 0.0, 6000.0, 0.0),
)


def _generate_calibrate_small(seed: int, out: Path) -> dict:
    spec = WORKLOADS["calibrate_small"]
    rng = _rng(seed, "calibrate_small")
    years = list(range(spec["start_year"], spec["end_year"] + 1))

    def jitter(x: float) -> float:
        return round(float(x * rng.uniform(0.9, 1.1)), 4)

    with open(out / "costs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["type", "capacity_mw", "year", "efficiency", "op", "pd", "cd",
                         "pc", "cc", "ic", "fc", "vc", "inc", "conc"])
        for ptype, cap, eta, op, pd, cd, pc, cc, ic, fc, vc in _SMALL_COSTS:
            writer.writerow([ptype, repr(cap), years[0], eta, op, pd, cd, jitter(pc),
                             jitter(cc), jitter(ic), jitter(fc), jitter(vc), 0, 0])

    _write_yaml(out / "scenario.yaml", {
        "start_year": years[0],
        "end_year": years[-1],
        "fuel_price": {"gas": _year_table(years, [jitter(20.0)] * len(years)),
                       "coal": _year_table(years, [jitter(10.0)] * len(years))},
        "carbon_price": _year_table(years, [10.0] * len(years)),
        "emission_factor": {"gas": 0.2, "coal": 0.35},
        "fuel_map": {"CCGT": "gas", "Coal": "coal"},
        "discount_rate": 0.06,
        "price_cap": 300.0,
        "sigma_m": 0.0,
        "sigma_c": 0.0,
    })

    funds = {"g1": jitter(2.2e9), "g2": jitter(1.4e9)}
    _write_registry(out / "registry.csv", [
        {"plant_id": "ccgt0", "owner_id": "g1", "type": "CCGT",
         "capacity_mw": jitter(15000.0), "construction_year": 2018, "funds": funds["g1"]},
        {"plant_id": "coal0", "owner_id": "g2", "type": "Coal",
         "capacity_mw": jitter(14000.0), "construction_year": 2015, "funds": funds["g2"]},
        {"plant_id": "pv0", "owner_id": "g1", "type": "PV",
         "capacity_mw": jitter(4000.0), "construction_year": 2019, "funds": funds["g1"]},
    ])

    profiles = np.empty((spec["k"], 4, HOURS))
    diurnal = 1.0 + 0.05 * np.sin(2 * np.pi * (np.arange(HOURS) - 10) / 24.0)
    for c, (demand, solar) in enumerate(((20000.0, 0.2), (35000.0, 0.6))):
        profiles[c, 0] = np.round(jitter(demand) * diurnal, 1)
        profiles[c, 1] = jitter(solar)
        profiles[c, 2:] = 0.0
    write_repdays_csv(out / "repdays.csv", profiles, np.array([0.5, 0.5]))

    solar = float(rng.uniform(0.05, 0.25))
    ccgt = float(rng.uniform(0.25, 0.5))
    with open(out / "target.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "type", "share"])
        for year in years:
            shares = {"wind": 0.0, "nuclear": 0.0, "solar": solar, "CCGT": ccgt,
                      "coal": 1.0 - solar - ccgt}
            for bucket in sorted(shares):
                writer.writerow([year, bucket, repr(round(shares[bucket], 6))])
    return {"scenario": out / "scenario.yaml", "registry": out / "registry.csv",
            "repdays": out / "repdays.csv", "costs": out / "costs.csv",
            "target": out / "target.csv"}


_GENERATORS = {
    "repdays_sweep": _generate_repdays_sweep,
    "simulate_paper": _generate_simulate_paper,
    "calibrate_small": _generate_calibrate_small,
}


def generate(workload: str, seed: int, out: Path) -> dict[str, Path]:
    """Write the workload's inputs for `seed` into `out`; returns them by role."""
    out.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](seed, out)


def emsim_args(workload: str, seed: int, inputs: dict[str, Path], out: Path,
               workers: int | None = None, dispatch_log: bool = False) -> list[str]:
    """The `emsim` command line of one run of the workload."""
    spec = WORKLOADS[workload]
    if workload == "repdays_sweep":
        return ["repdays", "--input", str(inputs["input"]), "--k", str(spec["k"]),
                "--method", spec["method"], "--seed", str(seed),
                "--sweep", ",".join(map(str, spec["sweep"])), "--out", str(out)]
    common = ["--scenario", str(inputs["scenario"]), "--registry", str(inputs["registry"]),
              "--repdays", str(inputs["repdays"])]
    if workload == "simulate_paper":
        return ["simulate", *common, "--seed", str(seed), "--out", str(out)] \
            + (["--dispatch-log"] if dispatch_log else [])
    return ["calibrate", "validation", *common, "--costs", str(inputs["costs"]),
            "--target", str(inputs["target"]), "--pop", str(spec["pop"]),
            "--gens", str(spec["gens"]), "--seed", str(seed),
            "--workers", str(workers or spec["workers"]), "--out", str(out)]
