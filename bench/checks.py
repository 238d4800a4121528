"""Output checks for the benchmark workloads.

Each check raises CheckFailed naming the file and the broken property.
Counts are rebuilt from the generated inputs and the bundled cost
tables, not from `emsim` code, so a defect in the program cannot also
hide in the check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

from fixtures import WORKLOADS

HOURS = 24
DAYS_PER_YEAR = 365
# result files whose bytes must repeat; manifest.json holds timestamps
RESULT_SUFFIX = ".csv"


class CheckFailed(Exception):
    pass


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckFailed(f"{path.name}: missing")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise CheckFailed(f"{where}: non-numeric value {text!r}")


def result_digests(out: Path) -> dict[str, str]:
    """sha256 of every result CSV in a run's output directory."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.suffix == RESULT_SUFFIX:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def compare_digests(got: dict[str, str], want: dict[str, str]) -> None:
    if set(got) != set(want):
        raise CheckFailed(f"result files {sorted(got)} != first run's {sorted(want)}")
    changed = [name for name in want if got[name] != want[name]]
    if changed:
        raise CheckFailed(f"{', '.join(changed)}: bytes differ from the first run "
                          "of this commit and seed")


def check_repdays_sweep(out: Path) -> None:
    spec = WORKLOADS["repdays_sweep"]
    rep = _rows(out / "representative_days.csv")
    if len(rep) != spec["k"] * HOURS:
        raise CheckFailed(f"representative_days.csv: {len(rep)} rows, want {spec['k'] * HOURS}")
    hours = sum(_float(r["weight"], "representative_days.csv") * DAYS_PER_YEAR for r in rep)
    if not math.isclose(hours, 8760.0, abs_tol=1e-6):
        raise CheckFailed(f"representative_days.csv: hour weights sum to {hours!r}, not 8760")
    metrics = _rows(out / "metrics.csv")
    ks = [r["k"] for r in metrics]
    if ks != [str(k) for k in spec["sweep"]]:
        raise CheckFailed(f"metrics.csv: k column {ks} != swept {spec['sweep']}")
    for r in metrics:
        for col in ("ce_av", "nrmse_av", "ree_av"):
            if not math.isfinite(_float(r[col], f"metrics.csv k={r['k']}")):
                raise CheckFailed(f"metrics.csv: {col} not finite at k={r['k']}")


def operating_periods(data_dir: Path) -> dict[tuple[str, float], int]:
    """Operating period per (type, capacity) of the bundled cost tables;
    a capacity whose period differs between years maps to -1."""
    periods: dict[tuple[str, float], int] = {}
    for path in sorted(data_dir.glob("*.csv")):
        for row in _rows(path):
            key = (row["type"].strip(), float(row["capacity_mw"]))
            op = int(float(row["op"]))
            periods[key] = op if periods.get(key, op) == op else -1
    return periods


def _period(periods: dict, ptype: str, capacity: float) -> int:
    op = periods.get((ptype, capacity), -1)
    if op < 0:
        raise CheckFailed(f"no single operating period for {ptype} {capacity} MW "
                          "in the bundled cost tables")
    return op


def expected_operating(inputs: dict, investments: list[dict], data_dir: Path,
                       years: range) -> dict[int, int]:
    """Plants operating in each year: registry plants younger than their
    operating period, plus committed builds from the year they come
    online (the year after commitment at the earliest) until they age out."""
    periods = operating_periods(data_dir)
    lives = []  # (first operating year, construction year, operating period)
    for row in _rows(inputs["registry"]):
        cap = float(row["capacity_mw"])
        lives.append((years[0], int(row["construction_year"]),
                      _period(periods, row["type"], cap)))
    for row in investments:
        if row["committed"] != "1":
            continue
        online = int(row["online_year"])
        lives.append((max(online, int(row["year"]) + 1), online,
                      _period(periods, row["type"], float(row["capacity_mw"]))))
    return {y: sum(1 for first, built, op in lives if first <= y and y - built < op)
            for y in years}


def check_simulate_paper(out: Path, inputs: dict, data_dir: Path) -> None:
    spec = WORKLOADS["simulate_paper"]
    years = range(spec["start_year"], spec["end_year"] + 1)

    shares: dict[int, float] = defaultdict(float)
    for r in _rows(out / "mix_by_year.csv"):
        shares[int(r["year"])] += _float(r["share"], "mix_by_year.csv")
    if sorted(shares) != list(years):
        raise CheckFailed(f"mix_by_year.csv: years {sorted(shares)} != {years[0]}..{years[-1]}")
    for year, total in shares.items():
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise CheckFailed(f"mix_by_year.csv: shares of {year} sum to {total!r}")

    funds = _rows(out / "funds_by_year.csv")
    if len(funds) != spec["gencos"] * len(years):
        raise CheckFailed(f"funds_by_year.csv: {len(funds)} rows, "
                          f"want {spec['gencos'] * len(years)}")
    for r in funds:
        if not math.isfinite(_float(r["funds"], "funds_by_year.csv")):
            raise CheckFailed(f"funds_by_year.csv: funds of {r['genco_id']} in "
                              f"{r['year']} not finite")

    # dispatch log (warm-up run only): every operating plant in every
    # representative hour
    if not (out / "dispatch_log.csv").is_file():
        return
    per_hour: dict[tuple[int, str, str], int] = defaultdict(int)
    with open(out / "dispatch_log.csv") as fh:
        next(fh)
        for line in fh:
            year, cluster, hour, _ = line.split(",", 3)
            per_hour[(int(year), cluster, hour)] += 1
    want = expected_operating(inputs, _rows(out / "investments.csv"), data_dir, years)
    for year in years:
        counts = [n for (y, _, _), n in per_hour.items() if y == year]
        if len(counts) != spec["k"] * HOURS or set(counts) != {want[year]}:
            raise CheckFailed(
                f"dispatch_log.csv: {year} has {sum(counts)} rows over {len(counts)} "
                f"hours, want {want[year]} operating plants x {spec['k']} x {HOURS}")


def check_calibrate_small(out: Path) -> None:
    spec = WORKLOADS["calibrate_small"]
    log = _rows(out / "generation_log.csv")
    want = (spec["gens"] + 1) * spec["pop"]
    if len(log) != want:
        raise CheckFailed(f"generation_log.csv: {len(log)} rows, want {want}")
    best = _rows(out / "best.csv")
    if len(best) != 1 or not math.isfinite(_float(best[0]["fitness"], "best.csv")):
        raise CheckFailed("best.csv: best fitness missing or not finite")


def check_outputs(workload: str, out: Path, inputs: dict, data_dir: Path) -> None:
    if workload == "repdays_sweep":
        check_repdays_sweep(out)
    elif workload == "simulate_paper":
        check_simulate_paper(out, inputs, data_dir)
    else:
        check_calibrate_small(out)
