"""Command line entry point.

Subcommands cover the pipeline end to end: `repdays` reduces an hourly
CSV to weighted representative days, `simulate` runs the market model,
`calibrate` fits price-curve parameters with the GA and `metrics`
scores a forecast against observations. Every run writes a manifest
(resolved configuration, input digests, seed) next to its outputs
before any work starts; all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import calibrate as cal
from . import engine, repdays
from .ingest import (
    InputError,
    available_cpus,
    bundled_cost_table,
    csv_rows,
    load_cost_table,
    load_hourly_series,
    load_plant_registry,
    load_scenario,
)

log = logging.getLogger(__name__)


class CLIError(Exception):
    """Bad invocation or bad input; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise CLIError(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Manifest:
    """A run's manifest.json, written before the run's work starts and
    again, by `main`, when the run ends."""

    def __init__(self):
        self.path = None

    def start(self, out_dir: Path, subcommand: str, args: argparse.Namespace,
              inputs: dict[str, Path]) -> None:
        self.path, self.args = out_dir / "manifest.json", args
        self.body = {
            "subcommand": subcommand,
            "tool_version": __version__,
            "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                       for name, p in inputs.items()},
            "started": datetime.now(timezone.utc).isoformat(),
            "finished": None, "status": None, "wall_s": None, "peak_rss_mb": None,
        }
        self.save()

    def save(self, **ending) -> None:
        """Write the manifest again, with the configuration and seed as the
        run's arguments hold them now and the `ending` fields."""
        self.body.update(ending, seed=getattr(self.args, "seed", None),
                         config={k: (str(v) if isinstance(v, Path) else v)
                                 for k, v in sorted(vars(self.args).items())
                                 if k not in ("func",) and v is not None})
        with open(self.path, "w") as fh:
            json.dump(self.body, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _peak_rss_mb() -> dict[str, float] | None:
    """The peak resident memory of this process and of its largest child
    waited for, in MB, where the platform reports them."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10  # ru_maxrss: bytes on macOS, else KB
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / unit}


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CLIError(f"input file not found: {p}")
    return p


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def _int_at_least(text: str, low: int, bad: str = "invalid int value") -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{bad}: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low} (got {value})")
    return value


def _k_list(text: str) -> list[int]:
    """Comma separated cluster counts, each at least 1, for --sweep."""
    return [_int_at_least(item, 1, "not an integer") for item in text.split(",")]


def _k(text: str) -> int:
    """A cluster count of at least 1, for --k."""
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """A non-negative integer, for --seed."""
    return _int_at_least(text, 0)


# ---------------------------------------------------------------------------
# repdays


def cmd_repdays(args, manifest: _Manifest) -> int:
    out = _prepare_out(args)
    input_path = _require_file(args.input)
    manifest.start(out, "repdays", args, {"input": input_path})

    ts = load_hourly_series(input_path)
    log.info("loaded %d complete days (%d hours, %d dropped)",
             ts.n_days, ts.n_hours, ts.dropped_hours)

    sweep = sorted(set(args.sweep or [args.k]))
    try:
        rows = {r["k"]: r for r in repdays.evaluate_k_range(ts, [*sweep, args.k], args.method,
                                                             seed=args.seed)}
    except InputError as exc:
        raise InputError(f"{input_path}: {exc}") from None
    repdays.save_representative_days(rows[args.k]["year"], out / "representative_days.csv")
    _write_csv(
        out / "metrics.csv",
        ["k", "method", "ce_av", "nrmse_av", "ree_av"],
        [[r["k"], r["method"], _fmt(r["ce_av"]), _fmt(r["nrmse_av"]), _fmt(r["ree_av"])]
         for r in (rows[k] for k in sweep)],
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _load_bundle_inputs(args):
    scenario = load_scenario(_require_file(args.scenario))
    cost_table = (load_cost_table(_require_file(args.costs))
                  if args.costs else bundled_cost_table())
    registry = load_plant_registry(_require_file(args.registry), cost_table)
    rep = repdays.load_representative_days(_require_file(args.repdays))
    return scenario, cost_table, registry, rep


class _DispatchLogSink:
    """Streams per-year results into the output CSVs as they complete."""

    def __init__(self, out: Path, with_dispatch: bool):
        self.mix_fh = open(out / "mix_by_year.csv", "w", newline="")
        self.mix = csv.writer(self.mix_fh)
        self.mix.writerow(["year", "type", "energy_mwh", "share"])
        self.funds_fh = open(out / "funds_by_year.csv", "w", newline="")
        self.funds = csv.writer(self.funds_fh)
        self.funds.writerow(["year", "genco_id", "funds"])
        self.invest_fh = open(out / "investments.csv", "w", newline="")
        self.invest = csv.writer(self.invest_fh)
        self.invest.writerow(["year", "genco_id", "type", "capacity_mw", "npv",
                              "committed", "online_year", "affordable"])
        self.dispatch_fh = None
        self.dispatch = None
        if with_dispatch:
            self.dispatch_fh = open(out / "dispatch_log.csv", "w", newline="")
            self.dispatch = csv.writer(self.dispatch_fh)
            self.dispatch.writerow(["year", "cluster", "hour", "weight", "plant_id",
                                    "price", "dispatch_mw", "clearing_price",
                                    "unserved_mw"])

    def __call__(self, result: engine.YearResult) -> None:
        for ptype in sorted(result.energy_mwh):
            self.mix.writerow([result.year, ptype, _fmt(result.energy_mwh[ptype]),
                               _fmt(result.mix.get(ptype, 0.0))])
        for gid in sorted(result.funds):
            self.funds.writerow([result.year, gid, _fmt(result.funds[gid])])
        for ev in result.investment_log:
            self.invest.writerow([ev.year, ev.genco_id, ev.plant_type,
                                  _fmt(ev.capacity_mw), _fmt(ev.npv),
                                  int(ev.committed), ev.online_year, int(ev.affordable)])
        if self.dispatch is not None:
            ids = result.plant_ids
            by_id = sorted(range(len(ids)), key=ids.__getitem__)
            for cluster, day in enumerate(result.days):
                hours = zip(day.dispatch.tolist(), day.clearings.tolist(),
                            day.unserved.tolist())
                for hour, (mw, price, unserved) in enumerate(hours, start=1):
                    for i in by_id:
                        self.dispatch.writerow([
                            result.year, cluster, hour, _fmt(day.weight), ids[i],
                            _fmt(result.bid_prices[i]), _fmt(mw[i]), _fmt(price),
                            _fmt(unserved),
                        ])
        for fh in self._handles():
            fh.flush()

    def _handles(self):
        handles = [self.mix_fh, self.funds_fh, self.invest_fh]
        if self.dispatch_fh is not None:
            handles.append(self.dispatch_fh)
        return handles

    def close(self) -> None:
        for fh in self._handles():
            fh.close()


def cmd_simulate(args, manifest: _Manifest) -> int:
    out = _prepare_out(args)
    inputs = {"scenario": _require_file(args.scenario),
              "registry": _require_file(args.registry),
              "repdays": _require_file(args.repdays)}
    if args.costs:
        inputs["costs"] = _require_file(args.costs)
    manifest.start(out, "simulate", args, inputs)

    scenario, cost_table, registry, rep = _load_bundle_inputs(args)
    if args.seed is None:
        args.seed = scenario.rng_seed
        manifest.save()
    world = engine.init_world(scenario, registry, rep, cost_table, seed=args.seed)
    sink = _DispatchLogSink(out, args.dispatch_log)
    try:
        engine.run(world, sink=sink)
    finally:
        sink.close()
    return 0


# ---------------------------------------------------------------------------
# calibrate


def _load_target(path: Path) -> dict[int, dict[str, float]]:
    target: dict[int, dict[str, float]] = {}
    for row_no, row in csv_rows(path, ("year", "type", "share")):
        try:
            year, share = int(row["year"]), float(row["share"])
        except (TypeError, ValueError):
            raise InputError(f"{path}: non-numeric year or share (row {row_no})") from None
        if not (math.isfinite(share) and share >= 0.0):
            raise InputError(f"{path}: share must be finite and >= 0 (row {row_no})")
        shares = target.setdefault(year, {})
        if row["type"] in shares:
            raise InputError(
                f"{path}: duplicate year {year} type {row['type']!r} (row {row_no})")
        shares[row["type"]] = share
    if not target:
        raise InputError(f"{path}: empty target trajectory")
    return target


# GAConfig field -> the calibrate option that sets it
_GA_OPTIONS = {"population_size": "--pop", "crossover_prob": "--cxpb",
               "mutation_prob": "--mutpb", "max_generations": "--gens",
               "parallel_workers": "--workers"}


def cmd_calibrate(args, manifest: _Manifest) -> int:
    out = _prepare_out(args)
    inputs = {"scenario": _require_file(args.scenario),
              "registry": _require_file(args.registry),
              "repdays": _require_file(args.repdays),
              "target": _require_file(args.target)}
    if args.costs:
        inputs["costs"] = _require_file(args.costs)
    manifest.start(out, "calibrate", args, inputs)

    scenario, cost_table, registry, rep = _load_bundle_inputs(args)
    target = _load_target(inputs["target"])
    bundle = cal.ScenarioBundle(
        scenario=scenario, registry=registry, rep_year=rep, cost_table=cost_table,
        target=target, include_first_year=not args.exclude_first_year,
    )
    layout = (cal.validation_layout() if args.mode == "validation"
              else cal.longterm_layout(scenario.start_year, scenario.end_year))
    cal.check_target(bundle, layout, inputs["target"])

    try:
        cfg = cal.GAConfig(
            population_size=args.pop,
            crossover_prob=args.cxpb,
            mutation_prob=args.mutpb,
            max_generations=args.gens,
            bounds=layout.bounds,
            seed=args.seed,
            parallel_workers=args.workers,
        )
    except InputError as exc:  # GAConfig names the field; name the option too
        option = _GA_OPTIONS.get(str(exc).split(" ", 1)[0])
        raise CLIError(f"{option}: {exc}" if option else str(exc)) from None
    result = cal.ga_run(cfg, cal.Objective(bundle, layout),
                        log_path=out / "generation_log.csv",
                        telemetry_path=out / "telemetry.json")

    _write_csv(
        out / "best.csv",
        ["fitness"] + list(layout.gene_names),
        [[_fmt(result.best.fitness)] + [_fmt(g) for g in result.best.genome]],
    )
    log.info("best fitness %.6f after %d generations",
             result.best.fitness, result.n_generations - 1)
    return 0


# ---------------------------------------------------------------------------
# metrics


def cmd_metrics(args, manifest: _Manifest) -> int:
    out = _prepare_out(args)
    inputs = {"simulated": _require_file(args.simulated),
              "observed": _require_file(args.observed)}
    manifest.start(out, "metrics", args, inputs)

    simulated = _load_target(inputs["simulated"])
    observed = _load_target(inputs["observed"])
    if args.baseline_year not in observed:
        raise CLIError(f"baseline year {args.baseline_year} not in observed trajectory")
    baseline = observed[args.baseline_year]
    forecast_years = {y: v for y, v in simulated.items() if y != args.baseline_year}
    metrics = cal.forecast_error_metrics(forecast_years, observed, baseline)
    _write_csv(
        out / "forecast_metrics.csv",
        ["type", "mae", "mase", "rmse"],
        [[t, _fmt(m["mae"]), "" if m["mase"] is None else _fmt(m["mase"]), _fmt(m["rmse"])]
         for t, m in sorted(metrics.items())],
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="emsim",
                     description="electricity market simulation toolkit")
    parser.add_argument("--log-level", choices=["error", "warn", "info", "debug"],
                        default="warn")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("repdays", help="reduce hourly data to representative days")
    p.add_argument("--input", required=True, help="hourly series CSV")
    p.add_argument("--k", type=_k, default=8, help="number of clusters")
    p.add_argument("--method", choices=["medoid", "centroid"], default="medoid")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sweep", type=_k_list,
                   help="comma separated k values for metrics.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_repdays)

    p = sub.add_parser("simulate", help="run the market simulation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--repdays", required=True)
    p.add_argument("--costs", help="cost table CSV (default: bundled tables)")
    p.add_argument("--seed", type=_seed, help="default: the scenario's rng_seed")
    p.add_argument("--dispatch-log", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="fit price-curve parameters with the GA")
    p.add_argument("mode", choices=["validation", "longterm"])
    p.add_argument("--scenario", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--repdays", required=True)
    p.add_argument("--costs")
    p.add_argument("--target", required=True, help="target mix CSV (year,type,share)")
    p.add_argument("--pop", type=int, default=120)
    p.add_argument("--cxpb", type=float, default=0.5)
    p.add_argument("--mutpb", type=float, default=0.2)
    p.add_argument("--gens", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=int, default=available_cpus())
    p.add_argument("--exclude-first-year", action="store_true",
                   help="drop the start year from the long-term objective")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("metrics", help="forecast error metrics between trajectories")
    p.add_argument("--simulated", required=True)
    p.add_argument("--observed", required=True)
    p.add_argument("--baseline-year", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    return parser


_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


# a run's status in its manifest, by its exit code
_STATUS = {0: "ok", 1: "input_error", 2: "runtime_failure"}


def main(argv=None) -> int:
    """Run one command. A run that wrote its manifest writes it once more
    when it ends, with its status, wall time and peak memory."""
    clock = time.perf_counter()
    manifest = _Manifest()
    code = _run(argv, manifest)
    if manifest.path is not None:
        try:
            manifest.save(status=_STATUS[code], wall_s=time.perf_counter() - clock,
                          peak_rss_mb=_peak_rss_mb(),
                          finished=datetime.now(timezone.utc).isoformat())
        except OSError as exc:
            print(f"runtime failure: {exc}", file=sys.stderr)
            return 2
    return code


def _run(argv, manifest: _Manifest) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "subcommand", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        logging.basicConfig(level=_LOG_LEVELS[args.log_level],
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args, manifest)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        log.exception("run failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
