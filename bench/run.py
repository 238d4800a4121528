"""emsim benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's own `src/emsim`. Before every run the inputs are generated
from the seed and written to `.bench_work/` (set-up, timed as
`setup_s`); `emsim` then runs through its CLI in a closed loop with one
client: each run starts after the previous one exits, and no run starts
that would likely end after S seconds. One untimed, checked warm-up run
comes first; for simulate_paper only that run writes the dispatch log.
Every run is checked (exit code, the workload's output properties,
result CSVs byte-identical to the first run of the same sources and
inputs); a run that fails a check counts in `failed`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones, plus the tracing overhead. The human-readable report
precedes the result, which is the last line of stdout as one JSON
object; the full report goes to `.bench_work/reports/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread here and in every child: default BLAS threading
# made k-means times spread widely, and 2 GA workers x N threads would
# oversubscribe the cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from checks import CheckFailed, check_outputs, compare_digests, result_digests  # noqa: E402
from fixtures import WORKLOADS, emsim_args, generate  # noqa: E402
from layers import PER_LAYER, per_layer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# what one unit of work_per_s is, per workload
WORK_UNIT = {"repdays_sweep": "hours_per_s", "simulate_paper": "sim_years_per_s",
             "calibrate_small": "evals_per_s"}


def work_units(workload: str) -> int:
    spec = WORKLOADS[workload]
    if workload == "repdays_sweep":
        return spec["rows"]
    if workload == "simulate_paper":
        return spec["years"]
    return spec["pop"] * (spec["gens"] + 1)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **THREAD_ENV,
    }


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(self.tmp),
                        **THREAD_ENV)
        self.inputs: dict[str, Path] = {}
        self.inputs_digest: str | None = None
        self.setup_times: list[float] = []
        self.golden_path: Path | None = None
        self.golden: dict[str, dict[str, str]] = {}
        self.runs: list[dict] = []

    def setup(self) -> None:
        """Generate the workload's inputs, timed. Called before every run,
        so set-up is sampled across the whole measuring time; every call
        must write the same bytes."""
        out = self.work / "inputs" / self.workload
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        self.inputs = generate(self.workload, self.seed, out)
        self.setup_times.append(time.perf_counter() - start)
        digest = tree_digest(out)
        if self.inputs_digest is None:
            self.inputs_digest = digest
            key = hashlib.sha256(f"{self.workload}\0{tree_digest(self.root / 'src')}\0"
                                 f"{digest}".encode()).hexdigest()[:32]
            self.golden_path = self.work / "golden" / f"{key}.json"
            if self.golden_path.is_file():
                self.golden = json.loads(self.golden_path.read_text())
        elif digest != self.inputs_digest:
            raise CheckFailed("fixture generator wrote different bytes for one seed")

    def run_once(self, trace: bool, workers: int | None = None, timed: bool = True,
                 dispatch_log: bool = False) -> dict:
        out = self.work / "out" / self.workload
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        argv = emsim_args(self.workload, self.seed, self.inputs, out, workers, dispatch_log)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
               "1" if trace else "0", "--", *argv]
        with open(self.work / "stderr.log", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
            try:
                code = proc.wait(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                code = proc.wait()
            wall = time.perf_counter() - start
        run = {"trace": trace, "timed": timed, "wall_s": wall, "exit": code, "error": None}
        variant = "dispatch_log" if dispatch_log else "plain"
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}: "
                                  f"{(self.work / 'stderr.log').read_text()[-400:]}")
            child = json.loads(result_path.read_text())
            run.update(main_s=child["main_s"], rss_mb=child["rss_kb"] / 1024,
                       worker_rss_mb=child["children_rss_kb"] / 1024,
                       spans=child.get("spans"))
            digests = result_digests(out)
            # the first run of each variant in this process gets the full
            # output checks; every run must repeat the first run's bytes
            if not any(r.get("variant") == variant for r in self.runs):
                check_outputs(self.workload, out, self.inputs, self.root / "src/emsim/data")
            if variant not in self.golden:
                self.golden[variant] = digests
                self.golden_path.parent.mkdir(parents=True, exist_ok=True)
                self.golden_path.write_text(json.dumps(self.golden, indent=1))
            compare_digests(digests, self.golden[variant])
            run["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            run["error"] = f"{type(exc).__name__}: {exc}"
        run["variant"] = variant
        self.runs.append(run)
        return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(bench: Bench) -> dict[str, float]:
    ok = [r for r in bench.runs if r["timed"] and r["error"] is None]
    runs = ok or [r for r in bench.runs if r["timed"]]
    units = work_units(bench.workload)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "work_per_s": statistics.median(units / r["main_s"] for r in ok) if ok else 0.0,
        "setup_s": statistics.median(bench.setup_times),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok) if ok else 0.0,
    }


def workload_properties(bench: Bench) -> dict[str, float]:
    spec = WORKLOADS[bench.workload]
    shared = 0
    if bench.workload != "repdays_sweep":
        scenario = yaml.safe_load(bench.inputs["scenario"].read_text())
        shared = int(scenario.get("sigma_m", 0.0) == 0.0 and scenario.get("sigma_c", 0.0) == 0.0)
    return {"workload.fleet_plants": spec.get("plants", 0), "workload.beliefs_shared": shared}


def print_properties(bench: Bench, traced: dict | None) -> None:
    """The workload properties later claims depend on, each with its base."""
    spec = WORKLOADS[bench.workload]
    props = workload_properties(bench)
    clearings = 0
    if bench.workload != "repdays_sweep":
        evals = spec["pop"] * (spec["gens"] + 1) if "pop" in spec else 1
        clearings = evals * spec["years"] * spec["k"] * 24
    print(f"property fleet_plants {props['workload.fleet_plants']} "
          f"(registry rows; {spec.get('gencos', 0)} GenCos)")
    print(f"property beliefs_shared {props['workload.beliefs_shared']} "
          "(1: sigma_m = sigma_c = 0, every GenCo holds the same beliefs)")
    print(f"property clearings_per_run {clearings} (evaluations x years x k x 24)")
    if traced and traced.get("calibrate.duplicate_ratio") is not None:
        print(f"property duplicate_ratio {traced['calibrate.duplicate_ratio']:.4f} "
              f"(repeated genomes / {traced['calibrate.evaluations']:g} evaluations)")


def traced_metrics(bench: Bench, workers: int) -> dict[str, float | None]:
    traced = [r for r in bench.runs if r["trace"] and r["error"] is None]
    plain = [r for r in bench.runs if not r["trace"] and r["timed"] and r["error"] is None]
    per_run = [per_layer(r["spans"], workers) for r in traced]
    out: dict[str, float | None] = {}
    for name in per_run[0] if per_run else []:
        values = [m[name] for m in per_run]
        out[name] = None if values[0] is None else statistics.median(values)
    out["cli.bytes_written"] = traced[0]["bytes_written"] if traced else None
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain)
                               if traced and plain else None)
    out.update(workload_properties(bench))
    return out


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "emsim" / "__init__.py").is_file():
        print(f"error: {root} holds no emsim sources (src/emsim); run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    # the GA's traced runs use one worker: pool workers' spans are not visible
    workers = 1 if (args.trace and args.workload == "calibrate_small") else None
    bench.setup()
    bench.run_once(trace=False, workers=workers, timed=False, dispatch_log=True)
    start = time.perf_counter()
    iterations = []
    while True:
        begin = time.perf_counter()
        bench.setup()
        if args.trace:
            n = len(bench.runs)
            for trace in ((False, True) if n % 4 == 1 else (True, False)):
                bench.run_once(trace=trace, workers=workers)
        else:
            bench.run_once(trace=False)
        end = time.perf_counter()
        iterations.append(end - begin)
        timed = sum(1 for r in bench.runs if r["timed"])
        # measure for S seconds: stop before an iteration of median length
        # would overrun them
        if timed >= MIN_RUNS and end - start + statistics.median(iterations) > args.seconds:
            break

    failed = [r for r in bench.runs if r["error"] is not None]
    attempted = len(bench.runs)
    env = environment()
    print(f"emsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} closed loop, 1 client")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("sizes: " + " ".join(f"{k}={v if not isinstance(v, list) else f'{v[0]}..{v[-1]}'}"
                               for k, v in WORKLOADS[args.workload].items() if k != "why"))
    for r in failed:
        print(f"FAILED run: {r['error']}")
    print(f"error_rate {len(failed)}/{attempted} = {len(failed) / attempted:g}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "sizes": WORKLOADS[args.workload],
              "setup_times_s": bench.setup_times,
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in bench.runs]}
    if args.trace:
        values = traced_metrics(bench, workers or WORKLOADS[args.workload].get("workers", 1))
        metrics = {name: {"value": values.get(name) or 0, "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            print(f"{name:38s} {fmt(values.get(name)):>14s} {unit}")
        print_properties(bench, values)
        report["per_layer"] = values
    else:
        values = end_to_end(bench)
        timed = [r["wall_s"] for r in bench.runs if r["timed"]]
        q1, q2, q3 = quartiles(timed)
        print(f"{'wall_s':20s} {values['wall_s']:.6g} s  (median of {len(timed)} runs; "
              f"quartiles {q1:.4g} {q3:.4g})")
        print(f"{WORK_UNIT[args.workload]:20s} {values['work_per_s']:.6g} 1/s  "
              f"({work_units(args.workload)} per run / time in emsim main)")
        print(f"{'setup_s':20s} {values['setup_s']:.6g} s  "
              f"(median of {len(bench.setup_times)}, one before each run)")
        print(f"{'peak_rss_mb':20s} {values['peak_rss_mb']:.6g} MB")
        if args.workload == "calibrate_small":
            worker_mb = max((r.get("worker_rss_mb", 0.0) for r in bench.runs), default=0.0)
            print(f"{'peak_worker_rss_mb':20s} {worker_mb:.6g} MB  (largest GA worker)")
            report["peak_worker_rss_mb"] = worker_mb
        print_properties(bench, None)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        report["end_to_end"] = values
    reports = bench.work / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(f"report: {report_path.relative_to(root)}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
