"""roughcalc benchmark: time the package end to end and layer by layer.

    python3 bench/run.py --workload suite --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 30

Each pass runs in a fresh process (bench/child.py) against the package
source in src/ of the checkout this file sits in.  Passes repeat until
--seconds have elapsed; figures are medians over passes.

--trace 0 prints the end-to-end metrics of BENCHMARK.json (setup_s,
wall_s, peak_rss_mb).  --trace 1 alternates untraced and traced passes and
prints the per-layer metrics; the traced pass must write reports
byte-identical to the untraced one.  ``--workload all`` does both for every
workload.  The last stdout line is one JSON object; the lines before it
give the same figures for people, with units, and ops_failed_frac
(failed ÷ attempted operations).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("suite", "clark_sweep", "large_grid")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
# A run must end within 180 s: no pass starts once the run would pass
# RUN_LIMIT_S, and a pass that hangs is killed after PASS_TIMEOUT_S.
RUN_LIMIT_S = 160.0
PASS_TIMEOUT_S = 150.0


def _child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in envinfo.BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    env.pop("ROUGHCALC_OUT_DIR", None)
    return env


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.workers, blas = envinfo.thread_budget()
        self.env = _child_env(blas)
        self.count = 0

    def _child(self, args: list[str], log: Path, timeout: float):
        with open(log, "w", encoding="utf-8") as fh:
            return subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                                  env=self.env, cwd=ROOT, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=timeout)

    def warm_up(self) -> None:
        """Import the package once untimed: compiles bytecode on a fresh
        checkout and loads the shared libraries into the page cache."""
        OUT.mkdir(exist_ok=True)
        self._child(["--warmup"], OUT / "warmup.txt", PASS_TIMEOUT_S).check_returncode()

    def run_pass(self, workload: str, traced: bool) -> dict:
        self.count += 1
        work = OUT / f"{workload}-s{self.seed}-{os.getpid()}-{self.count}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        spawned = time.monotonic()
        try:
            proc = self._child([workload, str(self.seed), str(work), repr(spawned),
                                str(self.workers), "1" if traced else "0"],
                               work / "stdout.txt", PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"ops": [["pass.timeout", False, True]], "work": work}
        result_file = work / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            return {"ops": [["pass.exit", False, True]], "work": work}
        result = json.loads(result_file.read_text())
        result["work"] = work
        if "error" in result:
            print(result["error"], file=sys.stderr)
        return result

    def finish(self, result: dict) -> None:
        """Keep the spans of a traced pass, drop everything else."""
        work = result["work"]
        spans = work / "spans.json"
        if spans.exists():
            (OUT / "traces").mkdir(exist_ok=True)
            spans.replace(OUT / "traces" / f"{work.name}.json")
        shutil.rmtree(work, ignore_errors=True)


def _report_digests(work: Path) -> dict[str, str]:
    out_dir = work / "out"
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _repeat(seconds: float, one) -> list:
    """Call one() until ``seconds`` have elapsed (at least once), without
    starting a call that would likely end past RUN_LIMIT_S."""
    start = time.monotonic()
    done = []
    while True:
        t0 = time.monotonic()
        done.extend(one())
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + (time.monotonic() - t0) > RUN_LIMIT_S:
            return done


def _median(results: list[dict], key: str) -> float | None:
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def measure(runner: Runner, workload: str, seconds: float) -> dict:
    """Untraced passes: the end-to-end metrics."""
    def one():
        result = runner.run_pass(workload, traced=False)
        runner.finish(result)
        return [result]

    results = _repeat(seconds, one)
    metrics = {key: _median(results, key) for key in END_TO_END}
    summary = _summary(workload, results, metrics)
    summary["samples"] = {key: [r[key] for r in results if key in r] for key in END_TO_END}
    return summary


def measure_traced(runner: Runner, workload: str, seconds: float,
                   per_layer: list[str]) -> dict:
    """Untraced/traced pass pairs: the per-layer metrics."""
    def one():
        plain = runner.run_pass(workload, traced=False)
        traced = runner.run_pass(workload, traced=True)
        digests = _report_digests(plain["work"])
        same = bool(digests) and digests == _report_digests(traced["work"])
        traced["ops"] = traced.get("ops", []) + [["traced.reports_identical", same, True]]
        runner.finish(plain)
        runner.finish(traced)
        return [plain, traced]

    results = _repeat(seconds, one)
    plain = [r for r in results if "layers" not in r]
    traced = [r for r in results if "layers" in r]
    metrics: dict = {}
    if traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        plain_wall, traced_wall = _median(plain, "wall_s"), _median(traced, "wall_s")
        if plain_wall:
            layers["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
        unknown = [name for name in per_layer if name not in layers]
        if unknown:
            raise KeyError(f"per-layer metrics not produced by the trace: {unknown}")
        metrics = {name: layers[name] for name in per_layer}
    return _summary(workload, results, metrics)


def _summary(workload: str, results: list[dict], metrics: dict) -> dict:
    ops = [op for r in results for op in r.get("ops", [])]
    failed = [name for name, ok, _ in ops if not ok]
    return {
        "workload": workload,
        "passes": len(results),
        "env": next((r["env"] for r in results if "env" in r), None),
        "correct": all(ok for _, ok, exact in ops if exact) and bool(ops),
        "attempted": len(ops),
        "failed": len(failed),
        "failed_ops": sorted(set(failed)),
        "metrics": metrics,
    }


def _print_human(summary: dict, units: dict) -> None:
    env = summary["env"] or {}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{summary['workload']}: {summary['passes']} passes, "
          f"correct={summary['correct']}")
    for name, value in summary["metrics"].items():
        print(f"  {name:48s} {value!r:>24} {units[name]}")
    for name, values in summary.get("samples", {}).items():
        print(f"  {name} per pass: " + " ".join(f"{v:.4f}" for v in values))
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"  {'ops_failed_frac':48s} {frac!r:>24} 1 "
          f"({summary['failed']}/{summary['attempted']})")
    if summary["failed_ops"]:
        print("  failed: " + ", ".join(summary["failed_ops"]))


def _result_line(summary: dict, units: dict) -> dict:
    metrics = summary["metrics"]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "roughcalc" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"bench: no roughcalc source or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_layer = [m["name"] for m in spec["per_layer"]]

    runner = Runner(args.seed)
    runner.warm_up()
    if args.workload == "all":
        combined = {}
        for workload in WORKLOADS:
            for summary in (measure(runner, workload, args.seconds),
                            measure_traced(runner, workload, args.seconds, per_layer)):
                _print_human(summary, units)
                combined.setdefault(workload, []).append(_result_line(summary, units))
        print(json.dumps(combined))
        return 0

    if args.trace:
        summary = measure_traced(runner, args.workload, args.seconds, per_layer)
    else:
        summary = measure(runner, args.workload, args.seconds)
    if not summary["metrics"] or None in summary["metrics"].values():
        print(f"bench: no pass of {args.workload} completed", file=sys.stderr)
        return 1
    _print_human(summary, units)
    print(json.dumps(_result_line(summary, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
