"""Time and traced memory of the samplers, the sampler statistics, the
ensemble file I/O, the Clark slot loop and the Clark divergence, at fixed
sizes, and the resident set of the checks.

For fbm at each (n, m, H) in CASES it times, best of REPEATS calls:

* `sample_ensemble` and `sample_ensemble_circulant`, with 1 and 2 workers;
* `experiments._sampler_stats` on the dense ensemble, with 1 and 2 workers;
* `write_ensemble` and `read_ensemble` of the dense ensemble;
* ``conditioning``: a fresh Gram build, then `innovation_directions` (the
  first use of the cached ``chol_inv``) and one `regression_coefficients`
  of the last coordinate on the first half;

then makes one more call of each under `tracemalloc` and records its peak
traced bytes, and that peak less the array the call returns.  More steps
measure the resident set, the start, the adjointness check and the Clark
field:

* ``simulate_rss``: `run_simulate` at SIMULATE_CASE with SIMULATE_WORKERS
  workers in a fresh interpreter, with its ru_maxrss and the VmRSS left
  after the call.  tracemalloc does not see the memory that malloc arenas
  and BLAS buffers keep, and these do;
* ``suite_rss``: ``verify-all`` at the default config with SUITE_WORKERS
  workers in a fresh interpreter, with the peak VmRSS of each check, read
  by a thread that polls /proc/self/statm every RSS_POLL_S seconds, and
  the interpreter's VmHWM at the end;
* ``import_cli``: ``import roughcalc.cli`` in a fresh interpreter, best of
  REPEATS, with that interpreter's peak resident set;
* ``duality_rows``: `run_adjointness` at DUALITY_CASE, measured like the
  sampler steps;
* ``clark_coeff``: the Clark field's ``coeff_fn`` on a dense fbm ensemble,
  for each (functional, n, m, H) in CLARK_CASES, measured the same way;
* ``clark_divergence``: `divergence` of a newly built Clark field on its own
  dense fbm ensemble, as the factorization check forms it, for each
  (functional, n, m, H) in DIVERGENCE_CASES, with ``chol_inv`` warm.

Every step runs in an interpreter of its own, so no step inherits the
heap of another.  The record also holds nproc, the BLAS library and the
thread count the library reports.  BLAS runs one thread unless the
environment sets the thread variables, as the benchmark does on two cores.

    python3 tools/bench_sampler.py --label change --out BENCH_sampler.json

measures the package under this checkout's ``src/``.  With ``--parent DIR``
it measures the package under DIR/src as well, label ``parent``, and
alternates the two trees step by step (which tree goes first alternates
too), so that a drift of the machine lands on both sides alike:

    python3 tools/bench_sampler.py --parent ../parent --out BENCH_sampler.json

``--step NAME --src DIR`` runs one step on the package under DIR and
prints its rows.  With ``--out`` the records are stored under their labels
in that JSON file, beside the labels it already holds; without it, they
are printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package under test is read before roughcalc is imported
_PRE = argparse.ArgumentParser(add_help=False)
_PRE.add_argument("--src", type=Path, default=ROOT / "src")
SRC = _PRE.parse_known_args()[0].src.resolve()
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "bench"))

import envinfo  # noqa: E402

for _var in envinfo.BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from roughcalc import experiments  # noqa: E402
from roughcalc.config import DEFAULTS  # noqa: E402
from roughcalc.gaussian import (read_ensemble, regression_coefficients,  # noqa: E402
                                sample_ensemble, sample_ensemble_circulant,
                                write_ensemble)
from roughcalc.functionals import make_functional  # noqa: E402
from roughcalc.malliavin import (clark_integrand, divergence,  # noqa: E402
                                 innovation_directions)
from roughcalc.models import CovarianceModel, GramContext, TimeGrid  # noqa: E402

CASES = ((64, 20_000, 0.25), (1024, 20_000, 0.25))
DUALITY_CASE = (64, 20_000, 0.25)
# k = n coordinates per slot, and k = 1 over many slots
CLARK_CASES = (("integral_sin", 64, 20_000, 0.25), ("quadratic", 1024, 1000, 0.25))
# large_grid's conditioning shape, and twice its n
DIVERGENCE_CASES = (("quadratic", 1024, 1000, 0.25), ("quadratic", 2048, 1000, 0.25))
WORKERS = (1, 2)
SIMULATE_CASE = (1024, 20_000, 0.25)
SIMULATE_WORKERS = 2
SUITE_WORKERS = 2
RSS_POLL_S = 0.001
REPEATS = 5
SEED = 42
MIB = float(1 << 20)


def _returned_bytes(result) -> int:
    if isinstance(result, tuple):  # read_ensemble: (paths, seed)
        result = result[0]
    if isinstance(result, np.ndarray):
        return result.nbytes
    return getattr(getattr(result, "paths", None), "nbytes", 0)


def _measure(fn) -> dict:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best_s": round(best, 4),
            "peak_mib": round(peak / MIB, 1),
            "peak_beyond_result_mib": round((peak - _returned_bytes(result)) / MIB, 1)}


def _case(n: int, m: int, hurst: float, tmp: Path) -> list[dict]:
    ctx = GramContext.build(CovarianceModel.fbm(hurst), TimeGrid.uniform_grid(n))
    where = {"n": n, "m": m, "hurst": hurst}
    rows = []
    for workers in WORKERS:
        for step, sampler, stream in (("dense", sample_ensemble, 0),
                                      ("circulant", sample_ensemble_circulant, 1)):
            stats = _measure(lambda: sampler(ctx, m, SEED, stream, workers))
            rows.append({"step": step, **where, "workers": workers, **stats})
    dense = sample_ensemble(ctx, m, SEED)
    target = tmp / "ensemble.bin"
    write_ensemble(target, dense)
    steps = [("sampler_stats", w,
              lambda w=w: experiments._sampler_stats(ctx, dense, workers=w))
             for w in WORKERS]
    steps += [("write", 1, lambda: write_ensemble(target, dense)),
              ("read", 1, lambda: read_ensemble(target))]
    for step, workers, fn in steps:
        rows.append({"step": step, **where, "workers": workers, **_measure(fn)})
    rows.append({"step": "conditioning", **where, "workers": 1,
                 **_measure(lambda: _conditioning(n, hurst))})
    return rows


def _conditioning(n: int, hurst: float):
    ctx = GramContext.build(CovarianceModel.fbm(hurst), TimeGrid.uniform_grid(n))
    w = innovation_directions(ctx)
    regression_coefficients(ctx, n // 2, [n - 1])
    return w


# The peak RSS is the interpreter's own VmHWM: a child's ru_maxrss keeps the
# peak of the process that spawned it, which here holds the ensembles.
_IMPORT_PROBE = ("import time; start = time.perf_counter(); import roughcalc.cli; "
                 "elapsed = time.perf_counter() - start; "
                 "print(elapsed, *[line.split()[1] for line in open('/proc/self/status') "
                 "if line.startswith('VmHWM:')])")


def _probe_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _import_cli() -> dict:
    env = _probe_env()
    runs = []
    for _ in range(REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        runs.append((float(out[0]), int(out[1])))
    best, hwm_kib = min(runs)
    return {"step": "import_cli", "workers": 1, "best_s": round(best, 4),
            "peak_rss_mib": round(hwm_kib / 1024, 1)}


_SIMULATE_PROBE = """
import dataclasses, resource, sys, time
from roughcalc import experiments
from roughcalc.config import DEFAULTS
n, m, hurst, workers, seed = (float(a) for a in sys.argv[1:])
cfg = dataclasses.replace(DEFAULTS, model="fbm", hurst=hurst, grid_n=int(n),
                          paths=int(m), seed=int(seed), workers=int(workers))
start = time.perf_counter()
experiments.run_simulate(cfg)
elapsed = time.perf_counter() - start
print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      *[line.split()[1] for line in open('/proc/self/status')
        if line.startswith('VmRSS:')])
"""


def _simulate_rss() -> dict:
    n, m, hurst = SIMULATE_CASE
    env = _probe_env()
    argv = [sys.executable, "-c", _SIMULATE_PROBE,
            *map(str, (n, m, hurst, SIMULATE_WORKERS, SEED))]
    out = subprocess.run(argv, env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    elapsed, maxrss_kib, rss_kib = float(out[0]), int(out[1]), int(out[2])
    return {"step": "simulate_rss", "n": n, "m": m, "hurst": hurst,
            "workers": SIMULATE_WORKERS, "wall_s": round(elapsed, 4),
            "ru_maxrss_mib": round(maxrss_kib / 1024, 1),
            "rss_after_mib": round(rss_kib / 1024, 1)}


_SUITE_PROBE = """
import os, sys, tempfile, threading
from roughcalc import cli, experiments
page = os.sysconf("SC_PAGE_SIZE")
peaks, current, done = {}, ["start"], threading.Event()
def poll():
    with open("/proc/self/statm") as fh:
        while True:
            fh.seek(0)
            rss = int(fh.read().split()[1]) * page
            peaks[current[0]] = max(peaks.get(current[0], 0), rss)
            if done.wait(float(sys.argv[2])):
                return
def labelled(name, run):
    def call(*args, **kwargs):
        current[0] = name
        return run(*args, **kwargs)
    return call
for name, (run, overrides) in list(experiments._SUITE.items()):
    experiments._SUITE[name] = (labelled(name, run), overrides)
poller = threading.Thread(target=poll)
poller.start()
with tempfile.TemporaryDirectory() as out:
    code = cli.main(["verify-all", "--workers", sys.argv[1], "--out-dir", out])
done.set()
poller.join()
hwm = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")]
print(code, hwm[0], *[f"{name}={rss}" for name, rss in peaks.items()])
"""


def _suite_rss() -> list[dict]:
    argv = [sys.executable, "-c", _SUITE_PROBE, str(SUITE_WORKERS), str(RSS_POLL_S)]
    # the last line: the CLI prints its verdicts above it
    out = subprocess.run(argv, env=_probe_env(), capture_output=True, text=True,
                         check=True).stdout.splitlines()[-1].split()
    code, hwm_kib, peaks = int(out[0]), int(out[1]), dict(p.split("=") for p in out[2:])
    rows = [{"step": "suite_rss", "check": name, "workers": SUITE_WORKERS,
             "peak_rss_mib": round(int(rss) / MIB, 1)}
            for name, rss in peaks.items() if name != "start"]
    return rows + [{"step": "suite_rss", "check": "verify-all", "workers": SUITE_WORKERS,
                    "exit_code": code, "vm_hwm_mib": round(hwm_kib / 1024, 1)}]


def _duality_rows() -> dict:
    n, m, hurst = DUALITY_CASE
    cfg = dataclasses.replace(DEFAULTS, model="fbm", hurst=hurst, grid_n=n, paths=m,
                              seed=SEED, workers=1)
    return {"step": "duality_rows", "n": n, "m": m, "hurst": hurst, "workers": 1,
            **_measure(lambda: experiments.run_adjointness(cfg))}


def _clark_rows() -> list[dict]:
    rows = []
    for step, cases in (("clark_coeff", CLARK_CASES),
                        ("clark_divergence", DIVERGENCE_CASES)):
        for name, n, m, hurst in cases:
            ctx = GramContext.build(CovarianceModel.fbm(hurst), TimeGrid.uniform_grid(n))
            fn = make_functional(name, ctx.grid)
            field = clark_integrand(ctx, fn)  # and chol_inv, outside the timing
            paths = sample_ensemble(ctx, m, SEED).paths
            run = ((lambda: field.coeff_fn(paths)) if step == "clark_coeff"
                   else lambda: divergence(ctx, clark_integrand(ctx, fn), paths))
            rows.append({"step": step, "functional": name, "n": n, "m": m,
                         "hurst": hurst, "workers": 1, **_measure(run)})
    return rows


def _cases() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [row for case in CASES for row in _case(*case, Path(tmp))]


# Steps in run order, each run by an interpreter of its own
STEPS = {
    "simulate_rss": lambda: [_simulate_rss()],
    "suite_rss": _suite_rss,
    "samplers": _cases,
    "import_cli": lambda: [_import_cli()],
    "duality_rows": lambda: [_duality_rows()],
    "clark": _clark_rows,
}


def _run_step(step: str, src: Path) -> list[dict]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--step", step,
            "--src", str(src)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--parent", type=Path,
                        help="a checkout of the parent commit, measured as 'parent'")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package directory of a --step run")
    parser.add_argument("--step", choices=sorted(STEPS))
    args = parser.parse_args(argv)
    if args.step:
        print(json.dumps(STEPS[args.step]()))
        return 0
    trees = [(args.label, ROOT / "src")]
    if args.parent is not None:
        trees.insert(0, ("parent", args.parent.resolve() / "src"))
    rows = {label: [] for label, _ in trees}
    for i, step in enumerate(STEPS):
        for label, src in trees[::-1] if i % 2 else trees:
            rows[label] += _run_step(step, src)
    env = envinfo.collect(workers=max(WORKERS))
    del env["workers"]
    records = {label: {"env": env, "repeats": REPEATS, "rows": rows[label]}
               for label, _ in trees}
    if args.out is None:
        print(json.dumps(records, indent=1))
        return 0
    stored = json.loads(args.out.read_text()) if args.out.exists() else {}
    stored.update(records)
    args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
