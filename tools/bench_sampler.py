"""Time and traced memory of the samplers, the sampler statistics, the
ensemble file I/O, the Clark slot loop and the Clark divergence, at fixed
sizes.

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
  and BLAS buffers keep, and these do.  The step runs first, while this
  process is small: a child's ru_maxrss starts from the resident set of the
  process that spawned it;

* ``import_cli``: ``import roughcalc.cli`` in a fresh interpreter, best of
  REPEATS, with that interpreter's peak resident set;
* ``duality_rows``: `run_adjointness` at DUALITY_CASE, measured like the
  steps above;
* ``clark_coeff``: the Clark field's ``coeff_fn`` on a dense fbm ensemble,
  for each (functional, n, m, H) in CLARK_CASES, measured the same way;
* ``clark_divergence``: `divergence` of a newly built Clark field on its own
  dense fbm ensemble, as the factorization check forms it, for each
  (functional, n, m, H) in DIVERGENCE_CASES, with ``chol_inv`` warm.

The record also holds nproc, the BLAS library and the thread count the
library reports.  BLAS runs one thread unless the environment sets the thread
variables, as the benchmark does on two cores.  Uses the package under this
checkout's ``src/``:

    python3 tools/bench_sampler.py --label change --out BENCH_sampler.json

With ``--out`` the record is stored under ``--label`` in that JSON file,
beside the labels it already holds; without it, the record is printed.
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
sys.path.insert(0, str(ROOT / "src"))
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


def _import_cli() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", _SIMULATE_PROBE,
            *map(str, (n, m, hurst, SIMULATE_WORKERS, SEED))]
    out = subprocess.run(argv, env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    elapsed, maxrss_kib, rss_kib = float(out[0]), int(out[1]), int(out[2])
    return {"step": "simulate_rss", "n": n, "m": m, "hurst": hurst,
            "workers": SIMULATE_WORKERS, "wall_s": round(elapsed, 4),
            "ru_maxrss_mib": round(maxrss_kib / 1024, 1),
            "rss_after_mib": round(rss_kib / 1024, 1)}


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    rows = [_simulate_rss()]
    with tempfile.TemporaryDirectory() as tmp:
        rows += [row for case in CASES for row in _case(*case, Path(tmp))]
    rows += [_import_cli(), _duality_rows(), *_clark_rows()]
    env = envinfo.collect(workers=max(WORKERS))
    del env["workers"]
    record = {"env": env, "repeats": REPEATS, "rows": rows}
    if args.out is None:
        print(json.dumps(record, indent=1))
        return 0
    stored = json.loads(args.out.read_text()) if args.out.exists() else {}
    stored[args.label] = record
    args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
