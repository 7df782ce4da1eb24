"""One pass of one workload in a fresh process.

    python3 bench/child.py WORKLOAD SEED WORKDIR SPAWNED_AT WORKERS TRACE

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import roughcalc`` and input generation.  The pass
itself is timed with tracing off unless TRACE is 1.  Results go to
WORKDIR/result.json, spans (traced passes only) to WORKDIR/spans.json, and
the CLI's own output to WORKDIR/stdout.txt.  Run with ``--warmup`` to only
import the package (fills the bytecode and page caches before timing).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    if argv == ["--warmup"]:
        import roughcalc.cli  # noqa: F401
        return 0
    name, seed, workdir, spawned_at, workers, traced = argv
    seed, workers, traced = int(seed), int(workers), traced == "1"
    spawned_at = float(spawned_at)

    start = time.monotonic()
    from roughcalc import cli
    import_s = time.monotonic() - start

    from pathlib import Path

    import envinfo
    import tracer
    import workloads

    work = Path(workdir)
    out_dir = str(work / "out")
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed, work)
    result: dict = {"import_s": import_s}
    if traced:
        rec = tracer.Recorder(run_id=f"{name}-{seed}-{work.name}")
        restore = tracer.install(rec)

    pass_start = time.monotonic()
    result["setup_s"] = pass_start - spawned_at
    try:
        outcome = workload.run(cli, inputs, out_dir, workers)
    except Exception:  # a crashing pass is a failed operation, not a crash of the run
        result["ops"] = [["pass.exception", False, True]]
        result["error"] = traceback.format_exc()
        _write(work / "result.json", result)
        return 0
    result["wall_s"] = time.monotonic() - pass_start
    result["peak_rss_mb"] = _peak_rss_mb()
    result["env"] = envinfo.collect(workers)

    if traced:
        restore()
        layers = tracer.layer_metrics(rec, result["wall_s"])
        single_s, pass_s = tracer.replay_samplers_single_thread(rec)
        layers["gaussian.sampler_w2_speedup"] = single_s / pass_s if pass_s > 0 else 0.0
        layers["cli.import_s"] = import_s
        result["layers"] = layers
        _write(work / "spans.json", {"run": rec.run_id, "spans": rec.spans_payload()})

    try:
        ops = workload.check(inputs, outcome, out_dir)
    except Exception:
        ops = [workloads.Op("check.exception", False, True)]
        result["error"] = traceback.format_exc()
    result["ops"] = [[op.name, op.ok, op.exact] for op in ops]
    _write(work / "result.json", result)
    return 0


def _write(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
