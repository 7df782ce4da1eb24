"""Digest of every report the CLI and the demos produce.

Runs each argv in CONFIGS through ``python -m roughcalc`` into a fresh
output directory (``{out}`` in an argv names that directory), and each
script in ``demos/``, using the package under this checkout's ``src/``.
Prints one sha256 line per file in the output directory and per stdout
(with the output directory replaced by ``<out>``), plus each exit code.
Two checkouts produce the same reports byte for byte exactly when their
digests match:

    python3 tools/report_digest.py > digest.txt

With ``--keep DIR`` every run's files, and its stdout as ``stdout.txt``, are
also kept under DIR, one subdirectory per run, for `tools/report_diff.py`
to compare value by value.

Every run is pinned to one BLAS thread (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1): a few reports differ at
roundoff between BLAS thread counts, so digests from machines with
different core counts compare only at a fixed count.

The run takes a few minutes on two cores; stderr (wall-clock timings) is
not digested.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every subcommand at its defaults, verify-all twice, and the model and
# functional variants whose code paths the defaults miss.
CONFIGS = (
    ("verify-all",),
    ("verify-all", "--seed", "7", "--workers", "2", "--paths", "5000"),
    ("simulate",),
    # the binary ensemble export
    ("simulate", "--export", "{out}/paths.bin"),
    ("adjointness",),
    ("factorize",),
    ("remainder",),
    ("gubinelli",),
    ("isometry",),
    ("lemma",),
    ("mixed",),
    ("factorize", "--set", "functional=integral_sin"),
    ("factorize", "--set", "model=bm", "--set", "functional=linear"),
    ("gubinelli", "--set", "model=bm", "--set", "functional=linear"),
    # the deterministic isometry row's ||u||^2 is a sample mean off the
    # unit horizon
    ("isometry", "--set", "horizon=2.5"),
    ("simulate", "--set", "model=mixed"),
    # the circulant sampler's beta = 0 branch
    ("simulate", "--set", "model=bm"),
    ("simulate", "--set", "times=0.1,0.25,0.5,0.9"),
    ("mixed", "--set", "alpha=0.7", "--set", "beta=1.2"),
    ("mixed", "--set", "beta=0", "--set", "functional=linear", "--grid-n", "16"),
    # several row blocks per sampler chunk
    ("mixed", "--grid-n", "128"),
    # every driver on a mixture, and the mixed driver on bm
    ("adjointness", "--set", "model=mixed"),
    ("isometry", "--set", "model=mixed"),
    ("remainder", "--set", "model=mixed"),
    ("gubinelli", "--set", "model=mixed"),
    ("factorize", "--set", "model=mixed", "--set", "alpha=0.7", "--set", "beta=1.2",
     "--set", "functional=linear"),
    ("mixed", "--set", "model=bm"),
    # non-finite sample moments: one error line and exit 2, no report
    ("mixed", "--set", "beta=1e150", "--grid-n", "8", "--paths", "1000"),
    ("adjointness", "--set", "model=bm", "--set", "horizon=1e6", "--grid-n", "8",
     "--paths", "1000"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=False)


def _keep(keep: Path | None, label: str, stdout: bytes, out: str | None = None) -> None:
    if keep is None:
        return
    target = keep / re.sub(r"[^A-Za-z0-9.=,-]+", "_", label).strip("_")
    if out is not None:
        shutil.copytree(out, target)
    target.mkdir(parents=True, exist_ok=True)
    (target / "stdout.txt").write_bytes(stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also keep every run's files under DIR")
    keep = parser.parse_args(argv).keep
    for config in CONFIGS:
        label = " ".join(config)
        with tempfile.TemporaryDirectory() as out:
            args = [a.replace("{out}", out) for a in config]
            proc = _run([sys.executable, "-m", "roughcalc", *args, "--out-dir", out])
            stdout = proc.stdout.replace(out.encode(), b"<out>")
            print(f"{_sha(stdout)}  [{label}] stdout rc={proc.returncode}", flush=True)
            for name in sorted(os.listdir(out)):
                data = Path(out, name).read_bytes()
                print(f"{_sha(data)}  [{label}] {name}", flush=True)
            _keep(keep, label, stdout, out)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = _run([sys.executable, str(demo)])
        print(f"{_sha(proc.stdout)}  [demos/{demo.name}] stdout rc={proc.returncode}",
              flush=True)
        _keep(keep, f"demos {demo.name}", proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
