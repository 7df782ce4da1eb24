"""Digest of every report the CLI and the demos produce.

Runs each argv in CONFIGS through ``python -m roughcalc`` into a fresh
output directory (``{out}`` in an argv names that directory), and each
script in ``demos/``, using the package under this checkout's ``src/``.
Prints one sha256 line per file in the output directory and per stdout
(with the output directory replaced by ``<out>``), plus each exit code.
Two checkouts produce the same reports byte for byte exactly when their
digests match:

    python3 tools/report_digest.py > digest.txt

The run takes a few minutes on two cores; stderr (wall-clock timings) is
not digested.
"""

from __future__ import annotations

import hashlib
import os
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
    ("simulate", "--set", "times=0.1,0.25,0.5,0.9"),
    ("mixed", "--set", "alpha=0.7", "--set", "beta=1.2"),
    ("mixed", "--set", "beta=0", "--set", "functional=linear", "--grid-n", "16"),
    # several row blocks per sampler chunk
    ("mixed", "--grid-n", "128"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=False)


def main() -> int:
    for argv in CONFIGS:
        label = " ".join(argv)
        with tempfile.TemporaryDirectory() as out:
            args = [a.replace("{out}", out) for a in argv]
            proc = _run([sys.executable, "-m", "roughcalc", *args, "--out-dir", out])
            stdout = proc.stdout.replace(out.encode(), b"<out>")
            print(f"{_sha(stdout)}  [{label}] stdout rc={proc.returncode}", flush=True)
            for name in sorted(os.listdir(out)):
                data = Path(out, name).read_bytes()
                print(f"{_sha(data)}  [{label}] {name}", flush=True)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = _run([sys.executable, str(demo)])
        print(f"{_sha(proc.stdout)}  [demos/{demo.name}] stdout rc={proc.returncode}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
