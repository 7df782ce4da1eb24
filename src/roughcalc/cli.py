"""Command-line entry point.

Every subcommand loads a config (defaults, then ``--config`` file, then
``--set key=value`` overrides, then dedicated flags), runs one experiment,
writes a JSON and a CSV report, and prints one PASS/FAIL line per verdict
to stdout.  Wall-clock timings go to stderr and never into report files.

Exit codes:

    0  every asserted check passed
    1  usage or configuration error
    2  numerical environment error (ill-conditioned model beyond the
       jitter ladder, a non-finite sample moment, unwritable output path,
       out of memory)
    3  at least one asserted check failed
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

import numpy as np

from . import experiments
from .config import ExperimentConfig, load_config
from .errors import ConfigError, IllConditionedModelError
from .functionals import catalog_names
from .reporting import write_report

_EXPERIMENTS = {
    "simulate": ("sample paths and validate marginals", experiments.run_simulate),
    "adjointness": ("duality of derivative and divergence",
                    experiments.run_adjointness),
    "factorize": ("centered-functional factorization residuals",
                  experiments.run_factorization),
    "remainder": ("local expansion remainder scaling",
                  experiments.run_remainder_scaling),
    "gubinelli": ("local slope candidates compared",
                  experiments.run_gubinelli_compare),
    "isometry": ("divergence second-moment defect",
                 experiments.run_isometry_defect),
    "lemma": ("adapted projection route agreement",
              experiments.run_projection_lemma),
    "mixed": ("componentwise adjointness on any model",
              experiments.run_mixed),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this suite reserves 2
    for numerical environment failures, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="config file to load")
    sub.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                     dest="overrides", help="override one config key")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--paths", type=int)
    sub.add_argument("--hurst", type=float)
    sub.add_argument("--grid-n", type=int, dest="grid_n")
    sub.add_argument("--workers", type=int)
    sub.add_argument("--out-dir", dest="out_dir")


def build_parser() -> _Parser:
    parser = _Parser(prog="roughcalc",
                     description="Gaussian path calculus check suite")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (blurb, _) in _EXPERIMENTS.items():
        sub = commands.add_parser(name, help=blurb)
        _add_common(sub)
        if name == "simulate":
            sub.add_argument("--export", metavar="FILE",
                             help="also write the sampled ensemble (binary)")
    sub = commands.add_parser("verify-all", help="run the full check suite")
    _add_common(sub)
    commands.add_parser("list", help="list experiments and functionals")
    return parser


def _collect_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict = {}
    for pair in args.overrides:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    for key in ("seed", "paths", "hurst", "grid_n", "workers", "out_dir"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.command == "mixed":
        overrides.setdefault("model", "mixed")
    return load_config(args.config, overrides)


def _emit(report, out_dir: str) -> None:
    json_path, csv_path = write_report(report, out_dir)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"[{verdict}] {report.experiment} model={report.model} "
          f"H={report.hurst_label} n={report.grid_label} seed={report.seed}")
    print(f"  wrote {json_path}")
    print(f"  wrote {csv_path}")


def _run_single(args: argparse.Namespace) -> int:
    cfg = _collect_config(args)
    _, run = _EXPERIMENTS[args.command]
    start = time.perf_counter()
    if args.command == "simulate":
        report = run(cfg, export_path=args.export)
    else:
        report = run(cfg)
    print(f"{args.command}: {time.perf_counter() - start:.2f}s",
          file=sys.stderr)
    _emit(report, cfg.out_dir)
    if args.command == "simulate" and args.export:
        print(f"  exported {args.export}")
    return 0 if report.passed else 3


def _run_verify_all(args: argparse.Namespace) -> int:
    cfg = _collect_config(args)
    start = time.perf_counter()
    reports, summary = experiments.verify_all(cfg)
    print(f"verify-all: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    for report in reports:
        write_report(report, cfg.out_dir)
    json_path, csv_path = write_report(summary, cfg.out_dir)
    for row in summary.results:
        verdict = "PASS" if row["passed"] else "FAIL"
        print(f"[{verdict}] {row['check']}")
    failures = summary.summary["failures"]
    verdict = "PASS" if summary.passed else "FAIL"
    print(f"[{verdict}] verify-all: {len(summary.results)} checks, "
          f"{len(failures)} failures")
    print(f"  wrote {json_path}")
    print(f"  wrote {csv_path}")
    return 0 if summary.passed else 3


def _run_list() -> int:
    print("experiments:")
    for name, (blurb, _) in _EXPERIMENTS.items():
        print(f"  {name:12s} {blurb}")
    print("  verify-all   run the full check suite")
    print("functionals:")
    for name in catalog_names():
        print(f"  {name}")
    return 0


def _warning_line(message, category, filename, lineno, line=None):
    return f"roughcalc: warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on parse errors (status 1 via _Parser.error) and on
        # --help (status 0); surface both as return codes
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    # overflow to inf and inf * 0 stay silent: a non-finite sample moment
    # raises IllConditionedModelError, reported below in one line; a
    # warning is one line too, without the echoed source line
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "list":
                return _run_list()
            if args.command == "verify-all":
                return _run_verify_all(args)
            return _run_single(args)
    except ConfigError as exc:
        print(f"roughcalc: config error: {exc}", file=sys.stderr)
        return 1
    except IllConditionedModelError as exc:
        print(f"roughcalc: numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"roughcalc: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"roughcalc: out of memory: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
