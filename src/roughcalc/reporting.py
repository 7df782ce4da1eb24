"""Deterministic report serialization.

Reports are written as JSON (full structure) and CSV (result rows only).
Floats are rendered with 17 significant digits so that a rerun with the
same seed produces byte-identical files.  Wall-clock timings never enter
a report; they go to stderr.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

SPEC_VERSION = "1.0"

__all__ = ["ExperimentReport", "format_float", "render_json", "render_csv",
           "report_basename", "write_report", "SPEC_VERSION"]


def format_float(x: float) -> str:
    """17 significant digits; round-trips every IEEE double."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _normalize(obj):
    """Recursively convert numpy scalars/arrays and tuples to plain types."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _render(obj, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        items = sorted(obj.items())
        for i, (k, v) in enumerate(items):
            out.write(pad + "  " + json.dumps(k) + ": ")
            _render(v, out, indent + 1)
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(obj):
            out.write(pad + "  ")
            _render(v, out, indent + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            out.write(json.dumps(format_float(obj)))
        else:
            out.write(format_float(obj))
    elif obj is None:
        out.write("null")
    elif isinstance(obj, int):
        out.write(str(obj))
    else:
        out.write(json.dumps(obj))


def render_json(payload: dict) -> str:
    buf = io.StringIO()
    _render(_normalize(payload), buf, 0)
    buf.write("\n")
    return buf.getvalue()


def render_csv(rows: list[dict]) -> str:
    """Rows share a column union; missing cells are empty."""
    if not rows:
        return "\n"
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for key in cols:
            v = row.get(key)
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float) or isinstance(v, np.floating):
                cells.append(format_float(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentReport:
    """One experiment run: config echo, result rows, summary, verdict.

    model/hurst_label/grid_label/seed name the output files; they reflect
    the run's effective values, which per-criterion sweeps may pin away
    from the config defaults.
    """

    experiment: str
    config: dict
    model: str = "fbm"
    hurst_label: str = "0.25"
    grid_label: int = 0
    seed: int = 0
    results: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def add(self, **row) -> dict:
        self.results.append(row)
        return row

    def payload(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "results": self.results,
            "summary": self.summary,
            "passed": self.passed,
        }

    def basename(self) -> str:
        return report_basename(self.experiment, self.model, self.hurst_label,
                               self.grid_label, self.seed)


def report_basename(experiment: str, model: str, hurst_label: str, n: int,
                    seed: int) -> str:
    return f"{experiment}_{model}_{hurst_label}_{n}_{seed}"


def write_report(report: ExperimentReport, out_dir: str) -> tuple[str, str]:
    """Write JSON + CSV; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = report.basename()
    json_path = os.path.join(out_dir, base + ".json")
    csv_path = os.path.join(out_dir, base + ".csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report.payload()))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(report.results))
    return json_path, csv_path
