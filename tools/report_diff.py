"""Value diff of two report trees, field by field.

    python3 tools/report_diff.py DIR_A DIR_B [--atol A] [--rtol R]

Pairs the files of DIR_A and DIR_B by relative path (for example the trees
``tools/report_digest.py --keep`` writes for two checkouts).  JSON reports
are compared leaf by leaf, CSV reports cell by cell and ``.txt`` files
(stdouts) token by token.  A field is a JSON key path with list positions
folded to ``[]`` (``results[].residual``), a CSV column or a text line.
For each field where a float differs it prints the largest absolute
difference, the largest relative difference |a - b| / max(|a|, |b|), and
how many of its values differ.  Every non-float mismatch (a string,
integer, flag, key or shape that differs, a file on one side only, or any
other file whose bytes differ) is printed on its own line.

A differing float is within bounds when it is within ``--atol`` absolute or
``--rtol`` relative (both 0 by default, so any difference is out of
bounds).  The exit code is 0 when every float is within bounds and nothing
else differs, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass
class FieldDiff:
    max_abs: float = 0.0
    max_rel: float = 0.0
    differ: int = 0
    beyond: int = 0
    count: int = 0


def _leaves(node, path: str = ""):
    """(path, position, value) of every leaf of a parsed JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            for field, where, value in _leaves(item, f"{path}[]"):
                yield field, (i, *where), value
    else:
        yield path, (), node


def _json_cells(data: bytes) -> dict:
    return {(field, where): value for field, where, value in _leaves(json.loads(data))}


def _csv_cells(data: bytes) -> dict:
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    cells = {}
    for i, row in enumerate(body):
        for j, cell in enumerate(row):
            column = header[j] if j < len(header) else f"column {j}"
            cells[(column, (i,))] = _csv_value(cell)
    return cells


def _csv_value(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _text_cells(data: bytes) -> dict:
    return {(f"line {i}", (j,)): _csv_value(token)
            for i, line in enumerate(data.decode().splitlines(), 1)
            for j, token in enumerate(line.split())}


_READERS = {".json": _json_cells, ".csv": _csv_cells, ".txt": _text_cells}


def _compare(name: str, a: bytes, b: bytes, fields: dict, mismatches: list,
             atol: float, rtol: float) -> None:
    reader = _READERS.get(Path(name).suffix)
    if reader is None:
        if a != b:
            mismatches.append(f"{name}: contents differ")
        return
    cells_a, cells_b = reader(a), reader(b)
    for key in sorted(cells_a.keys() | cells_b.keys(), key=repr):
        field, where = key
        label = f"{name} {field}{list(where) if where else ''}"
        if key not in cells_a or key not in cells_b:
            side = "B" if key in cells_b else "A"
            mismatches.append(f"{label}: only in {side}")
            continue
        va, vb = cells_a[key], cells_b[key]
        if not (isinstance(va, float) and isinstance(vb, float)):
            if type(va) is not type(vb) or va != vb:
                mismatches.append(f"{label}: {va!r} != {vb!r}")
            continue
        diff = fields.setdefault((name, field), FieldDiff())
        diff.count += 1
        if va == vb or (math.isnan(va) and math.isnan(vb)):
            continue
        gap = abs(va - vb)
        rel = gap / max(abs(va), abs(vb))
        diff.differ += 1
        diff.max_abs = max(diff.max_abs, gap)
        diff.max_rel = max(diff.max_rel, rel)
        if not (gap <= atol or rel <= rtol):
            diff.beyond += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--atol", type=float, default=0.0)
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    names_a = {p.relative_to(args.dir_a).as_posix()
               for p in args.dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(args.dir_b).as_posix()
               for p in args.dir_b.rglob("*") if p.is_file()}
    fields: dict = {}
    mismatches: list = []
    identical = 0
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            mismatches.append(f"{name}: only in {'B' if name in names_b else 'A'}")
            continue
        a, b = (args.dir_a / name).read_bytes(), (args.dir_b / name).read_bytes()
        if a == b:
            identical += 1
            continue
        _compare(name, a, b, fields, mismatches, args.atol, args.rtol)
    differing = {key: d for key, d in fields.items() if d.differ}
    for (name, field), d in differing.items():
        print(f"{name} {field}: max_abs {d.max_abs:.3g} max_rel {d.max_rel:.3g} "
              f"({d.differ} of {d.count} differ, {d.beyond} beyond bounds)")
    for line in mismatches:
        print(f"MISMATCH {line}")
    beyond = sum(d.beyond for d in differing.values())
    worst_abs = max((d.max_abs for d in differing.values()), default=0.0)
    worst_rel = max((d.max_rel for d in differing.values()), default=0.0)
    print(f"{len(names_a | names_b)} files, {identical} identical; "
          f"{len(differing)} float fields differ, worst abs {worst_abs:.3g}, "
          f"worst rel {worst_rel:.3g}, {beyond} beyond atol {args.atol:g} / "
          f"rtol {args.rtol:g}; {len(mismatches)} non-float mismatches")
    return 0 if beyond == 0 and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
