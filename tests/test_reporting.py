"""Report rendering: shortest round-trip floats, deterministic JSON/CSV bytes."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roughcalc import reporting
from roughcalc.config import DEFAULTS
from roughcalc.reporting import ExperimentReport, render_csv, render_json, write_report


def _csv_cell(value) -> str:
    return render_csv([{"v": value}]).split("\n")[1]


def _same_double(a: float, b: float) -> bool:
    # == alone cannot tell -0.0 from 0.0
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308 / 3)
@example(0.1)
@settings(max_examples=300, deadline=None)
def test_floats_round_trip_through_json_and_csv(x: float) -> None:
    text = render_json({"v": x, "w": [x]})
    parsed = json.loads(text)
    assert _same_double(parsed["v"], x)
    assert _same_double(parsed["w"][0], x)
    cell = _csv_cell(x)
    assert cell == repr(x)
    assert _same_double(float(cell), x)


def test_floats_print_in_shortest_form() -> None:
    assert render_json({"v": 0.1}) == '{\n  "v": 0.1\n}\n'
    assert render_json({"v": 1.0}) == '{\n  "v": 1.0\n}\n'
    assert _csv_cell(0.1) == "0.1"
    assert _csv_cell(1.0) == "1.0"


def test_numpy_scalars_and_arrays() -> None:
    f32 = np.float32(0.1)
    parsed = json.loads(render_json({"a": f32, "b": np.float64(0.1),
                                     "c": np.int64(3), "d": np.bool_(True)}))
    assert parsed == {"a": float(f32), "b": 0.1, "c": 3, "d": True}
    assert np.float32(parsed["a"]) == f32
    assert _csv_cell(f32) == repr(float(f32))
    assert _csv_cell(np.float64(0.1)) == "0.1"
    # a 0-d array is its scalar, a 2-d array a list of rows
    assert render_json({"a": np.array(0.25)}) == render_json({"a": 0.25})
    grid = np.array([[0.1, -0.0], [np.inf, 2.0]])
    assert render_json({"a": grid}) == render_json(
        {"a": [[0.1, -0.0], ["inf", 2.0]]})
    assert json.loads(render_json({"a": np.arange(6).reshape(2, 3)}))["a"] == [
        [0, 1, 2], [3, 4, 5]]


def test_render_json_exact_bytes() -> None:
    payload = {
        "b": [],
        "a": {"z": 0.1, "y": (1, 2.5, None, True), "e": {}},
        "s": 'q"\u00e9',
        "n": float("nan"),
        "t": [1.0, -0.0, 1e-300, 1e22],
    }
    assert render_json(payload) == (
        '{\n'
        '  "a": {\n'
        '    "e": {},\n'
        '    "y": [\n'
        '      1,\n'
        '      2.5,\n'
        '      null,\n'
        '      true\n'
        '    ],\n'
        '    "z": 0.1\n'
        '  },\n'
        '  "b": [],\n'
        '  "n": "nan",\n'
        '  "s": "q\\"\\u00e9",\n'
        '  "t": [\n'
        '    1.0,\n'
        '    -0.0,\n'
        '    1e-300,\n'
        '    1e+22\n'
        '  ]\n'
        '}\n'
    )


def test_bare_nan_is_refused(monkeypatch) -> None:
    # without the string mapping, json.dumps must raise, not write NaN
    monkeypatch.setattr(reporting, "_normalize", lambda obj: obj)
    with pytest.raises(ValueError):
        render_json({"a": float("nan")})


def test_render_json_sorted_and_stable() -> None:
    payload = {"zeta": 1.5, "alpha": [1, 2], "flag": True, "none": None}
    text = render_json(payload)
    assert text == render_json(dict(reversed(list(payload.items()))))
    parsed = json.loads(text)
    assert parsed["zeta"] == 1.5
    assert parsed["flag"] is True
    assert parsed["none"] is None
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)
    assert text.endswith("\n")


def test_render_json_nonfinite_as_strings() -> None:
    # CSV cells spell non-finite values the same way
    values = {"a": float("nan"), "b": float("inf"), "c": float("-inf"),
              "d": np.float32("nan"), "e": np.array([np.inf, -np.inf])}
    parsed = json.loads(render_json(values))
    assert parsed == {"a": "nan", "b": "inf", "c": "-inf", "d": "nan",
                      "e": ["inf", "-inf"]}
    assert render_csv([values]).split("\n")[1].split(",")[:4] == [
        "nan", "inf", "-inf", "nan"]


def test_render_csv_column_union_and_blanks() -> None:
    rows = [{"x": 1.0, "y": 2}, {"x": 0.5, "z": "txt"}]
    text = render_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,z"
    assert lines[1].startswith("1.0,")
    assert lines[2].endswith(",txt")
    # row 2 has no y: empty cell between the commas
    assert lines[2].split(",")[1] == ""


def test_report_basename_layout() -> None:
    report = ExperimentReport(experiment="adjointness", config={}, model="fbm",
                              hurst_label="0.25", grid_label=32, seed=42)
    assert report.basename() == "adjointness_fbm_0.25_32_42"


def test_write_report_produces_both_files(tmp_path) -> None:
    cfg = dataclasses.replace(DEFAULTS, grid_n=8, paths=2000)
    report = ExperimentReport(
        experiment="demo",
        config=cfg.echo(),
        model="fbm",
        hurst_label="0.25",
        grid_label=8,
        seed=42,
    )
    report.add(x=1.0, passed=True)
    report.summary = {"rows": 1}
    report.passed = True
    jp, cp = write_report(report, str(tmp_path))
    assert jp.endswith("demo_fbm_0.25_8_42.json")
    assert cp.endswith("demo_fbm_0.25_8_42.csv")
    payload = json.loads(open(jp).read())
    assert payload["spec_version"] == "1.0"
    assert payload["experiment"] == "demo"
    assert payload["passed"] is True
    assert "workers" not in payload["config"]


def test_payload_floats_survive_json_round_trip() -> None:
    report = ExperimentReport(
        experiment="demo", config={}, model="bm", hurst_label="0.5",
        grid_label=4, seed=1,
    )
    value = math.pi * 1e-7
    report.add(v=value)
    parsed = json.loads(render_json(report.payload()))
    assert parsed["results"][0]["v"] == value
