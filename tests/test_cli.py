"""Command line surface: exit codes, report files, determinism."""

from __future__ import annotations

import dataclasses
import filecmp
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from roughcalc import cli, experiments
from roughcalc.config import DEFAULTS
from roughcalc.errors import IllConditionedModelError


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def test_cli_runs_on_numpy_alone(tmp_path) -> None:
    # scipy is a test dependency only: importing it costs most of the start
    # and brings a second BLAS; a lazy import inside a command counts too
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    probe = ("import sys, roughcalc.cli as cli; "
             "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy')); "
             "print('probe', loaded()); "
             f"out = {str(tmp_path)!r}; "
             "codes = [cli.main(['simulate', '--grid-n', '16', '--paths', '2000', "
             "'--out-dir', out]), "
             "cli.main(['factorize', '--set', 'grid_sweep=8,32', '--paths', '1000', "
             "'--out-dir', out])]; "
             "print('probe', codes); print('probe', loaded())")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    after_import, codes, after_runs = (line.removeprefix("probe ")
                                       for line in proc.stdout.splitlines()
                                       if line.startswith("probe "))
    assert after_import == "[]"
    assert codes == "[0, 0]"
    assert after_runs == "[]"


def test_simulate_exits_zero_and_writes_reports(tmp_path, capsys) -> None:
    rc = run_cli(
        "simulate", "--grid-n", "16", "--paths", "2000", "--out-dir",
        str(tmp_path),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] simulate" in out
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["simulate_fbm_0.25_16_42.csv", "simulate_fbm_0.25_16_42.json"]
    payload = json.loads((tmp_path / names[1]).read_text(),
                         parse_constant=_reject_constant)
    assert payload["passed"] is True
    assert payload["config"]["grid_n"] == 16


def _reject_constant(name: str):
    # strict JSON: a report never holds a bare NaN, Infinity or -Infinity
    raise ValueError(f"non-standard JSON constant {name}")


def test_simulate_export_writes_ensemble(tmp_path) -> None:
    target = tmp_path / "paths.bin"
    rc = run_cli(
        "simulate", "--grid-n", "8", "--paths", "1500", "--out-dir",
        str(tmp_path), "--export", str(target),
    )
    assert rc == 0
    assert target.stat().st_size > 0


def test_list_command(capsys) -> None:
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in ("simulate", "adjointness", "factorize", "remainder",
                 "gubinelli", "isometry", "lemma", "mixed", "verify-all"):
        assert name in out
    assert "quadratic" in out


def test_no_command_prints_help_and_fails(capsys) -> None:
    assert run_cli() == 1


def test_unknown_subcommand_exits_one() -> None:
    assert run_cli("frobnicate") == 1


def test_unknown_config_key_exits_one(capsys) -> None:
    rc = run_cli("simulate", "--set", "warp=9")
    assert rc == 1
    assert "warp" in capsys.readouterr().err


def test_malformed_override_exits_one(capsys) -> None:
    assert run_cli("simulate", "--set", "gridn32") == 1


def test_bad_value_exits_one() -> None:
    assert run_cli("simulate", "--hurst", "1.5") == 1


@pytest.mark.parametrize("argv", [
    ("simulate", "--set", "horizon=-1"),
    ("factorize", "--set", "nodes=0"),
    ("factorize", "--set", "functional=nope"),
    ("factorize", "--set", "grid_sweep=0,8"),
    ("lemma", "--set", "hurst_sweep=0.3,1.5"),
    ("adjointness", "--set", "functional=nope"),
    ("simulate", "--set", "times=0.5,0.2"),
    ("simulate", "--set", "times=0.5,1.5"),
    # grids too coarse for a catalog functional or for any gubinelli anchor
    ("adjointness", "--grid-n", "2", "--paths", "1000"),
    ("mixed", "--grid-n", "2", "--paths", "1000"),
    ("factorize", "--set", "functional=linear", "--set", "grid_sweep=2,4",
     "--paths", "1000"),
    ("gubinelli", "--grid-n", "2", "--paths", "1000"),
    ("adjointness", "--grid-n", "1", "--paths", "1000"),
    # the lemma's element count and Hurst values are constants, not keys
    ("lemma", "--set", "elements=-1"),
    # one path has no sample variance
    ("simulate", "--paths", "1"),
    ("lemma", "--set", "hurst_sweep="),
    ("verify-all", "--set", "times=0.2,0.5,0.9"),
    # seeds outside [0, 2^64), a non-finite horizon, non-finite weights
    ("simulate", "--seed", "-1"),
    ("simulate", "--seed", str(2**64), "--export", os.devnull),
    ("simulate", "--set", "horizon=1e400"),
    ("mixed", "--set", "alpha=inf"),
    ("mixed", "--set", "beta=nan"),
    # finite, but its square overflows
    ("mixed", "--set", "alpha=1e200"),
    # one grid size cannot show refinement
    ("factorize", "--set", "functional=quadratic", "--set", "grid_sweep=32"),
])
def test_invalid_input_exits_one_without_traceback(argv, tmp_path, capsys) -> None:
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("config error") == 1
    assert not any(tmp_path.iterdir())


def test_mixed_subcommand_defaults_to_mixed_model(tmp_path, capsys) -> None:
    rc = run_cli(
        "mixed", "--grid-n", "8", "--paths", "2000", "--out-dir",
        str(tmp_path),
    )
    assert rc == 0
    assert any("mixed-1-1" in p.name for p in tmp_path.iterdir())


def test_nearby_parameters_write_distinct_reports(tmp_path) -> None:
    # six significant digits would give each pair one file name
    runs = (("mixed", "--set", "alpha=1"), ("mixed", "--set", "alpha=1.0000001"),
            ("simulate", "--hurst", "0.25"), ("simulate", "--hurst", "0.2500001"))
    for argv in runs:
        assert run_cli(*argv, "--grid-n", "8", "--paths", "1000",
                       "--out-dir", str(tmp_path)) == 0
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    assert names == ["mixed_mixed-1-1_0.25_8_42.json",
                     "mixed_mixed-1.0000001-1_0.25_8_42.json",
                     "simulate_fbm_0.2500001_8_42.json",
                     "simulate_fbm_0.25_8_42.json"]


def test_failing_experiment_exits_three(tmp_path, monkeypatch, capsys) -> None:
    blurb, real = cli._EXPERIMENTS["adjointness"]

    def always_fails(cfg):
        report = real(dataclasses.replace(cfg, paths=2000, grid_n=8))
        report.passed = False
        return report

    monkeypatch.setitem(cli._EXPERIMENTS, "adjointness", (blurb, always_fails))
    rc = run_cli("adjointness", "--out-dir", str(tmp_path))
    assert rc == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_numerical_breakdown_exits_two(tmp_path, monkeypatch) -> None:
    blurb, _ = cli._EXPERIMENTS["factorize"]

    def explodes(cfg):
        raise IllConditionedModelError("gram factorization failed at 1e-8")

    monkeypatch.setitem(cli._EXPERIMENTS, "factorize", (blurb, explodes))
    assert run_cli("factorize", "--out-dir", str(tmp_path)) == 2


def test_unwritable_output_exits_two(tmp_path) -> None:
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    rc = run_cli(
        "simulate", "--grid-n", "8", "--paths", "1500", "--out-dir",
        str(blocker / "sub"),
    )
    assert rc == 2


def test_out_of_memory_exits_two_with_one_line(tmp_path, capsys) -> None:
    # a 10^13 x 64 ensemble is 4.55 PiB: the allocation fails at once
    rc = run_cli("simulate", "--paths", "10000000000000", "--grid-n", "64",
                 "--out-dir", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("roughcalc: out of memory: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_overflowing_gram_exits_two_with_one_line(tmp_path, capsys) -> None:
    # beta^2 is finite, but the Gram symmetrization overflows to inf
    rc = run_cli("mixed", "--set", "beta=1e154", "--grid-n", "8", "--paths",
                 "1000", "--out-dir", str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("roughcalc: numerical error: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # exp of a variance of 1e300 in the terminal_exp functional
    ("mixed", "--set", "beta=1e150"),
    # inf * 0 in the pairing of the same functional
    ("adjointness", "--set", "model=bm", "--set", "horizon=1e6"),
])
def test_non_finite_moment_exits_two_with_one_line(argv, tmp_path, capsys) -> None:
    rc = run_cli(*argv, "--grid-n", "8", "--paths", "1000", "--out-dir",
                 str(tmp_path))
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("roughcalc: numerical error: ")
    assert not any(tmp_path.iterdir())


def test_repeat_runs_byte_identical(tmp_path) -> None:
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d, workers in ((d1, "1"), (d2, "3")):
        rc = run_cli(
            "simulate", "--grid-n", "16", "--paths", "2000", "--workers",
            workers, "--out-dir", str(d),
        )
        assert rc == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def test_multi_block_simulate_byte_identical_across_workers(tmp_path) -> None:
    # 18 384 paths of 512 points span two chunks of several row blocks, so
    # the pipelined sampler loop and the parallel column statistics both run
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d, workers in ((d1, "1"), (d2, "3")):
        rc = run_cli("simulate", "--grid-n", "512", "--paths", "18384",
                     "--workers", workers, "--out-dir", str(d))
        assert rc == 0
    names = sorted(p.name for p in d1.iterdir())
    assert [name.rsplit(".", 1)[1] for name in names] == ["csv", "json"]
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def test_verify_all_small_scale(tmp_path, capsys) -> None:
    rc = run_cli(
        "verify-all", "--paths", "2000", "--out-dir", str(tmp_path),
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "increment_identity" in captured.out
    assert "degeneration_alpha0" in captured.out
    summaries = [p for p in tmp_path.iterdir() if "verify" in p.name]
    assert summaries
    # one wall-time line per suite check, in suite order, on stderr only
    timed = [line for line in captured.err.splitlines() if line.startswith("  ")]
    assert [line.split(":")[0].strip() for line in timed] == list(experiments._SUITE)
    assert len(timed) == 16
    timing = r"  \w+: \d+\.\d\ds"
    assert all(re.fullmatch(timing, line) for line in timed)
    assert not re.search(f"^{timing}$", captured.out, re.M)


def test_config_file_flow(tmp_path) -> None:
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("model = fbm\nhurst = 0.4\ngrid_n = 8\npaths = 1500\n")
    rc = run_cli(
        "simulate", "--config", str(cfg_file), "--out-dir", str(tmp_path),
    )
    assert rc == 0
    assert any("0.4" in p.name for p in tmp_path.iterdir())


ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    # a fresh interpreter on this checkout's package, at one BLAS thread
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ("adjointness", "--grid-n", "2"),
    ("mixed", "--grid-n", "2"),
    ("factorize", "--set", "functional=linear", "--set", "grid_sweep=2,4"),
    ("adjointness", "--grid-n", "1"),
])
def test_coarse_grid_is_one_stderr_line(argv, tmp_path) -> None:
    # pytest captures warnings, so only a fresh interpreter shows the stderr
    # a user sees: the config error alone, no off-grid warning before it
    proc = _python("-m", "roughcalc", *argv, "--paths", "1000",
                   "--out-dir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("roughcalc: config error: grid too coarse")
    assert proc.stderr.count("\n") == 1


def test_off_grid_snap_still_warns(tmp_path) -> None:
    proc = _python("-m", "roughcalc", "adjointness", "--grid-n", "6", "--paths", "1000",
                   "--out-dir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0
    # one line per warning, with neither the source location nor its echo
    warning, timing = proc.stderr.splitlines()
    assert warning.startswith("roughcalc: warning: time 0.25 is off-grid; snapped")
    assert timing.startswith("adjointness: ")


def test_off_grid_warning_reaches_an_in_process_recorder(tmp_path) -> None:
    # the one-line form only formats a warning that is printed: a caller
    # recording warnings still receives it, and the format is restored after
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning, match="time 0.25 is off-grid"):
        rc = run_cli("adjointness", "--grid-n", "6", "--paths", "1000",
                     "--out-dir", str(tmp_path))
    assert rc == 0
    assert warnings.formatwarning is formatwarning


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_clean(demo, tmp_path) -> None:
    proc = _python(str(ROOT / "demos" / demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert not any(tmp_path.iterdir())


def test_report_digest_configs_parse() -> None:
    digest = _load_tool("report_digest")
    parser = cli.build_parser()
    for argv in digest.CONFIGS:
        args = parser.parse_args([*argv, "--out-dir", "unused"])
        assert args.command == argv[0]
        cli._collect_config(args)  # every key and value is valid


CODE_LINES_SAMPLE = '''"""Module docstring,

over three lines."""

# a comment
import os  # trailing comment


def f(x):
    """Function docstring."""
    text = """two
    lines"""
    return (x,
            text)

class C:
    'Class docstring.'
    y = 1
'''


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys) -> None:
    tool = _load_tool("code_lines")
    (tmp_path / "mod.py").write_text(CODE_LINES_SAMPLE)
    for arg in (tmp_path / "mod.py", tmp_path):
        assert tool.main([str(arg)]) == 0
        assert capsys.readouterr().out == "8\n"
