import json
import os
import subprocess
import sys
from math import sqrt
from pathlib import Path

import pytest

from framevol.cli import CSV_HEADER, main, run_identity_trials


def run_cli(args):
    """Invoke the CLI in process; returns the exit code (SystemExit unwrapped)."""
    try:
        return main(args)
    except SystemExit as exc:
        return int(exc.code)


def test_verify_passes_and_reports(capsys):
    code = run_cli(["verify", "--n", "5", "--k", "2", "--trials", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["pass"] is True
    assert doc["command"] == "verify"
    expected = {
        "tightness",
        "cross_tight",
        "unit_decomposition_l2",
        "unit_decomposition_lk",
        "volume_identity",
        "lagrange",
        "mcmullen",
        "hodge_defining",
        "cauchy_binet",
        "det_expansion_slope",
    }
    assert set(doc["identities"]) == expected
    assert all(entry["pass"] for entry in doc["identities"].values())


def test_verify_square_frame_skips_complement_identities(capsys):
    code = run_cli(["verify", "--n", "3", "--k", "3", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert set(doc["skipped"]) == {"lagrange", "mcmullen"}
    assert "skipped" in captured.err and "notice" in captured.err


def test_verify_usage_error_exit_code(capsys):
    assert run_cli(["verify", "--n", "2", "--k", "5"]) == 2
    assert run_cli(["verify", "--n", "20", "--k", "2"]) == 2


def test_verify_csv_format(capsys):
    code = run_cli(
        ["verify", "--n", "4", "--k", "2", "--trials", "2", "--format", "csv", "--quiet"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "identity,max_residual,tolerance,pass"
    assert all(line.endswith("true") for line in lines[1:])
    assert captured.err == ""


def test_maximize_writes_result_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run_cli(
        ["maximize", "--n", "3", "--k", "2", "--restarts", "4", "--seed", "1",
         "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["volume"] == pytest.approx(sqrt(3.0), abs=1e-6)
    assert doc["bound_binomial"] == pytest.approx(sqrt(3.0))
    assert doc["residual"] < 1e-8
    assert doc["frame"]["n"] == 3 and doc["frame"]["k"] == 2
    assert len(doc["restarts"]) == 4
    assert doc["ratio_check"]["pass"] is True
    assert "volume" in captured.err  # summary goes to the diagnostic stream


def test_maximize_echoes_ascent_config(capsys):
    code = run_cli(
        ["maximize", "--n", "3", "--k", "2", "--restarts", "2", "--seed", "5", "--quiet"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == {"tolerance": 1e-8, "restarts": 2, "seed": 5}


def test_maximize_csv_row(capsys):
    code = run_cli(
        ["maximize", "--n", "3", "--k", "2", "--restarts", "2", "--seed", "1",
         "--format", "csv", "--quiet"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "3" and cells[1] == "2" and cells[2] == "1"
    assert float(cells[3]) == pytest.approx(sqrt(3.0), abs=1e-6)


def test_maximize_output_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = run_cli(
            ["maximize", "--n", "4", "--k", "2", "--restarts", "3", "--seed", "9",
             "--quiet", "--out", str(path)]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_csv_contract(capsys):
    code = run_cli(
        ["sweep", "--q", "1", "--n-min", "3", "--n-max", "5", "--restarts", "3",
         "--seed", "1", "--format", "csv", "--quiet"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3
    for line, n in zip(lines[1:], (3, 4, 5)):
        cells = line.split(",")
        assert cells[0] == str(n) and cells[1] == str(n - 1)
        ratio = float(cells[7]) / float(cells[8])
        assert ratio == pytest.approx(1.0, abs=1e-5)


def test_sweep_usage_error():
    assert run_cli(["sweep", "--q", "3", "--n-min", "3", "--n-max", "5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q", "1", "--n-min", "3", "--n-max", "4", "--restarts", "0"],
        ["sweep", "--q", "1", "--n-min", "3", "--n-max", "4", "--tol", "nan"],
        ["maximize", "--n", "3", "--k", "2", "--restarts", "0"],
        ["maximize", "--n", "3", "--k", "2", "--tol", "-1"],
        ["maximize", "--n", "3", "--k", "2", "--tol", "nan"],
        ["maximize", "--n", "3", "--k", "2", "--tol", "inf"],
        ["verify", "--n", "3", "--k", "2", "--trials", "1", "--tol", "-1"],
        ["verify", "--n", "3", "--k", "2", "--trials", "1", "--tol", "nan"],
        ["verify", "--n", "3", "--k", "2", "--trials", "1", "--tol", "inf"],
        ["verify", "--n", "3", "--k", "2", "--trials", "1", "--seed", "-1"],
        ["maximize", "--n", "3", "--k", "2", "--restarts", "1", "--seed", "-1"],
        ["sweep", "--q", "1", "--n-min", "3", "--n-max", "4", "--seed", "-1"],
        ["bounds", "--n-min", "2", "--n-max", "4", "--k", "0"],
        ["bounds", "--n-min", "2", "--n-max", "4", "--k", "9"],
        ["bounds", "--n-min", "2", "--n-max", "4", "--seed", "1"],
        ["bounds", "--n", "3", "--n-min", "5", "--n-max", "4"],
        ["bounds", "--n", "3", "--n-min", "1", "--n-max", "10"],
    ],
)
def test_bad_option_values_are_usage_errors(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    # The subcommand's own parser reports every usage error, with its own usage line.
    assert err.startswith(f"usage: framevol {argv[0]} ")
    assert f"framevol {argv[0]}: error:" in err
    assert "Traceback" not in err


def test_bounds_single_pair(capsys):
    code = run_cli(["bounds", "--n", "3", "--k", "2", "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    row = doc["rows"][0]
    assert row["bound_binomial"] == pytest.approx(sqrt(3.0))
    assert row["bound_ball"] == pytest.approx(1.9098593171)


def test_bounds_range_csv(capsys):
    code = run_cli(
        ["bounds", "--n-min", "2", "--n-max", "4", "--format", "csv", "--quiet"]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "n,k,bound_binomial,bound_ball,ball_below_binomial"
    assert len(lines) == 1 + 2 + 3 + 4  # all k <= n per n


def test_bounds_usage_error():
    assert run_cli(["bounds"]) == 2


def test_unwritable_output_reports_io_error(tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "out.json"
    code = run_cli(["bounds", "--n", "3", "--quiet", "--out", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_identity_trials_library_entry():
    rows, skipped = run_identity_trials(4, 2, trials=2, seed=3)
    assert skipped == []
    assert all(row[3] for row in rows)
    assert {name: value for name, value, *_ in rows}["tightness"] < 1e-12


SMALL_RUNS = {
    "verify": ["verify", "--n", "4", "--k", "2", "--trials", "2"],
    "maximize": ["maximize", "--n", "3", "--k", "2", "--restarts", "2", "--seed", "1"],
    "sweep": ["sweep", "--q", "1", "--n-min", "3", "--n-max", "4", "--restarts", "1"],
    "bounds": ["bounds", "--n-min", "2", "--n-max", "4"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_out_file_holds_the_stdout_bytes(command, fmt, tmp_path, capsys):
    argv = [*SMALL_RUNS[command], "--format", fmt, "--quiet"]
    code = run_cli(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "data"
    assert run_cli([*argv, "--out", str(out)]) == code == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


def _cell(value) -> str:
    """The CSV cell of a JSON value: its JSON spelling, strings unquoted."""
    return value if isinstance(value, str) else json.dumps(value)


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_csv_table_carries_the_json_values(command, capsys):
    argv = [*SMALL_RUNS[command], "--quiet"]
    assert run_cli(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert run_cli([*argv, "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    columns = header.split(",")
    table = [line.split(",") for line in lines]
    if command == "verify":
        identities = doc["identities"]
        assert list(identities) == sorted(identities)
        assert table == [
            [name, *map(_cell, entry.values())] for name, entry in identities.items()
        ]
    elif command == "bounds":
        assert all(list(row) == columns for row in doc["rows"])
        assert table == [[_cell(value) for value in row.values()] for row in doc["rows"]]
    else:
        runs = [doc] if command == "maximize" else doc["rows"]
        assert len(table) == len(runs)
        for cells, run in zip(table, runs):
            assert cells[columns.index("volume")] == repr(run["volume"])
            assert cells[columns.index("residual")] == repr(run["residual"])


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "framevol", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def test_module_entry_point_writes_what_main_writes(capsys):
    argv = ["bounds", "--n", "3", "--k", "2", "--quiet"]
    proc = _run_module(*argv)
    assert proc.returncode == 0
    assert run_cli(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_module_entry_point_reports_usage_errors():
    proc = _run_module("verify", "--n", "2", "--k", "5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: framevol verify")
    assert "Traceback" not in proc.stderr
