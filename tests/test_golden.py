"""Golden CLI documents: the stdout bytes and exit code of fixed runs.

``tests/golden/exits.json`` maps each run of ``RUNS`` to its exit code and
``tests/golden/<name>.out`` holds the bytes it writes to stdout.  A change
that alters these outputs on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden/`` then shows exactly what changed.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from framevol.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = {
    "verify_6_3": ["verify", "--n", "6", "--k", "3", "--trials", "50", "--seed", "1"],
    "verify_5_5_csv": ["verify", "--n", "5", "--k", "5", "--trials", "3", "--format", "csv"],
    "verify_6_3_violation": ["verify", "--n", "6", "--k", "3", "--trials", "5", "--tol", "1e-17"],
    "verify_14_2": ["verify", "--n", "14", "--k", "2", "--trials", "3"],
    "maximize_3_2": ["maximize", "--n", "3", "--k", "2", "--restarts", "20", "--seed", "1"],
    "maximize_3_2_csv": [
        "maximize", "--n", "3", "--k", "2", "--restarts", "20", "--seed", "1", "--format", "csv",
    ],
    "maximize_10_5": ["maximize", "--n", "10", "--k", "5", "--restarts", "2", "--seed", "3"],
    "sweep_1_3_8": ["sweep", "--q", "1", "--n-min", "3", "--n-max", "8"],
    "bounds_2_10": ["bounds", "--n-min", "2", "--n-max", "10"],
}


def run(argv: list[str]) -> tuple[str, int]:
    """The stdout text and exit code of one in-process CLI run."""
    with redirect_stdout(io.StringIO()) as out:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = int(exc.code)
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name):
    out, code = run(RUNS[name])
    assert code == json.loads((GOLDEN / "exits.json").read_text(encoding="utf-8"))[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name, argv in RUNS.items():
        out, exits[name] = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
    (GOLDEN / "exits.json").write_text(json.dumps(exits, indent=2) + "\n", encoding="utf-8")
