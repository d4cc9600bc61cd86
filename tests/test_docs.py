import re
import shlex
from pathlib import Path

import pytest

from framevol.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs(capsys):
    # A rename or signature change in the public API must fail here, not in a reader's shell.
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.DOTALL)
    assert tour is not None, "README has no Library tour python block"
    exec(compile(tour.group(1), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5  # one line per print call


def readme_cli_lines() -> list[list[str]]:
    """The argument lists of the ``framevol ...`` lines in the README's CLI block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README has no CLI sh block"
    lines = block.group(1).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("framevol ")]


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_run(argv, tmp_path):
    # Each line writes its data into tmp_path, its own --out file name included.
    out = tmp_path / "data"
    if "--out" in argv:
        at = argv.index("--out")
        out = tmp_path / argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.stat().st_size > 0
