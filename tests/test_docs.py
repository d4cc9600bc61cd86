import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs(capsys):
    # A rename or signature change in the public API must fail here, not in a reader's shell.
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.DOTALL)
    assert tour is not None, "README has no Library tour python block"
    exec(compile(tour.group(1), str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 5  # one line per print call
