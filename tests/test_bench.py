"""Smoke test of bench/run.py on one small shape, one repeat and no interpreter rows."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SHAPES", ((6, 3),))
    monkeypatch.setattr(module, "KERNEL_SHAPES", ((6, 3),))
    monkeypatch.setattr(module, "HODGE_SHAPES", (6,))
    monkeypatch.setattr(module, "REPEATS", 1)
    monkeypatch.setattr(module, "CLI_ROWS", {})
    for var in module.BLAS_VARS:  # main() sets missing caps; keep them out of this process
        monkeypatch.setenv(var, "1")
    return module


def test_bench_writes_its_schema(bench, tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    assert bench.main(["--label", "smoke", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["label"] == "smoke"
    assert doc["repeats"] == 1
    machine = doc["machine"]
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    assert machine["cpu"] and machine["python"] and machine["numpy"]
    assert machine["blas_threads"] == dict.fromkeys(bench.BLAS_VARS, "1")
    functions = [
        "verify_cross_tight", "unit_decomposition_residual(2)", "unit_decomposition_residual(k)",
        "volume_identity_residual(1)", "volume_identity_residual(2)", "lagrange_residual",
        "mcmullen_check", "determinant_expansion_check",
    ]
    functions += ["_minors", "_minors, 7 frames", "compound_matrix(V, k-1)"]
    expected = [f"{name} at (6,3)" for name in functions]
    expected += ["hodge_defining_residual(6)", "run_identity_trials(8,4,60)"]
    assert list(doc["rows"]) == expected
    for row in doc["rows"].values():
        assert set(row) == {"median_s", "q1_s", "q3_s", "loops"}
        assert 0.0 < row["q1_s"] <= row["median_s"] <= row["q3_s"]
        assert row["loops"] >= 1

    lines = bench.compare(doc, doc)
    assert len(lines) == 1 + len(expected)
    assert all(line.split()[-1] == "1.000" for line in lines[1:])

    old = {"rows": {"dropped row": {"median_s": 2.0}, **doc["rows"]}}
    lines = bench.compare(doc, old)
    assert len(lines) == 2 + len(expected)
    assert lines[-1].split() == ["dropped", "row", "2.000e+00", "-", "-"]


@pytest.mark.parametrize("content", [None, "not json"], ids=["missing", "unparsable"])
def test_bench_rejects_a_bad_compare_file_before_measuring(bench, tmp_path, capsys, content):
    out, old = tmp_path / "BENCH_smoke.json", tmp_path / "BENCH_old.json"
    if content is not None:
        old.write_text(content, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        bench.main(["--label", "smoke", "--out", str(out), "--compare", str(old)])
    assert exc.value.code == 2
    assert "cannot read --compare file" in capsys.readouterr().err
    assert not out.exists()
