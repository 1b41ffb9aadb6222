"""``scripts/compare_outputs.py --drift`` must fail two output trees that
drift beyond the benchmark gate's bound, and pass drift below it."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.fixture
def compare(monkeypatch):
    # the script imports run_full_suite from its own directory
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", SCRIPTS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, value: float) -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "functionals.csv").write_text(f"t,U\n0.0,{value!r}\n1.0,2.0\n")
    (root / "run" / "report.json").write_text('{"status": "completed", "gamma": 1.5}')
    return root


@pytest.mark.parametrize("value, code", [
    (1.0, 0), (1.0 + 1e-12, 0), (1.0 + 1e-8, 1),
], ids=["identical", "drift_1e-12", "drift_1e-8"])
def test_drift_exits_1_only_beyond_the_gate_bound(compare, tmp_path, capsys, value, code):
    a, b = _tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", value)
    assert compare.drift(str(a), str(b)) == code
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.endswith(f"drift bound {compare.DRIFT_BOUND:.3g}")
    assert compare.DRIFT_BOUND == 1e-10


def test_drift_exits_1_on_a_missing_file(compare, tmp_path, capsys):
    a, b = _tree(tmp_path / "a", 1.0), _tree(tmp_path / "b", 1.0)
    (b / "run" / "report.json").unlink()
    assert compare.drift(str(a), str(b)) == 1
    assert "run/report.json: missing in" in capsys.readouterr().out
