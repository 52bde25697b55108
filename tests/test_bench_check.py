"""The benchmark's output oracles run against the current source.

``bench/check.py`` recomputes ``evaluate`` and ``sweep`` outputs through
library functions (``ap_function``, ``resample_curve``, ``CurvePoint``,
``evaluate_detector``, ``read_sweep_csv``, ``rankings_report``,
``cli.build_parser``), and ``bench/run.py`` reports ``worker_count()``. A
change to any of them would otherwise surface only when the benchmark runs.
"""

import importlib.util
import re
import sys
from pathlib import Path

from criteval import metrics
from criteval.cli import main

ROOT = Path(__file__).resolve().parents[1]
CHECK = ROOT / "bench" / "check.py"


def test_benchmark_oracles_accept_the_readme_walkthrough(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("bench_check", CHECK)
    check = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, check)
    spec.loader.exec_module(check)

    readme = (ROOT / "README.md").read_text()
    scenario = re.search(r"cat > spec\.json <<'EOF'\n(.*?)\nEOF\n", readme, flags=re.DOTALL)
    assert scenario is not None
    (tmp_path / "spec.json").write_text(scenario.group(1) + "\n")
    data = tmp_path / "data"
    assert main(["generate", "--spec", str(tmp_path / "spec.json"), "--out", str(data)]) == 0

    evaluate_out = tmp_path / "evaluate"
    evaluate = ["evaluate", "--gt", str(data / "gt.json"), "--pred", str(data / "sharp.json"),
                "--class", "car", "--dist-limits", "0.5,1,2,4", "--dmax", "20", "--rmax", "20",
                "--tmax", "8", "--ap-style", "paper", "--out", str(evaluate_out)]
    assert main(evaluate) == 0
    sweep_out = tmp_path / "sweep"
    sweep = ["sweep", "--gt", str(data / "gt.json"), "--pred", f"sharp={data / 'sharp.json'}",
             "--pred", f"blurry={data / 'blurry.json'}", "--grid", "default",
             "--out", str(sweep_out)]
    assert main(sweep) == 0
    capsys.readouterr()

    assert check.oracle_evaluate(evaluate, evaluate_out, 3) == []
    assert check.oracle_sweep(sweep, sweep_out, 3, 5) == []
    assert metrics.worker_count() >= 1
