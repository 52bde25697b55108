"""End-to-end command-line behavior."""

import ast
import gc
import hashlib
import json
import math
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criteval import cli, criticality, matching, metrics, model, sweep, synthgen
from criteval.cli import main
from criteval.criticality import CriticalityConfig
from criteval.matching import distance_limits_default
from criteval.model import dataset_to_dict, detections_to_dict, dump_json
from criteval.synthgen import gen_dataset

from helpers import (
    curve_csv_oracle,
    curve_csv_template,
    divergence_scenario,
    make_ego,
    make_frame,
    make_state,
    perfect_detections,
    random_scenario_spec,
    report_json_oracle,
    sweep_dataset_and_detectors,
)
from test_acceptance import RANKINGS_SHA256, SWEEP_CSV_SHA256

DATA = Path(__file__).parent / "data"
CFG = CriticalityConfig(20.0, 20.0, 8.0)


@pytest.fixture()
def synthetic_inputs(tmp_path):
    dataset = gen_dataset(random_scenario_spec(seed=3, n_frames=4))
    gt = tmp_path / "gt.json"
    pred = tmp_path / "pred.json"
    dump_json(dataset_to_dict(dataset), gt)
    dump_json(detections_to_dict(perfect_detections(dataset, 1.0)), pred)
    return gt, pred


def test_evaluate_perfect_detector(synthetic_inputs, tmp_path, capsys):
    gt, pred = synthetic_inputs
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--gt", str(gt), "--pred", str(pred),
         "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "1.000000    1.000000" in stdout
    report = json.loads((out / "report.json").read_text())
    assert all(res["ap"] == 1.0 and res["ap_crit"] == 1.0 for res in report["results"])
    assert (out / "curve_car_l0.5.csv").exists()
    assert (out / "curve_car_l4.csv").exists()


def test_evaluate_empty_detections_is_zero_ap(synthetic_inputs, tmp_path, capsys):
    gt, _ = synthetic_inputs
    pred = tmp_path / "empty.json"
    pred.write_text('{"results": {}}')
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--gt", str(gt), "--pred", str(pred),
         "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert all(res["ap"] == 0.0 and res["ap_crit"] == 0.0 for res in report["results"])


def test_evaluate_byte_identical_reruns(synthetic_inputs, tmp_path):
    gt, pred = synthetic_inputs
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["evaluate", "--gt", str(gt), "--pred", str(pred),
             "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(out)]
        ) == 0
        outputs.append(
            ((out / "report.json").read_bytes(), (out / "curve_car_l1.csv").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_evaluate_writes_negative_zero_and_one_confidences_as_the_oracles_do(synthetic_inputs,
                                                                             tmp_path):
    """A results file may hold a confidence of -0.0: its CSV text is -0.000000, so those
    curve rows take the % template, while rows of values in [+0.0, 1.0] take digits."""
    gt, pred = synthetic_inputs
    data = json.loads(pred.read_text())
    confidences = [1.0, -0.0, 0.5, -0.0, 0.25]
    entries = [entry for frame in data["results"].values() for entry in frame]
    for i, entry in enumerate(entries):
        entry["confidence"] = confidences[i % len(confidences)]
    pred.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                 "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(out)]) == 0
    report = metrics.evaluate_detector(model.load_ground_truth(gt), model.load_detections(pred),
                                       "car", distance_limits_default(), CFG)
    assert (out / "report.json").read_bytes() == report_json_oracle(report)
    for res in report.results:
        text = (out / f"curve_car_l{res.distance_limit:g}.csv").read_bytes()
        assert text == curve_csv_template(res.arrays) == curve_csv_oracle(res.curve)
        assert b"\r\n1.000000," in text
        assert text.endswith(b"\r\n-0.000000,1.000000,1.000000,1.000000,1.000000\r\n")


def test_evaluate_builds_no_per_point_objects(synthetic_inputs, tmp_path, monkeypatch):
    """The CLI streams curves from the kernel arrays: no CurvePoint, no curve dicts, and no
    curve data through ``json``."""
    def forbidden(*args, **kwargs):
        raise AssertionError("per-point work on the evaluate path")

    dumps = json.dumps

    def curveless_dumps(obj, *args, **kwargs):
        for res in obj.get("results", []) if isinstance(obj, dict) else []:
            assert res["curve"] is None, "curve data through json.dumps"
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(metrics, "CurvePoint", forbidden)
    monkeypatch.setattr(metrics.EvaluationReport, "to_dict", forbidden)
    monkeypatch.setattr(json, "dump", forbidden)
    monkeypatch.setattr(json, "dumps", curveless_dumps)
    gt, pred = synthetic_inputs
    out = tmp_path / "out"
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred),
                 "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["results"][0]["curve"]


def test_evaluate_and_sweep_build_no_detection_objects(synthetic_inputs, tmp_path, monkeypatch):
    """Detections stay columns from the results file to the outputs.

    The ground truth is loaded first: it keeps its objects.
    """
    gt, pred = synthetic_inputs
    dataset = model.load_ground_truth(gt)
    monkeypatch.setattr(model, "load_ground_truth", lambda path: dataset)

    def forbidden(*args, **kwargs):
        raise AssertionError("a detection object on the evaluation path")

    monkeypatch.setattr(model, "Detection", forbidden)
    monkeypatch.setattr(model, "ObjectState", forbidden)
    inputs = ["--gt", str(gt), "--pred", str(pred)]
    assert main(["evaluate", *inputs, "--dmax", "20", "--rmax", "20", "--tmax", "8",
                 "--out", str(tmp_path / "evaluate")]) == 0
    assert main(["sweep", *inputs, "--out", str(tmp_path / "sweep")]) == 0
    assert (tmp_path / "evaluate" / "report.json").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_evaluate_missing_file_exits_one(tmp_path, capsys):
    code = main(
        ["evaluate", "--gt", str(tmp_path / "nope.json"), "--pred", str(tmp_path / "x.json"),
         "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "which, content, message",
    [
        ("pred", '{"results": {"f0": [{"class": "car", "center": [0, 0], "velocity": null,'
                 ' "size": [2, 4], "yaw": 0.0, "confidence": 1.7}]}}', "confidence"),
        ("gt", '{"frames": [], "meta": [1, 2]}', "error: $.meta: expected an object, got [1, 2]\n"),
        ("gt", '{"frames": [], "meta": null}', "error: $.meta: expected an object, got None\n"),
        ("gt", '{"frames": [], "meta": "ab"}', "error: $.meta: expected an object, got 'ab'\n"),
        ("gt", '{"frames": {}}', "error: $.frames: expected a list\n"),
    ],
)
def test_evaluate_schema_error_exits_one(synthetic_inputs, tmp_path, capsys, which, content,
                                         message):
    gt, pred = synthetic_inputs
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    inputs = {"gt": gt, "pred": pred, which: bad}
    out = tmp_path / "o"
    code = main(
        ["evaluate", "--gt", str(inputs["gt"]), "--pred", str(inputs["pred"]),
         "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(out)]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_warns_on_unknown_frames(synthetic_inputs, tmp_path, capsys):
    gt, _ = synthetic_inputs
    pred = tmp_path / "ghost.json"
    pred.write_text(
        '{"results": {"ghost": [{"class": "car", "center": [0, 0], "velocity": null,'
        ' "size": [2, 4], "yaw": 0.0, "confidence": 0.5}]}}'
    )
    code = main(
        ["evaluate", "--gt", str(gt), "--pred", str(pred),
         "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert "ghost" in capsys.readouterr().err


def test_sweep_rank_round_trip(synthetic_inputs, tmp_path, capsys):
    gt, pred = synthetic_inputs
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10, 20], "r_values": [20], "t_values": [4, 8]}')
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--gt", str(gt), "--pred", f"ideal={pred}", "--pred", f"copy={pred}",
         "--grid", str(grid), "--dist-limits", "1,2", "--out", str(out)]
    )
    assert code == 0
    assert (out / "sweep.csv").exists()
    rankings = json.loads((out / "rankings.json").read_text())
    assert len(rankings["per_config"]) == 4 * 2  # configs x limits
    capsys.readouterr()

    code = main(
        ["rank", "--table", str(out / "sweep.csv"), "--metric", "ap_crit",
         "--l", "1", "--config", "20,20,8"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "1. copy" in stdout and "2. ideal" in stdout  # tie broken by name


def _run_under_ascii_locale(*args: str) -> subprocess.CompletedProcess:
    """``criteval *args`` in a child process whose locale, and so argv and stdout, is ASCII."""
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": str(Path(model.__file__).parents[1])}
    cli = [sys.executable, "-c", "import sys; from criteval.cli import main; sys.exit(main(sys.argv[1:]))"]
    return subprocess.run([*cli, *args], env=env, capture_output=True, text=True)


def _in_fresh_interpreter(code: str, **env: str) -> subprocess.CompletedProcess:
    """``code`` run by a new Python process that imports criteval from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(model.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_none_of_the_deferred_modules():
    """``render`` defers ``xml.sax.saxutils``, which imports ``urllib.request``, and ``_fan_out``
    defers ``select``, ``signal`` and ``traceback``: at the top they would slow every command.
    The package root, the CLI module and argument parsing load no numpy and no module that
    imports it; a command imports those as it starts."""
    deferred = ("xml.sax.saxutils", "urllib.request", "select", "signal", "traceback", "numpy",
                "criteval.metrics", "criteval.model", "criteval.sweep", "criteval.synthgen")
    parse = ("import contextlib, io\nfrom criteval.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
             "    try:\n        main({argv!r})\n    except SystemExit as exc:\n        status = exc.code\n"
             "print(status)\n")
    cases = {
        "import criteval": "",
        "import criteval.cli": "",
        "from criteval import CriticalityConfig, criticality_components": "",
        **{parse.format(argv=[cmd, "--help"]): "0\n"
           for cmd in ("evaluate", "sweep", "rank", "generate", "birdview")},
        parse.format(argv=["--help"]): "0\n",
        parse.format(argv=["sweep", "--gt", "gt.json"]): "2\n",  # a usage error: no --pred, --out
    }
    for code, printed in cases.items():
        done = _in_fresh_interpreter(
            code + f"\nimport sys; print([m for m in {deferred!r} if m in sys.modules])")
        assert (done.returncode, done.stdout, done.stderr) == (0, printed + "[]\n", ""), code


def test_only_model_imports_json():
    """``model.dump_json`` alone turns values into JSON text, and ``model.read_json`` alone parses
    it: no other module of the package imports ``json``, so no writer builds text of its own."""
    importers = set()
    for path in Path(model.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "json" for name in names):
                importers.add(path.name)
    assert importers == {"model.py"}
    assert not hasattr(metrics, "_reprs")


@pytest.mark.parametrize("command", ["criteval", "evaluate", "sweep", "rank", "generate", "birdview"])
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    """The help of each parser, as the parser read it when ``metrics`` defined its defaults:
    the ``--ap-style`` and ``--weight`` choices and the ``--max-range`` and ``--dist-limits``
    defaults among them."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command == "criteval" else [command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (DATA / "cli_help" / f"{command}.txt").read_text()


def test_the_parsers_defaults_have_one_definition():
    """``metrics`` takes the parser's AP styles and range from their numpy-free home."""
    assert metrics.AP_STYLES is matching.AP_STYLES == ("paper", "devkit")
    assert metrics.DEFAULT_EVAL_RANGE is matching.DEFAULT_EVAL_RANGE == 50.0
    assert (cli.AP_STYLES, cli.DEFAULT_EVAL_RANGE) == (matching.AP_STYLES, matching.DEFAULT_EVAL_RANGE)


def test_package_root_resolves_and_lists_its_names():
    import criteval

    homes = [criticality, criticality, metrics, model, model]
    assert [getattr(criteval, name) for name in criteval.__all__] == [
        getattr(home, name) for home, name in zip(homes, criteval.__all__)]
    with pytest.raises(AttributeError, match="^module 'criteval' has no attribute 'nothing'$"):
        criteval.nothing
    # The submodules that an eager root used to load stay attributes of a bare ``import criteval``.
    done = _in_fresh_interpreter("import criteval\nprint(criteval.matching.__name__, "
                                 "criteval.metrics.evaluate_detector is criteval.evaluate_detector, "
                                 "criteval.model.__name__, hasattr(criteval, 'sweep'))")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "criteval.matching True criteval.model False\n", "")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_commands_load_numpy_without_blas_threads(synthetic_inputs, tmp_path, monkeypatch):
    """criteval makes no BLAS call, so ``main`` keeps OpenBLAS to the calling thread and then puts
    the environment back; a value the user set is kept, and a caller that has loaded numpy
    already is left as it is."""
    gt, pred = synthetic_inputs
    argv = ["evaluate", "--gt", str(gt), "--pred", str(pred), "--dmax", "20", "--rmax", "20",
            "--tmax", "8", "--out", str(tmp_path / "out")]
    code = ("import contextlib, io, os\nfrom criteval.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
            "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    done = _in_fresh_interpreter(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 None 1\n", "")
    done = _in_fresh_interpreter(code, OPENBLAS_NUM_THREADS="2")
    assert (done.returncode, done.stdout.split()[:2], done.stderr) == (0, ["0", "2"], "")
    assert main(argv) == 0  # in this process numpy is loaded already
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_sweep_writes_utf8_under_an_ascii_locale(synthetic_inputs, tmp_path):
    """``sweep.csv`` is UTF-8 whatever the locale, as ``read_sweep_csv`` reads it."""
    gt, pred = synthetic_inputs
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10], "r_values": [20], "t_values": [8]}')
    done = _run_under_ascii_locale("sweep", "--gt", str(gt), "--pred", f"\u8eca={pred}",
                                   "--grid", str(grid), "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert {row.detector for row in sweep.read_sweep_csv(tmp_path / "out" / "sweep.csv")} == {"\u8eca"}


def test_non_ascii_names_and_paths_under_an_ascii_locale(synthetic_inputs, tmp_path):
    """Detector names and ``--frame`` are the UTF-8 text of the bytes typed; paths open as typed."""
    gt, pred = synthetic_inputs
    other = tmp_path / "\u4e59.json"  # a non-ASCII path, whose stem names the detector
    other.write_bytes(pred.read_bytes())
    data = json.loads(gt.read_text())
    data["frames"][0]["frame_id"] = "\u8eca000"
    (tmp_path / "\u8eca_gt.json").write_text(json.dumps(data))
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10], "r_values": [20], "t_values": [8]}')
    run = _run_under_ascii_locale
    out = tmp_path / "out"
    done = run("sweep", "--gt", str(gt), "--pred", f"\u8eca={pred}", "--pred", str(other),
               "--grid", str(grid), "--dist-limits", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert {row.detector for row in sweep.read_sweep_csv(out / "sweep.csv")} == {"\u8eca", "\u4e59"}
    (entry,) = json.loads((out / "rankings.json").read_text(encoding="utf-8"))["per_config"]
    assert sorted(entry["order_ap"]) == ["\u4e59", "\u8eca"]
    done = run("rank", "--table", str(out / "sweep.csv"), "--metric", "ap")
    assert done.returncode == 0, done.stderr
    assert "1. \\u4e59  1.000000" in done.stdout and "2. \\u8eca  1.000000" in done.stdout
    done = run("birdview", "--gt", str(tmp_path / "\u8eca_gt.json"), "--frame", "\u8eca000",
               "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(tmp_path / "f.svg"))
    assert done.returncode == 0, done.stderr
    assert "\u8eca000" in (tmp_path / "f.svg").read_text(encoding="utf-8")


def test_non_ascii_class_under_an_ascii_locale(synthetic_inputs, tmp_path):
    """``--class`` is the UTF-8 text of the bytes typed; its curve files are named by those bytes."""
    gt, pred = synthetic_inputs
    for path in (gt, pred):
        path.write_text(path.read_text().replace('"class": "car"', '"class": "\\u8eca"'))
    out = tmp_path / "out"
    done = _run_under_ascii_locale("evaluate", "--gt", str(gt), "--pred", str(pred), *_CAPS,
                                   "--class", "\u8eca", "--dist-limits", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads((out / "report.json").read_text())["class"] == "\u8eca"
    assert (out / "curve_\u8eca_l1.csv").is_file()
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10], "r_values": [20], "t_values": [8]}')
    done = _run_under_ascii_locale("sweep", "--gt", str(gt), "--pred", f"a={pred}", "--grid",
                                   str(grid), "--class", "\u8eca", "--out", str(tmp_path / "sw"))
    assert done.returncode == 0, done.stderr
    rows = sweep.read_sweep_csv(tmp_path / "sw" / "sweep.csv")
    assert {row.class_name for row in rows} == {"\u8eca"}


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize(
    "limits, message",
    [
        ("1,1", "got 1.0, 1.0"),
        ("2,1,2.0", "got 2.0, 1.0, 2.0"),
        (",", "got none"),
        ("1,0", "got 1.0, 0.0"),
        ("-1", "got -1.0"),
        ("nan", "got nan"),
    ],
)
def test_bad_distance_limits_exit_one_and_write_nothing(synthetic_inputs, tmp_path, capsys,
                                                        command, limits, message):
    gt, pred = synthetic_inputs
    out = tmp_path / "out"
    args = (["--dmax", "20", "--rmax", "20", "--tmax", "8"] if command == "evaluate"
            else ["--grid", "default"])
    code = main([command, "--gt", str(gt), "--pred", str(pred), *args,
                 f"--dist-limits={limits}", "--out", str(out)])
    assert code == 1
    assert f"error: distance limits must be nonempty, positive and distinct, {message}\n" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--dist-limits", "1,inf", "distance limits must be finite, got 1.0, inf"),
        ("--dist-limits", "1e400", "distance limits must be finite, got inf"),
        ("--max-range", "inf", "max_range must be positive and finite, got inf"),
        ("--max-range", "1e400", "max_range must be positive and finite, got inf"),
        ("--max-range", "nan", "max_range must be positive and finite, got nan"),
        ("--class", "", "class_name must be nonempty"),
    ],
)
@pytest.mark.parametrize("frames", ["all", "none"])
def test_nonfinite_limit_or_range_exits_one_and_writes_nothing(
        synthetic_inputs, tmp_path, capsys, command, option, value, message, frames):
    gt, pred = synthetic_inputs
    if frames == "none":
        gt.write_text('{"frames": []}')
    out = tmp_path / "out"
    args = (["--dmax", "20", "--rmax", "20", "--tmax", "8"] if command == "evaluate"
            else ["--grid", "default"])
    code = main([command, "--gt", str(gt), "--pred", str(pred), *args,
                 f"{option}={value}", "--out", str(out)])
    assert code == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("center", ["1.5", True], "center[0]: expected a number, got '1.5'"),
        ("size", [2, " 4 "], "size[1]: expected a number, got ' 4 '"),
        ("yaw", "0", "yaw: expected a number, got '0'"),
        ("confidence", "0.5", "confidence: expected a number, got '0.5'"),
        ("velocity", ["nan", 1], "velocity[0]: expected a number, got 'nan'"),
        ("class", None, "class: expected a nonempty string, got None"),
    ],
)
def test_string_or_boolean_number_exits_one(synthetic_inputs, tmp_path, capsys,
                                            command, field, value, message):
    gt, _ = synthetic_inputs
    entry = {"class": "car", "center": [0, 0], "velocity": None, "size": [2, 4], "yaw": 0.0,
             "confidence": 0.5, field: value}
    pred = tmp_path / "bad.json"
    pred.write_text(json.dumps({"results": {"f0": [entry]}}))
    args = (["--dmax", "20", "--rmax", "20", "--tmax", "8"] if command == "evaluate"
            else ["--grid", "default"])
    out = tmp_path / "out"
    code = main([command, "--gt", str(gt), "--pred", str(pred), *args, "--out", str(out)])
    assert code == 1
    label = "detector 'bad': " if command == "sweep" else ""  # a sweep names the results file
    assert capsys.readouterr().err == f"error: {label}$.results['f0'][0].{message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ('{"d_values": [10], "t_values": [4]}', "$: missing required field 'r_values'"),
        ('{"d_values": [10], "r_values": 20, "t_values": [4]}', "$.r_values: expected a list"),
        ('{"d_values": [10], "r_values": [20, "x"], "t_values": [4]}', "$.r_values[1]: expected a number"),
        ('{"d_values": [10], "r_values": [20, NaN], "t_values": [4]}', "$.r_values[1]: expected a finite"),
        ('{"d_values": [10, 5], "r_values": [20], "t_values": [4]}',
         "$.d_values[1]: expected a finite value greater than 10.0, got 5.0"),
        ('{"d_values": [], "r_values": [20], "t_values": [4]}',
         "$.d_values: expected a nonempty list of values"),
        ('{"d_values": [-5], "r_values": [20], "t_values": [4]}',
         "$.d_values[0]: expected a finite value greater than 0.0, got -5.0"),
        ('{"d_values": [10], "r_values": [5, 5], "t_values": [4]}',
         "$.r_values[1]: expected a finite value greater than 5.0, got 5.0"),
    ],
)
def test_sweep_bad_grid_exits_one_naming_the_field(synthetic_inputs, tmp_path, capsys, grid, message):
    gt, pred = synthetic_inputs
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid)
    code = main(["sweep", "--gt", str(gt), "--pred", str(pred), "--grid", str(grid_path),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "column, cell",
    [("ap", "nan"), ("ap", "zz"), ("ap_crit", "inf"), ("t_max", ""), ("l", "-inf")],
)
def test_rank_rejects_nonfinite_or_unparsable_cells(tmp_path, capsys, column, cell):
    header = "detector,class,l,d_max,r_max,t_max,ap,ap_crit"
    good = dict(zip(header.split(","), "a,car,1.0,20.0,20.0,8.0,0.5,0.4".split(",")))
    bad = dict(good, detector="b", **{column: cell})
    table = tmp_path / "sweep.csv"
    table.write_text("\n".join([header, ",".join(good.values()), ",".join(bad.values())]) + "\n")
    code = main(["rank", "--table", str(table), "--metric", "ap"])
    assert code == 1
    assert f"{table}:line 3: column '{column}'" in capsys.readouterr().err


_SPEC = {
    "n_frames": 3,
    "ego": {"start": [0, 0], "velocity": [0, 3]},
    "objects": [{"start": [10, 5], "velocity": [-2, 0]}],
}


@pytest.mark.parametrize(
    "nested, drop, message",
    [
        (True, ("n_frames",), "$.scenario: missing required field 'n_frames'"),
        (True, ("ego", "start"), "$.scenario.ego: missing required field 'start'"),
        (True, ("ego", "velocity"), "$.scenario.ego: missing required field 'velocity'"),
        (True, ("objects", 0, "start"), "$.scenario.objects[0]: missing required field 'start'"),
        (False, ("objects", 0, "start"), "$.objects[0]: missing required field 'start'"),
    ],
)
def test_generate_spec_missing_field_exits_one(tmp_path, capsys, nested, drop, message):
    scenario = json.loads(json.dumps(_SPEC))
    parent = scenario
    for key in drop[:-1]:
        parent = parent[key]
    del parent[drop[-1]]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": scenario} if nested else scenario))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "g")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "detectors, message",
    [
        ({"x": {"center_noise_sigma": None}}, "$.detectors.x.center_noise_sigma: expected a number"),
        ({"x": {"center_noise_sigma": -0.5}}, "$.detectors.x.center_noise_sigma: expected a number in [0, inf]"),
        ({"x": {"miss_prob_by_distance": 1.5}}, "$.detectors.x.miss_prob_by_distance: expected a number in [0, 1]"),
        ({"x": {"miss_prob_by_distance": [[10]]}}, "$.detectors.x.miss_prob_by_distance[0]: expected [distance_limit, prob]"),
        ({"x": {"miss_prob_by_distance": [[10, 0.1], [20, "p"]]}}, "$.detectors.x.miss_prob_by_distance[1][1]: expected a number"),
        ({"x": {"miss_prob_by_distance": [[50, 0.5], [25, 0.05]]}}, "$.detectors.x.miss_prob_by_distance[1][0]: expected a value greater than 50.0, got 25.0"),
        ({"x": {"miss_prob_by_distance": [[25, 0.5], [25, 0.05]]}}, "$.detectors.x.miss_prob_by_distance[1][0]: expected a value greater than 25.0, got 25.0"),
        ({"x": {"confidence_model": {"true": {"mean": 0.8, "std": 0.1}}}}, "$.detectors.x.confidence_model: missing required field 'false'"),
        ({"x": {"fp_radius": -20}}, "$.detectors.x.fp_radius: expected a number in [0, inf], got -20.0"),
        ({"x": {"confidence_model": {"true": {"mean": 0.8, "std": -0.1}, "false": {"mean": 0.3, "std": 0.1}}}},
         "$.detectors.x.confidence_model.true.std: expected a number in [0, inf], got -0.1"),
        ({"x": {"confidence_model": {"true": {"mean": 0.8, "std": 0.1}, "false": {"mean": 5, "std": 0.1}}}},
         "$.detectors.x.confidence_model.false.mean: expected a number in [0, 1], got 5.0"),
        ({"x": {"miss_prob_by_distance": [[-5, 0.9]]}}, "$.detectors.x.miss_prob_by_distance[0][0]: expected a number in [0, inf], got -5.0"),
        ({"x": 3}, "$.detectors.x: expected an object"),
        (["x"], "$.detectors: expected an object"),
    ],
)
def test_generate_bad_detector_spec_exits_one(tmp_path, capsys, detectors, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": _SPEC, "detectors": detectors}))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "g")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        (("objects", 0, "size"), 3, "$.scenario.objects[0].size: expected [width, length]"),
        (("objects", 0, "size"), [2, "w"], "$.scenario.objects[0].size[1]: expected a number"),
        (("objects", 0, "size"), [0, 4], "$.scenario.objects[0].size: size components must be positive"),
        (("seed",), "x", "$.scenario.seed: expected an integer, got 'x'"),
        (("seed",), None, "$.scenario.seed: expected an integer, got None"),
        (("objects", 0, "class"), 5, "$.scenario.objects[0].class: expected a nonempty string, got 5"),
        (("objects", 0, "class"), "", "$.scenario.objects[0].class: expected a nonempty string, got ''"),
        (("objects",), 5, "$.scenario.objects: expected a list"),
        (("objects", 0), 5, "$.scenario.objects[0]: expected an object"),
        (("objects", 0, "id"), 5, "$.scenario.objects[0].id: expected a nonempty string, got 5"),
        (("objects", 0, "id"), "", "$.scenario.objects[0].id: expected a nonempty string, got ''"),
        (("objects",), [{"start": [10, 5], "id": "a"}, {"start": [20, 5], "id": "a"}],
         "$.scenario.objects[1].id: duplicate object id 'a'"),
        # An object without an id is written as obj<index>.
        (("objects",), [{"start": [10, 5], "id": "obj001"}, {"start": [20, 5]}],
         "$.scenario.objects[1].id: duplicate object id 'obj001'"),
        (("seed",), "7", "$.scenario.seed: expected an integer, got '7'"),
        (("seed",), 1.9, "$.scenario.seed: expected an integer, got 1.9"),
        (("seed",), False, "$.scenario.seed: expected an integer, got False"),
        (("n_frames",), "2", "$.scenario.n_frames: expected an integer, got '2'"),
        (("n_frames",), 2.7, "$.scenario.n_frames: expected an integer, got 2.7"),
        (("n_frames",), 2.0, "$.scenario.n_frames: expected an integer, got 2.0"),
        (("n_frames",), True, "$.scenario.n_frames: expected an integer, got True"),
        (("n_frames",), -3, "$.scenario.n_frames: expected a nonnegative integer, got -3"),
        (("frame_prefix",), None, "$.scenario.frame_prefix: expected a string, got None"),
        (("frame_prefix",), 5, "$.scenario.frame_prefix: expected a string, got 5"),
    ],
)
def test_generate_bad_scenario_field_exits_one(tmp_path, capsys, field, value, message):
    scenario = json.loads(json.dumps(_SPEC))
    parent = scenario
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": scenario}))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "g")]) == 1
    assert message in capsys.readouterr().err


def test_generate_integer_miss_probability_is_a_constant(tmp_path):
    spec_path = tmp_path / "spec.json"
    for name, miss in (("int", 0), ("float", 0.0)):
        spec_path.write_text(json.dumps({"scenario": _SPEC, "detectors": {"d": {"miss_prob_by_distance": miss}}}))
        assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "int" / "d.json").read_bytes() == (tmp_path / "float" / "d.json").read_bytes()


def test_rank_absent_limit_names_it_and_the_limits_present(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    table.write_text("detector,class,l,d_max,r_max,t_max,ap,ap_crit\n"
                     "a,car,1.0,20.0,20.0,8.0,0.5,0.4\na,car,2.0,20.0,20.0,8.0,0.6,0.5\n")
    for extra in ([], ["--config", "20,20,8"]):
        code = main(["rank", "--table", str(table), "--metric", "ap", "--l", "3", *extra])
        assert code == 1
        assert f"{table}: no rows with l=3; limits present: 1, 2" in capsys.readouterr().err


def test_rank_absent_config_names_it_and_the_configs_present(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    rows = [f"a,car,1.0,{d}.0,20.0,{t}.0,0.5,0.4" for d in (10, 20) for t in (2, 4, 8)]
    table.write_text("detector,class,l,d_max,r_max,t_max,ap,ap_crit\n" + "\n".join(rows) + "\n")
    code = main(["rank", "--table", str(table), "--metric", "ap", "--config", "5,5,5"])
    assert code == 1
    assert (f"{table}: no rows with l=1 and config 5,5,5; configs present (6): "
            "10,20,2; 10,20,4; 10,20,8; 20,20,2; 20,20,4; ...") in capsys.readouterr().err
    assert main(["rank", "--table", str(table), "--metric", "ap", "--config", "20,20,4"]) == 0


_RANK_HEADER = "detector,class,l,d_max,r_max,t_max,ap,ap_crit\n"


@pytest.mark.parametrize("extra", [[], ["--l", "1"], ["--config", "20,20,8"]])
def test_rank_table_without_rows_exits_one(tmp_path, capsys, extra):
    table = tmp_path / "sweep.csv"
    table.write_text(_RANK_HEADER)
    code = main(["rank", "--table", str(table), "--metric", "ap", *extra])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {table}: no rows\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "second",
    [
        "a,car,1.0,20.0,20.0,8.0,0.5,0.4",  # the same row twice
        "a,car,1.0,20.0,20.0,8.0,0.6,0.4",  # two values for one detector
    ],
)
def test_rank_duplicated_row_exits_one_naming_the_cell(tmp_path, capsys, second):
    table = tmp_path / "sweep.csv"
    table.write_text(_RANK_HEADER + "b,car,1.0,20.0,20.0,8.0,0.7,0.3\n"
                     f"a,car,1.0,20.0,20.0,8.0,0.5,0.4\n{second}\n")
    code = main(["rank", "--table", str(table), "--metric", "ap", "--l", "1", "--config", "20,20,8"])
    assert code == 1
    assert "detector 'a' appears twice in the cell l=1 config 20,20,8" in capsys.readouterr().err


def _rank_with_a_bad_cell(table: Path, column: str, cell: str, metric: str) -> int:
    """``rank`` of a table whose line 3 holds ``cell`` in ``column``, in another cell than the one
    selected."""
    good = dict(zip(_RANK_HEADER.strip().split(","), "a,car,1.0,20.0,20.0,8.0,0.5,0.4".split(",")))
    bad = dict(good, **{"t_max": "4.0", column: cell})
    table.write_text(_RANK_HEADER + ",".join(good.values()) + "\n" + ",".join(bad.values()) + "\n")
    return main(["rank", "--table", str(table), "--metric", metric, "--l", "1", "--config", "20,20,8"])


@pytest.mark.parametrize("column", ["l", "d_max", "r_max", "t_max"])
@pytest.mark.parametrize("cell", ["-20.0", "0.0"])
def test_rank_non_positive_limit_or_cap_exits_one(tmp_path, capsys, column, cell):
    table = tmp_path / "sweep.csv"
    assert _rank_with_a_bad_cell(table, column, cell, "ap") == 1
    assert (f"{table}:line 3: column '{column}': expected a positive number, got '{cell}'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("column", ["ap", "ap_crit"])
@pytest.mark.parametrize("cell", ["5.0", "-3.0", "1.0000000000000002", "-5e-324"])
def test_rank_score_outside_zero_one_exits_one(tmp_path, capsys, column, cell):
    """No evaluation gives a score outside [0, 1], so a table that holds one is not a sweep's."""
    table = tmp_path / "sweep.csv"
    assert _rank_with_a_bad_cell(table, column, cell, "ap_crit") == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {table}:line 3: column '{column}': expected a score in [0, 1], got '{cell}'\n")
    assert captured.out == ""


@pytest.mark.parametrize("cell", ["0.0", "-0.0", "1.0", "1"])
def test_rank_scores_at_the_ends_of_zero_one_are_ranked(tmp_path, capsys, cell):
    table = tmp_path / "sweep.csv"
    table.write_text(_RANK_HEADER + f"a,car,1.0,20.0,20.0,8.0,{cell},{cell}\n"
                     "b,car,1.0,20.0,20.0,8.0,0.5,0.5\n")
    assert main(["rank", "--table", str(table), "--metric", "ap"]) == 0
    assert f"a  {float(cell):.6f}" in capsys.readouterr().out


@pytest.mark.parametrize("rows, line", [
    # a and b are cars and c a van, all in one cell
    (["a,car,1.0,20.0,20.0,8.0,0.5,0.4", "b,car,1.0,20.0,20.0,8.0,0.7,0.3",
      "c,van,1.0,20.0,20.0,8.0,0.9,0.9"], 4),
    # the van in a cell of its own
    (["a,car,1.0,20.0,20.0,8.0,0.5,0.4", "c,van,2.0,20.0,20.0,8.0,0.9,0.9"], 3),
    # a second row for a, as a truck
    (["b,car,1.0,20.0,20.0,8.0,0.7,0.3", "a,car,1.0,20.0,20.0,8.0,0.5,0.4",
      "a,truck,1.0,20.0,20.0,8.0,0.5,0.4"], 4),
])
def test_rank_table_of_more_than_one_class_exits_one(tmp_path, capsys, rows, line):
    """Detectors of one class are ranked together; a table that mixes classes is not a sweep's."""
    table = tmp_path / "sweep.csv"
    table.write_text(_RANK_HEADER + "\n".join(rows) + "\n")
    assert main(["rank", "--table", str(table), "--metric", "ap"]) == 1
    other = rows[line - 2].split(",")[1]
    captured = capsys.readouterr()
    assert captured.err == (f"error: {table}:line {line}: column 'class': expected 'car', "
                            f"the class of the rows before, got '{other}'\n")
    assert captured.out == ""


@pytest.mark.parametrize("column", ["d_max", "r_max", "t_max"])
@pytest.mark.parametrize("cell", ["1e-200", "1e+160"])
def test_rank_cap_without_a_positive_finite_square_exits_one(tmp_path, capsys, column, cell):
    """A cap in the table is held to the rule of ``rank --config``, with the line named."""
    table = tmp_path / "sweep.csv"
    assert _rank_with_a_bad_cell(table, column, cell, "ap_crit") == 1
    assert capsys.readouterr().err == (
        f"error: {table}:line 3: {column} must have a positive finite square, got {cell}\n")


def test_rank_agrees_with_rankings_json_in_every_cell(tmp_path, capsys):
    dataset, dets_a, dets_b = divergence_scenario()
    gt = tmp_path / "gt.json"
    dump_json(dataset_to_dict(dataset), gt)
    preds = []
    # "copy" has the same detections as "A", so their ap ties in every cell.
    for name, dets in (("A", dets_a), ("B", dets_b), ("copy", dets_a)):
        dump_json(detections_to_dict(dets), tmp_path / f"{name}.json")
        preds += ["--pred", f"{name}={tmp_path / name}.json"]
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10, 20], "r_values": [20], "t_values": [4, 8]}')
    out = tmp_path / "sweep"
    assert main(["sweep", "--gt", str(gt), *preds, "--grid", str(grid),
                 "--dist-limits", "0.5,2", "--out", str(out)]) == 0
    rankings = json.loads((out / "rankings.json").read_text())
    assert len(rankings["per_config"]) == 4 * 2
    assert any(entry["n_moved"] for entry in rankings["per_config"])
    capsys.readouterr()
    for entry in rankings["per_config"]:
        assert entry["order_ap"].index("A") + 1 == entry["order_ap"].index("copy")
        for metric in ("ap", "ap_crit"):
            config = f"{entry['d_max']!r},{entry['r_max']!r},{entry['t_max']!r}"
            assert main(["rank", "--table", str(out / "sweep.csv"), "--metric", metric,
                         "--l", repr(entry["l"]), "--config", config]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[1] for line in lines[1:-1]] == entry[f"order_{metric}"]
            assert lines[-1].endswith(f"n_moved={entry['n_moved']} "
                                      f"max_displacement={entry['max_displacement']}")


def test_generate_writes_gt_and_detector_files(tmp_path):
    spec = {
        "scenario": {
            "n_frames": 3,
            "seed": 11,
            "ego": {"start": [0, 0], "velocity": [0, 3]},
            "objects": [
                {"start": [10, 5], "velocity": [-2, 0]},
                {"start": [-5, 20], "velocity": None},
            ],
        },
        "detectors": {
            "sharp": {"center_noise_sigma": 0.1},
            "blurry": {"center_noise_sigma": 1.0, "miss_prob_by_distance": 0.3},
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "gen"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert (out / "gt.json").exists()
    assert (out / "sharp.json").exists() and (out / "blurry.json").exists()

    # Same seed: byte-identical rerun; different seed: different bytes.
    out2 = tmp_path / "gen2"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out2)]) == 0
    assert (out / "gt.json").read_bytes() == (out2 / "gt.json").read_bytes()
    assert (out / "sharp.json").read_bytes() == (out2 / "sharp.json").read_bytes()
    out3 = tmp_path / "gen3"
    assert main(["generate", "--spec", str(spec_path), "--seed", "99", "--out", str(out3)]) == 0
    assert (out / "sharp.json").read_bytes() != (out3 / "sharp.json").read_bytes()


def test_generate_overflowing_noise_draw_exits_one_and_writes_nothing(tmp_path, capsys):
    """A Box-Muller draw of sigma 1e308 overflows at seed 3; no results file may hold inf."""
    spec = {
        "scenario": {"n_frames": 2, "seed": 1, "ego": {"start": [0, 0], "velocity": [0, 3]},
                     "objects": [{"start": [0, 40], "velocity": [0, -8]}]},
        "detectors": {"loud": {"center_noise_sigma": 1e308}, "quiet": {}},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "gen"
    assert main(["generate", "--spec", str(spec_path), "--seed", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: $.detectors.loud: frame 'frame000': drew a non-finite center or velocity (")
    assert "inf" in err and err.count("\n") == 1
    assert not out.exists()
    # Seed 1 draws finite numbers: the files load.
    assert main(["generate", "--spec", str(spec_path), "--seed", "1", "--out", str(out)]) == 0
    assert len(model.load_detections(out / "loud.json")) == 2


@pytest.mark.parametrize(
    "nested, field, message",
    [
        (True, ("objects", 0, "velocity"), "$.scenario.objects[0]: the center overflows to (10.0, inf) at t=2.0 s"),
        (False, ("objects", 0, "velocity"), "$.objects[0]: the center overflows to (10.0, inf) at t=2.0 s"),
        (True, ("ego", "velocity"), "$.scenario.ego: the center overflows to (0.0, inf) at t=2.0 s"),
    ],
)
def test_generate_overflowing_center_exits_one_and_writes_nothing(tmp_path, capsys, nested, field, message):
    """start + velocity * t reaches inf at t = 2 s; gt.json may not hold it."""
    scenario = json.loads(json.dumps(dict(_SPEC, n_frames=5)))
    parent = scenario
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = [0, 1e308]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": scenario} if nested else scenario))
    out = tmp_path / "g"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    # Four frames stop at t = 1.5 s, before the overflow.
    spec_path.write_text(json.dumps(dict(scenario, n_frames=4)))
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert len(model.load_ground_truth(out / "gt.json").frames) == 4


def test_generate_detector_named_gt_exits_one_and_writes_nothing(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": _SPEC, "detectors": {"a": {}, "gt": {}}}))
    out = tmp_path / "g"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: $.detectors.gt: the name is taken by the ground truth, gt.json\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["../esc", "sub/x", "a\\b", "nul\0", "", ".", ".."])
def test_generate_detector_name_that_is_no_file_name_exits_one_and_writes_nothing(
        tmp_path, capsys, monkeypatch, name):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenario": _SPEC, "detectors": {"a": {}, name: {}}}))
    drawn = []
    monkeypatch.setattr(synthgen, "corrupt", lambda *args, **kwargs: drawn.append(args))
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "g")]) == 1
    assert capsys.readouterr().err == (
        f"error: $.detectors.{name}: a detector name must be a file name: "
        "not empty, '.' or '..', and without '/', '\\' or NUL\n")
    assert drawn == []
    assert list(tmp_path.iterdir()) == [spec_path]


def _run_with_gc(enabled, argv):
    (gc.enable if enabled else gc.disable)()
    try:
        return main(argv), gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_leave_the_collector_as_they_found_it(synthetic_inputs, tmp_path, enabled):
    gt, pred = synthetic_inputs
    args = ["evaluate", "--gt", str(gt), "--dmax", "20", "--rmax", "20", "--tmax", "8",
            "--out", str(tmp_path / "out")]
    assert _run_with_gc(enabled, args + ["--pred", str(pred)]) == (0, enabled)
    assert _run_with_gc(enabled, args + ["--pred", str(tmp_path / "absent.json")]) == (1, enabled)


def test_commands_leave_no_garbage_per_object_to_the_collector(tmp_path, capsys):
    """With the collector off, every cycle a command makes stays until gc.collect(): their
    number may not grow with the corpus, or a large run would grow its memory unchecked."""
    found = {}
    for n_scenes in (10, 20):  # the 200-frame test corpus and twice that
        dataset, detectors = sweep_dataset_and_detectors(n_scenes=n_scenes)
        inputs = tmp_path / f"in{n_scenes}"
        inputs.mkdir()
        dump_json(dataset_to_dict(dataset), inputs / "gt.json")
        for name, dets in detectors.items():
            dump_json(detections_to_dict(dets), inputs / f"{name}.json")
        (inputs / "grid.json").write_text('{"d_values": [20], "r_values": [10, 20], "t_values": [8]}')
        gt = ["--gt", str(inputs / "gt.json")]
        for argv in (["evaluate", *gt, "--pred", str(inputs / "farblind.json"),
                      "--dmax", "20", "--rmax", "20", "--tmax", "8"],
                     ["sweep", *gt, *(f"--pred={inputs / name}.json" for name in detectors),
                      "--grid", str(inputs / "grid.json")]):
            gc.disable()
            try:
                gc.collect()
                assert main([*argv, "--out", str(tmp_path / f"out{n_scenes}")]) == 0
                found[argv[0], n_scenes] = gc.collect()
            finally:
                gc.enable()
    capsys.readouterr()
    for command in ("evaluate", "sweep"):
        assert abs(found[command, 20] - found[command, 10]) <= 50, found


def test_birdview_command_matches_golden(tmp_path):
    out = tmp_path / "view.svg"
    code = main(
        ["birdview", "--gt", str(DATA / "headon_gt.json"),
         "--pred", str(DATA / "headon_pred.json"), "--frame", "f0",
         "--weight", "kappa", "--dmax", "30", "--rmax", "20", "--tmax", "8",
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "birdview_golden_kappa.svg").read_bytes()


def test_birdview_draws_only_the_requested_frame(tmp_path):
    f0 = json.loads((DATA / "headon_pred.json").read_text())["results"]["f0"]
    shifted = [dict(d, center=[d["center"][0] + 3.0, d["center"][1] - 2.0]) for d in f0]
    pred = tmp_path / "pred.json"
    # The other frame comes first, so taking the first frame's detections would show.
    pred.write_text(json.dumps({"results": {"f1": shifted, "f0": f0}}))
    out = tmp_path / "view.svg"
    code = main(
        ["birdview", "--gt", str(DATA / "headon_gt.json"), "--pred", str(pred), "--frame", "f0",
         "--weight", "kappa", "--dmax", "30", "--rmax", "20", "--tmax", "8",
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "birdview_golden_kappa.svg").read_bytes()


def test_birdview_builds_only_the_requested_frames_detections(tmp_path, monkeypatch):
    f0 = json.loads((DATA / "headon_pred.json").read_text())["results"]["f0"]
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"results": {"f1": f0, "f0": f0, "f2": f0}}))
    built = []
    detection = model.Detection
    monkeypatch.setattr(model, "Detection", lambda *args: built.append(args[0]) or detection(*args))
    assert main(["birdview", "--gt", str(DATA / "headon_gt.json"), "--pred", str(pred),
                 "--frame", "f0", "--dmax", "30", "--rmax", "20", "--tmax", "8",
                 "--out", str(tmp_path / "view.svg")]) == 0
    assert built == ["f0"] * len(f0) and f0


def test_birdview_unknown_frame_exits_one(tmp_path, capsys):
    code = main(
        ["birdview", "--gt", str(DATA / "headon_gt.json"), "--frame", "nope",
         "--weight", "kappa", "--dmax", "30", "--rmax", "20", "--tmax", "8",
         "--out", str(tmp_path / "x.svg")]
    )
    assert code == 1
    assert "unknown frame_id" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_absent_class_exits_one_and_writes_nothing(synthetic_inputs, tmp_path, capsys, command):
    gt, pred = synthetic_inputs
    out = tmp_path / "out"
    args = ["--dmax", "20", "--rmax", "20", "--tmax", "8"] if command == "evaluate" else []
    assert main([command, "--gt", str(gt), "--pred", str(pred), *args, "--class", "Car",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: class 'Car' is in no ground truth or detection; classes present: car\n")
    assert not out.exists()


def test_class_of_one_results_file_alone_is_evaluated(synthetic_inputs, tmp_path):
    gt, pred = synthetic_inputs
    doc = json.loads(pred.read_text())
    frame = next(iter(doc["results"]))
    doc["results"][frame][0]["class"] = "van"
    vans = tmp_path / "vans.json"
    vans.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["sweep", "--gt", str(gt), "--pred", f"a={pred}", "--pred", f"b={vans}",
                 "--class", "van", "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()


_NO_GT_IN_RANGE = ("warning: class {!r} has no ground truth within {} m of the ego; recall is "
                   "vacuous, so AP and AP_crit rank nothing\n")


@pytest.mark.parametrize("max_range, center, warned", [
    (50.0, (30.0, 40.0), False),  # exactly at max_range
    (50.0, (math.nextafter(50.0, math.inf), 0.0), True),
    (50.0, (80.0, 0.0), True),
    (30.0, (-18.0, 24.0), False),
    (30.0, (-18.0, math.nextafter(24.0, math.inf)), True),
])
def test_class_without_ground_truth_in_range_is_warned_of(tmp_path, capsys, max_range, center,
                                                          warned):
    """After the unknown-frame warnings, by the accumulator's own rule; outputs do not change."""
    dataset = model.Dataset([make_frame(ego=make_ego(velocity=(1.0, 0.0)),
                                        objects=[make_state(class_name="van", center=center)])])
    assert metrics.CurveAccumulator(dataset, [], "van", [1.0], max_range).n_gt == (not warned)
    dump_json(dataset_to_dict(dataset), tmp_path / "gt.json")
    state = make_state(class_name="van", center=center)
    dump_json(detections_to_dict([model.Detection("f9", state, 0.5)]), tmp_path / "pred.json")
    out = tmp_path / "out"
    assert main(["evaluate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json"),
                 *_CAPS, "--class", "van", "--max-range", str(max_range), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: 1 detection frame_id(s) not present in ground truth (skipped "
                            "during evaluation): f9\n"
                            + (_NO_GT_IN_RANGE.format("van", f"{max_range:g}") if warned else ""))
    if warned:  # the vacuous scores are written as before
        assert all(f"{limit:>6g}    1.000000    1.000000\n" in captured.out
                   for limit in distance_limits_default())
    assert (out / "report.json").exists()


_COORD = st.floats(min_value=-1e4, max_value=1e4)
# Directions from the ego: a center on the range boundary lies max_range along one of them.
_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, -0.6)]


@st.composite
def _vans_near_the_range(draw):
    """Frames of van centers on the range boundary, one ulp past it, or anywhere near it."""
    max_range = draw(st.floats(min_value=0.5, max_value=100.0))
    frames = []
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        ex, ey = draw(_COORD), draw(_COORD)
        centers = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            dx, dy = draw(st.sampled_from(_DIRECTIONS))
            where = draw(st.sampled_from(["on", "past", "any"]))
            if where == "any":
                span = st.floats(min_value=-2 * max_range, max_value=2 * max_range)
                centers.append((ex + draw(span), ey + draw(span)))
                continue
            x, y = ex + dx * max_range, ey + dy * max_range
            if where == "past":  # each moved coordinate one ulp further from the ego
                x, y = (math.nextafter(c, math.copysign(math.inf, d)) if d else c
                        for c, d in ((x, dx), (y, dy)))
            centers.append((x, y))
        objects = [make_state(f"v{j}", "van", c) for j, c in enumerate(centers)]
        objects.append(make_state("c", "car", (ex, ey)))  # in range, but of another class
        frames.append(make_frame(f"f{k}", ego=make_ego(center=(ex, ey), velocity=(1.0, 0.0)),
                                 objects=objects))
    return model.Dataset(frames), max_range


@given(case=_vans_near_the_range())
@example(case=(model.Dataset([make_frame(ego=make_ego(velocity=(1.0, 0.0)), objects=[
    make_state(class_name="van", center=(30.0, 40.0))])]), 50.0))
@example(case=(model.Dataset([make_frame(ego=make_ego(velocity=(1.0, 0.0)), objects=[
    make_state(class_name="van", center=(-18.0, math.nextafter(24.0, math.inf)))])]), 30.0))
@settings(max_examples=200, deadline=None)
def test_out_of_range_warning_follows_the_accumulators_range_rule(case):
    """The warning's range rule (``math.dist``) and the accumulator's (``hypot``) agree."""
    dataset, max_range = case
    stderr = StringIO()
    with redirect_stderr(stderr):
        cli._load_results(dataset, {}, "van", max_range, 1)
    warned = stderr.getvalue() == _NO_GT_IN_RANGE.format("van", f"{max_range:g}")
    assert warned or stderr.getvalue() == ""
    assert warned == (metrics.CurveAccumulator(dataset, [], "van", [1.0], max_range).n_gt == 0)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_of_a_class_without_ground_truth_warns_once(synthetic_inputs, tmp_path, capsys,
                                                          monkeypatch, threads):
    """The detector that sees nothing ranks first; the warning says that the ranking is vacuous."""
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    gt, pred = synthetic_inputs
    doc = json.loads(pred.read_text())
    doc["results"][next(iter(doc["results"]))][0]["class"] = "van"
    vans = tmp_path / "vans.json"
    vans.write_text(json.dumps(doc))
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [20], "r_values": [20], "t_values": [4, 8]}')
    out = tmp_path / "out"
    assert main(["sweep", "--gt", str(gt), "--pred", f"cars={pred}", "--pred", f"vans={vans}",
                 "--class", "van", "--grid", str(grid), "--out", str(out)]) == 0
    assert capsys.readouterr().err == _NO_GT_IN_RANGE.format("van", 50)
    rows = sweep.read_sweep_csv(out / "sweep.csv")
    assert {(row.detector, row.ap, row.ap_crit) for row in rows} == {("cars", 1.0, 1.0),
                                                                     ("vans", 0.0, 0.0)}


@pytest.mark.parametrize("which", ["gt", "pred", "grid"])
def test_deeply_nested_json_exits_one_naming_the_file(synthetic_inputs, tmp_path, capsys, which):
    gt, pred = synthetic_inputs
    paths = {"gt": str(gt), "pred": str(pred), "grid": "default"}
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    paths[which] = str(deep)
    assert main(["sweep", "--gt", paths["gt"], "--pred", paths["pred"], "--grid", paths["grid"],
                 "--out", str(tmp_path / "out")]) == 1
    label = "detector 'deep': " if which == "pred" else ""
    assert capsys.readouterr().err == f"error: {label}{deep}: JSON nested too deeply\n"


UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"


def test_undecodable_results_file_exits_one_naming_it(synthetic_inputs, tmp_path, capsys):
    gt, _ = synthetic_inputs
    pred = tmp_path / "pred.json"
    pred.write_bytes(b'{"results": {"f\xff": []}}')
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--dmax", "20", "--rmax", "20",
                 "--tmax", "8", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {pred}: not UTF-8 text ({UNDECODABLE})\n"


@pytest.mark.parametrize("content, message", [
    # Read as write_sweep_csv writes a name's undecodable bytes, a header byte 0xff names no column.
    (b"detector,class,\xff,d_max,r_max,t_max,ap,ap_crit\n", "missing sweep columns ['l']"),
    (b"detector,class,l,d_max,r_max,t_max,ap,ap_crit\n" + b"a" * 200_000 + b",car,1,2,2,2,0,0\n",
     "malformed CSV (field larger than field limit (131072))"),
])
def test_rank_unreadable_table_exits_one_naming_it(tmp_path, capsys, content, message):
    table = tmp_path / "sweep.csv"
    table.write_bytes(content)
    assert main(["rank", "--table", str(table), "--metric", "ap"]) == 1
    assert capsys.readouterr().err == f"error: {table}: {message}\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_then_rank_round_trips_an_undecodable_name(synthetic_inputs, tmp_path, capsys,
                                                         monkeypatch, threads):
    """``sweep.csv`` keeps the bytes of a name that is not UTF-8, and ``rank`` reads them back."""
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    gt, pred = synthetic_inputs
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10], "r_values": [20], "t_values": [8]}')
    out = tmp_path / "out"
    name = "d\udcff"  # the byte 0xff of argv, as Python decodes it
    assert main(["sweep", "--gt", str(gt), "--pred", f"{name}={pred}", "--pred", f"e={pred}",
                 "--grid", str(grid), "--dist-limits", "1", "--out", str(out)]) == 0
    assert b"\r\nd\xff,car,1.0,10.0,20.0,8.0," in (out / "sweep.csv").read_bytes()
    assert [row.detector for row in sweep.read_sweep_csv(out / "sweep.csv")] == [name, "e"]
    capsys.readouterr()
    assert main(["rank", "--table", str(out / "sweep.csv"), "--metric", "ap"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "1. d\\udcff  1.000000\n" in captured.out and "2. e  1.000000\n" in captured.out


def _read_no_data(*_args, **_kwargs):
    raise AssertionError("a data file was read before the arguments were checked")


_CAPS = ["--dmax", "20", "--rmax", "20", "--tmax", "8"]


@pytest.mark.parametrize(
    "command, args, grid, message",
    [
        ("sweep", [], '{"d_values": [10, 5], "r_values": [20], "t_values": [4]}',
         "$.d_values[1]: expected a finite value greater than 10.0, got 5.0"),
        ("sweep", [], '{"d_values": [10], "r_values": 20, "t_values": [4]}',
         "$.r_values: expected a list of numbers, got 20"),
        ("sweep", ["--pred", "a=other.json"], None, "duplicate detector name 'a'"),
        ("sweep", ["--pred", "=other.json"], None, "--pred '=other.json': the detector name is empty"),
        ("evaluate", ["--dmax", "0", "--rmax", "20", "--tmax", "8"], None,
         "d_max must be positive and finite, got 0.0"),
        ("evaluate", ["--dmax", "20", "--rmax", "20", "--tmax", "nan"], None,
         "t_max must be positive and finite, got nan"),
        ("evaluate", [*_CAPS, "--dist-limits", "1,1.0000001"], None,
         "distance limits 1.0 and 1.0000001 both write curve_car_l1.csv"),
        *[(command, [*caps, option, value], None, message)
          for command, caps in (("evaluate", _CAPS), ("sweep", []))
          for option, value, message in (
              ("--dist-limits", "1,1", "distance limits must be nonempty, positive and "
                                       "distinct, got 1.0, 1.0"),
              ("--dist-limits", "1,inf", "distance limits must be finite, got 1.0, inf"),
              ("--max-range", "nan", "max_range must be positive and finite, got nan"),
              ("--class", "", "class_name must be nonempty"),
          )],
        ("birdview", ["--frame", "f0", "--dmax", "-1", "--rmax", "20", "--tmax", "8"], None,
         "d_max must be positive and finite, got -1.0"),
        # Caps whose square is 0.0 or inf, which the parabolas divide by.
        ("evaluate", ["--dmax", "20", "--rmax", "1e-200", "--tmax", "8"], None,
         "r_max must have a positive finite square, got 1e-200"),
        ("evaluate", ["--dmax", "20", "--rmax", "20", "--tmax", "1e160"], None,
         "t_max must have a positive finite square, got 1e+160"),
        ("birdview", ["--frame", "f0", "--dmax", "1e-200", "--rmax", "20", "--tmax", "8"], None,
         "d_max must have a positive finite square, got 1e-200"),
        ("sweep", [], '{"d_values": [1e-200], "r_values": [1e-200], "t_values": [1e-200]}',
         "$.d_values[0]: expected a value with a positive finite square, got 1e-200"),
        ("sweep", [], '{"d_values": [10], "r_values": [20], "t_values": [4, 1e160]}',
         "$.t_values[1]: expected a value with a positive finite square, got 1e+160"),
    ],
)
def test_argument_errors_come_before_any_data_file(tmp_path, capsys, monkeypatch,
                                                   command, args, grid, message):
    monkeypatch.setattr(model, "load_ground_truth", _read_no_data)
    monkeypatch.setattr(model, "load_detections", _read_no_data)
    if grid is not None:
        (tmp_path / "grid.json").write_text(grid)
        args = [*args, "--grid", str(tmp_path / "grid.json")]
    out = tmp_path / "out"
    assert main([command, "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "a.json"),
                 *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("evaluate", ["--gt", "gt.json", "--pred", "a.json", *_CAPS]),
    ("sweep", ["--gt", "gt.json", "--pred", "a.json"]),
    ("generate", ["--spec", "spec.json"]),
    ("birdview", ["--gt", "gt.json", "--pred", "a.json", "--frame", "f0", *_CAPS]),
])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_no_directory_exits_one_before_any_data_file(tmp_path, capsys, monkeypatch,
                                                                 command, args, below):
    for module, name in ((model, "read_json"), (model, "load_ground_truth"),
                         (model, "load_detections"), (synthgen, "gen_dataset")):
        monkeypatch.setattr(module, name, _read_no_data)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "sub" if below else afile
    target = out / "view.svg" if command == "birdview" else out  # birdview writes a file in out
    assert main([command, *args, "--out", str(target)]) == 1
    assert capsys.readouterr().err == f"error: --out {str(out)!r}: {str(afile)!r} is not a directory\n"
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == "kept"


def test_birdview_out_that_is_a_directory_exits_one_before_any_data_file(tmp_path, capsys,
                                                                        monkeypatch):
    for name in ("load_ground_truth", "load_detections"):
        monkeypatch.setattr(model, name, _read_no_data)
    assert main(["birdview", "--gt", "gt.json", "--pred", "a.json", "--frame", "f0", *_CAPS,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {str(tmp_path)!r} is a directory; it names the SVG file to write\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["evaluate", "--gt", "gt.json", "--pred", "a.json", *_CAPS, "--dist-limits", "abc"],
     "argument --dist-limits: expected a comma-separated list of numbers, got 'abc'"),
    (["rank", "--table", "t.csv", "--metric", "ap", "--config", "1,2"],
     "argument --config: expected dmax,rmax,tmax, got '1,2'"),
    (["rank", "--table", "t.csv", "--metric", "ap", "--config", "1,x,3"],
     "argument --config: expected a comma-separated list of numbers, got '1,x,3'"),
    (["rank", "--table", "t.csv", "--metric", "ap", "--config=-1,2,3"],
     "argument --config: d_max must be positive and finite, got -1.0"),
    (["rank", "--table", "t.csv", "--metric", "ap", "--config", "20,1e-200,8"],
     "argument --config: r_max must have a positive finite square, got 1e-200"),
    (["rank", "--table", "t.csv", "--metric", "ap", "--config", "20,20,1e160"],
     "argument --config: t_max must have a positive finite square, got 1e+160"),
])
def test_usage_error_gives_the_parse_reason(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", "out"] if args[0] == "evaluate" else args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message}\n")


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_absent_class_is_rejected_before_evaluation(synthetic_inputs, tmp_path, capsys,
                                                    monkeypatch, command):
    monkeypatch.setattr(metrics, "CurveAccumulator", _read_no_data)
    monkeypatch.setattr(sweep, "CurveAccumulator", _read_no_data)
    gt, pred = synthetic_inputs
    args = _CAPS if command == "evaluate" else []
    assert main([command, "--gt", str(gt), "--pred", str(pred), *args, "--class", "Car",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: class 'Car' is in no ground truth or detection; classes present: car\n")


def test_limits_that_share_a_curve_file_exit_one(synthetic_inputs, tmp_path, capsys):
    gt, pred = synthetic_inputs
    inputs = ["evaluate", "--gt", str(gt), "--pred", str(pred), *_CAPS]
    out = tmp_path / "out"
    assert main([*inputs, "--dist-limits", "1,1.0000001", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: distance limits 1.0 and 1.0000001 both write curve_car_l1.csv\n")
    assert not out.exists()
    assert main([*inputs, "--dist-limits", "1,1.00001", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("curve_*")) == ["curve_car_l1.00001.csv",
                                                           "curve_car_l1.csv"]


@pytest.mark.parametrize("class_name", ["veh/car", "veh\\car", "../car"])
def test_class_with_a_path_separator_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                   class_name):
    """The class is part of each curve file name, so it is checked before any data file."""
    monkeypatch.setattr(model, "load_ground_truth", _read_no_data)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["evaluate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "a.json"),
                 *_CAPS, "--class", class_name, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --class {class_name!r} names the curve files: it must hold no '/' or '\\'\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, args", [("evaluate", _CAPS), ("sweep", [])])
def test_workers_option_is_rejected(tmp_path, monkeypatch, command, args):
    monkeypatch.setattr(model, "load_ground_truth", _read_no_data)
    with pytest.raises(SystemExit) as exc:
        main([command, "--gt", "gt.json", "--pred", "a.json", *args, "--workers", "2",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_sweep_names_the_detector_of_each_unknown_frame_warning(synthetic_inputs, tmp_path, capsys):
    gt, pred = synthetic_inputs
    for name, frame in (("a", "otherframe"), ("b", "nosuchframe")):
        data = json.loads(pred.read_text())
        data["results"][frame] = next(iter(data["results"].values()))[:1]
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    text = "{} detection frame_id(s) not present in ground truth (skipped during evaluation): {}\n"
    assert main(["sweep", "--gt", str(gt), "--pred", f"b={tmp_path / 'b.json'}",
                 "--pred", f"a={tmp_path / 'a.json'}", "--grid", str(_small_grid(tmp_path)),
                 "--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().err == (f"warning: detector 'b': {text.format(1, 'nosuchframe')}"
                                       f"warning: detector 'a': {text.format(1, 'otherframe')}")
    assert main(["evaluate", "--gt", str(gt), "--pred", str(tmp_path / "b.json"), *_CAPS,
                 "--out", str(tmp_path / "evaluate")]) == 0
    assert capsys.readouterr().err == f"warning: {text.format(1, 'nosuchframe')}"


@pytest.mark.parametrize("threads, rule", [("zebra", "an integer"), ("0", "at least 1"),
                                           ("-2", "at least 1")])
def test_bad_worker_count_exits_one_before_any_data_file(tmp_path, capsys, monkeypatch, threads,
                                                         rule):
    for name in ("read_json", "load_ground_truth", "load_detections"):
        monkeypatch.setattr(model, name, _read_no_data)
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    out = tmp_path / "out"
    assert main(["sweep", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "a.json"),
                 "--grid", str(tmp_path / "grid.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: CRIT_EVAL_THREADS must be {rule}, got {threads!r}\n"
    assert not out.exists()


def test_evaluate_ignores_the_worker_count(synthetic_inputs, tmp_path, monkeypatch):
    monkeypatch.setenv("CRIT_EVAL_THREADS", "zebra")
    gt, pred = synthetic_inputs
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), *_CAPS,
                 "--out", str(tmp_path / "out")]) == 0


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _small_grid(tmp_path: Path) -> Path:
    grid = tmp_path / "grid.json"
    grid.write_text('{"d_values": [10, 20], "r_values": [20], "t_values": [4, 8]}')
    return grid


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory):
    """``sweep_dataset_and_detectors`` as gt.json, farblind.json and nearblind.json."""
    root = tmp_path_factory.mktemp("sweep_corpus")
    dataset, detectors = sweep_dataset_and_detectors()
    dump_json(dataset_to_dict(dataset), root / "gt.json")
    for name, detections in detectors.items():
        dump_json(detections_to_dict(detections), root / f"{name}.json")
    return root


@pytest.mark.parametrize("threads", ["1", "2", "5"])
def test_sweep_gives_the_golden_digests_at_any_worker_count(sweep_corpus, tmp_path, monkeypatch,
                                                            capsys, threads):
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    out = tmp_path / "out"
    assert main(["sweep", "--gt", str(sweep_corpus / "gt.json"),
                 "--pred", str(sweep_corpus / "farblind.json"),
                 "--pred", str(sweep_corpus / "nearblind.json"),
                 "--grid", "default", "--out", str(out)]) == 0
    _assert_no_child_left()
    assert capsys.readouterr().err == ""
    digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert (digest("sweep.csv"), digest("rankings.json")) == (SWEEP_CSV_SHA256, RANKINGS_SHA256)


def test_sweep_bytes_do_not_depend_on_workers_or_pred_order(sweep_corpus, tmp_path, monkeypatch):
    preds = [f"farblind={sweep_corpus / 'farblind.json'}",
             f"nearblind={sweep_corpus / 'nearblind.json'}",
             f"twin={sweep_corpus / 'farblind.json'}"]  # more detectors than workers
    outputs = []
    for threads, order in (("1", preds), ("2", preds), ("2", preds[::-1])):
        monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
        out = tmp_path / f"out{len(outputs)}"
        assert main(["sweep", "--gt", str(sweep_corpus / "gt.json"),
                     *(arg for pred in order for arg in ("--pred", pred)),
                     "--grid", str(_small_grid(tmp_path)), "--out", str(out)]) == 0
        _assert_no_child_left()
        outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "rankings.json")])
    assert outputs[0] == outputs[1] == outputs[2]
    rows = sweep.read_sweep_csv(tmp_path / "out0" / "sweep.csv")
    assert [row.detector for row in rows[::len(rows) // 3]] == ["farblind", "nearblind", "twin"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_workers_read_the_results_files(sweep_corpus, tmp_path, monkeypatch, threads):
    """At several workers the calling process reads only the ground truth and evaluates nothing."""
    load_detections, readers = model.load_detections, []
    evaluate_sweep, evaluators = sweep.evaluate_sweep, []

    def recorded(path):
        readers.append(os.getpid())  # a forked worker appends to its own copy
        return load_detections(path)

    def evaluated(*args, **kwargs):
        evaluators.append(os.getpid())
        return evaluate_sweep(*args, **kwargs)

    monkeypatch.setattr(model, "load_detections", recorded)
    monkeypatch.setattr(sweep, "evaluate_sweep", evaluated)
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    assert main(["sweep", "--gt", str(sweep_corpus / "gt.json"),
                 "--pred", str(sweep_corpus / "farblind.json"),
                 "--pred", str(sweep_corpus / "nearblind.json"),
                 "--grid", str(_small_grid(tmp_path)), "--out", str(tmp_path / "out")]) == 0
    _assert_no_child_left()
    assert readers == ([os.getpid()] * 2 if threads == "1" else [])
    assert evaluators == ([os.getpid()] * 2 if threads == "1" else [])


def _with_unknown_frame(pred: Path, path: Path, frame: str) -> Path:
    """``pred`` written to ``path`` with one more detection, in a frame the ground truth lacks."""
    data = json.loads(pred.read_text())
    data["results"][frame] = next(iter(data["results"].values()))[:1]
    path.write_text(json.dumps(data))
    return path


_UNKNOWN = ("warning: detector {!r}: 1 detection frame_id(s) not present in ground truth "
            "(skipped during evaluation): {}\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_reports_a_load_error_before_any_evaluation(synthetic_inputs, tmp_path, capsys,
                                                           monkeypatch, threads):
    gt, pred = synthetic_inputs
    evaluate_sweep, log = sweep.evaluate_sweep, tmp_path / "evaluated.txt"

    def recorded(dataset, detectors, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as file:  # a worker's list would not reach the test
            file.writelines(f"{name}\n" for name in detectors)
        return evaluate_sweep(dataset, detectors, *args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_sweep", recorded)
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    (tmp_path / "bad.json").write_text('{"results": []}')
    out = tmp_path / "out"
    assert main(["sweep", "--gt", str(gt),
                 "--pred", f"a={_with_unknown_frame(pred, tmp_path / 'a.json', 'ghost')}",
                 "--pred", f"bad={tmp_path / 'bad.json'}", "--pred", f"b={pred}",
                 "--grid", str(_small_grid(tmp_path)), "--out", str(out)]) == 1
    _assert_no_child_left()
    assert not log.exists()
    assert capsys.readouterr().err == (
        _UNKNOWN.format("a", "ghost")
        + "error: detector 'bad': $.results: expected an object keyed by frame_id\n")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_warns_before_an_evaluation_error(synthetic_inputs, tmp_path, capsys, monkeypatch,
                                                threads):
    gt, pred = synthetic_inputs
    preds = [arg for name in "ab" for arg in (
        "--pred", f"{name}={_with_unknown_frame(pred, tmp_path / f'{name}.json', name + 'ghost')}")]
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    _patch_detector_sweep(monkeypatch, b=_raise("b is broken"))
    assert main(["sweep", "--gt", str(gt), *preds, "--grid", str(_small_grid(tmp_path)),
                 "--out", str(tmp_path / "out")]) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == (
        _UNKNOWN.format("a", "aghost") + _UNKNOWN.format("b", "bghost") + "error: b is broken\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_warns_then_raises_the_first_load_error_in_pred_order(synthetic_inputs, tmp_path,
                                                                    capsys, monkeypatch, threads):
    gt, pred = synthetic_inputs
    data = json.loads(pred.read_text())
    data["results"]["ghost"] = next(iter(data["results"].values()))[:1]
    (tmp_path / "z.json").write_text(json.dumps(data))
    (tmp_path / "y.json").write_text('{"results": []}')
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    out = tmp_path / "out"
    # a sorts first by name, and its file does not exist, yet y's error is the one reported
    assert main(["sweep", "--gt", str(gt), "--pred", f"z={tmp_path / 'z.json'}",
                 "--pred", f"y={tmp_path / 'y.json'}", "--pred", f"a={tmp_path / 'a.json'}",
                 "--grid", str(_small_grid(tmp_path)), "--out", str(out)]) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == (
        "warning: detector 'z': 1 detection frame_id(s) not present in ground truth "
        "(skipped during evaluation): ghost\n"
        "error: detector 'y': $.results: expected an object keyed by frame_id\n")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_of_a_class_one_results_file_holds_matches_the_library(synthetic_inputs, tmp_path,
                                                                     monkeypatch, threads):
    """A detector without the class scores as the library scores its whole table."""
    gt, pred = synthetic_inputs
    doc = json.loads(pred.read_text())
    for frame in list(doc["results"])[:2]:
        doc["results"][frame][0]["class"] = "van"
    vans = tmp_path / "vans.json"
    vans.write_text(json.dumps(doc))
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    out = tmp_path / "out"
    assert main(["sweep", "--gt", str(gt), "--pred", f"cars={pred}", "--pred", f"vans={vans}",
                 "--class", "van", "--grid", str(_small_grid(tmp_path)), "--out", str(out)]) == 0
    _assert_no_child_left()
    tables = {"cars": model.load_detections(pred), "vans": model.load_detections(vans)}
    limits = distance_limits_default()
    rows = sweep.evaluate_sweep(model.load_ground_truth(gt), tables,
                                sweep.ConfigGrid((10.0, 20.0), (20.0,), (4.0, 8.0)), limits, "van")
    sweep.write_sweep_csv(rows, tmp_path / "sweep.csv")
    sweep.write_rankings_json(sweep.rankings_report(rows, limits), tmp_path / "rankings.json")
    for name in ("sweep.csv", "rankings.json"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def _sweep_three(synthetic_inputs, tmp_path: Path) -> list[str]:
    """``sweep`` of detectors a, b and c, one results file, at two workers."""
    gt, pred = synthetic_inputs
    preds = (arg for name in "abc" for arg in ("--pred", f"{name}={pred}"))
    return ["sweep", "--gt", str(gt), *preds, "--grid", str(_small_grid(tmp_path)),
            "--out", str(tmp_path / "out")]


def _patch_detector_sweep(monkeypatch, **actions) -> None:
    """``sweep.evaluate_sweep`` runs ``actions[name]()`` first for a detector that has one."""
    evaluate_sweep = sweep.evaluate_sweep

    def patched(dataset, detectors, *args, **kwargs):
        (name,) = detectors
        actions.get(name, lambda: None)()
        return evaluate_sweep(dataset, detectors, *args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_sweep", patched)


def _raise(message: str):
    def action():
        raise ValueError(message)
    return action


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("failing", ["b", "bc"])
def test_sweep_worker_error_is_reported_and_no_worker_is_left(synthetic_inputs, tmp_path, capsys,
                                                               monkeypatch, threads, failing):
    """A worker's error is the one-process error; of several, the first by name is reported."""
    monkeypatch.setenv("CRIT_EVAL_THREADS", threads)
    _patch_detector_sweep(monkeypatch, **{name: _raise(f"{name} is broken") for name in failing})
    assert main(_sweep_three(synthetic_inputs, tmp_path)) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == "error: b is broken\n"
    assert not (tmp_path / "out").exists()


def test_sweep_reports_the_first_failure_by_name_not_by_time(synthetic_inputs, tmp_path, capsys,
                                                              monkeypatch):
    def late():
        time.sleep(0.3)
        raise ValueError("b is broken")

    monkeypatch.setenv("CRIT_EVAL_THREADS", "3")
    _patch_detector_sweep(monkeypatch, b=late, c=_raise("c is broken"))
    assert main(_sweep_three(synthetic_inputs, tmp_path)) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == "error: b is broken\n"


def test_sweep_worker_that_dies_is_reported_and_no_worker_is_left(synthetic_inputs, tmp_path,
                                                                   capsys, monkeypatch):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "evaluated in the calling process"
        os._exit(3)

    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    _patch_detector_sweep(monkeypatch, b=die)
    assert main(_sweep_three(synthetic_inputs, tmp_path)) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == "error: detector 'b': worker exited with status 3\n"
    assert not (tmp_path / "out").exists()


def test_sweep_interrupted_while_waiting_leaves_no_worker(synthetic_inputs, tmp_path, monkeypatch):
    def interrupt(*_args):
        raise KeyboardInterrupt

    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    monkeypatch.setattr(select, "select", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(_sweep_three(synthetic_inputs, tmp_path))
    _assert_no_child_left()
    assert not (tmp_path / "out").exists()


def test_sweep_worker_traceback_is_the_cause_of_its_error(synthetic_inputs, tmp_path, monkeypatch):
    def out_of_range():
        raise IndexError("b is out of range")

    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    _patch_detector_sweep(monkeypatch, b=out_of_range)
    with pytest.raises(IndexError, match="^b is out of range$") as caught:
        main(_sweep_three(synthetic_inputs, tmp_path))
    _assert_no_child_left()
    cause = str(caught.value.__cause__)
    assert cause.startswith("in the worker:\nTraceback (most recent call last):\n")
    assert "in out_of_range\n" in cause and cause.endswith("IndexError: b is out of range\n")


class _Unloadable(ValueError):
    """Pickles, but cannot be rebuilt from its ``args``: its constructor takes two."""

    def __init__(self, name, what):
        super().__init__(f"{name} {what}")


def _unpicklable() -> ValueError:
    exc = ValueError("b is broken")
    exc.hook = lambda: None
    return exc


@pytest.mark.parametrize("error", [lambda: _Unloadable("b", "is broken"), _unpicklable],
                         ids=["unloadable", "unpicklable"])
def test_sweep_worker_error_that_cannot_be_pickled_comes_back_as_text(synthetic_inputs, tmp_path,
                                                                      monkeypatch, error):
    def fail():
        raise error()

    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    _patch_detector_sweep(monkeypatch, b=fail)
    with pytest.raises(RuntimeError) as caught:
        main(_sweep_three(synthetic_inputs, tmp_path))
    _assert_no_child_left()
    text = str(caught.value)
    assert text.startswith("Traceback (most recent call last):\n") and "in fail\n" in text
    assert f"{type(error()).__qualname__}: b is broken\n" in text
    assert not (tmp_path / "out").exists()


def test_sweep_interrupted_as_a_fork_returns_leaves_no_worker(synthetic_inputs, tmp_path,
                                                               monkeypatch):
    """The interrupt waits until the new worker is known, then every worker is ended."""
    fork, handler = os.fork, signal.getsignal(signal.SIGINT)

    def interrupted_fork():
        pid = fork()
        if pid:
            signal.raise_signal(signal.SIGINT)
        return pid

    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    monkeypatch.setattr(os, "fork", interrupted_fork)
    with pytest.raises(KeyboardInterrupt):
        main(_sweep_three(synthetic_inputs, tmp_path))
    _assert_no_child_left()
    assert signal.getsignal(signal.SIGINT) is handler
    assert not (tmp_path / "out").exists()


def test_sweep_failed_fork_leaves_no_worker(synthetic_inputs, tmp_path, capsys, monkeypatch):
    fork, handler, forks = os.fork, signal.getsignal(signal.SIGINT), []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setenv("CRIT_EVAL_THREADS", "3")
    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert main(_sweep_three(synthetic_inputs, tmp_path)) == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert signal.getsignal(signal.SIGINT) is handler
    assert len(forks) == 2 and not (tmp_path / "out").exists()


def test_sweep_worker_that_cannot_reply_ends_there(synthetic_inputs, tmp_path, capsys, monkeypatch):
    """A worker whose reply fails is ended and reported; it never returns into its caller."""
    parent = os.getpid()

    def dumps(*_args, **_kwargs):
        raise OSError("no pickling here")

    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    monkeypatch.setattr(pickle, "dumps", dumps)
    status = main(_sweep_three(synthetic_inputs, tmp_path))
    if os.getpid() != parent:
        os._exit(99)  # a worker came back into the test
    assert status == 1
    _assert_no_child_left()
    assert capsys.readouterr().err == "error: detector 'a': worker exited with status 1\n"
    assert not (tmp_path / "out").exists()


def test_library_and_evaluate_never_fork(synthetic_inputs, tmp_path, monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setenv("CRIT_EVAL_THREADS", "2")
    gt, pred = synthetic_inputs
    dataset, table = model.load_ground_truth(gt), model.load_detections(pred)
    grid = sweep.ConfigGrid((10.0, 20.0), (20.0,), (4.0, 8.0))
    rows = sweep.evaluate_sweep(dataset, {"a": table, "b": table}, grid, [1.0, 2.0], "car")
    assert len(rows) == 2 * 2 * 4
    assert len(metrics.evaluate_detector(dataset, table, "car", [1.0, 2.0], CFG).results) == 2
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), *_CAPS,
                 "--out", str(tmp_path / "out")]) == 0
