"""The README runs as written: the walkthrough's command lines and library code, and the
synthetic experiment's commands."""

import ast
import hashlib
import re
import shlex
import shutil
from pathlib import Path

import criteval
from criteval.cli import main
from test_acceptance import TABLE2_RANKINGS_SHA256, TABLE2_SWEEP_CSV_SHA256

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    """The README text from the heading ``## title`` to the next ``## `` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.DOTALL)


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    (shell,) = _blocks(_section("Command line"), "bash")
    spec = re.search(r"cat > spec\.json <<'EOF'\n(.*?)\nEOF\n", shell, flags=re.DOTALL)
    assert spec is not None
    commands = [line for line in shell.replace("\\\n", " ").splitlines()
                if line.startswith("criteval ")]
    assert [c.split()[1] for c in commands] == ["generate", "evaluate", "sweep", "rank", "rank",
                                                "birdview"]
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(spec.group(1) + "\n")
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    capsys.readouterr()

    library = _blocks(_section("Library"), "python")
    assert len(library) == 2
    namespace: dict = {}
    for code in library:
        exec(code, namespace)
    assert 0.0 <= namespace["ap_crit"] <= 1.0
    assert namespace["own_ap"] == 0.69
    assert Path("out/curve_car_l0.5.csv").exists()


def test_library_example_imports_exactly_the_package_root():
    """The package root holds the names of the Library example, and no others."""
    (example, _) = _blocks(_section("Library"), "python")
    imported = [alias.name for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) and node.module == "criteval"
                for alias in node.names]
    assert sorted(imported) == sorted(criteval.__all__)
    assert len(imported) == len(set(imported))


def test_synthetic_experiment_runs_as_written(tmp_path, monkeypatch, capsys):
    """The commands give the outputs that ``test_acceptance`` pins and print the cell shown."""
    text = _section("Reproducing the paper's experiment (synthetic)")
    (shell,) = _blocks(text, "bash")
    (printed,) = _blocks(text, "text")
    commands = shell.replace("\\\n", " ").splitlines()
    assert [c.split()[1] for c in commands] == ["generate", "sweep", "rank"]
    monkeypatch.chdir(tmp_path)
    shutil.copytree(ROOT / "tests" / "data", "tests/data")
    for command in commands:
        capsys.readouterr()
        assert main(shlex.split(command)[1:]) == 0, command
    assert capsys.readouterr().out == printed
    assert hashlib.sha256(Path("table2/out/sweep.csv").read_bytes()).hexdigest() == (
        TABLE2_SWEEP_CSV_SHA256)
    assert hashlib.sha256(Path("table2/out/rankings.json").read_bytes()).hexdigest() == (
        TABLE2_RANKINGS_SHA256)
