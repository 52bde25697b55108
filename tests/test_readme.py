"""The README walkthrough runs as written: its command lines, then its library code."""

import re
import shlex
from pathlib import Path

from criteval.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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
    assert Path("out/curve_car_l0.5.csv").exists()
