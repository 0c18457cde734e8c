"""The README's Quick start and Library use examples run as written."""

import re
import shlex
from pathlib import Path

from routerlab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(section, language):
    """The ``language`` code blocks under the README's ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, re.S)


def test_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands, shown = fenced_blocks("Quick start", "sh")[0], fenced_blocks("Quick start", "text")[0]
    runs = [shlex.split(line) for line in commands.splitlines() if line.startswith("routerlab ")]
    assert [run[1] for run in runs] == ["synth", "validate", "sweep"]
    for run in runs:
        capsys.readouterr()
        assert cli.main(run[1:]) == 0
    assert capsys.readouterr().out == shown
    for name in ("curve.csv", "metrics.json", "golden.csv", "curve_perfect.csv"):
        assert (tmp_path / "run" / name).is_file()


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "questions.jsonl", "--n", "500", "--seed", "7"]) == 0
    capsys.readouterr()
    (code,) = fenced_blocks("Library use", "python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["ToA", "AROL"]
