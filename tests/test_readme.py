"""The README's Quick start and Library use examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from routerlab import cli
from routerlab.records import PreferencePair, RefusalExample, refusal_prompt

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
    # The recompute command gives the sweep's ToGR at the CSVs' precision.
    (recompute,) = [shlex.split(line) for line in fenced_blocks("Quick start", "sh")[1].splitlines()]
    assert recompute[:2] == ["routerlab", "metrics"]
    assert cli.main(recompute[1:]) == 0
    togr = json.loads(capsys.readouterr().out)["togr"]
    assert togr == pytest.approx(json.loads((tmp_path / "run" / "metrics.json").read_text())["togr"], abs=1e-4)
    assert f"{togr:.7f}" in README


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "questions.jsonl", "--n", "500", "--seed", "7"]) == 0
    capsys.readouterr()
    (code,) = fenced_blocks("Library use", "python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["ToA", "AROL"]


def test_output_rows_show_the_written_keys_in_order():
    pair = PreferencePair(
        question_id="q", chosen="a", rejected="b", chosen_tokens=1, rejected_tokens=2
    )
    example = RefusalExample(
        question_id="q", threshold=0.3, prompt=refusal_prompt(0.3, "Q"), target="a"
    )
    shown = [json.loads(block) for block in fenced_blocks("Data formats", "json")]
    assert list(pair.to_dict()) in [list(row) for row in shown]
    assert list(example.to_dict()) in [list(row) for row in shown]
