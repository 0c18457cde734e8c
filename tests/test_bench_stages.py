"""Smoke test of the stage driver ``bench/stages.py`` at 50 questions."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import stages  # noqa: E402
from routerlab import cli  # noqa: E402


def test_appends_one_entry_per_run(tmp_path, capsys):
    out = tmp_path / "BENCH_e2e.json"
    for _ in range(2):
        assert stages.main(["--sizes", "50", "--rounds", "5", "--out", str(out)]) == 0
    entries = json.loads(out.read_text(encoding="utf-8"))
    assert len(entries) == 2
    entry = entries[-1]
    assert {"date", "commit", "python", "machine", "grid", "sizes", "rounds", "seed"} <= set(entry)
    assert (entry["sizes"], entry["rounds"]) == ([50], 5)
    result = entry["results"]["50"]
    assert list(result["stages"]) == list(stages.STAGES)
    for times in result["stages"].values():
        assert 0 <= times["min_s"] <= times["median_s"]
    assert result["load_over_decode"] > 0
    assert list(result["cli"]) == list(stages.COMMANDS)
    for run in result["cli"].values():
        assert 0 < run["wall_min_s"] <= run["wall_median_s"]
        assert run["peak_rss_mb"] > 0
    # The control's peak is the launcher's floor, below any CLI run's.
    control = result["cli"].pop("control")["peak_rss_mb"]
    assert all(control <= run["peak_rss_mb"] for run in result["cli"].values())
    assert {"load_training", "dpo_pairs", "refusal_rows"} <= set(result["stages"])
    assert "decode_training" in result["stages"]
    assert "build" in result["cli"]
    out = capsys.readouterr().out
    assert "load/decode" in out and "n=50 cli: pre_refusal_golden " in out
    assert " build " in out and " refusal_rows " in out


def test_failed_cli_run_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(stages.COMMANDS, "control", ["-c", "import sys; sys.exit('boom')"])
    out = tmp_path / "BENCH_e2e.json"
    with pytest.raises(SystemExit) as caught:
        stages.main(["--sizes", "50", "--out", str(out)])
    assert caught.value.code == 1
    assert "cli: control failed: boom" in capsys.readouterr().err
    assert not out.exists()


def test_gate_failure_stops_before_timing(tmp_path, monkeypatch, capsys):
    sweep_pre = cli.sweep_pre

    def swapped(*args, **kwargs):
        result = sweep_pre(*args, **kwargs)
        return type(result)(result.perfect_points, result.points, result.latency)

    monkeypatch.setattr(cli, "sweep_pre", swapped)
    monkeypatch.setattr(stages, "time_stages", lambda *args: pytest.fail("timed after a failed gate"))
    out = tmp_path / "BENCH_e2e.json"
    with pytest.raises(SystemExit) as caught:
        stages.main(["--sizes", "50", "--out", str(out)])
    assert caught.value.code == 1
    assert "gate: n=50: pre: curve.csv" in capsys.readouterr().err
    assert not out.exists()


def test_build_gate_failure_stops_before_timing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_dpo_pair", lambda *args: None)
    monkeypatch.setattr(stages, "time_stages", lambda *args: pytest.fail("timed after a failed gate"))
    out = tmp_path / "BENCH_e2e.json"
    with pytest.raises(SystemExit) as caught:
        stages.main(["--sizes", "50", "--out", str(out)])
    assert caught.value.code == 1
    err = capsys.readouterr().err
    assert "gate: n=50: build: pairs.jsonl: 0 pairs" in err
    assert "gate: n=50: pre:" not in err and "gate: n=50: cascade:" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--rounds", "4"], ["--sizes", "0"]])
def test_too_few_rounds_or_no_questions_exit_two(argv, tmp_path):
    with pytest.raises(SystemExit) as caught:
        stages.main([*argv, "--out", str(tmp_path / "b.json")])
    assert caught.value.code == 2
