"""Self-test of the oracle gate on tiny real CLI runs.

    python3 -m pytest perfbench/test_gate.py

Untouched CLI outputs must pass the gate; one perturbed artifact must
fail it.
"""

import csv
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402
import gate  # noqa: E402
from routerlab import cli  # noqa: E402
from routerlab.io import load_dataset  # noqa: E402
from routerlab.records import DEFAULT_TAUS  # noqa: E402


@pytest.mark.parametrize(
    "mode, args, taus",
    [
        ("cascade", ["--taus", "0:1:0.05"], gate.grid(0.0, 1.0, 0.05)),
        ("pre", ["--score-source", "refusal"], DEFAULT_TAUS),
    ],
)
def test_sweep_gate_rejects_n_routed_off_by_one(tmp_path, capsys, mode, args, taus):
    data, out = tmp_path / "q.jsonl", tmp_path / "out"
    assert cli.main(["synth", str(data), "--n", "40", "--seed", "3", "--pre-noise", "0.2"]) == 0
    argv = ["sweep", str(data), "--mode", mode, *args, "--golden", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    questions, profile = load_dataset(str(data))
    score_source = "refusal" if mode == "pre" else "pre"
    expected = gate.expected_sweep(questions, profile, mode, taus, score_source)

    assert gate.check_sweep(expected, str(out)) == []

    curve = out / "curve.csv"
    with open(curve, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[3][3] = str(int(rows[3][3]) + 1)
    with open(curve, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    problems = gate.check_sweep(expected, str(out))
    assert len(problems) == 1 and "curve.csv:4: n_routed" in problems[0]


def test_build_gate_rejects_a_dropped_refusal_row(tmp_path, capsys):
    data, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    rows = corpus.generate(30, seed=5)
    corpus.write(rows, str(data))
    assert cli.main(["build", str(data), "--out-dir", str(out), "--seed", "5"]) == 0

    assert gate.check_build(rows, str(out)) == []

    refusal = out / "refusal.jsonl"
    lines = refusal.read_text().splitlines(keepends=True)
    refusal.write_text("".join(lines[:7] + lines[8:]))
    problems = gate.check_build(rows, str(out))
    assert problems == ["refusal.jsonl: q000000: 9 rows, expected 10"]
