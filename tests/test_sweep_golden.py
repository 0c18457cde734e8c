"""Pinned ``sweep`` artifacts: every configuration below writes exactly
the bytes under ``tests/data/sweep_golden/``.

The inputs are three small ``synth`` files at fixed seeds; each
configuration's directory holds the files ``sweep`` wrote into its out
dir and its stdout. A change that moves any curve, metric or summary
line, by a rounding or by a tie-break, fails here.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "data" / "sweep_golden"

# Input file name -> synth arguments.
INPUTS = {
    "rcv.jsonl": ("--n", "60", "--seed", "21", "--pre-noise", "0.2"),
    "sc.jsonl": ("--n", "60", "--seed", "22", "--scheme", "sc"),
    "fcv.jsonl": ("--n", "60", "--seed", "23", "--scheme", "fcv", "--easy-fraction", "0.25"),
}

# Configuration name -> (input file, sweep arguments).
CONFIGS = {
    "pre": ("rcv.jsonl", ("--mode", "pre", "--golden")),
    "pre_sc": ("sc.jsonl", ("--mode", "pre", "--golden")),
    "pre_refusal": ("rcv.jsonl", ("--mode", "pre", "--score-source", "refusal", "--golden")),
    "pre_refusal_fine_perfect": (
        "rcv.jsonl",
        ("--mode", "pre", "--score-source", "refusal", "--taus", "0:1:0.05", "--assume-perfect", "--golden"),
    ),
    "pre_perfect": ("rcv.jsonl", ("--mode", "pre", "--assume-perfect", "--golden")),
    "cascade_rcv": ("rcv.jsonl", ("--mode", "cascade", "--golden")),
    "cascade_rcv_fine": ("rcv.jsonl", ("--mode", "cascade", "--taus", "0:1:0.01", "--tau", "0.37", "--golden")),
    "cascade_rcv_alpha1": ("rcv.jsonl", ("--mode", "cascade", "--alpha", "1", "--tau", "0.8", "--golden")),
    "cascade_perfect": ("rcv.jsonl", ("--mode", "cascade", "--assume-perfect", "--golden")),
    "cascade_sc": ("sc.jsonl", ("--mode", "cascade", "--scheme", "sc", "--golden")),
    "cascade_sc_k5": ("sc.jsonl", ("--mode", "cascade", "--scheme", "sc", "--k", "5", "--alpha", "0", "--golden")),
    "cascade_fcv": ("fcv.jsonl", ("--mode", "cascade", "--scheme", "fcv", "--golden")),
    "cascade_fcv_alpha2": (
        "fcv.jsonl",
        ("--mode", "cascade", "--scheme", "fcv", "--alpha", "2", "--tau", "0.9", "--golden"),
    ),
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stdout."""
    from routerlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def sweep(name: str, inputs: Path, workdir: Path) -> dict[str, bytes]:
    """Every file one configuration writes, and its stdout, by name.

    Runs in ``workdir`` with a relative out dir, so that the paths
    ``sweep`` prints do not depend on where it runs.
    """
    source, args = CONFIGS[name]
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        code, stdout = run_cli(["sweep", str(inputs / source), *args, "--out-dir", name])
    finally:
        os.chdir(previous)
    assert code == 0, name
    files = {path.name: path.read_bytes() for path in sorted((workdir / name).iterdir())}
    files["stdout.txt"] = stdout.encode("utf-8")
    return files


def pinned(name: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}


class TestSweepGolden:
    @pytest.mark.parametrize("source", INPUTS)
    def test_synth_writes_the_pinned_inputs(self, source, tmp_path):
        code, _ = run_cli(["synth", str(tmp_path / source), *INPUTS[source]])
        assert code == 0
        assert (tmp_path / source).read_bytes() == (GOLDEN / source).read_bytes()

    @pytest.mark.parametrize("name", CONFIGS)
    def test_sweep_writes_the_pinned_bytes(self, name, tmp_path):
        assert sweep(name, GOLDEN, tmp_path) == pinned(name)

