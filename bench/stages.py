"""Stage timings of a routerlab sweep and build, in process and as CLI runs, appended to BENCH_e2e.json.

    python3 bench/stages.py [--sizes 4000,20000] [--rounds 5] [--out BENCH_e2e.json]

For each size n it writes ``synth --n n --seed 1 --pre-noise 0.2``
questions and an n-question training corpus from
``perfbench/corpus.generate(n, 1)`` to a temporary directory. It first
checks the CLI's outputs on them against ``perfbench/gate.py``'s oracle:
the curves of ``sweep --golden`` in pre mode with refusal scores and in
cascade mode (default grid), and the files of ``build --seed 1``
(``gate.check_build``). On any mismatch it exits 1 without timing
anything. It then times each stage in R rounds, the stages interleaved
within a round, as CPU time of this process (``time.process_time``):

* ``decode``: ``io._decode`` of every line, the JSON decode that
  rejects a repeated key;
* ``load_dataset``: ``io.load_dataset``, decode and records;
* ``sweep_pre``: ``sweep_pre`` with refusal scores;
* ``sweep_cascade``: ``sweep_cascade`` with the rcv scheme;
* ``golden_curve``, which ``sweep --golden`` runs in both modes;
* ``write_artifacts``: ``cli._sweep_artifacts`` of the cascade run and
  its golden curve, the report and files ``sweep --golden`` makes
  (``curve.csv``, ``curve_perfect.csv``, ``golden.csv`` and
  ``metrics.json``), written by ``cli._write_artifacts``;
* ``decode_training``: ``io._decode`` of every corpus line, whose
  texts hold colons;
* ``load_training``: ``io.load_training_questions`` of the corpus;
* ``dpo_pairs``: ``trainset._dpo_pair`` of each question's columns with
  ``build``'s default options, the pair rule ``build`` runs;
* ``refusal_rows``: ``trainset.refusal_targets`` of each question and
  ``io._write_refusal_rows`` of them, ``build``'s ``refusal.jsonl``.

Each round then runs the CLI as one subprocess per command, ``sweep
--mode pre --score-source refusal --golden``, ``sweep --mode cascade
--golden`` and ``build --seed 1``, and ``python -c pass`` as a control.
Each is started with ``os.posix_spawn`` by a small launcher
(``LAUNCHER``) that reaps it with ``os.wait4``, so its wall time is
spawn to exit and its peak RSS is its own: a child spawned straight
from this process would report this process's high-water mark, as
Linux keeps it across ``exec``. The control's peak is the launcher's
floor. ``src/`` is byte-compiled
first and the children run with ``PYTHONDONTWRITEBYTECODE`` cleared,
so no run compiles the source.

Each stage reports its minimum and median over the rounds, and each CLI
command its wall minimum and median and its largest peak RSS; the entry
also gives ``load_dataset`` over ``decode`` as a ratio of minima. The
entry records the machine, the git commit, Python, the grid, sizes,
rounds and seed, and whether ``src/`` had changes the commit does not
hold. Compare minima across entries: on a shared host the medians
drift with load.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import io as stdio
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
import gate  # noqa: E402
from routerlab import cli, io, trainset  # noqa: E402
from routerlab.cascade import sweep_cascade  # noqa: E402
from routerlab.metrics import golden_curve  # noqa: E402
from routerlab.prerouting import sweep_pre  # noqa: E402
from routerlab.records import DEFAULT_TAUS, REJECTED_TOKEN_RATIO, PricingSchedule  # noqa: E402

STAGES = (
    "decode", "load_dataset", "sweep_pre", "sweep_cascade", "golden_curve",
    "write_artifacts", "decode_training", "load_training", "dpo_pairs", "refusal_rows",
)
MIN_ROUNDS = 5
SEED = 1

# Each CLI command timed as a subprocess, and the control; ``{path}`` is
# the questions, ``{corpus}`` the training corpus and ``{out}`` the
# command's own directory.
COMMANDS = {
    "pre_refusal_golden": [
        "-m", "routerlab.cli", "sweep", "{path}", "--mode", "pre", "--score-source", "refusal",
        "--golden", "--out-dir", "{out}",
    ],
    "cascade_golden": [
        "-m", "routerlab.cli", "sweep", "{path}", "--mode", "cascade", "--golden", "--out-dir", "{out}",
    ],
    "build": ["-m", "routerlab.cli", "build", "{corpus}", "--out-dir", "{out}", "--seed", str(SEED)],
    "control": ["-c", "pass"],
}

# Run as ``python -c LAUNCHER out_dir argv...``: spawns argv with its
# stdout sent to out_dir/stdout, reaps it, and prints its exit code,
# wall seconds and peak RSS in MB.
LAUNCHER = """
import os, sys, time
out, argv = sys.argv[1], sys.argv[2:]
sink = [(os.POSIX_SPAWN_OPEN, 1, os.path.join(out, "stdout"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=sink)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024)
"""


def make_input(n: int, directory: str) -> dict[str, str]:
    """The questions' and the corpus's paths, as ``COMMANDS`` name them."""
    paths = {
        "path": os.path.join(directory, f"questions-{n}.jsonl"),
        "corpus": os.path.join(directory, f"corpus-{n}.jsonl"),
    }
    params = io.SyntheticParams(pre_score_noise=0.2)
    io.write_dataset(io.generate_synthetic(n, SEED, params), paths["path"])
    corpus.write(corpus.generate(n, SEED), paths["corpus"])
    return paths


def check(paths: dict[str, str], directory: str) -> list[str]:
    """The oracle gate's problems with the CLI's two sweeps and its build."""
    path = paths["path"]
    questions, profile = io.load_dataset(path)
    problems = []
    for mode, args, score_source in (
        ("pre", ["--score-source", "refusal"], "refusal"),
        ("cascade", [], "pre"),
    ):
        out = os.path.join(directory, f"gate-{mode}")
        with contextlib.redirect_stdout(stdio.StringIO()):
            code = cli.main(["sweep", path, "--mode", mode, *args, "--golden", "--out-dir", out])
        if code != 0:
            problems.append(f"{mode}: sweep exited {code}")
            continue
        expected = gate.expected_sweep(questions, profile, mode, DEFAULT_TAUS, score_source)
        problems += [f"{mode}: {problem}" for problem in gate.check_sweep(expected, out)]
    out = os.path.join(directory, "gate-build")
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.main(["build", paths["corpus"], "--out-dir", out, "--seed", str(SEED)])
    if code != 0:
        return [*problems, f"build: exited {code}"]
    with open(paths["corpus"], encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    return problems + [f"build: {problem}" for problem in gate.check_build(rows, out)]


def cpu(call, *args):
    """``call(*args)``'s result and the CPU seconds it took."""
    gc.collect()
    start = time.process_time()
    result = call(*args)
    return result, time.process_time() - start


def nonblank_lines(path: str) -> list[bytes]:
    """The lines ``io._read_jsonl`` decodes: all but those of JSON whitespace only."""
    with open(path, "rb") as handle:
        return [line for line in handle if line.strip(b" \t\r\n")]


def decode_all(lines: list[bytes]) -> None:
    for line in lines:
        io._decode(line)


def write_artifacts(directory: str, result, golden) -> None:
    """What ``sweep --golden`` makes of a sweep and writes: its report and files."""
    _, artifacts = cli._sweep_artifacts(result, golden, assume_perfect=False)
    cli._write_artifacts(directory, artifacts)


def dpo_pairs(questions) -> list:
    """Each question's pair under ``build``'s default options, or None."""
    return [
        trainset._dpo_pair(q.id, q.texts, q.correct, q.tokens, REJECTED_TOKEN_RATIO, False)
        for q in questions
    ]


def refusal_rows(path: str, questions) -> None:
    """``build``'s refusal rows: each question's targets, written."""
    io._write_refusal_rows(((q, trainset.refusal_targets(q, SEED)) for q in questions), path)


def launch(command: str, paths: dict[str, str], directory: str, env: dict[str, str]) -> tuple[float, float]:
    """Wall seconds and peak RSS MB of one run of ``COMMANDS[command]``
    on ``paths``; raises SystemExit(1) if it fails."""
    out = os.path.join(directory, f"cli-{command}")
    os.makedirs(out, exist_ok=True)
    argv = [arg.format(out=out, **paths) for arg in COMMANDS[command]]
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, out, sys.executable, *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0 or not done.stdout.startswith("0 "):
        print(f"cli: {command} failed: {done.stderr.strip()[-500:]}", file=sys.stderr)
        raise SystemExit(1)
    _, wall, rss = done.stdout.split()
    return float(wall), float(rss)


def cli_env() -> dict[str, str]:
    """The children's environment, after byte-compiling ``src/``."""
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_stages(paths: dict[str, str], directory: str, rounds: int) -> dict[str, list]:
    """CPU seconds of each stage in each round, the stages interleaved,
    then the wall seconds and peak RSS of each ``COMMANDS`` run."""
    path = paths["path"]
    question_lines, corpus_lines = nonblank_lines(path), nonblank_lines(paths["corpus"])
    pricing = PricingSchedule()
    out = os.path.join(directory, "artifacts")
    seconds: dict[str, list] = {name: [] for name in (*STAGES, *COMMANDS)}
    env = cli_env()
    for _ in range(rounds):
        _, took = cpu(decode_all, question_lines)
        seconds["decode"].append(took)
        (questions, profile), took = cpu(io.load_dataset, path)
        seconds["load_dataset"].append(took)
        _, took = cpu(sweep_pre, questions, profile, pricing, DEFAULT_TAUS, "refusal")
        seconds["sweep_pre"].append(took)
        result, took = cpu(sweep_cascade, questions, profile, pricing)
        seconds["sweep_cascade"].append(took)
        golden, took = cpu(golden_curve, questions, profile, pricing)
        seconds["golden_curve"].append(took)
        _, took = cpu(write_artifacts, out, result, golden)
        seconds["write_artifacts"].append(took)
        del questions, profile, result, golden
        _, took = cpu(decode_all, corpus_lines)
        seconds["decode_training"].append(took)
        training, took = cpu(io.load_training_questions, paths["corpus"])
        seconds["load_training"].append(took)
        _, took = cpu(dpo_pairs, training)
        seconds["dpo_pairs"].append(took)
        _, took = cpu(refusal_rows, os.path.join(directory, "refusal.jsonl"), training)
        seconds["refusal_rows"].append(took)
        del training
        for command in COMMANDS:
            seconds[command].append(launch(command, paths, directory, env))
    return seconds


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def entry(sizes: list[int], rounds: int) -> dict:
    """One BENCH_e2e.json entry; raises SystemExit(1) if the gate fails."""
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for n in sizes:
            paths = make_input(n, directory)
            problems = check(paths, directory)
            if problems:
                for problem in problems[:10]:
                    print(f"gate: n={n}: {problem}", file=sys.stderr)
                raise SystemExit(1)
            seconds = time_stages(paths, directory, rounds)
            stages = {
                stage: {"min_s": min(seconds[stage]), "median_s": statistics.median(seconds[stage])}
                for stage in STAGES
            }
            cli_runs = {}
            for command in COMMANDS:
                walls, peaks = zip(*seconds[command])
                cli_runs[command] = {
                    "wall_min_s": min(walls),
                    "wall_median_s": statistics.median(walls),
                    "peak_rss_mb": max(peaks),
                }
            results[str(n)] = {
                "stages": stages,
                "load_over_decode": stages["load_dataset"]["min_s"] / stages["decode"]["min_s"],
                "cli": cli_runs,
            }
            for path in paths.values():
                os.remove(path)
    return {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git("rev-parse", "HEAD"),
        # Whether src/ differed from that commit: then the commit is only the base.
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "machine": {
            "system": platform.system(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpu_count": os.cpu_count(),
        },
        "grid": {"taus": list(DEFAULT_TAUS), "scheme": "rcv", "score_source": "refusal"},
        "corpus": "perfbench/corpus.generate(n, seed)",
        "sizes": sizes,
        "rounds": rounds,
        "seed": SEED,
        "clock": (
            "stages: time.process_time, minimum and median over the rounds; "
            "cli: wall time from spawn to exit, minimum and median, and the largest "
            "ru_maxrss of the child, over the rounds"
        ),
        "results": results,
    }


def append(path: Path, record: dict) -> None:
    entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    entries.append(record)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="4000,20000", help="comma-separated question counts")
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS, help=f"rounds, at least {MIN_ROUNDS}")
    parser.add_argument("--out", default=str(ROOT / "BENCH_e2e.json"), help="JSON list to append to")
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.sizes.split(",")]
    if args.rounds < MIN_ROUNDS or min(sizes) < 1:
        parser.error(f"need at least {MIN_ROUNDS} rounds and positive sizes")
    record = entry(sizes, args.rounds)
    append(Path(args.out), record)
    for n, result in record["results"].items():
        cells = ", ".join(
            f"{stage} {times['min_s']:.3f}/{times['median_s']:.3f}"
            for stage, times in result["stages"].items()
        )
        print(f"n={n}: {cells} s (min/median CPU); load/decode {result['load_over_decode']:.2f}x")
        cells = ", ".join(
            f"{command} {run['wall_min_s']:.3f}/{run['wall_median_s']:.3f} s {run['peak_rss_mb']:.1f} MB"
            for command, run in result["cli"].items()
        )
        print(f"n={n} cli: {cells} (min/median wall, peak RSS)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
