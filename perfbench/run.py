"""Oracle-gated end-to-end benchmark of the routerlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository root is the parent of this file's directory; the program
is imported from its ``src/``. Each workload is a closed loop with one
client: one ``python3 -m routerlab.cli`` child at a time, reaped with
``os.wait4`` so that its own peak RSS is read. Inputs are made from
--seed before anything is timed, and every CLI run's outputs are
checked against the oracle in gate.py; on any mismatch no timing is
reported and the exit code is 1.

Workloads (N is scaled down from the sizes named in ROADMAP item 1 so
that a 2-core machine makes ten or more repetitions per run, keeping
each workload's layer shares):

* cascade_fine_grid: ``sweep --mode cascade --taus 0:1:0.01 --golden``
  on 400 synthetic rcv questions. The sweep engine (cascade, kernels,
  costs) does over 80% of the work, and its cost grows with the grid.
* pre_refusal_large: ``sweep --mode pre --score-source refusal --golden``
  on 4000 questions and the default 11-point grid; loading (io, records)
  is about a quarter of the run.
* build_corpus: ``build`` over a generated corpus of 6000 questions with
  ten completions each. No sweep runs; io reads a 5 MB JSONL and writes
  about 12 MB.

--trace 0 measures the end-to-end metrics. Each repetition is one CLI
run, then one set-up, then one run of a fixed reference task, so all
three sample the whole measuring window. Each metric is a median over
the repetitions that follow one untimed warm-up run:

* setup_s: spawn-to-return time of a fresh interpreter that imports
  routerlab.cli and loads the input with the CLI's loader;
* run_ref: a CLI run's spawn-to-exit wall time divided by the wall time
  of the reference task (REFERENCE_CODE) run right after it. The host's
  speed drifts by tens of percent over minutes and wall seconds drift
  with it; the ratio cancels most of that drift and still moves one to
  one with the program's own time;
* questions_per_ref: N / run_ref;
* peak_rss_mb: the CLI child's ru_maxrss.

The wall-clock run_s and questions_per_s (N / run_s) are printed too but
not gated. --trace 1 repeats pairs of an untraced CLI run and a traced
one (spans.py) and reports the per-layer metrics, medians over the
pairs. Metric names and units come from BENCHMARK.json. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; one operation is one CLI run plus its output check, and
failed / attempted is the error rate.

Details of every run (samples, input sha256, machine and program
metadata) are written to .bench_runs/results/ under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SPANS = Path(__file__).resolve().parent / "spans.py"

MIN_REPS = 3
# Hard stop for the whole run, below the 180 s a run may take.
DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    "import routerlab.cli\n"
    "from routerlab import io\n"
    "getattr(io, sys.argv[1])(sys.argv[2])\n"
    "print(repr(time.perf_counter()))\n"
)

# Fixed stdlib-only task that stands for the machine's current speed at
# the kind of work the CLI does: a fresh interpreter decoding JSON lines,
# building and sorting small objects, and summing floats. It imports
# nothing from routerlab and ignores --seed, so no change to the program
# or its inputs moves it.
REFERENCE_CODE = (
    "import json, random\n"
    "rng = random.Random(7)\n"
    "rows = [{'id': f'q{i:06d}', 'v': [rng.random() for _ in range(10)], 't': rng.randint(1, 500)}"
    " for i in range(20000)]\n"
    "back = [json.loads(line) for line in map(json.dumps, rows)]\n"
    "back.sort(key=lambda r: (r['t'], r['id']))\n"
    "print(sum(x for r in back for x in r['v'] if x > 0.5))\n"
)

# Per-layer self times: metric name -> span name.
SELF_TIMES = {
    "io.load_dataset_s": "io.load_dataset",
    "io.load_training_s": "io.load_training",
    "io.write_pairs_s": "io.write_pairs",
    "io.write_refusal_s": "io.write_refusal",
    "records.parse_question_s": "records.parse_question",
    "records.profile_s": "records.profile",
    "cascade.sweep_s": "cascade.sweep",
    "cascade.sweep_perfect_s": "cascade.sweep_perfect",
    "kernels.cascade_vote_s": "kernels.cascade_vote",
    "prerouting.sweep_s": "prerouting.sweep",
    "prerouting.sweep_perfect_s": "prerouting.sweep_perfect",
    "costs.normalize_s": "costs.normalize",
    "metrics.golden_s": "metrics.golden",
    "metrics.toa_s": "metrics.toa",
    "metrics.latency_report_s": "metrics.latency_report",
    "trainset.dpo_pairs_s": "trainset.dpo_pairs",
    "trainset.refusal_examples_s": "trainset.refusal_examples",
    "cli.write_artifacts_s": "cli.write_artifacts",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    mode: str  # "cascade", "pre" or "build"
    taus: tuple[float, ...] = ()
    cli_args: tuple[str, ...] = ()

    @property
    def loader(self) -> str:
        return "load_training_questions" if self.mode == "build" else "load_dataset"


def _workloads():
    from routerlab.records import DEFAULT_TAUS

    import gate

    return {
        w.name: w
        for w in (
            Workload(
                "cascade_fine_grid",
                n=400,
                mode="cascade",
                taus=gate.grid(0.0, 1.0, 0.01),
                cli_args=("--mode", "cascade", "--taus", "0:1:0.01", "--golden"),
            ),
            Workload(
                "pre_refusal_large",
                n=4000,
                mode="pre",
                taus=DEFAULT_TAUS,
                cli_args=("--mode", "pre", "--score-source", "refusal", "--golden"),
            ),
            Workload("build_corpus", n=6000, mode="build"),
        )
    }


class Bench:
    """Spawns children one at a time and counts checked operations."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
            # One hash seed for every child, so set and dict layouts do not
            # vary between repetitions.
            PYTHONHASHSEED="0",
        )
        self.log = work / "child.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str], start: float | None = None):
        """Run one child to completion: (start, end, peak RSS MB, exit code)."""
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise SystemExit("error: run deadline passed")
        with open(self.log, "wb") as log:
            start = time.perf_counter() if start is None else start
            child = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(remaining, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        child.returncode = os.waitstatus_to_exitcode(status)
        return start, end, usage.ru_maxrss / 1024, child.returncode

    def log_tail(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace").strip()[-400:]

    def spawn_ok(self, argv: list[str]):
        result = self.spawn(argv)
        if result[3] != 0:
            raise SystemExit(f"error: {' '.join(argv[1:4])} exited {result[3]}: {self.log_tail()}")
        return result

    def operation(self, argv: list[str], check, out: Path, start: float | None = None):
        """One CLI run plus its output check: (start, end, peak RSS MB, ok)."""
        shutil.rmtree(out, ignore_errors=True)
        start, end, rss, rc = self.spawn(argv, start)
        problems = [f"exit code {rc}: {self.log_tail()}"] if rc else check(str(out))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return start, end, rss, not problems


def cli_argv(workload: Workload, data: Path, out: Path, seed: int) -> list[str]:
    if workload.mode == "build":
        args = ["build", str(data), "--out-dir", str(out), "--seed", str(seed)]
    else:
        args = ["sweep", str(data), *workload.cli_args, "--out-dir", str(out)]
    return [sys.executable, "-m", "routerlab.cli", *args]


def prepare(workload: Workload, bench: Bench, seed: int):
    """Make the input from the seed; return (path, output check)."""
    import corpus
    import gate

    if workload.mode == "build":
        data = bench.work / "corpus.jsonl"
        rows = corpus.generate(workload.n, seed)
        corpus.write(rows, str(data))
        return data, _byte_identical(lambda out: gate.check_build(rows, out))

    from routerlab.io import load_dataset

    data = bench.work / "questions.jsonl"
    bench.spawn_ok(
        [sys.executable, "-m", "routerlab.cli", "synth", str(data),
         "--n", str(workload.n), "--seed", str(seed), "--pre-noise", "0.2"]
    )
    questions, profile = load_dataset(str(data))
    expected = gate.expected_sweep(
        questions, profile, workload.mode, workload.taus,
        score_source="refusal" if workload.mode == "pre" else "pre",
    )
    return data, lambda out: gate.check_sweep(expected, out)


def _byte_identical(check):
    """Full check of the first output; later outputs must equal it byte for byte."""
    reference = {}

    def checked(out: str) -> list[str]:
        if not reference:
            problems = check(out)
            if not problems:
                reference.update(_digests(out))
            return problems
        if not os.path.isdir(out) or _digests(out) != reference:
            return ["outputs differ from the first verified repetition"]
        return []

    return checked


def _digests(out: str) -> dict:
    return {name: sha256(Path(out, name)) for name in sorted(os.listdir(out))}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def repeat(bench, argv, check, out, seconds, rep):
    """One untimed warm-up run, then ``rep()`` until ``seconds`` would be
    exceeded (at least MIN_REPS times). ``rep`` returns None on failure."""
    bench.operation(argv, check, out)
    samples, durations = [], []
    start = time.perf_counter()
    while not bench.failed and (
        len(samples) < MIN_REPS
        or time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        began = time.perf_counter()
        sample = rep()
        if sample is None:
            break
        samples.append(sample)
        durations.append(time.perf_counter() - began)
    return samples


def time_setup(workload, bench, data) -> float:
    """Spawn-to-return of a fresh interpreter that imports the CLI and loads the input."""
    start, end, _, _ = bench.spawn_ok([sys.executable, "-c", SETUP_CODE, workload.loader, str(data)])
    returned = float(bench.log.read_text().split()[-1])
    if not start < returned < end:
        raise SystemExit("error: child clock is not the parent's monotonic clock")
    return returned - start


def traced_pair(workload, bench, argv, data, check, seed, rep):
    """An untraced CLI run, then a traced one (spans.py) of the same command.

    Pairing them in time keeps machine drift out of the tracing overhead.
    Both runs pass the gate or the pair is dropped (None).
    """
    start, end, _, ok = bench.operation(argv, check, bench.work / "out")
    if not ok:
        return None
    run_s = end - start
    out = bench.work / "traced"
    spans_json = bench.work / "spans.json"
    start = time.perf_counter()
    traced_argv = [
        sys.executable, str(SPANS), str(spans_json), f"{workload.name}-{seed}-{rep}",
        repr(start), str(data), "--", *cli_argv(workload, data, out, seed)[3:],
    ]
    start, end, _, ok = bench.operation(traced_argv, check, out, start)
    if not ok:
        return None
    trace = json.loads(spans_json.read_text())
    trace.update(run_s=run_s, total_s=end - start)
    trace["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    pairs = out / "pairs.jsonl"
    trace["pairs"] = sum(1 for _ in open(pairs, "rb")) if pairs.exists() else 0
    return trace


def layer_metrics(trace: dict, workload: Workload) -> dict:
    """Per-layer metrics of one traced run. Layers the workload does not
    exercise, or whose function no longer exists, read 0."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    for span in trace["spans"]:
        self_s[span["name"]] += span["self_s"]
        inclusive[span["name"]] += span["end"] - span["start"]
    for record in trace["aggregates"]:
        self_s[record["name"]] += record["self_s"]
        calls[record["name"]] += record["calls"]
    n = workload.n
    cells = n * len(workload.taus)
    floor = trace["json_decode_floor_s"]
    m = {metric: self_s[span] for metric, span in SELF_TIMES.items()}
    m.update(
        {
            "cli.import_s": trace["import_s"],
            "io.json_decode_floor_s": floor,
            # Whole loader call (decode plus record construction) over the floor.
            "io.load_over_decode": (inclusive["io.load_dataset"] + inclusive["io.load_training"]) / floor,
            "io.bytes_written": trace["bytes_written"],
            "cascade.us_per_question_tau": inclusive["cascade.sweep"] * 1e6 / cells if cells else 0.0,
            "prerouting.us_per_question_tau": inclusive["prerouting.sweep"] * 1e6 / cells if cells else 0.0,
            "kernels.cascade_vote_calls": calls["kernels.cascade_vote"],
            "kernels.calls_per_question": calls["kernels.cascade_vote"] / n,
            "costs.normalize_calls": calls["costs.normalize"],
            "trainset.pair_yield": trace["pairs"] / n,
        }
    )
    accounted = sum(m[k] for k in SELF_TIMES) + m["cli.import_s"]
    m["cli.remainder_s"] = trace["run_s"] - accounted
    m["trace.overhead_s"] = trace["total_s"] - trace["run_s"]
    return m


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: Workload, seed: int) -> dict:
    try:
        from routerlab import kernels

        backend = kernels.backend_name()
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "workload": workload.name,
        "n": workload.n,
        "grid_size": len(workload.taus),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "kernels_backend": backend,
        "git_commit": git_commit(),
    }


def spec_metrics(section: str, values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def run(workload: Workload, seed: int, seconds: int, trace: bool, bench: Bench) -> dict:
    record = metadata(workload, seed)
    print(" ".join(f"{k}={v}" for k, v in record.items()), flush=True)
    data, check = prepare(workload, bench, seed)
    record["prepare_s"] = time.perf_counter() - bench.started
    record["input_sha256"] = {data.name: sha256(data)}
    print(f"input {data.name} sha256={record['input_sha256'][data.name]}", flush=True)

    out = bench.work / "out"
    argv = cli_argv(workload, data, out, seed)
    values = {}
    if trace:
        count = itertools.count()
        traces = repeat(
            bench, argv, check, out, seconds,
            lambda: traced_pair(workload, bench, argv, data, check, seed, next(count)),
        )
        per_run = [layer_metrics(t, workload) for t in traces]
        if not bench.failed:
            values = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
        record.update(
            traces=traces,
            layer_samples=per_run,
            absent=sorted({a for t in traces for a in t["absent"]}),
        )
    else:

        def timed():
            # Each CLI run is followed by one set-up and one reference run, so
            # all three sample the whole window and each run has a reference
            # taken seconds after it.
            start, end, rss, ok = bench.operation(argv, check, out)
            if not ok:
                return None
            setup = time_setup(workload, bench, data)
            ref_start, ref_end, _, _ = bench.spawn_ok([sys.executable, "-c", REFERENCE_CODE])
            return end - start, rss, setup, ref_end - ref_start

        samples = repeat(bench, argv, check, out, seconds, timed)
        for i, name in enumerate(("run_s", "peak_rss_mb", "setup_s", "reference_s")):
            record[f"{name}_samples"] = [sample[i] for sample in samples]
        if not bench.failed:
            run_s = statistics.median(record["run_s_samples"])
            run_ref = statistics.median(
                wall / ref for wall, ref in zip(record["run_s_samples"], record["reference_s_samples"])
            )
            values = {
                "setup_s": statistics.median(record["setup_s_samples"]),
                "run_ref": run_ref,
                "questions_per_ref": workload.n / run_ref,
                "peak_rss_mb": statistics.median(record["peak_rss_mb_samples"]),
                "run_s": run_s,
                "questions_per_s": workload.n / run_s,
                "reference_s": statistics.median(record["reference_s_samples"]),
            }
    record.update(attempted=bench.attempted, failed=bench.failed, problems=bench.problems)
    record["metrics"] = values
    return record


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    attempted, failed = record["attempted"], record["failed"]
    print(f"error_rate = {failed / max(attempted, 1):.4f} ratio ({failed} failed of {attempted} operations)")
    for problem in record["problems"][:10]:
        print(f"  gate: {problem}")
    if failed:
        print("oracle gate failed: no timings reported")
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    metrics = spec_metrics("per_layer" if trace else "end_to_end", record["metrics"])
    if trace:
        note = f"median of {len(record['traces'])} traced runs"
    else:
        note = f"median of {len(record['run_s_samples'])} runs"
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} ({note})")
    for name, unit in (("run_s", "s"), ("questions_per_s", "1/s"), ("reference_s", "s")):
        if name in record["metrics"]:
            print(f"{name} = {record['metrics'][name]:.6g} {unit} ({note}; wall clock, not gated)")
    if trace:
        if record["absent"]:
            print(f"absent (not traced): {', '.join(record['absent'])}")
        for t, m in zip(record["traces"], record["layer_samples"]):
            layers = t["run_s"] - m["cli.remainder_s"]
            print(
                f"{t['run_id']}: layer self times {layers:.4f} s + cli.remainder_s "
                f"{m['cli.remainder_s']:.4f} s = run_s {t['run_s']:.4f} s; "
                f"+ trace.overhead_s {m['trace.overhead_s']:.4f} s = traced total {t['total_s']:.4f} s"
            )
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "routerlab" / "cli.py").is_file():
        print(f"error: no routerlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads)}", file=sys.stderr)
        return 2

    work = RUNS / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), Bench(work, started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(record, bool(args.trace))
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
