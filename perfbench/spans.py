"""Traced in-process run of the routerlab CLI.

run.py starts this file as a child process, one at a time:

    python3 perfbench/spans.py OUT_JSON RUN_ID SPAWN_TIME INPUT -- <routerlab args>

The child imports ``routerlab.cli``, wraps the public function of each
layer where its caller looks it up, runs ``cli.main`` once with the given
arguments, and writes the spans to OUT_JSON. SPAWN_TIME is the parent's
``time.perf_counter()`` just before the spawn; both processes read the
same monotonic clock, so the child can report spawn-to-import time.

Functions called once or a few times per run get one span per call.
Functions called per question (or per question and threshold) are
aggregated into one record per (name, parent) with a call count, so the
trace stays small and cheap. A layer's self time is its duration minus
the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time


class Tracer:
    """Spans and aggregated call records, held in memory until the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict | None] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self._stack: list[list] = []  # [start, child_seconds, id for children]

    def wrap(self, name, fn, aggregate: bool):
        """``fn`` timed under ``name``; ``name`` may be a function of the
        call's (args, kwargs), to tell apart calls of one function."""

        named = callable(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1][2] if self._stack else None
            if aggregate:
                span_id = parent
            else:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [time.perf_counter(), 0.0, span_id]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[0]
                if self._stack:
                    self._stack[-1][1] += duration
                label = name(args, kwargs) if named else name
                if aggregate:
                    record = self.aggregates.get((label, parent))
                    if record is None:
                        record = self.aggregates[(label, parent)] = [0, 0.0, 0.0]
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
                else:
                    self.spans[span_id] = {
                        "name": label,
                        "start": frame[0],
                        "end": end,
                        "parent": parent,
                        "run_id": self.run_id,
                        "self_s": duration - frame[1],
                    }

        return traced

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [span for span in self.spans if span is not None],
            "aggregates": [
                {
                    "name": name,
                    "parent": parent,
                    "run_id": self.run_id,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                }
                for (name, parent), (calls, total, self_s) in self.aggregates.items()
            ],
        }


def _sweep_name(layer: str):
    def name(args, kwargs):
        return f"{layer}.sweep_perfect" if kwargs.get("assume_perfect") else f"{layer}.sweep"

    return name


# (module, attribute path, span name, aggregate). Each function is wrapped
# where its caller looks it up: the CLI's own globals for the top-level
# steps, and the policy, io and kernels modules for the calls inside them.
PATCHES = (
    ("routerlab.cli", "load_dataset", "io.load_dataset", False),
    ("routerlab.cli", "load_training_questions", "io.load_training", False),
    ("routerlab.io", "parse_question", "records.parse_question", True),
    ("routerlab.records", "DatasetProfile.from_questions", "records.profile", False),
    ("routerlab.cli", "sweep_cascade", _sweep_name("cascade"), False),
    ("routerlab.cli", "sweep_pre", _sweep_name("prerouting"), False),
    ("routerlab.kernels", "cascade_vote", "kernels.cascade_vote", True),
    ("routerlab.cascade", "normalized_cascade_cost", "costs.normalize", True),
    ("routerlab.prerouting", "normalized_pre_cost", "costs.normalize", True),
    ("routerlab.cli", "golden_curve", "metrics.golden", False),
    ("routerlab.cli", "toa_from_points", "metrics.toa", True),
    ("routerlab.cli", "togr", "metrics.toa", True),
    ("routerlab.cli", "latency_report", "metrics.latency_report", False),
    ("routerlab.cli", "write_curve", "cli.write_artifacts", True),
    ("routerlab.cli", "write_metrics", "cli.write_artifacts", True),
    ("routerlab.cli", "build_dpo_pair", "trainset.dpo_pairs", True),
    ("routerlab.cli", "build_refusal_examples", "trainset.refusal_examples", True),
    ("routerlab.cli", "write_pairs", "io.write_pairs", False),
    ("routerlab.cli", "write_refusal_examples", "io.write_refusal", False),
)


def install(tracer: Tracer, patches=PATCHES) -> list[str]:
    """Wrap every patch target; return the targets that no longer exist.

    A missing module or attribute is recorded as absent rather than
    raised, so the trace keeps working when a refactor folds a function
    away. Patches are never undone: the process exits after one run.
    """
    absent = []
    for module_name, path, name, aggregate in patches:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(name, fn, aggregate)
        if isinstance(owner, type):
            # fn is already bound to the class; keep it unbound-callable.
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
    return absent


def decode_floor(path: str) -> float:
    """Seconds stdlib json.loads takes over the file's non-blank lines."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    start = time.perf_counter()
    for line in lines:
        json.loads(line)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    out_path, run_id, spawn_time, input_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: spans.py OUT_JSON RUN_ID SPAWN_TIME INPUT -- ARGS...")
    import routerlab.cli as cli

    import_s = time.perf_counter() - float(spawn_time)
    tracer = Tracer(run_id)
    absent = install(tracer)
    root = tracer.wrap("cli.main", cli.main, aggregate=False)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = root(cli_args)
    result = tracer.to_dict()
    result.update(
        rc=rc,
        import_s=import_s,
        absent=absent,
        json_decode_floor_s=decode_floor(input_path),
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
