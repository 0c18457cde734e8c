"""Seeded training-corpus generator for the build_corpus workload.

routerlab has no corpus synthesizer, so the benchmark makes its own:
``n`` questions with ten graded completions each, in the JSONL shape
``routerlab build`` reads. Every completion text is unique, so an output
row names exactly one input completion.
"""

from __future__ import annotations

import json
import random

SAMPLES_PER_QUESTION = 10


def generate(n: int, seed: int) -> list[dict]:
    """``n`` corpus rows; the same seed gives the same rows."""
    rng = random.Random(seed)
    rows = []
    for index in range(n):
        accuracy = rng.random()
        samples = []
        for slot in range(SAMPLES_PER_QUESTION):
            correct = rng.random() < accuracy
            verdict = "right" if correct else "wrong"
            samples.append(
                {
                    "text": f"q{index:06d}.{slot}: option {rng.choice('abcd')} is {verdict}",
                    "correct": correct,
                    "tokens": rng.randint(8, 480),
                }
            )
        rows.append(
            {
                "id": f"q{index:06d}",
                "question": f"Which option answers item {rng.randrange(10**6)} of set {index}?",
                "samples": samples,
            }
        )
    return rows


def write(rows: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row))
            handle.write("\n")
