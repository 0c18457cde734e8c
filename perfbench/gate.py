"""Oracle gate: what the CLI must write, rebuilt from reference functions.

Sweep curves are rebuilt question by question with ``route_pre`` or
``route_cascade`` at every threshold, priced with ``normalized_*_cost``
and scored with ``average_quality``; metrics come from ``golden_curve``,
``toa_from_points``, ``togr`` and ``latency_report``. Build outputs are
checked against the corpus rows the benchmark generated itself.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

from routerlab.cascade import route_cascade
from routerlab.costs import average_quality, normalized_cascade_cost, normalized_pre_cost
from routerlab.metrics import golden_curve, latency_report, toa_from_points, togr
from routerlab.prerouting import route_pre
from routerlab.records import (
    CONFIDENCE_LEVELS,
    REJECTED_TOKEN_RATIO,
    REJECTION_TEXT,
    CurvePoint,
    PricingSchedule,
    refusal_prompt,
)

CURVE_HEADER = ["tau", "cost", "performance", "n_routed"]
# Curves carry six decimals, so a correct cell is within half a unit of
# the last place; metrics.json carries full doubles, compared to 1e-9
# relative so that a sweep that sums in another order still passes.
CSV_HALF_ULP = 0.5e-6 * (1 + 1e-9) + 1e-12
JSON_REL_TOL = 1e-9
TAU_TOL = 1e-9
MAX_REPORTED = 5


def grid(start: float, end: float, step: float) -> tuple[float, ...]:
    """The thresholds the CLI's START:END:STEP argument denotes."""
    count = int(math.floor((end - start) / step + 1e-9))
    return tuple(round(start + k * step, 9) for k in range(count + 1))


def expected_sweep(questions, profile, mode, taus, score_source="pre", latency_tau=0.6):
    """Expected artifacts of ``sweep --golden`` (actual-quality mode).

    Returns ``{file name: expected content}``: curves as CurvePoint
    tuples and metrics.json as a dict.
    """
    pricing = PricingSchedule()
    actual, latency_outcomes = _oracle_curve(
        questions, profile, pricing, mode, taus, score_source, False, latency_tau
    )
    perfect, _ = _oracle_curve(
        questions, profile, pricing, mode, taus, score_source, True, latency_tau
    )
    golden = golden_curve(questions, profile, pricing)
    toa = toa_from_points(actual)
    toa100 = toa_from_points(perfect)
    if mode == "cascade":
        report = latency_report(latency_outcomes)
        agl, arol = report.agl, report.arol
    else:
        agl, arol = 0.0, 0.0
    metrics = {
        "toa": toa,
        "toga": toa - 0.5,
        "toa100": toa100,
        "toga100": toa100 - 0.5,
        "togr": togr(perfect, golden),
        "agl": agl,
        "arol": arol,
        "mode": "actual",
    }
    return {
        "curve.csv": actual,
        "curve_perfect.csv": perfect,
        "golden.csv": golden,
        "metrics.json": metrics,
    }


def _oracle_curve(questions, profile, pricing, mode, taus, score_source, assume_perfect, latency_tau):
    if mode == "cascade":
        normalize = normalized_cascade_cost

        def route(question, tau):
            return route_cascade(question, tau, profile, pricing, assume_perfect=assume_perfect)

    else:
        normalize = normalized_pre_cost

        def route(question, tau):
            return route_pre(question, tau, profile, pricing, score_source, assume_perfect)

    def point(tau, label):
        outcomes = [route(q, tau) for q in questions]
        return outcomes, CurvePoint(
            cost=normalize(outcomes, profile, pricing),
            performance=average_quality(outcomes),
            tau=None if label else tau,
            label=label,
            n_routed=sum(1 for o in outcomes if o.routed),
        )

    # Scores and vote shares are never negative, so nothing escalates at 0.
    points = [point(0.0, "slm_only")[1]]
    latency_outcomes = None
    for tau in taus:
        outcomes, p = point(tau, None)
        points.append(p)
        if abs(tau - latency_tau) <= TAU_TOL:
            latency_outcomes = outcomes
    if assume_perfect:
        llm_performance = 1.0
    else:
        llm_performance = sum(1 for q in questions if q.llm.correct) / len(questions)
    points.append(
        CurvePoint(cost=1.0, performance=llm_performance, label="llm_only", n_routed=len(questions))
    )
    return tuple(points), latency_outcomes


def check_sweep(expected: dict, out_dir: str) -> list[str]:
    problems = []
    for name, content in expected.items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
        elif name.endswith(".csv"):
            problems += _check_curve(path, content)
        else:
            problems += _check_metrics(path, content)
    return problems


def _check_curve(path: str, points) -> list[str]:
    name = os.path.basename(path)
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows or rows[0] != CURVE_HEADER:
        return [f"{name}: header is not {','.join(CURVE_HEADER)}"]
    rows = rows[1:]
    if len(rows) != len(points):
        return [f"{name}: {len(rows)} rows, expected {len(points)}"]
    problems = []
    for lineno, (row, point) in enumerate(zip(rows, points), start=2):
        problem = _row_problem(row, point)
        if problem:
            problems.append(f"{name}:{lineno}: {problem}")
            if len(problems) >= MAX_REPORTED:
                break
    return problems


def _row_problem(row: list[str], point: CurvePoint) -> str | None:
    if len(row) != 4:
        return f"expected 4 columns, got {len(row)}"
    tau_cell, cost_cell, perf_cell, routed_cell = row
    try:
        if point.label is not None or point.tau is None:
            if tau_cell != (point.label or ""):
                return f"label {tau_cell!r}, expected {point.label!r}"
        elif abs(float(tau_cell) - point.tau) > TAU_TOL:
            return f"tau {tau_cell}, expected {point.tau!r}"
        if int(routed_cell) != point.n_routed:
            return f"n_routed {routed_cell}, expected {point.n_routed}"
        if abs(float(cost_cell) - point.cost) > CSV_HALF_ULP:
            return f"cost {cost_cell}, expected {point.cost!r}"
        if abs(float(perf_cell) - point.performance) > CSV_HALF_ULP:
            return f"performance {perf_cell}, expected {point.performance!r}"
    except ValueError as exc:
        return f"unreadable cell: {exc}"
    return None


def _check_metrics(path: str, expected: dict) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            got = json.load(handle)
    except json.JSONDecodeError as exc:
        return [f"metrics.json: invalid JSON: {exc}"]
    if not isinstance(got, dict) or set(got) != set(expected):
        return [f"metrics.json: keys {sorted(got) if isinstance(got, dict) else got!r}, expected {sorted(expected)}"]
    problems = []
    for key, want in expected.items():
        value = got[key]
        if isinstance(want, float):
            ok = isinstance(value, (int, float)) and math.isclose(
                value, want, rel_tol=JSON_REL_TOL, abs_tol=1e-12
            )
        else:
            ok = value == want
        if not ok:
            problems.append(f"metrics.json: {key} = {value!r}, expected {want!r}")
    return problems


def check_build(corpus: list[dict], out_dir: str) -> list[str]:
    """Pair invariants, ten refusal rows per question, each row valid."""
    problems = []
    for name in ("pairs.jsonl", "refusal.jsonl"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name}: missing")
    if problems:
        return problems
    by_id = {row["id"]: row for row in corpus}
    try:
        pairs = _read_jsonl(os.path.join(out_dir, "pairs.jsonl"))
        refusals = _read_jsonl(os.path.join(out_dir, "refusal.jsonl"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc}"]

    expected_ids = [row["id"] for row in corpus if _expected_pair(row["samples"]) is not None]
    got_ids = [pair.get("id") for pair in pairs]
    if got_ids != expected_ids:
        problems.append(
            f"pairs.jsonl: {len(got_ids)} pairs for {len(set(got_ids))} ids, expected "
            f"{len(expected_ids)} pairs in corpus order"
        )
    for lineno, pair in enumerate(pairs, start=1):
        row = by_id.get(pair.get("id"))
        problem = _pair_problem(pair, row)
        if problem:
            problems.append(f"pairs.jsonl:{lineno}: {problem}")
            if len(problems) >= MAX_REPORTED:
                return problems

    grouped = defaultdict(list)
    for example in refusals:
        grouped[example.get("id")].append(example)
    if set(grouped) != set(by_id):
        problems.append(
            f"refusal.jsonl: rows for {len(grouped)} ids, expected the {len(by_id)} corpus ids"
        )
    for qid, examples in grouped.items():
        row = by_id.get(qid)
        problem = _refusal_problem(examples, row) if row else None
        if problem:
            problems.append(f"refusal.jsonl: {qid}: {problem}")
            if len(problems) >= MAX_REPORTED:
                break
    return problems


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _expected_pair(samples: list[dict]):
    """(chosen, rejected) under the default build rule, or None."""
    chosen = None
    for sample in samples:
        if sample["correct"] and (chosen is None or sample["tokens"] < chosen["tokens"]):
            chosen = sample
    if chosen is None:
        return None
    rejected = None
    for sample in samples:
        if (
            not sample["correct"]
            and sample["tokens"] > REJECTED_TOKEN_RATIO * chosen["tokens"]
            and (rejected is None or sample["tokens"] > rejected["tokens"])
        ):
            rejected = sample
    return None if rejected is None else (chosen, rejected)


def _pair_problem(pair: dict, row: dict | None) -> str | None:
    if row is None:
        return f"id {pair.get('id')!r} is not in the corpus"
    expected = _expected_pair(row["samples"])
    if expected is None:
        return "question has no qualifying pair"
    chosen, rejected = expected
    if pair.get("chosen") != chosen["text"] or pair.get("chosen_tokens") != chosen["tokens"]:
        return "chosen is not the shortest correct completion"
    if pair.get("rejected") != rejected["text"] or pair.get("rejected_tokens") != rejected["tokens"]:
        return f"rejected is not the longest incorrect completion over {REJECTED_TOKEN_RATIO}x"
    return None


def _refusal_problem(examples: list[dict], row: dict) -> str | None:
    if len(examples) != len(CONFIDENCE_LEVELS):
        return f"{len(examples)} rows, expected {len(CONFIDENCE_LEVELS)}"
    samples = row["samples"]
    accuracy = sum(1 for s in samples if s["correct"]) / len(samples)
    correct_texts = {s["text"] for s in samples if s["correct"]}
    for example, level in zip(examples, CONFIDENCE_LEVELS):
        if example.get("threshold") != level:
            return f"threshold {example.get('threshold')!r}, expected {level}"
        if example.get("prompt") != refusal_prompt(level, row["question"]):
            return f"prompt at {level} does not match"
        target = example.get("target")
        if accuracy >= level and target not in correct_texts:
            return f"target at {level} is not a correct completion"
        if accuracy < level and target != REJECTION_TEXT:
            return f"target at {level} is not the rejection text"
    return None
