"""Token-priced cost accounting for simulated routing runs.

Prices are quoted per million tokens; costs come out in USD. The large
model's per-question cost always uses the dataset-average LLM output
length rather than the per-question recording, which keeps the cost of
routing a question independent of the answer the LLM happened to give.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Sequence

from .records import (
    CurvePoint,
    DatasetProfile,
    PricingSchedule,
    QuestionRecord,
    RoutingOutcome,
    ValidationError,
)

# Prices are USD per this many tokens.
PRICE_UNIT_TOKENS = 1e6


def slm_question_cost(
    question: QuestionRecord, output_tokens: float, pricing: PricingSchedule
) -> float:
    """USD cost of one SLM pass over the question's input.

    ``output_tokens`` is whatever the policy charges for generation: a
    mean over stored samples for pre-generation routing, the sum of all
    drawn samples for a cascade.
    """
    if not (math.isfinite(output_tokens) and output_tokens >= 0):
        raise ValidationError(f"output_tokens must be >= 0, got {output_tokens}")
    return (
        pricing.slm_in * question.input_tokens + pricing.slm_out * output_tokens
    ) / PRICE_UNIT_TOKENS


def llm_question_cost(
    question: QuestionRecord, profile: DatasetProfile, pricing: PricingSchedule
) -> float:
    """USD cost of escalating one question to the large model.

    Output is charged at the dataset-average LLM answer length from the
    profile, never the question's own recording.
    """
    avg = _require_avg_llm_tokens(profile)
    return (
        pricing.llm_in * question.input_tokens + pricing.llm_out * avg
    ) / PRICE_UNIT_TOKENS


def total_llm_cost(profile: DatasetProfile, pricing: PricingSchedule) -> float:
    """USD cost of sending every profiled question to the large model.

    Summed per question, in id order, with the same per-question terms
    ``llm_question_cost`` produces; an all-routed run therefore
    normalises to exactly 1.0.
    """
    avg = _require_avg_llm_tokens(profile)
    acc = 0.0
    for input_tokens in profile.input_tokens:
        acc += (pricing.llm_in * input_tokens + pricing.llm_out * avg) / PRICE_UNIT_TOKENS
    return acc


def _require_avg_llm_tokens(profile: DatasetProfile) -> float:
    if profile.avg_llm_tokens is None:
        raise ValidationError(
            "dataset has no LLM records, so the average LLM answer length "
            "and every LLM cost are undefined"
        )
    return profile.avg_llm_tokens


def mean_sample_tokens(question: QuestionRecord) -> float:
    """Mean generated length over all stored SLM samples."""
    tokens = question.tokens
    return sum(tokens) / len(tokens)


def mean_sample_correct(question: QuestionRecord) -> float:
    """Fraction of stored SLM samples that are correct (refusals count as wrong)."""
    correct = question.correct
    return sum(correct) / len(correct)


def normalized_pre_cost(
    outcomes: Sequence[RoutingOutcome],
    profile: DatasetProfile,
    pricing: PricingSchedule,
) -> float:
    """Total cost of a pre-generation run, normalised to the all-LLM cost."""
    return _normalized_cost(outcomes, profile, pricing, mode="pre")


def normalized_cascade_cost(
    outcomes: Sequence[RoutingOutcome],
    profile: DatasetProfile,
    pricing: PricingSchedule,
) -> float:
    """Total cost of a cascade run, normalised to the all-LLM cost."""
    return _normalized_cost(outcomes, profile, pricing, mode="cascade")


def _normalized_cost(
    outcomes: Sequence[RoutingOutcome],
    profile: DatasetProfile,
    pricing: PricingSchedule,
    mode: str,
) -> float:
    ordered = _check_coverage(outcomes, profile, mode)
    acc = 0.0
    for outcome in ordered:
        acc += outcome.slm_cost + outcome.llm_cost
    return acc / total_llm_cost(profile, pricing)


def average_quality(outcomes: Iterable[RoutingOutcome]) -> float:
    """Mean per-question quality of a run."""
    outcomes = tuple(outcomes)
    if not outcomes:
        raise ValidationError("cannot average an empty outcome collection")
    return sum(o.quality for o in outcomes) / len(outcomes)


def llm_quality(question: QuestionRecord, assume_perfect: bool) -> float:
    """Quality of the large model's answer to a routed question.

    1.0 under a perfect large model, otherwise the recorded result.
    """
    if assume_perfect:
        return 1.0
    if question.llm is None:
        raise ValidationError(
            f"question {question.id!r} has no llm record; "
            "actual-quality evaluation needs one (or use assume-perfect)"
        )
    return float(question.llm.correct)


def _sweep(
    rows: Iterable[tuple[float, str, float, float, float, float]],
    profile: DatasetProfile,
    pricing: PricingSchedule,
    taus: Sequence[float] | None = None,
) -> tuple[tuple[CurvePoint, ...], tuple[CurvePoint, ...]]:
    """Curve of a policy that routes exactly the questions scoring below
    tau, and its assume-perfect twin, as ``(points, perfect_points)``.

    ``rows`` holds one ``(score, id, keep_cost, keep_quality,
    route_cost, route_quality)`` row per question: its cost and quality
    when it stays on the small model and when it is routed. Rows are
    sorted once by (score, id), so the questions with ``score < tau``
    are always the first ``m = bisect_left(scores, tau)``, and a point is
    a prefix sum of route terms plus a suffix sum of keep terms. A sweep
    costs O(N log N + T) for N questions and T thresholds.

    The first point keeps everything (m = 0) and is labelled
    ``slm_only``. With ``taus``, one grid point per threshold follows;
    without, one point per m = 1..N-1: the curve that routes the m
    lowest scores. The last point, labelled ``llm_only``, routes every
    question without a small-model pass, so its cost is the denominator
    itself, 1.0, and its performance is the mean route quality.

    The twin is read at the same cuts with every routed question scoring
    1.0, whose prefix sums are exactly ``range(n + 1)``. Route qualities
    are 0.0 or 1.0, so their float total is exact, and it equals n
    exactly when every routed question already scores 1.0; then the
    twin is ``points`` itself.
    """
    rows = sorted(rows)
    if not rows:
        raise ValidationError("cannot sweep an empty dataset")
    ids = tuple(sorted(row[1] for row in rows))
    if ids != profile.ids:
        raise ValidationError(
            "questions do not match the profiled dataset "
            f"({len(ids)} questions vs {profile.n_questions} profiled)"
        )
    n = len(rows)
    _, _, keep_costs, keep_qualities, route_costs, route_qualities = zip(*rows)
    route_cost = list(accumulate(route_costs, initial=0.0))
    route_quality = list(accumulate(route_qualities, initial=0.0))
    keep_cost = list(accumulate(reversed(keep_costs), initial=0.0))[::-1]
    keep_quality = list(accumulate(reversed(keep_qualities), initial=0.0))[::-1]
    denominator = total_llm_cost(profile, pricing)

    cuts: list[tuple[int, float | None, str | None]] = [(0, None, "slm_only")]
    if taus is None:
        cuts += [(m, None, None) for m in range(1, n)]
    else:
        scores = [row[0] for row in rows]
        cuts += [(bisect_left(scores, tau), tau, None) for tau in taus]

    def curve(routed: Sequence[float]) -> tuple[CurvePoint, ...]:
        points = [
            CurvePoint(
                cost=(route_cost[m] + keep_cost[m]) / denominator,
                performance=(keep_quality[m] + routed[m]) / n,
                tau=tau,
                label=label,
                n_routed=m,
            )
            for m, tau, label in cuts
        ]
        points.append(CurvePoint(cost=1.0, performance=routed[n] / n, label="llm_only", n_routed=n))
        return tuple(points)

    points = curve(route_quality)
    if route_quality[n] == n:
        return points, points
    return points, curve(range(n + 1))


def _check_coverage(
    outcomes: Sequence[RoutingOutcome], profile: DatasetProfile, mode: str
) -> list[RoutingOutcome]:
    """Require exactly one outcome per profiled question, in any order."""
    if not outcomes:
        raise ValidationError("cannot normalise an empty outcome collection")
    for outcome in outcomes:
        if outcome.mode != mode:
            raise ValidationError(
                f"expected {mode!r} outcomes, found mode {outcome.mode!r} "
                f"for question {outcome.question_id!r}"
            )
    ordered = sorted(outcomes, key=lambda o: o.question_id)
    ids = tuple(o.question_id for o in ordered)
    if ids != profile.ids:
        raise ValidationError(
            "outcomes do not cover the profiled dataset exactly "
            f"({len(ids)} outcomes vs {profile.n_questions} questions)"
        )
    return ordered
