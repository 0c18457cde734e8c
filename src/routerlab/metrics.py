"""Trade-off and latency metrics over routing curves.

The central quantity is the trade-off area (ToA): the area under the
cost/performance curve after both axes are normalised so the all-SLM
reference sits at (0, 0) and the all-LLM reference at (1, 1). A router
no better than randomly interpolating between the references scores
0.5, so the trade-off gain ToGA = ToA - 0.5 is zero for trivial routers
and positive when the curve bulges toward cheap-and-good.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .costs import _sweep, mean_sample_correct
from .prerouting import _pre_row
from .records import (
    CurvePoint,
    DatasetProfile,
    LatencyReport,
    PricingSchedule,
    QuestionRecord,
    RoutingOutcome,
    ValidationError,
    _latency_report,
)

# A golden gain smaller than this is treated as "no headroom": the
# ratio ToGR would amplify noise rather than measure anything.
_MIN_REFERENCE_GAIN = 1e-12


def toa(
    points: Iterable[CurvePoint],
    slm_point: tuple[float, float],
    llm_point: tuple[float, float],
) -> float:
    """Area under the normalised trade-off curve.

    ``slm_point`` and ``llm_point`` are (cost, performance) references.
    Costs and performances are mapped to the unit square, (0, 0) and
    (1, 1) are added as curve ends, points are sorted by x, and the
    polyline is integrated with the trapezoid rule over x in [0, 1];
    segments outside the unit interval are clipped off.
    """
    slm_cost, slm_perf = slm_point
    llm_cost, llm_perf = llm_point
    if not llm_cost > slm_cost:
        raise ValidationError(
            "the all-LLM reference must cost more than the all-SLM reference "
            f"({llm_cost} vs {slm_cost}); the cost axis is degenerate"
        )
    if not llm_perf > slm_perf:
        raise ValidationError(
            "the all-LLM reference must outperform the all-SLM reference "
            f"({llm_perf} vs {slm_perf}); the performance axis is degenerate"
        )
    pts = [(0.0, 0.0), (1.0, 1.0)]
    for point in points:
        x = (point.cost - slm_cost) / (llm_cost - slm_cost)
        y = (point.performance - slm_perf) / (llm_perf - slm_perf)
        pts.append((x, y))
    pts.sort()
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= 0.0 or x0 >= 1.0 or x1 <= x0:
            continue
        left = max(x0, 0.0)
        right = min(x1, 1.0)
        y_left = y0 + (y1 - y0) * (left - x0) / (x1 - x0)
        y_right = y0 + (y1 - y0) * (right - x0) / (x1 - x0)
        area += (right - left) * (y_left + y_right) / 2.0
    return area


def curve_endpoints(points: Sequence[CurvePoint]) -> tuple[CurvePoint, CurvePoint]:
    """The labelled all-SLM and all-LLM reference points of a curve."""
    slm = [p for p in points if p.label == "slm_only"]
    llm = [p for p in points if p.label == "llm_only"]
    if len(slm) != 1 or len(llm) != 1:
        raise ValidationError(
            "a curve needs exactly one slm_only and one llm_only point; "
            f"found {len(slm)} and {len(llm)}"
        )
    return slm[0], llm[0]


def toa_from_points(points: Sequence[CurvePoint]) -> float:
    """ToA of a curve that carries its own labelled reference points."""
    slm, llm = curve_endpoints(points)
    return toa(points, (slm.cost, slm.performance), (llm.cost, llm.performance))


def golden_curve(
    questions: Sequence[QuestionRecord],
    profile: DatasetProfile,
    pricing: PricingSchedule,
) -> tuple[CurvePoint, ...]:
    """Hindsight-optimal routing reference under a perfect large model.

    The pre-generation router scored by each question's small-model
    accuracy, with every routed question scoring 1.0: the m-th point
    routes the m hardest questions (ties broken by id) and keeps the
    rest, for m = 0..N. The ends are the usual reference points.
    """
    rows = [_pre_row(q, mean_sample_correct(q), profile, pricing, True) for q in questions]
    return _sweep(rows, profile, pricing)[0]


def togr(
    router_points: Sequence[CurvePoint], golden_points: Sequence[CurvePoint]
) -> float:
    """Trade-off gain ratio: router gain relative to the golden gain.

    Both curves should come from assume-perfect evaluation; the golden
    curve always is. 1.0 means the router extracts everything hindsight
    routing could; the ratio is undefined when the golden reference
    itself shows no gain.
    """
    router_gain = toa_from_points(router_points) - 0.5
    golden_gain = toa_from_points(golden_points) - 0.5
    if abs(golden_gain) <= _MIN_REFERENCE_GAIN:
        raise ValidationError(
            "golden routing shows no gain on this dataset; ToGR is undefined"
        )
    return router_gain / golden_gain


def latency_report(outcomes: Iterable[RoutingOutcome]) -> LatencyReport:
    """Latency statistics for one threshold's cascade outcomes."""
    outcomes = tuple(outcomes)
    for outcome in outcomes:
        if outcome.mode != "cascade":
            raise ValidationError(
                "latency is defined for cascade outcomes only; "
                f"question {outcome.question_id!r} has mode {outcome.mode!r}"
            )
    return _latency_report((not o.routed, o.decision_latency_tokens) for o in outcomes)
