"""Pre-generation routing: escalate on a confidence score, before sampling.

A question is routed to the large model exactly when its score falls
strictly below the threshold; a score equal to the threshold stays on
the small model. Because the decision happens before any generation,
routed questions incur no SLM cost and every decision has zero token
latency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cascade import cascade_vote
from .costs import (
    _sweep,
    llm_quality,
    llm_question_cost,
    mean_sample_correct,
    mean_sample_tokens,
    slm_question_cost,
)
from .records import (
    CONFIDENCE_LEVELS,
    DEFAULT_TAUS,
    DatasetProfile,
    PricingSchedule,
    QuestionRecord,
    RoutingOutcome,
    SweepResult,
    ValidationError,
    _ladder,
    normalize_taus,
)

SCORE_SOURCES = ("pre", "refusal")


def derive_refusal_score(question: QuestionRecord) -> float:
    """Routing score from refusal behaviour: the highest confidence level
    at which the recorded SLM still answered, or 0.0 if it refused at
    every level. Requires exactly one sample per level."""
    refusals = question.refusals
    score = 0.0
    for level, index in zip(CONFIDENCE_LEVELS, _ladder(question)):
        if not refusals[index]:
            score = level
    return score


def question_score(question: QuestionRecord, score_source: str) -> float:
    """The routing score a pre-generation router sees for this question."""
    if score_source == "pre":
        if question.pre_score is None:
            raise ValidationError(
                f"question {question.id!r} has no pre_score; "
                "use the refusal score source or add scores"
            )
        return question.pre_score
    if score_source == "refusal":
        return derive_refusal_score(question)
    raise ValidationError(
        f"score_source must be one of {SCORE_SOURCES}, got {score_source!r}"
    )


def route_pre(
    question: QuestionRecord,
    tau: float,
    profile: DatasetProfile,
    pricing: PricingSchedule,
    score_source: str = "pre",
    assume_perfect: bool = False,
) -> RoutingOutcome:
    """Route one question at threshold ``tau``.

    A routed question goes to the large model before sampling. A kept
    one is scored and charged as the mean over all stored samples, so the
    simulated deployment answers with a typical single draw; its answer
    is the cascade vote with flat weights, plain majority voting.
    """
    (tau,) = normalize_taus((tau,))  # first, as in sweep_pre
    if question_score(question, score_source) < tau:
        return RoutingOutcome(
            question_id=question.id,
            mode="pre",
            routed=True,
            quality=llm_quality(question, assume_perfect),
            slm_cost=0.0,
            llm_cost=llm_question_cost(question, profile, pricing),
            decision_latency_tokens=0,
            accepted_answer=None,
        )
    return RoutingOutcome(
        question_id=question.id,
        mode="pre",
        routed=False,
        quality=mean_sample_correct(question),
        slm_cost=slm_question_cost(question, mean_sample_tokens(question), pricing),
        llm_cost=0.0,
        decision_latency_tokens=0,
        accepted_answer=cascade_vote(question.answers, (1.0,) * len(question.answers), question.tokens, 0.0)[1],
    )


def _pre_row(
    question: QuestionRecord,
    score: float,
    profile: DatasetProfile,
    pricing: PricingSchedule,
    assume_perfect: bool,
) -> tuple[float, str, float, float, float, float]:
    """Engine row of one question under pre-generation routing.

    Kept, it costs a mean-length SLM pass and scores its mean sample
    accuracy; routed, it costs and scores what the large model gives it;
    both as in ``route_pre``.
    """
    return (
        score,
        question.id,
        slm_question_cost(question, mean_sample_tokens(question), pricing),
        mean_sample_correct(question),
        llm_question_cost(question, profile, pricing),
        llm_quality(question, assume_perfect),
    )


def sweep_pre(
    questions: Sequence[QuestionRecord],
    profile: DatasetProfile,
    pricing: PricingSchedule,
    taus: Iterable[float] = DEFAULT_TAUS,
    score_source: str = "pre",
    assume_perfect: bool = False,
) -> SweepResult:
    """Evaluate pre-generation routing across a threshold grid.

    Returns the trade-off curve bracketed by the two reference points
    (all-SLM first, all-LLM last) and its assume-perfect twin, both read
    off one row per question. Every question is scored before any row
    is built, so a missing score is reported before a missing LLM record.
    """
    taus = normalize_taus(taus)
    questions = tuple(questions)
    scores = [question_score(q, score_source) for q in questions]
    rows = [
        _pre_row(q, score, profile, pricing, assume_perfect)
        for q, score in zip(questions, scores)
    ]
    return SweepResult(*_sweep(rows, profile, pricing, taus))
