"""Cascade routing: sample the small model, vote, escalate on weak votes.

The SLM draws K completions per question. Each completion casts a vote
for its canonical answer, weighted by the confidence level it was
conditioned on; refusals cast no vote but still dilute every share. The
strongest answer is accepted when its share of the total weight reaches
the threshold, otherwise the question is escalated to the large model.

Cost is charged for what was actually consumed: the question input once
(samples share the prompt cache) plus every drawn completion in full,
and the LLM on top when escalating. Early stopping changes only the
decision latency, never the cost or the decision.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .costs import _sweep_points, llm_quality, llm_question_cost, slm_question_cost
from .records import (
    DEFAULT_TAUS,
    SCHEMES,
    DatasetProfile,
    OutcomesByTau,
    PricingSchedule,
    QuestionRecord,
    RoutingOutcome,
    SampleRecord,
    SweepResult,
    ValidationError,
    confidence_ladder,
    normalize_taus,
)

DEFAULT_K = 10
DEFAULT_ALPHA = 0.5

# Fixed point of the confidence-to-weight map: a sample conditioned on
# this level votes with this weight at every alpha.
WEIGHT_ANCHOR = 0.55


def vote_weight(confidence_level: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Vote weight for a sample conditioned on ``confidence_level``.

    Linear in the level: ``0.55 + alpha * (level - 0.55)``. At alpha = 0
    every level votes with the same weight; larger alpha spreads weights
    apart around the anchor.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValidationError(f"alpha must be a finite number >= 0, got {alpha}")
    level = float(confidence_level)
    weight = WEIGHT_ANCHOR + alpha * (level - WEIGHT_ANCHOR)
    if not weight > 0:
        raise ValidationError(
            f"alpha={alpha} gives a nonpositive vote weight for confidence "
            f"{level:.1f}; weights must stay positive"
        )
    return weight


def _encode(
    samples: Sequence[SampleRecord], alpha: float
) -> tuple[tuple[str, ...], list[int], list[float], list[int]]:
    """Flatten samples into the parallel lists the vote consumes.

    Candidate codes are assigned in sorted-answer order, so the vote's
    lowest-code tie-break is exactly a lexicographic tie-break.
    """
    if not samples:
        raise ValidationError("a cascade vote needs at least one sample")
    answers = tuple(sorted({s.answer for s in samples if s.answer is not None}))
    code_of = {answer: code for code, answer in enumerate(answers)}
    codes = [-1 if s.answer is None else code_of[s.answer] for s in samples]
    weights = [
        1.0 if s.confidence_level is None else vote_weight(s.confidence_level, alpha)
        for s in samples
    ]
    tokens = [s.tokens for s in samples]
    return answers, codes, weights, tokens


def cascade_vote(
    codes: list[int],
    weights: list[float],
    tokens: list[int],
    tau: float,
) -> tuple[bool, int, float, int, bool]:
    """Full-tally vote decision plus its parallel early-stop latency.

    ``codes`` holds one candidate index per sample (-1 for a refusal) and
    ``weights`` the samples' strictly positive vote weights. The decision
    is always taken from the complete tally: accept when the strongest
    candidate's share of the total weight reaches ``tau``. Refusals add
    their weight to the total but vote for no candidate, which is what
    dilutes every share; ties go to the lowest candidate index.

    For latency, samples are replayed in order of completion (ascending
    token count, ties by position). The walk stops at the first
    completion after which the full-tally decision is certain: for an
    accept, once a candidate's observed share reaches ``tau``; for a
    reject, once no candidate can reach it even with every still-pending
    answer-bearing sample agreeing. Pending refusals are never counted as
    reachable mass; they can only dilute, and the total weight they
    dilute into is fixed up front. Only the test matching the decision is
    checked, so float rounding in the completion-order sums can delay the
    stop but never stop the walk on the wrong side of ``tau``.

    Returns ``(accepted, winner, winner_share, latency_tokens,
    stopped_early)`` where ``winner`` is a candidate index or -1 when no
    candidate received any mass, and ``winner_share`` is the share the
    full tally gives the winner (0.0 when there is none).
    """
    k = len(codes)
    if k == 0:
        raise ValueError("cannot vote over zero samples")
    if len(weights) != k or len(tokens) != k:
        raise ValueError("codes, weights and tokens must have equal length")

    masses = [0.0] * (max(codes) + 1)
    total = 0.0
    pending_votable = 0.0
    for code, weight in zip(codes, weights):
        total += weight
        if code >= 0:
            masses[code] += weight
            pending_votable += weight
        elif code < -1:
            raise ValueError("candidate code out of range")
    winner = -1
    best = 0.0
    for candidate, mass in enumerate(masses):
        if mass > best:
            best = mass
            winner = candidate
    winner_share = best / total if winner >= 0 else 0.0
    accepted = winner_share >= tau

    observed = [0.0] * len(masses)
    max_observed = 0.0
    latency = 0
    stopped_early = False
    for step, i in enumerate(sorted(range(k), key=lambda i: (tokens[i], i))):
        code = codes[i]
        if code >= 0:
            pending_votable -= weights[i]
            observed[code] += weights[i]
            if observed[code] > max_observed:
                max_observed = observed[code]
        latency = tokens[i]
        if accepted:
            settled = max_observed / total >= tau
        else:
            settled = (max_observed + pending_votable) / total < tau
        if settled:
            stopped_early = step < k - 1
            break

    return accepted, winner, winner_share, latency, stopped_early


def simulate_parallel(
    samples: Sequence[SampleRecord], tau: float, alpha: float = DEFAULT_ALPHA
) -> tuple[bool, str | None, float, int, bool]:
    """One question's vote and its latency under parallel sampling.

    All samples launch together; completions land in ascending token
    order. Generation stops the moment the full-tally decision is
    certain, so only the latency reflects the early stop. The strongest
    answer wins; ties go to the lexicographically smallest answer.

    Returns ``cascade_vote``'s tuple with the winner as its answer:
    ``(accepted, answer, share, latency_tokens, stopped_early)``, where
    ``answer`` is None when every sample refused.
    """
    answers, codes, weights, tokens = _encode(samples, alpha)
    accepted, winner, share, latency, stopped_early = cascade_vote(
        codes, weights, tokens, tau
    )
    answer = answers[winner] if winner >= 0 else None
    return accepted, answer, share, latency, stopped_early


def select_samples(
    question: QuestionRecord, scheme: str, k: int = DEFAULT_K
) -> tuple[SampleRecord, ...]:
    """The question's samples that a sampling scheme replays.

    * ``rcv`` replays the confidence ladder: one sample per level, k=10.
    * ``fcv`` replays k samples conditioned on full confidence (1.0).
    * ``sc`` replays k unconditioned samples.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if scheme == "rcv":
        if k != 10:
            raise ValidationError("rcv replays the full confidence ladder; k must be 10")
        return confidence_ladder(question)
    if scheme == "fcv":
        pool = [s for s in question.slm_samples if s.confidence_level == 1.0]
        label = "at confidence 1.0"
    else:
        pool = [s for s in question.slm_samples if s.confidence_level is None]
        label = "without a confidence level"
    if len(pool) < k:
        raise ValidationError(
            f"question {question.id!r}: {scheme} needs {k} samples {label}, "
            f"found {len(pool)}"
        )
    return tuple(pool[:k])


def route_cascade(
    question: QuestionRecord,
    tau: float,
    profile: DatasetProfile,
    pricing: PricingSchedule,
    scheme: str = "rcv",
    k: int = DEFAULT_K,
    alpha: float = DEFAULT_ALPHA,
    assume_perfect: bool = False,
) -> RoutingOutcome:
    """Route one question through the cascade at threshold ``tau``."""
    prepared = _prepare(question, scheme, k, alpha, profile, pricing, assume_perfect)
    return _outcome_at(prepared, tau)


# Everything a question contributes to a sweep at any threshold, as one
# tuple: (id, codes, weights, tokens, answers, correct_by_code, slm_cost,
# llm_cost, route_quality).
def _prepare(
    question: QuestionRecord,
    scheme: str,
    k: int,
    alpha: float,
    profile: DatasetProfile,
    pricing: PricingSchedule,
    assume_perfect: bool,
) -> tuple:
    samples = select_samples(question, scheme, k)
    answers, codes, weights, tokens = _encode(samples, alpha)
    correct_of = {}
    for sample in samples:
        if sample.answer is not None:
            correct_of.setdefault(sample.answer, sample.correct)
    correct_by_code = tuple(correct_of[answer] for answer in answers)
    slm_cost = slm_question_cost(question, float(sum(tokens)), pricing)
    llm_cost = llm_question_cost(question, profile, pricing)
    route_quality = llm_quality(question, assume_perfect)
    return (question.id, codes, weights, tokens, answers, correct_by_code, slm_cost, llm_cost, route_quality)


def _outcome_at(prepared: tuple, tau: float) -> RoutingOutcome:
    qid, codes, weights, tokens, answers, correct_by_code, slm_cost, llm_cost, route_quality = prepared
    accepted, winner, _share, latency, _stopped = cascade_vote(
        codes, weights, tokens, tau
    )
    if accepted:
        if winner >= 0:
            quality = float(correct_by_code[winner])
            answer = answers[winner]
        else:
            quality = 0.0
            answer = None
        return RoutingOutcome(
            question_id=qid,
            mode="cascade",
            routed=False,
            quality=quality,
            slm_cost=slm_cost,
            llm_cost=0.0,
            decision_latency_tokens=latency,
            accepted_answer=answer,
        )
    return RoutingOutcome(
        question_id=qid,
        mode="cascade",
        routed=True,
        quality=route_quality,
        slm_cost=slm_cost,
        llm_cost=llm_cost,
        decision_latency_tokens=latency,
        accepted_answer=None,
    )


def _sweep_columns(prepared: tuple) -> tuple[float, str, float, float, float, float]:
    """Engine row of one prepared question, scored by its full-tally winner share.

    The cascade accepts exactly when that share reaches tau, so it routes
    exactly when the share is below tau.
    """
    qid, codes, weights, tokens, _answers, correct_by_code, slm_cost, llm_cost, route_quality = prepared
    _accepted, winner, share, _latency, _stopped = cascade_vote(
        codes, weights, tokens, 0.0
    )
    quality = float(correct_by_code[winner]) if winner >= 0 else 0.0
    return (share, qid, slm_cost, quality, slm_cost + llm_cost, route_quality)


def sweep_cascade(
    questions: Sequence[QuestionRecord],
    profile: DatasetProfile,
    pricing: PricingSchedule,
    taus: Iterable[float] = DEFAULT_TAUS,
    scheme: str = "rcv",
    k: int = DEFAULT_K,
    alpha: float = DEFAULT_ALPHA,
    assume_perfect: bool = False,
) -> SweepResult:
    """Evaluate the cascade across a threshold grid.

    Returns the trade-off curve bracketed by the two reference points
    (all-SLM first, all-LLM last) plus the outcomes per threshold, built
    with their early-stop latencies on first read. The all-SLM point
    accepts every vote (it equals the grid at tau=0); the all-LLM point
    skips sampling entirely.
    """
    taus = normalize_taus(taus)
    questions = tuple(questions)
    if not questions:
        raise ValidationError("cannot sweep an empty dataset")

    prepared = tuple(
        _prepare(q, scheme, k, alpha, profile, pricing, assume_perfect)
        for q in questions
    )
    points = _sweep_points(map(_sweep_columns, prepared), profile, pricing, taus)

    def outcomes_at(tau: float) -> tuple[RoutingOutcome, ...]:
        return tuple(_outcome_at(p, tau) for p in prepared)

    return SweepResult(points=tuple(points), outcomes_by_tau=OutcomesByTau(taus, outcomes_at))
