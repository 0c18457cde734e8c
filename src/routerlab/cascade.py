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

from .costs import _sweep, llm_quality, llm_question_cost, slm_question_cost
from .records import (
    DEFAULT_TAUS,
    SCHEMES,
    DatasetProfile,
    PricingSchedule,
    QuestionRecord,
    RoutingOutcome,
    SampleRecord,
    SweepResult,
    ValidationError,
    _as_float,
    _as_number,
    _ladder,
    _latency_report,
    normalize_taus,
)

DEFAULT_K = 10
DEFAULT_ALPHA = 0.5
DEFAULT_LATENCY_TAU = 0.6  # the threshold a sweep reads AGL/AROL at

# Fixed point of the confidence-to-weight map: a sample conditioned on
# this level votes with this weight at every alpha.
WEIGHT_ANCHOR = 0.55


def vote_weight(confidence_level: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Vote weight for a sample conditioned on ``confidence_level``.

    Linear in the level: ``0.55 + alpha * (level - 0.55)``. At alpha = 0
    every level votes with the same weight; larger alpha spreads weights
    apart around the anchor. Alpha is checked first, then the level,
    which must be a number in [0, 1].
    """
    _check_alpha(alpha)
    level = _as_float(confidence_level, "confidence_level")
    if not 0.0 <= level <= 1.0:
        raise ValidationError(f"confidence_level must lie in [0, 1], got {level}")
    weight = WEIGHT_ANCHOR + alpha * (level - WEIGHT_ANCHOR)
    if not weight > 0:
        raise ValidationError(
            f"alpha={alpha} gives a nonpositive vote weight for confidence "
            f"{level:.1f}; weights must stay positive"
        )
    return weight


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(_as_number(alpha, "alpha")) and alpha >= 0):
        raise ValidationError(f"alpha must be a finite number >= 0, got {alpha}")


class _Weights(dict):
    """Vote weight by confidence level at one alpha: ``None`` (an
    unconditioned sample) votes 1.0, and each level's weight comes from
    ``vote_weight`` on its first use, so a level no sample carries is
    never weighed; alpha itself is checked up front."""

    def __init__(self, alpha: float):
        _check_alpha(alpha)
        super().__init__({None: 1.0})
        self.alpha = alpha

    def __missing__(self, level: float) -> float:
        weight = self[level] = vote_weight(level, self.alpha)
        return weight


def cascade_vote(
    answers: Sequence[str | None],
    weights: Sequence[float],
    tokens: Sequence[int],
    tau: float,
) -> tuple[bool, str | None, float, int, bool]:
    """Full-tally vote decision plus its parallel early-stop latency.

    ``answers`` holds one canonical answer per sample (None for a
    refusal) and ``weights`` the samples' strictly positive vote weights.
    The decision is always taken from the complete tally: accept when the
    strongest answer's share of the total weight reaches ``tau``.
    Refusals add their weight to the total but vote for no answer, which
    is what dilutes every share; ties go to the smallest answer text.

    For latency, samples are replayed in order of completion (ascending
    token count, ties by position). The walk stops at the first
    completion after which the full-tally decision is certain: for an
    accept, once an answer's observed share reaches ``tau``; for a
    reject, once no answer can reach it even with every still-pending
    answer-bearing sample agreeing. Pending refusals are never counted as
    reachable mass; they can only dilute, and the total weight they
    dilute into is fixed up front. Only the test matching the decision is
    checked, so float rounding in the completion-order sums can delay the
    stop but never stop the walk on the wrong side of ``tau``.

    Returns ``(accepted, winner, winner_share, latency_tokens,
    stopped_early)`` where ``winner`` is the winning answer, or None when
    every sample refused, and ``winner_share`` is the share the full
    tally gives the winner (0.0 when there is none).
    """
    k = len(answers)
    if k == 0:
        raise ValueError("cannot vote over zero samples")
    if len(weights) != k or len(tokens) != k:
        raise ValueError("answers, weights and tokens must have equal length")

    masses: dict[str, float] = {}
    total = 0.0
    pending_votable = 0.0
    for answer, weight in zip(answers, weights):
        total += weight
        if answer is not None:
            masses[answer] = masses.get(answer, 0.0) + weight
            pending_votable += weight
    winner = min(masses, key=lambda a: (-masses[a], a), default=None)
    winner_share = masses[winner] / total if winner is not None else 0.0
    accepted = winner_share >= tau

    observed: dict[str, float] = {}
    max_observed = 0.0
    latency = 0
    stopped_early = False
    for step, i in enumerate(sorted(range(k), key=lambda i: (tokens[i], i))):
        answer = answers[i]
        if answer is not None:
            pending_votable -= weights[i]
            mass = observed[answer] = observed.get(answer, 0.0) + weights[i]
            if mass > max_observed:
                max_observed = mass
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

    Returns ``cascade_vote``'s tuple: ``(accepted, answer, share,
    latency_tokens, stopped_early)``, where ``answer`` is None when every
    sample refused.
    """
    (tau,) = normalize_taus((tau,))  # then alpha, then the samples, as in route_cascade
    weight_of = _Weights(alpha)
    if not samples:
        raise ValidationError("a cascade vote needs at least one sample")
    return cascade_vote(
        [s.answer for s in samples],
        [weight_of[s.confidence_level] for s in samples],
        [s.tokens for s in samples],
        tau,
    )


def select_samples(
    question: QuestionRecord, scheme: str, k: int = DEFAULT_K
) -> tuple[SampleRecord, ...]:
    """The question's samples that a sampling scheme replays.

    * ``rcv`` replays the confidence ladder: one sample per level, k=10.
    * ``fcv`` replays k samples conditioned on full confidence (1.0).
    * ``sc`` replays k unconditioned samples.
    """
    samples = question.slm_samples
    return tuple(samples[index] for index in _selected(question, scheme, k))


def _selected(question: QuestionRecord, scheme: str, k: int) -> Sequence[int]:
    """The indices of the samples ``select_samples`` returns, in its order."""
    if scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if scheme == "rcv":
        if k != 10:
            raise ValidationError("rcv replays the full confidence ladder; k must be 10")
        return _ladder(question)
    want, label = (1.0, "at confidence 1.0") if scheme == "fcv" else (None, "without a confidence level")
    pool = [index for index, level in enumerate(question.levels) if level == want]
    if len(pool) < k:
        raise ValidationError(
            f"question {question.id!r}: {scheme} needs {k} samples {label}, "
            f"found {len(pool)}"
        )
    return pool[:k]


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
    (tau,) = normalize_taus((tau,))  # then alpha, then the samples, as in sweep_cascade
    _check_alpha(alpha)
    samples = select_samples(question, scheme, k)
    accepted, answer, _share, latency, _stopped = simulate_parallel(samples, tau, alpha)
    slm_cost = slm_question_cost(question, float(sum(s.tokens for s in samples)), pricing)
    if accepted:
        llm_cost = 0.0
        # With no answer (every sample refused) this matches only refusals,
        # which are never correct.
        quality = float(any(s.correct for s in samples if s.answer == answer))
    else:
        llm_cost = llm_question_cost(question, profile, pricing)
        quality = llm_quality(question, assume_perfect)
        answer = None
    return RoutingOutcome(
        question_id=question.id,
        mode="cascade",
        routed=not accepted,
        quality=quality,
        slm_cost=slm_cost,
        llm_cost=llm_cost,
        decision_latency_tokens=latency,
        accepted_answer=answer,
    )


def _cascade_row(
    question: QuestionRecord, scheme: str, k: int, weight_of: _Weights,
    profile: DatasetProfile, pricing: PricingSchedule, assume_perfect: bool, latency_tau: float,
) -> tuple[tuple, tuple[bool, int]]:
    """Engine row of one question, voted from the columns of the samples
    its scheme selects and scored by its full-tally winner share, and its
    ``(accepted, latency)`` at ``latency_tau``. The cascade
    accepts exactly when that share reaches tau, so one vote serves every
    tau; costs and qualities are those ``route_cascade`` gives."""
    selected = _selected(question, scheme, k)
    answers = [question.answers[i] for i in selected]
    tokens = [question.tokens[i] for i in selected]
    weights = [weight_of[question.levels[i]] for i in selected]
    accepted, winner, share, latency, _stopped = cascade_vote(answers, weights, tokens, latency_tau)
    winner_correct = winner is not None and question.correct[selected[answers.index(winner)]]
    slm_cost = slm_question_cost(question, float(sum(tokens)), pricing)
    route_cost = slm_cost + llm_question_cost(question, profile, pricing)
    row = (share, question.id, slm_cost, float(winner_correct), route_cost, llm_quality(question, assume_perfect))
    return row, (accepted, latency)


def sweep_cascade(
    questions: Sequence[QuestionRecord],
    profile: DatasetProfile,
    pricing: PricingSchedule,
    taus: Iterable[float] = DEFAULT_TAUS,
    scheme: str = "rcv",
    k: int = DEFAULT_K,
    alpha: float = DEFAULT_ALPHA,
    assume_perfect: bool = False,
    latency_tau: float = DEFAULT_LATENCY_TAU,
) -> SweepResult:
    """Evaluate the cascade across a threshold grid.

    Returns the trade-off curve bracketed by the two reference points
    (all-SLM first, all-LLM last) and its assume-perfect twin, both read
    off one row per question. The all-SLM point accepts every vote (it
    equals the grid at tau=0); the all-LLM point skips sampling entirely.
    ``latency`` holds AGL/AROL at ``latency_tau``, from the same one vote
    per question that gives its row.
    """
    taus = normalize_taus(taus)
    (latency_tau,) = normalize_taus((latency_tau,))
    weight_of = _Weights(alpha)
    columns = [
        _cascade_row(q, scheme, k, weight_of, profile, pricing, assume_perfect, latency_tau)
        for q in questions
    ]
    points, perfect = _sweep([row for row, _ in columns], profile, pricing, taus)
    return SweepResult(points, perfect, _latency_report(decision for _, decision in columns))
