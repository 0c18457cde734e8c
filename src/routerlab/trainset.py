"""Builders for the two training sets distilled from recorded samples.

From a corpus of questions with several scored completions each, this
module constructs

* preference pairs that reward the shortest correct completion over a
  markedly longer incorrect one, and
* confidence-conditioned examples that teach the model to answer when
  its estimated accuracy clears the requested level and to refuse
  otherwise,

plus the combined preference/supervised loss those pairs are trained
with. The fine-tuning hyperparameters live in ``training_config`` so
downstream trainers and this package agree on them.

``refusal_targets`` is the only code that draws a refusal example's
target. ``build`` writes each question's rows from those targets
(``io._write_refusal_rows``) without making records; the records of
``build_refusal_examples`` are the reference those rows must equal.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterable, Mapping, Sequence

from .records import (
    _FLOAT_SAFE_INT,
    CONFIDENCE_LEVELS,
    REJECTED_TOKEN_RATIO,
    REJECTION_TEXT,
    PreferencePair,
    RefusalExample,
    ValidationError,
    _Record,
    _as_bool,
    _as_count,
    _as_float,
    _as_number,
    _as_str,
    refusal_prompt,
)

DPO_BETA = 1.0
SFT_WEIGHT = 0.2

# The accuracy estimate is n_correct / ESTIMATE_SAMPLES, which lands
# exactly on the confidence grid; the threshold comparison is exact.
ESTIMATE_SAMPLES = 10


class ResponseSample(_Record):
    """One free-text completion with its grading and token length."""

    __slots__ = ("text", "correct", "tokens")

    def __init__(self, text: str, correct: bool, tokens: int) -> None:
        if type(text) is not str or not text.isascii() or not text:
            _as_str(text, "text")
        if correct is not True and correct is not False:
            _as_bool(correct, "correct")
        if type(tokens) is not int or not 0 < tokens < _FLOAT_SAFE_INT:
            _as_count(tokens, "tokens")
        _set_text(self, text)
        _set_correct(self, correct)
        _set_tokens(self, tokens)


_set_text, _set_correct, _set_tokens = ResponseSample._stores


class TrainingQuestion(_Record):
    """A question with the graded completions recorded for it."""

    __slots__ = ("id", "question", "samples")

    def __init__(self, id: str, question: str, samples: Iterable[ResponseSample]) -> None:
        _as_str(id, "id")
        _as_str(question, "question")
        try:
            samples = tuple(samples)
        except TypeError:
            raise ValidationError(
                f"question {id!r}: samples must hold ResponseSample values"
            ) from None
        if not samples:
            raise ValidationError(f"question {id!r} has no samples")
        for sample in samples:
            if not isinstance(sample, ResponseSample):
                raise ValidationError(
                    f"question {id!r}: samples must hold ResponseSample values"
                )
        self._store(id, question, samples)


def build_dpo_pair(
    question_id: str,
    samples: Sequence[ResponseSample],
    min_ratio: float = REJECTED_TOKEN_RATIO,
    include_correct_rejected: bool = False,
) -> PreferencePair | None:
    """Build the question's preference pair, or None when it has none.

    Chosen: the shortest correct completion (earliest on ties).
    Rejected: the longest completion (earliest on ties) that is strictly
    more than ``min_ratio`` times the chosen length and, unless
    ``include_correct_rejected`` is set, incorrect.

    ``min_ratio`` may be raised above the stored-pair guarantee of
    1.5 but never below it.
    """
    if not (math.isfinite(_as_number(min_ratio, "min_ratio")) and min_ratio >= REJECTED_TOKEN_RATIO):
        raise ValidationError(
            f"min_ratio must be a finite number >= {REJECTED_TOKEN_RATIO}, got "
            f"{min_ratio}; stored pairs guarantee at least that length gap"
        )
    chosen = None
    for sample in samples:
        if sample.correct and (chosen is None or sample.tokens < chosen.tokens):
            chosen = sample
    if chosen is None:
        return None
    rejected = None
    for sample in samples:
        if sample is chosen:
            continue
        if sample.correct and not include_correct_rejected:
            continue
        if sample.tokens > min_ratio * chosen.tokens and (
            rejected is None or sample.tokens > rejected.tokens
        ):
            rejected = sample
    if rejected is None:
        return None
    return PreferencePair(
        question_id, chosen.text, rejected.text, chosen.tokens, rejected.tokens
    )


def estimate_accuracy(samples: Sequence[Any]) -> float:
    """Estimated answer accuracy from exactly ten graded samples.

    Accepts anything with a boolean ``correct`` attribute. The result is
    n/10, which is exact on the confidence grid.
    """
    samples = tuple(samples)
    if len(samples) != ESTIMATE_SAMPLES:
        raise ValidationError(
            f"accuracy estimation uses exactly {ESTIMATE_SAMPLES} samples, "
            f"got {len(samples)}"
        )
    return sum(1 for s in samples if s.correct) / ESTIMATE_SAMPLES


# The targets of a question with no correct completion to draw.
_ALL_REFUSED = (REJECTION_TEXT,) * len(CONFIDENCE_LEVELS)


def refusal_targets(question: TrainingQuestion, seed: int) -> tuple[str, ...]:
    """The question's target at each level of ``CONFIDENCE_LEVELS``.

    At levels the estimated accuracy reaches (inclusive), the target is
    a randomly drawn correct completion; above them it is the fixed
    rejection text. Draws are seeded per question id, so the corpus is
    reproducible regardless of question order. A question with no
    correct completion draws nothing.
    """
    accuracy = estimate_accuracy(question.samples)
    correct_texts = [s.text for s in question.samples if s.correct]
    if not correct_texts:
        return _ALL_REFUSED
    choice = random.Random(_question_seed(seed, question.id)).choice
    return tuple(
        choice(correct_texts) if accuracy >= threshold else REJECTION_TEXT
        for threshold in CONFIDENCE_LEVELS
    )


def build_refusal_examples(
    question: TrainingQuestion, seed: int
) -> tuple[RefusalExample, ...]:
    """One example per confidence level for this question.

    Each example's target is the one ``refusal_targets`` gives for its
    level. ``build`` writes the same rows without making these records
    (``io._write_refusal_rows``); this is the record-level reference.
    """
    return tuple(
        RefusalExample(question.id, threshold, refusal_prompt(threshold, question.question), target)
        for threshold, target in zip(CONFIDENCE_LEVELS, refusal_targets(question, seed))
    )


# hashlib.sha256, imported by the first _question_seed: a sweep hashes nothing.
_sha256 = None


def _question_seed(seed: int, key: str | int) -> int:
    """The seed of one question's draws: SHA-256 of ``seed:key``, big-endian."""
    global _sha256
    if _sha256 is None:
        from hashlib import sha256 as _sha256
    return int.from_bytes(_sha256(f"{seed}:{key}".encode()).digest(), "big")


class LossTerms(_Record):
    """The preference loss, the supervised anchor, and their blend."""

    __slots__ = ("dpo", "sft", "total")

    def __init__(self, dpo: float, sft: float, total: float) -> None:
        self._store(dpo, sft, total)


def combined_loss(
    chosen_logp_policy: float,
    chosen_logp_ref: float,
    rejected_logp_policy: float,
    rejected_logp_ref: float,
    chosen_token_count: int,
    beta: float = DPO_BETA,
    sft_weight: float = SFT_WEIGHT,
) -> LossTerms:
    """Preference loss with a supervised anchor on the chosen completion.

    The preference term is -log(sigmoid(beta * margin)) where the margin
    is the policy-vs-reference log-ratio gap between chosen and rejected.
    The anchor is the chosen completion's mean negative log-likelihood
    under the policy, weighted by ``sft_weight``; it keeps the policy
    from drifting off the chosen behaviour while the margin grows.
    Each log-probability must be a finite number.
    """
    chosen_logp_policy = _as_float(chosen_logp_policy, "chosen_logp_policy")
    chosen_logp_ref = _as_float(chosen_logp_ref, "chosen_logp_ref")
    rejected_logp_policy = _as_float(rejected_logp_policy, "rejected_logp_policy")
    rejected_logp_ref = _as_float(rejected_logp_ref, "rejected_logp_ref")
    if not (math.isfinite(_as_number(beta, "beta")) and beta > 0):
        raise ValidationError(f"beta must be positive, got {beta}")
    if not (math.isfinite(_as_number(sft_weight, "sft_weight")) and sft_weight >= 0):
        raise ValidationError(f"sft_weight must be >= 0, got {sft_weight}")
    if (
        isinstance(chosen_token_count, bool)
        or not isinstance(chosen_token_count, int)
        or chosen_token_count < 1
    ):
        raise ValidationError(
            f"chosen_token_count must be an integer >= 1, got {chosen_token_count!r}"
        )
    margin = beta * (
        (chosen_logp_policy - chosen_logp_ref)
        - (rejected_logp_policy - rejected_logp_ref)
    )
    dpo = _softplus(-margin)
    sft = -chosen_logp_policy / chosen_token_count
    return LossTerms(dpo=dpo, sft=sft, total=dpo + sft_weight * sft)


def _softplus(x: float) -> float:
    # log(1 + e^x) without overflow for large |x|.
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def training_config() -> Mapping[str, Any]:
    """Fine-tuning settings the training sets are built for.

    Inert here: nothing in this package trains a model, but emitting the
    exact configuration keeps the corpus and the trainer in lockstep.
    """
    return {
        "adapter": {"type": "lora", "rank": 8, "alpha": 16, "dropout": 0.1},
        "optimizer": {
            "learning_rate": 1e-4,
            "schedule": "cosine",
            "warmup_fraction": 0.1,
        },
        "batch": {"per_device": 1, "gradient_accumulation": 4},
        "max_sequence_length": 1024,
        "epochs": 1,
        "loss": {"beta": DPO_BETA, "sft_weight": SFT_WEIGHT},
    }
