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
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .records import (
    CONFIDENCE_LEVELS,
    REJECTED_TOKEN_RATIO,
    REJECTION_TEXT,
    PreferencePair,
    RefusalExample,
    ValidationError,
    _as_bool,
    _as_int,
    _as_str,
    refusal_prompt,
)

DPO_BETA = 1.0
SFT_WEIGHT = 0.2

# The accuracy estimate is n_correct / ESTIMATE_SAMPLES, which lands
# exactly on the confidence grid; the threshold comparison is exact.
ESTIMATE_SAMPLES = 10


@dataclass(frozen=True)
class ResponseSample:
    """One free-text completion with its grading and token length."""

    text: str
    correct: bool
    tokens: int

    def __post_init__(self) -> None:
        _as_str(self.text, "text")
        _as_bool(self.correct, "correct")
        if _as_int(self.tokens, "tokens") < 1:
            raise ValidationError(f"tokens must be >= 1, got {self.tokens}")


@dataclass(frozen=True)
class TrainingQuestion:
    """A question with the graded completions recorded for it."""

    id: str
    question: str
    samples: tuple[ResponseSample, ...]

    def __post_init__(self) -> None:
        _as_str(self.id, "id")
        _as_str(self.question, "question")
        samples = tuple(self.samples)
        if not samples:
            raise ValidationError(f"question {self.id!r} has no samples")
        for sample in samples:
            if not isinstance(sample, ResponseSample):
                raise ValidationError(
                    f"question {self.id!r}: samples must hold ResponseSample values"
                )
        object.__setattr__(self, "samples", samples)


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
    if not (math.isfinite(min_ratio) and min_ratio >= REJECTED_TOKEN_RATIO):
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
        question_id=question_id,
        chosen=chosen.text,
        rejected=rejected.text,
        chosen_tokens=chosen.tokens,
        rejected_tokens=rejected.tokens,
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


def build_refusal_examples(
    question: TrainingQuestion, seed: int
) -> tuple[RefusalExample, ...]:
    """One example per confidence level for this question.

    At levels the estimated accuracy reaches (inclusive), the target is
    a randomly drawn correct completion; above them it is the fixed
    rejection text. Draws are seeded per question id, so the corpus is
    reproducible regardless of question order.
    """
    accuracy = estimate_accuracy(question.samples)
    correct_texts = [s.text for s in question.samples if s.correct]
    rng = random.Random(_question_seed(seed, question.id))
    examples = []
    for threshold in CONFIDENCE_LEVELS:
        if accuracy >= threshold:
            target = rng.choice(correct_texts)
        else:
            target = REJECTION_TEXT
        examples.append(
            RefusalExample(
                question_id=question.id,
                threshold=threshold,
                prompt=refusal_prompt(threshold, question.question),
                target=target,
            )
        )
    return tuple(examples)


def _question_seed(seed: int, question_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{question_id}".encode()).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class LossTerms:
    """The preference loss, the supervised anchor, and their blend."""

    dpo: float
    sft: float
    total: float


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
    """
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    if sft_weight < 0:
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
