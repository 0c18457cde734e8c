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

A ``TrainingQuestion`` keeps its completions as columns, and the pair
rule (``_dpo_pair``) and ``refusal_targets`` read them: ``build`` makes
no ``ResponseSample``. ``_dpo_pair`` returns a pair's fields, which
``build`` writes, and trusts ``min_ratio``, which ``build`` checks once
(``_check_min_ratio``); ``build_dpo_pair`` checks it and makes the record.

``refusal_targets`` is the only code that draws a refusal example's
target. It reads each draw straight off the question's SHA-256 digest
(``_question_seed``), with no generator per question. ``build`` writes
each question's rows from those targets (``io._write_refusal_rows``)
without making records; the records of ``build_refusal_examples`` are
the reference those rows must equal.
"""

from __future__ import annotations

import math
from itertools import compress
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
    _sample_rows,
    refusal_prompt,
)

DPO_BETA = 1.0
SFT_WEIGHT = 0.2

# The accuracy estimate is n_correct / ESTIMATE_SAMPLES, which lands
# exactly on the confidence grid; the threshold comparison is exact.
ESTIMATE_SAMPLES = 10


def _response_fields(text: str, correct: bool, tokens: int) -> tuple[str, bool, int]:
    """One completion's checked fields, in ``ResponseSample``'s field
    order: the rules of a completion, for its constructor and for the
    loader, which checks each listed completion into its question's
    columns."""
    if type(text) is not str or not text.isascii() or not text:
        _as_str(text, "text")
    if correct is not True and correct is not False:
        _as_bool(correct, "correct")
    if type(tokens) is not int or not 0 < tokens < _FLOAT_SAFE_INT:
        _as_count(tokens, "tokens")
    return text, correct, tokens


class ResponseSample(_Record):
    """One free-text completion with its grading and token length."""

    __slots__ = ("text", "correct", "tokens")

    def __init__(self, text: str, correct: bool, tokens: int) -> None:
        self._store(*_response_fields(text, correct, tokens))


class TrainingQuestion(_Record):
    """A question with the graded completions recorded for it.

    The completions are stored as three aligned columns, one item per
    completion in the given order: ``texts``, ``correct`` and
    ``tokens``. ``samples`` builds the ``ResponseSample``s from them on
    each access.
    """

    __slots__ = ("id", "question", "texts", "correct", "tokens")
    _fields = ("id", "question", "samples")

    def __init__(self, id: str, question: str, samples: Iterable[ResponseSample]) -> None:
        _as_str(id, "id")
        _as_str(question, "question")
        self._fill(id, question, _sample_rows(samples, ResponseSample, id, "samples"))

    @classmethod
    def _from_rows(cls, id: str, question: str, rows: Sequence[tuple]) -> "TrainingQuestion":
        """The loader's constructor: ``rows`` holds each completion's
        fields as ``_response_fields`` returned them. Runs the
        constructor's checks in the constructor's order."""
        _as_str(id, "id")
        _as_str(question, "question")
        record = object.__new__(cls)
        record._fill(id, question, rows)
        return record

    def _fill(self, id: str, question: str, rows: Iterable[tuple]) -> None:
        columns = tuple(zip(*rows))
        if not columns:
            raise ValidationError(f"question {id!r} has no samples")
        self._store(id, question, *columns)

    @property
    def samples(self) -> tuple[ResponseSample, ...]:
        return tuple(map(ResponseSample, self.texts, self.correct, self.tokens))


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
    1.5 but never below it. ``build`` applies the same rule to a
    question's columns, through ``_dpo_pair``.
    """
    _check_min_ratio(min_ratio)
    columns = [s.text for s in samples], [s.correct for s in samples], [s.tokens for s in samples]
    fields = _dpo_pair(question_id, *columns, min_ratio, include_correct_rejected)
    return None if fields is None else PreferencePair(*fields)


def _check_min_ratio(min_ratio: float) -> None:
    """Reject a ``min_ratio`` below the stored-pair guarantee, or not a finite number."""
    if not (math.isfinite(_as_number(min_ratio, "min_ratio")) and min_ratio >= REJECTED_TOKEN_RATIO):
        raise ValidationError(
            f"min_ratio must be a finite number >= {REJECTED_TOKEN_RATIO}, got "
            f"{min_ratio}; stored pairs guarantee at least that length gap"
        )


def _dpo_pair(
    question_id: str, texts: Sequence[str], correct: Sequence[bool], tokens: Sequence[int],
    min_ratio: float, include_correct_rejected: bool,
) -> tuple[str, str, str, int, int] | None:
    """``build_dpo_pair``'s rule over a checked question's columns and a
    ``min_ratio`` that passed ``_check_min_ratio``: the pair's fields, or None."""
    chosen = min(compress(range(len(tokens)), correct), key=tokens.__getitem__, default=None)
    if chosen is None:
        return None
    floor = min_ratio * tokens[chosen]
    rejected = None
    for index, count in enumerate(tokens):
        if index == chosen or (correct[index] and not include_correct_rejected):
            continue
        if count > floor and (rejected is None or count > tokens[rejected]):
            rejected = index
    if rejected is None:
        return None
    return question_id, texts[chosen], texts[rejected], tokens[chosen], tokens[rejected]


# The targets of a question with no correct completion to draw.
_ALL_REFUSED = (REJECTION_TEXT,) * len(CONFIDENCE_LEVELS)


def refusal_targets(question: TrainingQuestion, seed: int) -> tuple[str, ...]:
    """The question's target at each level of ``CONFIDENCE_LEVELS``.

    At levels the estimated accuracy reaches (inclusive), the target is
    a drawn correct completion; above them it is the fixed rejection
    text. The draws read the integer ``_question_seed(seed, id)``: with
    ``k`` correct completions in file order, each reached level, in
    level order, takes ``bits, index = divmod(bits, k)`` and draws the
    ``index``-th. So the draws are uniform with replacement and keyed by
    (seed, id), and the corpus is reproducible regardless of question
    order. A question with no correct completion draws nothing.
    """
    _check_seed(seed)
    if len(question.correct) != ESTIMATE_SAMPLES:
        raise ValidationError(
            f"accuracy estimation uses exactly {ESTIMATE_SAMPLES} samples, "
            f"got {len(question.correct)}"
        )
    correct_texts = list(compress(question.texts, question.correct))
    k = len(correct_texts)
    if not k:
        return _ALL_REFUSED
    accuracy = k / ESTIMATE_SAMPLES
    bits = _question_seed(seed, question.id)
    targets = []
    for threshold in CONFIDENCE_LEVELS:
        if accuracy >= threshold:
            bits, index = divmod(bits, k)
            targets.append(correct_texts[index])
        else:
            targets.append(REJECTION_TEXT)
    return tuple(targets)


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


def _check_seed(seed: Any) -> None:
    """Any int is a seed, huge and negative ones too; a bool is not."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"seed must be an integer, got {seed!r}")


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
