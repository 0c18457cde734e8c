"""Domain records shared across the routing engine.

Every type validates its invariants at construction and raises
:class:`ValidationError` on bad input, so downstream code can assume any
record instance it holds is well formed. All records are immutable.

The input records (``SampleRecord``, ``LlmOutcome``, ``QuestionRecord``)
keep their rules in one private ``_check_*`` function each. The
constructor runs it, and ``io`` runs it on the values it decoded before
it fills in a record without the constructor, so every value is checked
once either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable


class ValidationError(ValueError):
    """A record or dataset violated one of its invariants."""


# Confidence levels recognised on samples and refusal thresholds.
CONFIDENCE_LEVELS: tuple[float, ...] = tuple(i / 10 for i in range(1, 11))

# Threshold grid used by sweeps when the caller does not supply one.
DEFAULT_TAUS: tuple[float, ...] = tuple(i / 10 for i in range(0, 11))

# Sampling schemes a cascade can replay.
SCHEMES: tuple[str, ...] = ("sc", "rcv", "fcv")

# A rejected completion must be this many times longer than the chosen one.
REJECTED_TOKEN_RATIO = 1.5

# Fixed response used as the target when a refusal is the desired behaviour.
REJECTION_TEXT = "Sorry, I can't answer that."

_GRID_TOLERANCE = 1e-9

# Each grid level by its own value: an exact level snaps without the scan.
_ON_GRID = {level: level for level in CONFIDENCE_LEVELS}

# The refusal prompt prefix, and the prefix of each grid level made once.
_PREFIX = "Please respond with a confidence level of {:.1f}:"
_PREFIXES = {level: _PREFIX.format(level) for level in CONFIDENCE_LEVELS}

# Every integer smaller than this in magnitude converts to a float.
_FLOAT_SAFE_INT = 2**1023


def canonical_answer(text: str) -> str:
    """Normalise an answer string for comparison: strip edges, casefold."""
    canonical = text.strip().casefold()
    if not canonical:
        raise ValidationError("answer text is empty after normalisation")
    return canonical


def snap_confidence(value: float) -> float:
    """Map a float onto the canonical 0.1..1.0 grid.

    Values further than 1e-9 from every grid point are rejected; this
    catches data written with the wrong scale (percentages, logits).
    """
    level = _ON_GRID.get(value)
    if level is not None:
        return level
    for level in CONFIDENCE_LEVELS:
        if abs(value - level) <= _GRID_TOLERANCE:
            return level
    raise ValidationError(
        f"confidence level {value!r} is not on the grid 0.1, 0.2, ... 1.0"
    )


def normalize_taus(taus: "Iterable[float]") -> tuple[float, ...]:
    """Sorted unique thresholds, each validated to lie in [0, 1]."""
    values = sorted({float(t) for t in taus})
    if not values:
        raise ValidationError("at least one threshold is required")
    for tau in values:
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"thresholds must lie in [0, 1], got {tau}")
    return tuple(values)


def refusal_prompt(threshold: float, question: str) -> str:
    """Build the confidence-conditioned prompt for one question."""
    return f"{refusal_prompt_prefix(threshold)} {question}"


def refusal_prompt_prefix(threshold: float) -> str:
    prefix = _PREFIXES.get(threshold)
    return _PREFIX.format(threshold) if prefix is None else prefix


def _as_float(value: Any, name: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    number = _to_float(value, name)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return number


def _as_int(value: Any, name: str) -> int:
    if type(value) is int and -_FLOAT_SAFE_INT < value < _FLOAT_SAFE_INT:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    _to_float(value, name)  # costs and means are float arithmetic
    return value


def _as_count(value: Any, name: str) -> int:
    """A token count: an integer >= 1."""
    count = _as_int(value, name)
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


def _to_float(value: int | float, name: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(
            f"{name} is too large for a float, got an integer of {value.bit_length()} bits"
        ) from None


def _as_bool(value: Any, name: str) -> bool:
    if value is not True and value is not False:  # bool has no subclasses
        raise ValidationError(f"{name} must be a boolean, got {value!r}")
    return value


def _as_str(value: Any, name: str) -> str:
    """A non-empty string that UTF-8 can encode: no lone surrogate."""
    if type(value) is str and value.isascii() and value:
        return value
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{name} must be a non-empty string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"{name} holds a lone surrogate U+{ord(value[exc.start]):04X} "
            f"at index {exc.start}, which UTF-8 cannot encode"
        ) from None
    return value


@dataclass(frozen=True)
class PricingSchedule:
    """Per-million-token prices in USD for both models.

    Defaults follow the reference deployment: output prices of 0.08 and
    1.10 for the small and large model, input priced at a quarter of the
    respective output rate.
    """

    slm_in: float = 0.02
    slm_out: float = 0.08
    llm_in: float = 0.275
    llm_out: float = 1.10

    def __post_init__(self) -> None:
        for name in ("slm_in", "slm_out", "llm_in", "llm_out"):
            price = _as_float(getattr(self, name), name)
            if price <= 0:
                raise ValidationError(f"{name} must be positive, got {price}")
            object.__setattr__(self, name, price)

    def to_dict(self) -> dict[str, float]:
        return {
            "slm_in": self.slm_in,
            "slm_out": self.slm_out,
            "llm_in": self.llm_in,
            "llm_out": self.llm_out,
        }


def _settle(record: Any, check: Callable[[dict[str, Any]], dict[str, Any]]) -> None:
    """Check a just-built record's field values (its slots) with its
    class's ``check`` and store the canonical values it returns."""
    values = check({name: getattr(record, name) for name in record.__slots__})
    for name, value in values.items():
        object.__setattr__(record, name, value)


def _check_sample(values: dict[str, Any]) -> dict[str, Any]:
    """Check a SampleRecord's field values; return them, with ``answer``
    and ``confidence_level`` made canonical in place."""
    refusal = _as_bool(values["refusal"], "refusal")
    correct = _as_bool(values["correct"], "correct")
    _as_count(values["tokens"], "tokens")
    answer = values["answer"]
    if refusal:
        if answer is not None:
            raise ValidationError("a refusal sample must have answer=None")
        if correct:
            raise ValidationError("a refusal sample cannot be correct")
    else:
        if answer is None:
            raise ValidationError("a non-refusal sample must carry an answer")
        values["answer"] = canonical_answer(_as_str(answer, "answer"))
    level = values["confidence_level"]
    if level is not None:
        values["confidence_level"] = snap_confidence(_as_float(level, "confidence_level"))
    return values


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One recorded SLM completion for a question.

    ``answer`` is canonicalised (stripped, casefolded) at construction so
    equality of answers means equality of these fields. A refusal carries
    no answer and is never correct. ``confidence_level`` is the level the
    sample was conditioned on, or None for an unconditioned sample.
    """

    answer: str | None
    correct: bool
    tokens: int
    confidence_level: float | None = None
    refusal: bool = False

    def __post_init__(self) -> None:
        _settle(self, _check_sample)

    def to_dict(self) -> dict[str, Any]:
        return {
            "answer": self.answer,
            "correct": self.correct,
            "tokens": self.tokens,
            "confidence_level": self.confidence_level,
            "refusal": self.refusal,
        }


def _check_llm(values: dict[str, Any]) -> dict[str, Any]:
    """Check an LlmOutcome's field values; return them unchanged."""
    _as_bool(values["correct"], "llm.correct")
    _as_count(values["tokens"], "llm.tokens")
    return values


@dataclass(frozen=True, slots=True)
class LlmOutcome:
    """The recorded large-model result for a question."""

    correct: bool
    tokens: int

    def __post_init__(self) -> None:
        _settle(self, _check_llm)

    def to_dict(self) -> dict[str, Any]:
        return {"correct": self.correct, "tokens": self.tokens}


def _check_question(values: dict[str, Any]) -> dict[str, Any]:
    """Check a QuestionRecord's field values, its samples' agreement on
    each answer's correctness included; return them, with ``slm_samples``
    a tuple and ``pre_score`` a float."""
    qid = _as_str(values["id"], "id")
    input_tokens = _as_int(values["input_tokens"], "input_tokens")
    if input_tokens < 1:
        raise ValidationError(
            f"question {qid!r}: input_tokens must be >= 1, got {input_tokens}"
        )
    samples = values["slm_samples"] = tuple(values["slm_samples"])
    if not samples:
        raise ValidationError(f"question {qid!r} has no SLM samples")
    for sample in samples:
        if not isinstance(sample, SampleRecord):
            raise ValidationError(
                f"question {qid!r}: slm_samples must hold SampleRecord values"
            )
    score = values["pre_score"]
    if score is not None:
        score = values["pre_score"] = _as_float(score, "pre_score")
        if not 0.0 <= score <= 1.0:
            raise ValidationError(
                f"question {qid!r}: pre_score must lie in [0, 1], got {score}"
            )
    llm = values["llm"]
    if llm is not None and not isinstance(llm, LlmOutcome):
        raise ValidationError(f"question {qid!r}: llm must be an LlmOutcome")
    verdict: dict[str, bool] = {}
    for sample in samples:
        if sample.answer is None:
            continue
        seen = verdict.setdefault(sample.answer, sample.correct)
        if seen != sample.correct:
            raise ValidationError(
                f"question {qid!r}: answer {sample.answer!r} is marked both "
                "correct and incorrect across samples"
            )
    return values


@dataclass(frozen=True, slots=True)
class QuestionRecord:
    """All recorded behaviour for one benchmark question.

    ``pre_score`` is the confidence the pre-generation router would see;
    questions without one can still be routed from refusal statistics.
    ``llm`` may be absent for datasets where only assume-perfect
    evaluation is intended. Samples that share an answer must agree on
    whether that answer is correct; correctness is a property of the
    answer, not of the sample that produced it.
    """

    id: str
    input_tokens: int
    slm_samples: tuple[SampleRecord, ...]
    pre_score: float | None = None
    llm: LlmOutcome | None = None

    def __post_init__(self) -> None:
        _settle(self, _check_question)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "input_tokens": self.input_tokens,
            "pre_score": self.pre_score,
            "slm_samples": [s.to_dict() for s in self.slm_samples],
            "llm": self.llm.to_dict() if self.llm is not None else None,
        }


def confidence_ladder(question: "QuestionRecord") -> tuple[SampleRecord, ...]:
    """The question's samples ordered by confidence level, one per level.

    Raises when a level is missing or duplicated; untagged samples are
    ignored. This is the shape confidence-ladder replay requires.
    """
    by_level: dict[float, SampleRecord] = {}
    for sample in question.slm_samples:
        if sample.confidence_level is None:
            continue
        if sample.confidence_level in by_level:
            raise ValidationError(
                f"question {question.id!r}: several samples at confidence "
                f"{sample.confidence_level:.1f}; ladder replay needs one per level"
            )
        by_level[sample.confidence_level] = sample
    missing = [level for level in CONFIDENCE_LEVELS if level not in by_level]
    if missing:
        raise ValidationError(
            f"question {question.id!r}: no sample at confidence "
            f"{', '.join(f'{level:.1f}' for level in missing)}; "
            "ladder replay needs the full ladder"
        )
    return tuple(by_level[level] for level in CONFIDENCE_LEVELS)


@dataclass(frozen=True)
class DatasetProfile:
    """Aggregate statistics a cost model needs about a whole dataset.

    Keeps the per-question input token counts (aligned with ``ids``, both
    sorted by question id) so that total costs can be computed as the sum
    of the same per-question terms the simulator produces, in the same
    order. ``avg_llm_tokens`` is the mean over questions that have an LLM
    record, or None when none do.
    """

    ids: tuple[str, ...]
    input_tokens: tuple[int, ...]
    avg_llm_tokens: float | None
    n_with_llm: int

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.input_tokens):
            raise ValidationError("profile ids and input_tokens must align")
        if not self.ids:
            raise ValidationError("profile requires at least one question")
        if list(self.ids) != sorted(self.ids):
            raise ValidationError("profile ids must be sorted")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("profile ids must be unique")
        if self.avg_llm_tokens is not None and self.avg_llm_tokens <= 0:
            raise ValidationError("avg_llm_tokens must be positive when present")
        if not 0 <= self.n_with_llm <= len(self.ids):
            raise ValidationError("n_with_llm out of range")

    @property
    def n_questions(self) -> int:
        return len(self.ids)

    @classmethod
    def from_questions(cls, questions: "tuple[QuestionRecord, ...] | list[QuestionRecord]") -> "DatasetProfile":
        if not questions:
            raise ValidationError("cannot profile an empty dataset")
        ordered = sorted(questions, key=lambda q: q.id)
        ids = tuple(q.id for q in ordered)
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate question ids: {', '.join(dupes[:5])}")
        llm_tokens = [q.llm.tokens for q in ordered if q.llm is not None]
        avg = sum(llm_tokens) / len(llm_tokens) if llm_tokens else None
        return cls(
            ids=ids,
            input_tokens=tuple(q.input_tokens for q in ordered),
            avg_llm_tokens=avg,
            n_with_llm=len(llm_tokens),
        )


@dataclass(frozen=True)
class RoutingOutcome:
    """What the simulated router did with one question.

    ``quality`` is the per-question performance contribution in [0, 1].
    ``decision_latency_tokens`` is the generated-token latency until the
    routing decision was known; pre-generation routing decides before any
    generation, so it is 0 there and >= 1 for cascade decisions.
    """

    question_id: str
    mode: str
    routed: bool
    quality: float
    slm_cost: float
    llm_cost: float
    decision_latency_tokens: int
    accepted_answer: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "question_id", _as_str(self.question_id, "question_id"))
        if self.mode not in ("pre", "cascade"):
            raise ValidationError(f"mode must be 'pre' or 'cascade', got {self.mode!r}")
        object.__setattr__(self, "routed", _as_bool(self.routed, "routed"))
        quality = _as_float(self.quality, "quality")
        if not 0.0 <= quality <= 1.0:
            raise ValidationError(f"quality must lie in [0, 1], got {quality}")
        object.__setattr__(self, "quality", quality)
        for name in ("slm_cost", "llm_cost"):
            cost = _as_float(getattr(self, name), name)
            if cost < 0:
                raise ValidationError(f"{name} must be >= 0, got {cost}")
            object.__setattr__(self, name, cost)
        latency = _as_int(self.decision_latency_tokens, "decision_latency_tokens")
        if self.mode == "pre" and latency != 0:
            raise ValidationError("pre-generation decisions carry no token latency")
        if self.mode == "cascade" and latency < 1:
            raise ValidationError("cascade decisions require at least one sampled token")
        object.__setattr__(self, "decision_latency_tokens", latency)
        if not self.routed and self.llm_cost != 0.0:
            raise ValidationError("an unrouted question cannot incur LLM cost")
        if self.routed and self.accepted_answer is not None:
            raise ValidationError("a routed question has no accepted SLM answer")


@dataclass(frozen=True)
class CurvePoint:
    """One point of a cost/performance trade-off curve.

    Grid points carry the ``tau`` that produced them; the two reference
    endpoints carry a ``label`` ('slm_only' or 'llm_only') instead.
    ``cost`` is normalised to the all-LLM cost and may exceed 1 for
    cascade policies that pay for samples and still route.
    """

    cost: float
    performance: float
    tau: float | None = None
    label: str | None = None
    n_routed: int = 0

    def __post_init__(self) -> None:
        cost = _as_float(self.cost, "cost")
        if cost < 0:
            raise ValidationError(f"cost must be >= 0, got {cost}")
        object.__setattr__(self, "cost", cost)
        perf = _as_float(self.performance, "performance")
        if not 0.0 <= perf <= 1.0:
            raise ValidationError(f"performance must lie in [0, 1], got {perf}")
        object.__setattr__(self, "performance", perf)
        if self.label is not None and self.label not in ("slm_only", "llm_only"):
            raise ValidationError(f"unknown curve label {self.label!r}")
        if self.tau is not None and self.label is not None:
            raise ValidationError("a curve point cannot be both a grid point and an endpoint")
        if self.tau is not None:
            tau = _as_float(self.tau, "tau")
            if not 0.0 <= tau <= 1.0:
                raise ValidationError(f"tau must lie in [0, 1], got {tau}")
            object.__setattr__(self, "tau", tau)
        n_routed = _as_int(self.n_routed, "n_routed")
        if n_routed < 0:
            raise ValidationError(f"n_routed must be >= 0, got {n_routed}")
        object.__setattr__(self, "n_routed", n_routed)


@dataclass(frozen=True)
class MetricsReport:
    """Scalar evaluation results for one routing configuration.

    ``toa100`` and ``togr`` are None when the run did not include the
    assume-perfect curve or the golden reference. The derived gains are
    exposed as properties so they can never drift from their areas.
    """

    toa: float
    agl: float
    arol: float
    mode: str
    toa100: float | None = None
    togr: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("actual", "perfect"):
            raise ValidationError(f"mode must be 'actual' or 'perfect', got {self.mode!r}")
        object.__setattr__(self, "toa", _as_float(self.toa, "toa"))
        for name in ("agl", "arol"):
            value = _as_float(getattr(self, name), name)
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)
        if self.toa100 is not None:
            object.__setattr__(self, "toa100", _as_float(self.toa100, "toa100"))
        if self.togr is not None:
            object.__setattr__(self, "togr", _as_float(self.togr, "togr"))

    @property
    def toga(self) -> float:
        return self.toa - 0.5

    @property
    def toga100(self) -> float | None:
        return None if self.toa100 is None else self.toa100 - 0.5

    def to_dict(self) -> dict[str, Any]:
        return {
            "toa": self.toa,
            "toga": self.toga,
            "toa100": self.toa100,
            "toga100": self.toga100,
            "togr": self.togr,
            "agl": self.agl,
            "arol": self.arol,
            "mode": self.mode,
        }


@dataclass(frozen=True, slots=True)
class PreferencePair:
    """A DPO training pair built from one question's completions.

    The invariant mirrors the construction rule: the rejected completion
    must be strictly more than 1.5 times the token length of the chosen
    one, so every stored pair encodes a real brevity gap.
    """

    question_id: str
    chosen: str
    rejected: str
    chosen_tokens: int
    rejected_tokens: int

    def __post_init__(self) -> None:
        _as_str(self.question_id, "question_id")
        _as_str(self.chosen, "chosen")
        _as_str(self.rejected, "rejected")
        _as_count(self.chosen_tokens, "chosen_tokens")
        _as_count(self.rejected_tokens, "rejected_tokens")
        if not self.rejected_tokens > REJECTED_TOKEN_RATIO * self.chosen_tokens:
            raise ValidationError(
                f"rejected completion must exceed {REJECTED_TOKEN_RATIO}x the chosen "
                f"length; got {self.rejected_tokens} vs {self.chosen_tokens} tokens"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.question_id,
            "chosen": self.chosen,
            "rejected": self.rejected,
            "chosen_tokens": self.chosen_tokens,
            "rejected_tokens": self.rejected_tokens,
        }


@dataclass(frozen=True, slots=True)
class RefusalExample:
    """A confidence-conditioned training example.

    The prompt must start with the canonical prefix for its threshold;
    the target is either a correct answer (the model should attempt the
    question at this level) or the fixed rejection text.
    """

    question_id: str
    threshold: float
    prompt: str
    target: str

    def __post_init__(self) -> None:
        _as_str(self.question_id, "question_id")
        threshold = snap_confidence(_as_float(self.threshold, "threshold"))
        object.__setattr__(self, "threshold", threshold)
        prompt = _as_str(self.prompt, "prompt")
        prefix = refusal_prompt_prefix(threshold)
        if not prompt.startswith(prefix):
            raise ValidationError(
                f"prompt for threshold {threshold:.1f} must start with {prefix!r}"
            )
        _as_str(self.target, "target")

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.question_id,
            "threshold": self.threshold,
            "prompt": self.prompt,
            "target": self.target,
        }


@dataclass(frozen=True)
class SweepResult:
    """A sweep's curve and its assume-perfect twin.

    ``perfect_points`` is the same sweep with every routed question
    scoring 1.0; it is ``points`` itself when the sweep assumed that.
    """

    points: tuple[CurvePoint, ...]
    perfect_points: tuple[CurvePoint, ...]
