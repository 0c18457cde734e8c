"""Domain records shared across the routing engine.

Every type validates its invariants at construction and raises
:class:`ValidationError` on bad input, so downstream code can assume any
record instance it holds is well formed. All records are immutable.

Each record is a slotted ``_Record`` with a hand-written ``__init__``
that holds all of its rules: it checks each value through the ``_as_*``
helpers, which convert or reject it, and ends with one
``self._store(...)`` of the checked values in slot order. The question
loader builds through ``QuestionRecord._from_rows``, which runs the
constructor's question checks on samples ``_sample_fields`` checked.
``_sample_fields`` holds a sample's rules, for ``SampleRecord`` and for
the loader, which keeps a question's samples as columns and makes no
record per sample. ``trainset``'s ``_response_fields`` and
``TrainingQuestion._from_rows`` do the same for a training corpus.
Both question constructors check the samples they are given through
``_sample_rows``, after their id checks.

One record skips the constructor for values already checked:
``costs._sweep`` checks each curve column once and stores its points
with ``_from_columns``; a failing column goes through the constructor,
for its error.

Only the per-sample rules, ``_sample_fields`` and ``_response_fields``,
test the common exact types inline before calling a helper: that saves
about a microsecond a call, which counts only at ten calls a line.
Calls per run of a sweep over 400 or 4,000 questions of ten samples and
of a build over 6,000 questions of ten completions (4,409 pairs):

    ================================  ==========  ===========  ======
    code                              sweep, 400  sweep, 4000  build
    ================================  ==========  ===========  ======
    ``_sample_fields``                4,000       40,000       0
    ``_response_fields``              0           0            60,000
    ``SampleRecord``                  0           0            0
    ``ResponseSample``                0           0            0
    ``LlmOutcome``                    400         4,000        0
    ``QuestionRecord._from_rows``     400         4,000        0
    ``TrainingQuestion._from_rows``   0           0            6,000
    ``PreferencePair``                0           0            0
    ================================  ==========  ===========  ======

``_ladder`` gives the index of a question's sample at each confidence
level. A question whose levels are exactly ``CONFIDENCE_LEVELS``, in
order and with no other sample, as every synth and writer-shaped rcv
file stores them, gets a constant without the per-level dict; any
other shape, and every ladder error, goes through the dict.

No record uses ``dataclasses``: importing it (with ``inspect``) and
generating 16 classes cost about 20 ms at every start of the CLI,
which ``_Record``'s few methods replace. A lazy import of
``dataclasses`` would save nothing, as the classes are made at import.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter, le, lt
from typing import Any, Iterable, Sequence


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

# The ladder of a question whose samples are the grid levels in order.
_IN_ORDER = tuple(range(len(CONFIDENCE_LEVELS)))

# Each grid level by its own value: SampleRecord takes an exact level without the scan.
_ON_GRID = {level: level for level in CONFIDENCE_LEVELS}

_PREFIX = "Please respond with a confidence level of {:.1f}:"

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
    for level in CONFIDENCE_LEVELS:
        if abs(value - level) <= _GRID_TOLERANCE:
            return level
    raise ValidationError(
        f"confidence level {value!r} is not on the grid 0.1, 0.2, ... 1.0"
    )


def normalize_taus(taus: "Iterable[float]") -> tuple[float, ...]:
    """Sorted unique thresholds, each validated to lie in [0, 1].

    A threshold is an int or a float, as a record's number fields are: a
    bool or a numeric string is rejected, not converted.
    """
    unique = set()
    for tau in taus:
        msg = f"thresholds must be numbers in [0, 1], got {tau!r}"
        if isinstance(tau, bool) or not isinstance(tau, (int, float)):
            raise ValidationError(msg)
        try:
            unique.add(float(tau))
        except OverflowError:
            raise ValidationError(msg) from None
    values = sorted(unique)
    if not values:
        raise ValidationError("at least one threshold is required")
    for tau in values:
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"thresholds must lie in [0, 1], got {tau}")
    return tuple(values)


def refusal_prompt(threshold: float, question: str) -> str:
    """Build the confidence-conditioned prompt for one question."""
    return f"{_PREFIX.format(threshold)} {question}"


def _as_float(value: Any, name: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    number = float(_as_number(value, name))
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return number


def _as_number(value: Any, name: str) -> int | float:
    """An int or a float as it is given, nan and inf too, for the caller's
    range check; a bool, any other type or an int too large for a float
    is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    _to_float(value, name)
    return value


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


class _Record:
    """A frozen record whose fields are its ``__slots__``, in order,
    after those of the record class it extends. A class that stores its
    values in other slots names its ``_fields`` itself and reads each
    field that is not a slot through a property.

    It equals a record of its own class with equal fields and nothing
    else, hashes as the tuple of its fields, and reprs as
    ``Name(field=value, ...)``. Pickling and copying go through the
    constructor, whose parameters are the fields in order.
    ``_stores`` holds the ``__set__`` of each slot descriptor, in slot
    order: the only way to store a value in a frozen record.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields += cls.__dict__.get("__slots__", ())
        cls._values = attrgetter(*cls._fields)
        slots = [name for base in reversed(cls.__mro__) for name in base.__dict__.get("__slots__", ())]
        cls._stores = tuple(getattr(cls, name).__set__ for name in slots)

    def _store(self, *values: Any) -> None:
        """Store one value per slot, in ``_stores``' order; for
        construction only, as a wrong count raises after storing the
        leading values."""
        for store, value in zip(self._stores, values, strict=True):
            store(self, value)

    @classmethod
    def _from_columns(cls, *columns: Sequence[Any]) -> list[Any]:
        """Records of ``columns``, one column per slot, stored without the constructor's checks."""
        records = list(map(object.__new__, repeat(cls, len(columns[0]))))
        for store, column in zip(cls._stores, columns, strict=True):
            list(map(store, records, column))
        return records

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._values(self)


class PricingSchedule(_Record):
    """Per-million-token prices in USD for both models.

    Defaults follow the reference deployment: output prices of 0.08 and
    1.10 for the small and large model, input priced at a quarter of the
    respective output rate.
    """

    __slots__ = ("slm_in", "slm_out", "llm_in", "llm_out")

    def __init__(
        self, slm_in: float = 0.02, slm_out: float = 0.08, llm_in: float = 0.275, llm_out: float = 1.10
    ) -> None:
        prices = []
        for name, price in zip(self._fields, (slm_in, slm_out, llm_in, llm_out)):
            price = _as_float(price, name)
            if price <= 0:
                raise ValidationError(f"{name} must be positive, got {price}")
            prices.append(price)
        self._store(*prices)

    def to_dict(self) -> dict[str, float]:
        return {
            "slm_in": self.slm_in,
            "slm_out": self.slm_out,
            "llm_in": self.llm_in,
            "llm_out": self.llm_out,
        }


def _sample_fields(
    answer: str | None,
    correct: bool,
    tokens: int,
    confidence_level: float | None = None,
    refusal: bool = False,
) -> tuple[str | None, bool, int, float | None, bool]:
    """One sample's canonical fields, in ``SampleRecord``'s field order:
    the rules of a sample, for its constructor and for the loader, which
    checks each listed sample into its question's columns."""
    if refusal is not True and refusal is not False:
        _as_bool(refusal, "refusal")
    if correct is not True and correct is not False:
        _as_bool(correct, "correct")
    if type(tokens) is not int or not 0 < tokens < _FLOAT_SAFE_INT:
        _as_count(tokens, "tokens")
    if refusal:
        if answer is not None:
            raise ValidationError("a refusal sample must have answer=None")
        if correct:
            raise ValidationError("a refusal sample cannot be correct")
    else:
        if answer is None:
            raise ValidationError("a non-refusal sample must carry an answer")
        if type(answer) is not str or not answer.isascii() or not answer:
            _as_str(answer, "answer")
        answer = canonical_answer(answer)
    if confidence_level is not None:
        # True and 1 are in _ON_GRID too: the helpers reject or convert them.
        level = _ON_GRID.get(confidence_level) if type(confidence_level) is float else None
        if level is None:
            level = snap_confidence(_as_float(confidence_level, "confidence_level"))
        confidence_level = level
    return answer, correct, tokens, confidence_level, refusal


class SampleRecord(_Record):
    """One recorded SLM completion for a question.

    ``answer`` is canonicalised (stripped, casefolded) at construction so
    equality of answers means equality of these fields. A refusal carries
    no answer and is never correct. ``confidence_level`` is the level the
    sample was conditioned on, or None for an unconditioned sample.
    """

    __slots__ = ("answer", "correct", "tokens", "confidence_level", "refusal")

    def __init__(
        self,
        answer: str | None,
        correct: bool,
        tokens: int,
        confidence_level: float | None = None,
        refusal: bool = False,
    ) -> None:
        self._store(*_sample_fields(answer, correct, tokens, confidence_level, refusal))

    def to_dict(self) -> dict[str, Any]:
        return {
            "answer": self.answer,
            "correct": self.correct,
            "tokens": self.tokens,
            "confidence_level": self.confidence_level,
            "refusal": self.refusal,
        }


class LlmOutcome(_Record):
    """The recorded large-model result for a question."""

    __slots__ = ("correct", "tokens")

    def __init__(self, correct: bool, tokens: int) -> None:
        self._store(_as_bool(correct, "llm.correct"), _as_count(tokens, "llm.tokens"))

    def to_dict(self) -> dict[str, Any]:
        return {"correct": self.correct, "tokens": self.tokens}


class QuestionRecord(_Record):
    """All recorded behaviour for one benchmark question.

    ``pre_score`` is the confidence the pre-generation router would see;
    questions without one can still be routed from refusal statistics.
    ``llm`` may be absent under assume-perfect evaluation, but a sweep
    needs at least one LLM record in the dataset: every LLM cost uses the
    average recorded LLM length. Samples that share an answer must agree on
    whether that answer is correct; correctness is a property of the
    answer, not of the sample that produced it.

    The samples are stored as five aligned columns, one item per sample
    in the given order: ``answers``, ``correct``, ``tokens``, ``levels``
    (confidence levels) and ``refusals``, each holding the canonical
    value of that ``SampleRecord`` field. ``slm_samples`` builds the
    ``SampleRecord``s from them on each access.
    """

    __slots__ = (
        "id", "input_tokens", "answers", "correct", "tokens", "levels", "refusals", "pre_score", "llm",
    )
    _fields = ("id", "input_tokens", "slm_samples", "pre_score", "llm")

    def __init__(
        self,
        id: str,
        input_tokens: int,
        slm_samples: Iterable[SampleRecord],
        pre_score: float | None = None,
        llm: LlmOutcome | None = None,
    ) -> None:
        _check_question(id, input_tokens)
        self._fill(id, input_tokens, _sample_rows(slm_samples, SampleRecord, id, "slm_samples"), pre_score, llm)

    @classmethod
    def _from_rows(
        cls,
        id: str,
        input_tokens: int,
        rows: Sequence[tuple],
        pre_score: float | None,
        llm: LlmOutcome | None,
    ) -> "QuestionRecord":
        """The loader's constructor: ``rows`` holds each sample's fields
        as ``_sample_fields`` returned them. Runs the constructor's
        question checks in the constructor's order."""
        _check_question(id, input_tokens)
        question = object.__new__(cls)
        question._fill(id, input_tokens, rows, pre_score, llm)
        return question

    def _fill(
        self,
        id: str,
        input_tokens: int,
        rows: Sequence[tuple],
        pre_score: float | None,
        llm: LlmOutcome | None,
    ) -> None:
        """Check the rest of a question whose id and input tokens passed
        ``_check_question``, then store it with its sample columns."""
        if not rows:
            raise ValidationError(f"question {id!r} has no SLM samples")
        if pre_score is not None:
            pre_score = _as_float(pre_score, "pre_score")
            if not 0.0 <= pre_score <= 1.0:
                raise ValidationError(
                    f"question {id!r}: pre_score must lie in [0, 1], got {pre_score}"
                )
        if llm is not None and not isinstance(llm, LlmOutcome):
            raise ValidationError(f"question {id!r}: llm must be an LlmOutcome")
        answers, correct, tokens, levels, refusals = zip(*rows)
        verdict: dict[str, bool] = {}
        for answer, is_correct in zip(answers, correct):
            if answer is not None and verdict.setdefault(answer, is_correct) != is_correct:
                raise ValidationError(
                    f"question {id!r}: answer {answer!r} is marked both "
                    "correct and incorrect across samples"
                )
        self._store(id, input_tokens, answers, correct, tokens, levels, refusals, pre_score, llm)

    @property
    def slm_samples(self) -> tuple[SampleRecord, ...]:
        return tuple(map(SampleRecord, self.answers, self.correct, self.tokens, self.levels, self.refusals))

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "input_tokens": self.input_tokens,
            "pre_score": self.pre_score,
            "slm_samples": [
                {"answer": a, "correct": c, "tokens": t, "confidence_level": level, "refusal": r}
                for a, c, t, level, r in zip(
                    self.answers, self.correct, self.tokens, self.levels, self.refusals
                )
            ],
            "llm": self.llm.to_dict() if self.llm is not None else None,
        }


def _sample_rows(samples: Iterable[Any], cls: type, id: str, name: str) -> list[tuple]:
    """The field values of each of a question's ``cls`` records, given
    to its constructor as the argument ``name``: the constructors'
    sample check, run after their id checks."""
    try:
        samples = tuple(samples)
    except TypeError:
        samples = None
    if samples is None or not all(isinstance(sample, cls) for sample in samples):
        raise ValidationError(f"question {id!r}: {name} must hold {cls.__name__} values")
    return list(map(cls._values, samples))


def _check_question(id: Any, input_tokens: Any) -> None:
    """A question's first two checks, of its id and its input tokens."""
    _as_str(id, "id")
    if _as_int(input_tokens, "input_tokens") < 1:
        raise ValidationError(f"question {id!r}: input_tokens must be >= 1, got {input_tokens}")


def _ladder(question: QuestionRecord) -> tuple[int, ...]:
    """The index of the question's sample at each confidence level, in
    level order. Untagged samples are ignored; raises ``ValidationError``
    when a level has several samples or when a level has none.

    An in-order ladder with no other sample skips the dict: stored
    levels are grid floats, so the comparison is exact."""
    if question.levels == CONFIDENCE_LEVELS:
        return _IN_ORDER
    by_level: dict[float, int] = {}
    for index, level in enumerate(question.levels):
        if level is None:
            continue
        if level in by_level:
            raise ValidationError(
                f"question {question.id!r}: several samples at confidence "
                f"{level:.1f}; ladder replay needs one per level"
            )
        by_level[level] = index
    missing = [level for level in CONFIDENCE_LEVELS if level not in by_level]
    if missing:
        raise ValidationError(
            f"question {question.id!r}: no sample at confidence "
            f"{', '.join(f'{level:.1f}' for level in missing)}; "
            "ladder replay needs the full ladder"
        )
    return tuple(by_level[level] for level in CONFIDENCE_LEVELS)


class DatasetProfile(_Record):
    """Aggregate statistics a cost model needs about a whole dataset.

    Keeps the per-question input token counts (aligned with ``ids``, both
    sorted by question id) so that total costs can be computed as the sum
    of the same per-question terms the simulator produces, in the same
    order. ``avg_llm_tokens`` is the mean over questions that have an LLM
    record, or None when none do.
    """

    __slots__ = ("ids", "input_tokens", "avg_llm_tokens", "n_with_llm")

    def __init__(
        self,
        ids: tuple[str, ...],
        input_tokens: tuple[int, ...],
        avg_llm_tokens: float | None,
        n_with_llm: int,
    ) -> None:
        if len(ids) != len(input_tokens):
            raise ValidationError("profile ids and input_tokens must align")
        if not ids:
            raise ValidationError("profile requires at least one question")
        for i, qid in enumerate(ids):
            _as_str(qid, f"ids[{i}]")
        for i, tokens in enumerate(input_tokens):
            _as_count(tokens, f"input_tokens[{i}]")
        # Strictly increasing is sorted and unique; an unsorted run is
        # reported first, even where it also repeats an id.
        if not all(map(lt, ids, ids[1:])):
            unsorted = not all(map(le, ids, ids[1:]))
            raise ValidationError(f"profile ids must be {'sorted' if unsorted else 'unique'}")
        if avg_llm_tokens is not None and not (
            math.isfinite(_as_number(avg_llm_tokens, "avg_llm_tokens")) and avg_llm_tokens > 0
        ):
            raise ValidationError("avg_llm_tokens must be positive when present")
        if not 0 <= _as_int(n_with_llm, "n_with_llm") <= len(ids):
            raise ValidationError("n_with_llm out of range")
        self._store(ids, input_tokens, avg_llm_tokens, n_with_llm)

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
            dupes = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
            raise ValidationError(f"duplicate question ids: {', '.join(dupes[:5])}")
        llm_tokens = [q.llm.tokens for q in ordered if q.llm is not None]
        avg = sum(llm_tokens) / len(llm_tokens) if llm_tokens else None
        return cls(
            ids=ids,
            input_tokens=tuple(q.input_tokens for q in ordered),
            avg_llm_tokens=avg,
            n_with_llm=len(llm_tokens),
        )


class RoutingOutcome(_Record):
    """What the simulated router did with one question.

    ``quality`` is the per-question performance contribution in [0, 1].
    ``decision_latency_tokens`` is the generated-token latency until the
    routing decision was known; pre-generation routing decides before any
    generation, so it is 0 there and >= 1 for cascade decisions.
    """

    __slots__ = (
        "question_id", "mode", "routed", "quality", "slm_cost", "llm_cost",
        "decision_latency_tokens", "accepted_answer",
    )

    def __init__(
        self,
        question_id: str,
        mode: str,
        routed: bool,
        quality: float,
        slm_cost: float,
        llm_cost: float,
        decision_latency_tokens: int,
        accepted_answer: str | None = None,
    ) -> None:
        _as_str(question_id, "question_id")
        if mode not in ("pre", "cascade"):
            raise ValidationError(f"mode must be 'pre' or 'cascade', got {mode!r}")
        _as_bool(routed, "routed")
        quality = _as_float(quality, "quality")
        if not 0.0 <= quality <= 1.0:
            raise ValidationError(f"quality must lie in [0, 1], got {quality}")
        slm_cost = _as_float(slm_cost, "slm_cost")
        if slm_cost < 0:
            raise ValidationError(f"slm_cost must be >= 0, got {slm_cost}")
        llm_cost = _as_float(llm_cost, "llm_cost")
        if llm_cost < 0:
            raise ValidationError(f"llm_cost must be >= 0, got {llm_cost}")
        latency = _as_int(decision_latency_tokens, "decision_latency_tokens")
        if mode == "pre" and latency != 0:
            raise ValidationError("pre-generation decisions carry no token latency")
        if mode == "cascade" and latency < 1:
            raise ValidationError("cascade decisions require at least one sampled token")
        if not routed and llm_cost != 0.0:
            raise ValidationError("an unrouted question cannot incur LLM cost")
        if routed and accepted_answer is not None:
            raise ValidationError("a routed question has no accepted SLM answer")
        self._store(question_id, mode, routed, quality, slm_cost, llm_cost, latency, accepted_answer)


class CurvePoint(_Record):
    """One point of a cost/performance trade-off curve.

    Grid points carry the ``tau`` that produced them; the two reference
    endpoints carry a ``label`` ('slm_only' or 'llm_only') instead.
    ``cost`` is normalised to the all-LLM cost and may exceed 1 for
    cascade policies that pay for samples and still route.
    """

    __slots__ = ("cost", "performance", "tau", "label", "n_routed")

    def __init__(
        self,
        cost: float,
        performance: float,
        tau: float | None = None,
        label: str | None = None,
        n_routed: int = 0,
    ) -> None:
        cost = _as_float(cost, "cost")
        if cost < 0:
            raise ValidationError(f"cost must be >= 0, got {cost}")
        performance = _as_float(performance, "performance")
        if not 0.0 <= performance <= 1.0:
            raise ValidationError(f"performance must lie in [0, 1], got {performance}")
        if label is not None and label not in ("slm_only", "llm_only"):
            raise ValidationError(f"unknown curve label {label!r}")
        if tau is not None:
            if label is not None:
                raise ValidationError("a curve point cannot be both a grid point and an endpoint")
            tau = _as_float(tau, "tau")
            if not 0.0 <= tau <= 1.0:
                raise ValidationError(f"tau must lie in [0, 1], got {tau}")
        n_routed = _as_int(n_routed, "n_routed")
        if n_routed < 0:
            raise ValidationError(f"n_routed must be >= 0, got {n_routed}")
        self._store(cost, performance, tau, label, n_routed)


class MetricsReport(_Record):
    """Scalar evaluation results for one routing configuration.

    ``toa100`` and ``togr`` are None when the run did not include the
    assume-perfect curve or the golden reference. The derived gains are
    exposed as properties so they can never drift from their areas.
    """

    __slots__ = ("toa", "agl", "arol", "mode", "toa100", "togr")

    def __init__(
        self,
        toa: float,
        agl: float,
        arol: float,
        mode: str,
        toa100: float | None = None,
        togr: float | None = None,
    ) -> None:
        if mode not in ("actual", "perfect"):
            raise ValidationError(f"mode must be 'actual' or 'perfect', got {mode!r}")
        toa = _as_float(toa, "toa")
        agl = _as_float(agl, "agl")
        if agl < 0:
            raise ValidationError(f"agl must be >= 0, got {agl}")
        arol = _as_float(arol, "arol")
        if arol < 0:
            raise ValidationError(f"arol must be >= 0, got {arol}")
        if toa100 is not None:
            toa100 = _as_float(toa100, "toa100")
        if togr is not None:
            togr = _as_float(togr, "togr")
        self._store(toa, agl, arol, mode, toa100, togr)

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


class PreferencePair(_Record):
    """A DPO training pair built from one question's completions.

    The invariant mirrors the construction rule: the rejected completion
    must be strictly more than 1.5 times the token length of the chosen
    one, so every stored pair encodes a real brevity gap.
    """

    __slots__ = ("question_id", "chosen", "rejected", "chosen_tokens", "rejected_tokens")

    def __init__(
        self, question_id: str, chosen: str, rejected: str, chosen_tokens: int, rejected_tokens: int
    ) -> None:
        _as_str(question_id, "question_id")
        _as_str(chosen, "chosen")
        _as_str(rejected, "rejected")
        _as_count(chosen_tokens, "chosen_tokens")
        _as_count(rejected_tokens, "rejected_tokens")
        if not rejected_tokens > REJECTED_TOKEN_RATIO * chosen_tokens:
            raise ValidationError(
                f"rejected completion must exceed {REJECTED_TOKEN_RATIO}x the chosen "
                f"length; got {rejected_tokens} vs {chosen_tokens} tokens"
            )
        self._store(question_id, chosen, rejected, chosen_tokens, rejected_tokens)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.question_id,
            "chosen": self.chosen,
            "rejected": self.rejected,
            "chosen_tokens": self.chosen_tokens,
            "rejected_tokens": self.rejected_tokens,
        }


class RefusalExample(_Record):
    """A confidence-conditioned training example.

    The prompt must start with the canonical prefix for its threshold;
    the target is either a correct answer (the model should attempt the
    question at this level) or the fixed rejection text.
    """

    __slots__ = ("question_id", "threshold", "prompt", "target")

    def __init__(self, question_id: str, threshold: float, prompt: str, target: str) -> None:
        _as_str(question_id, "question_id")
        threshold = snap_confidence(_as_float(threshold, "threshold"))
        prefix = _PREFIX.format(threshold)
        _as_str(prompt, "prompt")
        if not prompt.startswith(prefix):
            raise ValidationError(
                f"prompt for threshold {threshold:.1f} must start with {prefix!r}"
            )
        _as_str(target, "target")
        self._store(question_id, threshold, prompt, target)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.question_id,
            "threshold": self.threshold,
            "prompt": self.prompt,
            "target": self.target,
        }


class LatencyReport(_Record):
    """Mean decision latencies of a cascade run, split by decision.

    ``agl`` averages over accepted questions, ``arol`` over rejected
    (escalated) ones. An empty group reports 0.0; check the counts to
    tell a fast group from an absent one.
    """

    __slots__ = ("agl", "arol", "n_accepted", "n_rejected")

    def __init__(self, agl: float, arol: float, n_accepted: int, n_rejected: int) -> None:
        self._store(agl, arol, n_accepted, n_rejected)


def _latency_report(decisions: Iterable[tuple[bool, int]]) -> LatencyReport:
    """AGL/AROL of one ``(accepted, latency_tokens)`` pair per question."""
    accepted: list[int] = []
    rejected: list[int] = []
    for is_accepted, latency in decisions:
        (accepted if is_accepted else rejected).append(latency)
    if not accepted and not rejected:
        raise ValidationError("no outcomes to report latency over")
    agl = sum(accepted) / len(accepted) if accepted else 0.0
    arol = sum(rejected) / len(rejected) if rejected else 0.0
    return LatencyReport(agl, arol, len(accepted), len(rejected))


class SweepResult(_Record):
    """A sweep's curve, its assume-perfect twin and its latencies.

    ``perfect_points`` is the same sweep with every routed question
    scoring 1.0; it is ``points`` itself whenever every routed question
    already scores 1.0, which ``assume_perfect=True`` guarantees.
    ``latency`` is a cascade sweep's AGL/AROL at its latency threshold;
    a pre sweep has None.
    """

    __slots__ = ("points", "perfect_points", "latency")

    def __init__(
        self,
        points: tuple[CurvePoint, ...],
        perfect_points: tuple[CurvePoint, ...],
        latency: LatencyReport | None = None,
    ) -> None:
        self._store(points, perfect_points, latency)
