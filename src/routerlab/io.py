"""File formats and the synthetic dataset generator.

Datasets, training corpora, preference pairs and refusal examples are
JSON Lines; curves are CSV; pricing and metrics are single JSON objects.
This module is the only reader of these formats: ``_object`` checks one
decoded object's keys against its record class, and ``_record`` builds
the record after the class's own field check. Parsers are strict about
required fields, repeated keys and value ranges but tolerate unknown
fields with a warning, so newer files keep loading.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import MISSING, dataclass, fields
from typing import Any

from .records import (
    CONFIDENCE_LEVELS,
    SCHEMES,
    CurvePoint,
    DatasetProfile,
    LlmOutcome,
    MetricsReport,
    PreferencePair,
    PricingSchedule,
    QuestionRecord,
    RefusalExample,
    SampleRecord,
    ValidationError,
    _check_llm,
    _check_question,
    _check_sample,
    canonical_answer,
)
from .trainset import ResponseSample, TrainingQuestion, _check_response, _check_training

CURVE_HEADER = ("tau", "cost", "performance", "n_routed")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One decoded JSON object; a key given twice is an error."""
    data = dict(pairs)
    if len(data) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"duplicate key {key!r}")
            seen.add(key)
    return data


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode

# The values of a JSON row as ``_ENCODE`` writes them: the string
# escaper of ``JSONEncoder(ensure_ascii=False)``, and the ``repr`` of
# the number's base type, so that int and float subclasses write the
# digits ``_ENCODE`` writes for them.
_STR = json.encoder.encode_basestring
_INT = int.__repr__
_FLOAT = float.__repr__


def _decode(raw: bytes) -> Any:
    """``json.loads(raw)`` that rejects a repeated key at any depth.

    Raises ValidationError for a repeated key, and otherwise what
    ``json.loads`` raises for bytes: JSONDecodeError or
    UnicodeDecodeError.
    """
    return _DECODER.decode(raw.decode(json.detect_encoding(raw), "surrogatepass"))


class DatasetError(ValidationError):
    """A file could not be parsed; the message carries file:line context."""


def _read_jsonl(
    path: str, parse: Callable[..., Any]
) -> Iterator[tuple[Any, None] | tuple[None, str]]:
    """Parse each non-blank line; yield ``(record, None)`` or ``(None, problem)``.

    A problem is the line's ``path:line`` followed by what is wrong with
    it: invalid JSON or UTF-8, a key repeated in one object, a record
    ``parse`` rejects, or an id already seen on an earlier line. Callers
    decide whether to stop or collect.
    """
    seen: dict[str, int] = {}
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                data = _decode(line)
            except ValidationError as exc:  # a repeated key
                yield None, f"{where}: {exc}"
                continue
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                yield None, f"{where}: invalid JSON: {exc}"
                continue
            try:
                record = parse(data, source=where)
            except ValidationError as exc:
                yield None, f"{where}: {exc}"
                continue
            if record.id in seen:
                yield None, (
                    f"{where}: duplicate question id {record.id!r} "
                    f"(first seen on line {seen[record.id]})"
                )
                continue
            seen[record.id] = lineno
            yield record, None


class _Kind:
    """How ``io`` reads one record class from a JSON object: the keys it
    must carry, the defaults of the rest, and the class's check of its
    field values (None for a class built through its constructor)."""

    __slots__ = ("cls", "required", "needed", "known", "defaults", "check")

    def __init__(
        self,
        cls: type,
        required: tuple[str, ...],
        check: Callable[[dict[str, Any]], dict[str, Any]] | None = None,
    ):
        self.cls = cls
        self.required = required
        self.needed = frozenset(required)
        self.known = frozenset(f.name for f in fields(cls))
        self.defaults = {f.name: None if f.default is MISSING else f.default for f in fields(cls)}
        self.check = check


_SAMPLE = _Kind(SampleRecord, ("correct", "tokens"), _check_sample)
_LLM = _Kind(LlmOutcome, ("correct", "tokens"), _check_llm)
_QUESTION = _Kind(QuestionRecord, ("id", "input_tokens", "slm_samples"), _check_question)
_RESPONSE = _Kind(ResponseSample, ("text", "correct", "tokens"), _check_response)
_TRAINING = _Kind(TrainingQuestion, ("id", "question", "samples"), _check_training)
_PRICING = _Kind(PricingSchedule, ("slm_in", "slm_out", "llm_in", "llm_out"))


def _place(name: str, index: int | None) -> str:
    """The prefix that names a nested object: '', 'llm: ' or 'slm_samples[3]: '."""
    if not name:
        return ""
    return f"{name}: " if index is None else f"{name}[{index}]: "


def _object(
    data: Any, kind: _Kind, source: str, name: str = "", index: int | None = None
) -> dict[str, Any]:
    """Field values for ``kind.cls`` from one decoded JSON object.

    ``name`` and ``index`` place a nested object inside its record
    (``llm``, ``slm_samples[3]``) and prefix what is raised or warned
    about it. Keys the class has no field for are ignored with a warning
    naming ``source``; a missing required key is an error, and any other
    absent key takes the field's default.
    """
    if type(data) is not dict and not isinstance(data, Mapping):
        raise ValidationError(
            f"{_place(name, index)}expected a JSON object, got {type(data).__name__}"
        )
    keys = data.keys()
    if keys <= kind.known:
        values = {**kind.defaults, **data}
    else:
        extras = sorted(set(data) - kind.known)
        warnings.warn(
            f"{source}: {_place(name, index)}ignoring unknown field(s) {', '.join(extras)}"
        )
        known = {key: value for key, value in data.items() if key in kind.known}
        values = {**kind.defaults, **known}
    if not keys >= kind.needed:
        missing = [key for key in kind.required if key not in data]
        noun = "field" if len(missing) == 1 else "fields"
        raise ValidationError(
            f"{_place(name, index)}missing required {noun} "
            f"{', '.join(repr(key) for key in missing)}"
        )
    return values


def _record(kind: _Kind, values: dict[str, Any]) -> Any:
    """A ``kind.cls`` record from raw field values.

    The class's check, the one its ``__post_init__`` runs, checks the
    values and makes them canonical; the record is then filled in
    without its constructor, so nothing is checked twice.
    """
    values = kind.check(values)
    record = object.__new__(kind.cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


def _objects(value: Any, kind: _Kind, source: str, name: str) -> tuple[Any, ...]:
    """One ``kind.cls`` record per object of the JSON list in field ``name``.

    Every error about an element, its shape or its values, starts with
    the element's place, as in ``slm_samples[3]: ``.
    """
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list")
    records = []
    for index, raw in enumerate(value):
        values = _object(raw, kind, source, name, index)
        try:
            records.append(_record(kind, values))
        except ValidationError as exc:
            raise ValidationError(f"{_place(name, index)}{exc}") from exc
    return tuple(records)


def parse_question(data: Mapping[str, Any], source: str = "question") -> QuestionRecord:
    """Build a QuestionRecord from one decoded JSONL object.

    ``source`` names the record in unknown-field warnings only; the
    reader puts the location in front of a raised error.
    """
    values = _object(data, _QUESTION, source)
    values["slm_samples"] = _objects(values["slm_samples"], _SAMPLE, source, "slm_samples")
    if values["llm"] is not None:
        values["llm"] = _record(_LLM, _object(values["llm"], _LLM, source, "llm"))
    return _record(_QUESTION, values)


def load_dataset(path: str) -> tuple[tuple[QuestionRecord, ...], DatasetProfile]:
    """Read a dataset and profile it. Raises on the first bad line."""
    questions = []
    for question, problem in _read_jsonl(path, parse_question):
        if problem is not None:
            raise DatasetError(problem)
        questions.append(question)
    if not questions:
        raise DatasetError(f"{path}: no questions found")
    return tuple(questions), DatasetProfile.from_questions(questions)


def scan_dataset(path: str) -> tuple[int, list[str]]:
    """Check every line independently instead of stopping at the first
    problem. Returns (valid_question_count, diagnostics)."""
    count = 0
    problems: list[str] = []
    for question, problem in _read_jsonl(path, parse_question):
        if problem is None:
            count += 1
        else:
            problems.append(problem)
    if count == 0 and not problems:
        problems.append(f"{path}: no questions found")
    return count, problems


def write_dataset(questions: Iterable[QuestionRecord], path: str) -> None:
    _write_jsonl((_ENCODE(q.to_dict()) + "\n" for q in questions), path)


def _write_jsonl(lines: Iterable[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def load_pricing(path: str) -> PricingSchedule:
    """Read a pricing JSON object."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return PricingSchedule(**_object(_decode(raw), _PRICING, path))
    except ValidationError as exc:  # a repeated key or a bad value
        raise DatasetError(f"{path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DatasetError(f"{path}: invalid JSON: {exc}") from exc


def write_curve(points: Iterable[CurvePoint], path: str) -> None:
    """Write a trade-off curve as CSV.

    Grid rows carry their threshold in the tau column; the reference
    rows carry their label there instead. Costs and performances are
    written with six decimals.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CURVE_HEADER)
        for point in points:
            if point.label is not None:
                tau_cell = point.label
            elif point.tau is not None:
                tau_cell = format(point.tau, ".6g")
            else:
                tau_cell = ""
            writer.writerow(
                [tau_cell, f"{point.cost:.6f}", f"{point.performance:.6f}", point.n_routed]
            )


def read_curve(path: str) -> tuple[CurvePoint, ...]:
    """Read a curve CSV back into points (at the file's precision)."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            # Each record with the file line it ends on, which a quoted
            # cell holding a newline puts past the record's count.
            rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        raise DatasetError(f"{path}:{reader.line_num}: {exc}") from exc
    header = rows[0][1] if rows else None
    if header is None or tuple(header) != CURVE_HEADER:
        raise DatasetError(
            f"{path}: expected header {','.join(CURVE_HEADER)}, "
            f"got {','.join(header) if header else 'an empty file'}"
        )
    points: list[CurvePoint] = []
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != len(CURVE_HEADER):
            raise DatasetError(f"{path}:{lineno}: expected {len(CURVE_HEADER)} columns")
        tau_cell, cost_cell, perf_cell, routed_cell = row
        label = None
        tau = None
        if tau_cell in ("slm_only", "llm_only"):
            label = tau_cell
        elif tau_cell:
            tau = _parse_float(tau_cell, path, lineno, "tau")
        try:
            points.append(
                CurvePoint(
                    cost=_parse_float(cost_cell, path, lineno, "cost"),
                    performance=_parse_float(perf_cell, path, lineno, "performance"),
                    tau=tau,
                    label=label,
                    n_routed=_parse_int(routed_cell, path, lineno, "n_routed"),
                )
            )
        except DatasetError:
            raise
        except ValidationError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise DatasetError(f"{path}: no curve points found")
    return tuple(points)


def _parse_float(cell: str, path: str, lineno: int, name: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise DatasetError(f"{path}:{lineno}: {name} is not a number: {cell!r}") from exc


def _parse_int(cell: str, path: str, lineno: int, name: str) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise DatasetError(f"{path}:{lineno}: {name} is not an integer: {cell!r}") from exc


def write_metrics(report: MetricsReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")


def parse_training_question(data: Mapping[str, Any], source: str = "question") -> TrainingQuestion:
    """Build a TrainingQuestion from one decoded JSONL object (``source`` as in ``parse_question``)."""
    values = _object(data, _TRAINING, source)
    values["samples"] = _objects(values["samples"], _RESPONSE, source, "samples")
    return _record(_TRAINING, values)


def load_training_questions(path: str) -> tuple[TrainingQuestion, ...]:
    """Read a raw training corpus. Raises on the first bad line."""
    questions = []
    for question, problem in _read_jsonl(path, parse_training_question):
        if problem is not None:
            raise DatasetError(problem)
        questions.append(question)
    if not questions:
        raise DatasetError(f"{path}: no questions found")
    return tuple(questions)


def write_pairs(pairs: Iterable[PreferencePair], path: str) -> None:
    """One line per pair, byte for byte ``_ENCODE(pair.to_dict())``."""
    _write_jsonl(
        (
            f'{{"id": {_STR(p.question_id)}, "chosen": {_STR(p.chosen)}, '
            f'"rejected": {_STR(p.rejected)}, "chosen_tokens": {_INT(p.chosen_tokens)}, '
            f'"rejected_tokens": {_INT(p.rejected_tokens)}}}\n'
            for p in pairs
        ),
        path,
    )


def write_refusal_examples(examples: Iterable[RefusalExample], path: str) -> None:
    """One line per example, byte for byte ``_ENCODE(example.to_dict())``."""
    _write_jsonl(
        (
            f'{{"id": {_STR(e.question_id)}, "threshold": {_FLOAT(e.threshold)}, '
            f'"prompt": {_STR(e.prompt)}, "target": {_STR(e.target)}}}\n'
            for e in examples
        ),
        path,
    )


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for the synthetic dataset generator.

    Each question draws a difficulty d; its SLM answers are correct with
    probability 1 - d, and a confidence-conditioned sample refuses when
    1 - d falls below its level. ``easy_fraction`` pins that share of
    questions to d = 0 exactly, which is the only way fcv samples ever
    answer. ``pre_score_noise`` scales a uniform perturbation of the
    stored pre-generation score away from the true accuracy.
    """

    scheme: str = "rcv"
    n_samples: int = 10
    difficulty_min: float = 0.0
    difficulty_max: float = 1.0
    easy_fraction: float = 0.0
    input_tokens: tuple[int, int] = (20, 200)
    answer_tokens: tuple[int, int] = (40, 400)
    refusal_tokens: tuple[int, int] = (6, 14)
    llm_tokens: tuple[int, int] = (80, 800)
    llm_correct_prob: float = 0.9
    pre_score_noise: float = 0.0
    include_llm: bool = True
    answer_keys: tuple[str, ...] = ("a", "b", "c", "d")

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "rcv" and self.n_samples != 10:
            raise ValidationError("rcv generates the full confidence ladder; n_samples must be 10")
        if not isinstance(self.n_samples, int) or self.n_samples < 1:
            raise ValidationError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not 0.0 <= self.difficulty_min <= self.difficulty_max <= 1.0:
            raise ValidationError(
                "difficulty bounds must satisfy 0 <= min <= max <= 1, got "
                f"{self.difficulty_min}..{self.difficulty_max}"
            )
        if not 0.0 <= self.easy_fraction <= 1.0:
            raise ValidationError(f"easy_fraction must lie in [0, 1], got {self.easy_fraction}")
        if not 0.0 <= self.llm_correct_prob <= 1.0:
            raise ValidationError(f"llm_correct_prob must lie in [0, 1], got {self.llm_correct_prob}")
        if not (math.isfinite(self.pre_score_noise) and self.pre_score_noise >= 0):
            raise ValidationError(
                f"pre_score_noise must be a finite number >= 0, got {self.pre_score_noise}"
            )
        for name in ("input_tokens", "answer_tokens", "refusal_tokens", "llm_tokens"):
            bounds = getattr(self, name)
            if (
                len(bounds) != 2
                or not all(isinstance(b, int) and not isinstance(b, bool) for b in bounds)
                or not 1 <= bounds[0] <= bounds[1]
            ):
                raise ValidationError(f"{name} must be an integer range (lo, hi) with 1 <= lo <= hi")
            object.__setattr__(self, name, tuple(bounds))
        keys = tuple(canonical_answer(k) for k in self.answer_keys)
        if len(keys) < 2 or len(set(keys)) != len(keys) or any(not k for k in keys):
            raise ValidationError("answer_keys must be at least two distinct non-empty strings")
        object.__setattr__(self, "answer_keys", keys)


def generate_synthetic(
    n: int, seed: int, params: SyntheticParams = SyntheticParams()
) -> tuple[QuestionRecord, ...]:
    """Generate a reproducible synthetic dataset.

    Each question gets its own generator seeded from (seed, index), so
    the stream is stable under n: the first questions of a larger run
    equal a smaller run. The pre-sample draws are made in a fixed order
    regardless of parameters, so two runs with the same seed see the
    same difficulties even under different schemes.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    questions = []
    for index in range(n):
        questions.append(_synthesize_question(index, seed, params))
    return tuple(questions)


def _synthesize_question(index: int, seed: int, params: SyntheticParams) -> QuestionRecord:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    rng = random.Random(int.from_bytes(digest, "big"))

    # Fixed draw order; see generate_synthetic.
    u_easy = rng.random()
    difficulty = rng.uniform(params.difficulty_min, params.difficulty_max)
    if u_easy < params.easy_fraction:
        difficulty = 0.0
    gold = rng.choice(params.answer_keys)
    llm_correct = rng.random() < params.llm_correct_prob
    llm_tokens = rng.randint(*params.llm_tokens)
    noise = rng.uniform(-1.0, 1.0) * params.pre_score_noise
    input_tokens = rng.randint(*params.input_tokens)

    accuracy = 1.0 - difficulty
    samples = []
    if params.scheme == "rcv":
        for level in CONFIDENCE_LEVELS:
            samples.append(_draw_sample(rng, params, accuracy, gold, level))
    elif params.scheme == "fcv":
        for _ in range(params.n_samples):
            samples.append(_draw_sample(rng, params, accuracy, gold, 1.0))
    else:
        for _ in range(params.n_samples):
            samples.append(_draw_sample(rng, params, accuracy, gold, None))

    pre_score = min(1.0, max(0.0, accuracy + noise))
    llm = LlmOutcome(correct=llm_correct, tokens=llm_tokens) if params.include_llm else None
    return QuestionRecord(
        id=f"q{index:06d}",
        input_tokens=input_tokens,
        slm_samples=tuple(samples),
        pre_score=pre_score,
        llm=llm,
    )


def _draw_sample(
    rng: random.Random,
    params: SyntheticParams,
    accuracy: float,
    gold: str,
    level: float | None,
) -> SampleRecord:
    if level is not None and accuracy < level:
        return SampleRecord(
            answer=None,
            correct=False,
            tokens=rng.randint(*params.refusal_tokens),
            confidence_level=level,
            refusal=True,
        )
    correct = rng.random() < accuracy
    if correct:
        answer = gold
    else:
        wrong = [key for key in params.answer_keys if key != gold]
        answer = rng.choice(wrong)
    return SampleRecord(
        answer=answer,
        correct=correct,
        tokens=rng.randint(*params.answer_tokens),
        confidence_level=level,
        refusal=False,
    )
