"""File formats and the synthetic dataset generator.

Datasets, training corpora, preference pairs and refusal examples are
JSON Lines; curves are CSV; pricing and metrics are single JSON objects.
This module is the only reader of these formats. Parsers are strict
about required fields, repeated keys and value ranges but tolerate
unknown fields with a warning, so newer files keep loading.

Each reader has one error path: what fails below it raises a
``ValidationError`` with no location (``_decode`` classifies every JSON
failure), and the reader puts the ``path:line`` of the line or row, or
a pricing file's path, in front of it once, as a ``DatasetError``.

``_decode`` scans a text once with no hook and proves by counting that
no key repeats; only a text it cannot prove, or cannot decode, is
decoded again by the hooked ``_DECODER``, which names what is wrong.

A question or training-corpus line is read in one pass: ``_object``
checks each decoded object's keys against its record class, and the
record's rules check its values. An object with exactly the record's
keys, as the writers write it, is read as it is; any other is merged
with the record's defaults. A question's samples are checked by
``_sample_fields`` into columns and the question is made by
``QuestionRecord._from_rows``, which runs the constructor's question
checks; a training question's completions are checked by
``_response_fields`` and it is made by ``TrainingQuestion._from_rows``
the same way. Every other record is made by its constructor. So a
loaded record is one its constructor accepts.

JSON rows are written with ``_ENCODE``, except on ``build``'s path,
which makes no record per row: ``_write_pair_rows`` writes the pair
fields ``trainset._dpo_pair`` returns (``write_pairs`` maps records to
them), and ``_write_refusal_rows`` writes a checked ``TrainingQuestion``'s
rows from its drawn targets, with the bytes ``write_refusal_examples``
writes for the same ``RefusalExample``s. ``_write_jsonl`` writes 1 MiB
at a time: 11 writes for a 6,000-question ``refusal.jsonl``, not 1,500.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import starmap
from operator import itemgetter
from typing import Any

from .records import (
    CONFIDENCE_LEVELS,
    REJECTION_TEXT,
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
    _Record,
    _as_bool,
    _as_int,
    _as_number,
    _sample_fields,
    refusal_prompt,
)
from .trainset import (
    ResponseSample,
    TrainingQuestion,
    _check_seed,
    _question_seed,
    _response_fields,
)

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


def _members(value: Any) -> int:
    """The members of a decoded top object, its object values and the
    objects in its list values: a lower bound on all its members."""
    if type(value) is not dict:
        return 0
    count = len(value)
    for item in value.values():
        if type(item) is dict:
            count += len(item)
        elif type(item) is list:
            for element in item:
                if type(element) is dict:
                    count += len(element)
    return count


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_SCAN = json.JSONDecoder().scan_once
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

    A member's colon follows its key's closing quote, perhaps after JSON
    whitespace: the text holds at most ``text.count(":")`` members, and
    UTF-8 input at most its count of ``":`` once space, tab, CR and LF
    are deleted. Decoded objects hold as many exactly when no key
    repeats, and ``_members`` counts some of them, so a count equal to
    either bound proves no key repeats. Otherwise, or if the hookless
    scan fails or leaves more than JSON whitespace, ``_DECODER`` runs.

    Every failure is a ValidationError: a repeated key as the hook raised
    it, and text that is not JSON, not UTF-8 or nested deeper than the
    decoder can follow as ``invalid JSON: `` and the decoder's reason.
    """
    encoding = json.detect_encoding(raw)
    try:
        text = raw.decode(encoding, "surrogatepass")
        value, end = _SCAN(text, 0)
    except (ValueError, RecursionError, StopIteration):
        pass  # the hooked decode below reports it
    else:
        members = _members(value)
        if not text[end:].strip(" \t\r\n") and (
            text.count(":") == members
            or encoding in ("utf-8", "utf-8-sig")
            and raw.translate(None, b" \t\r\n").count(b'":') == members
        ):
            return value
    try:
        return _DECODER.decode(raw.decode(encoding, "surrogatepass"))
    except ValidationError:  # a repeated key; a ValueError too, so caught first
        raise
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"invalid JSON: {exc}") from exc


class DatasetError(ValidationError):
    """A file could not be parsed; the message carries file:line context."""


def _read_jsonl(
    path: str, parse: Callable[..., Any]
) -> Iterator[tuple[Any, None] | tuple[None, str]]:
    """Parse each line that holds more than JSON whitespace; yield
    ``(record, None)`` or ``(None, problem)``.

    A problem is the line's ``path:line`` followed by what is wrong with
    it: what ``_decode`` or ``parse`` raised, or an id already seen on an
    earlier line. Callers decide whether to stop or collect.
    """
    seen: dict[str, int] = {}
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip(b" \t\r\n"):
                continue
            where = f"{path}:{lineno}"
            try:
                record = parse(_decode(line), source=where)
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
    must carry, the defaults of the rest, and ``args``, which picks the
    constructor's positional arguments out of a record's field values."""

    __slots__ = ("cls", "required", "known", "defaults", "args")

    def __init__(self, cls: type, required: tuple[str, ...]):
        self.cls = cls
        self.required = required
        names = cls._fields
        defaults = cls.__init__.__defaults__ or ()
        self.known = frozenset(names)
        self.defaults = dict(zip(names, (None,) * (len(names) - len(defaults)) + defaults))
        self.args = itemgetter(*names)


_SAMPLE = _Kind(SampleRecord, ("correct", "tokens"))
_LLM = _Kind(LlmOutcome, ("correct", "tokens"))
_QUESTION = _Kind(QuestionRecord, ("id", "input_tokens", "slm_samples"))
_RESPONSE = _Kind(ResponseSample, ("text", "correct", "tokens"))
_TRAINING = _Kind(TrainingQuestion, ("id", "question", "samples"))
_PRICING = _Kind(PricingSchedule, ("slm_in", "slm_out", "llm_in", "llm_out"))


def _place(name: str, index: int | None) -> str:
    """The prefix that names a nested object: '', 'llm: ' or 'slm_samples[3]: '."""
    if not name:
        return ""
    return f"{name}: " if index is None else f"{name}[{index}]: "


def _object(
    data: Any, kind: _Kind, source: str, name: str = "", index: int | None = None
) -> Mapping[str, Any]:
    """Field values for ``kind.cls`` from one decoded JSON object.

    A dict with exactly the class's keys is returned as it is, so the
    caller must not change it. Otherwise the values are a new dict: keys
    the class has no field for are ignored with a warning naming
    ``source``, a missing required key is an error, and any other absent
    key takes the field's default. ``name`` and ``index`` place a nested
    object inside its record (``llm``, ``slm_samples[3]``) and prefix
    what is raised or warned about it.
    """
    if type(data) is dict and data.keys() == kind.known:
        return data
    if not isinstance(data, Mapping):
        raise ValidationError(
            f"{_place(name, index)}expected a JSON object, got {type(data).__name__}"
        )
    extras = data.keys() - kind.known
    if extras:
        warnings.warn(
            f"{source}: {_place(name, index)}ignoring unknown field(s) {', '.join(sorted(extras))}"
        )
    missing = [key for key in kind.required if key not in data]
    if missing:
        noun = "field" if len(missing) == 1 else "fields"
        raise ValidationError(
            f"{_place(name, index)}missing required {noun} "
            f"{', '.join(repr(key) for key in missing)}"
        )
    return {key: data.get(key, default) for key, default in kind.defaults.items()}


def _records(
    listed: Any, kind: _Kind, source: str, name: str, make: Callable[..., Any]
) -> tuple[Any, ...]:
    """``make(*fields)`` of each item of a decoded list of ``kind.cls``
    objects: the record itself, or the checked fields of one.

    Each item is read as ``_object`` reads it, an item with exactly the
    record's keys as it is. ``name`` is the list's field: an error about
    an item starts with its place, as in ``slm_samples[3]: ``.

    A list of dicts that all have exactly the record's keys, the common
    case, is read in one pass without a per-item key test: if every
    item has each key and the key counts sum to the record's, no item
    has another. A missing key or a rejected item sends the list to the
    item loop, which places the error and emits any warning in order;
    so ``make`` must have no side effects.
    """
    if not isinstance(listed, (list, tuple)):
        raise ValidationError(f"{name} must be a list")
    known, args = kind.known, kind.args
    if set(map(type, listed)) <= {dict} and sum(map(len, listed)) == len(known) * len(listed):
        try:
            return tuple(starmap(make, map(args, listed)))
        except (KeyError, ValidationError):
            pass
    records = []
    for index, item in enumerate(listed):
        item = _object(item, kind, source, name, index)
        try:
            records.append(make(*args(item)))
        except ValidationError as exc:
            raise ValidationError(f"{name}[{index}]: {exc}") from exc
    return tuple(records)


def parse_question(data: Mapping[str, Any], source: str = "question") -> QuestionRecord:
    """Build a QuestionRecord from one decoded JSONL object.

    ``source`` names the record in unknown-field warnings only; the
    reader puts the location in front of a raised error. An error about
    a sample starts with its place, as in ``slm_samples[3]: ``.
    """
    values = _object(data, _QUESTION, source)
    rows = _records(values["slm_samples"], _SAMPLE, source, "slm_samples", _sample_fields)
    llm = values["llm"]
    if llm is not None:
        llm = LlmOutcome(*_LLM.args(_object(llm, _LLM, source, "llm")))
    return QuestionRecord._from_rows(values["id"], values["input_tokens"], rows, values["pre_score"], llm)


def _load(path: str, parse: Callable[..., Any]) -> tuple[Any, ...]:
    """The records ``parse`` makes of a file's lines; raises on the first bad one."""
    records = []
    for record, problem in _read_jsonl(path, parse):
        if problem is not None:
            raise DatasetError(problem)
        records.append(record)
    if not records:
        raise DatasetError(f"{path}: no questions found")
    return tuple(records)


def load_dataset(path: str) -> tuple[tuple[QuestionRecord, ...], DatasetProfile]:
    """Read a dataset and profile it. Raises on the first bad line."""
    questions = _load(path, parse_question)
    return questions, DatasetProfile.from_questions(questions)


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
    with open(path, "w", encoding="utf-8", buffering=1 << 20) as handle:
        handle.writelines(lines)


def load_pricing(path: str) -> PricingSchedule:
    """Read a pricing JSON object."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return PricingSchedule(**_object(_decode(raw), _PRICING, path))
    except ValidationError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def write_curve(points: Iterable[CurvePoint], path: str) -> None:
    """Write a trade-off curve as CSV, in one write.

    The bytes are the header ``tau,cost,performance,n_routed`` and then
    one row per point, each line ended by CRLF, as ``csv.writer``
    writes them; no cell needs quoting. Grid rows carry their threshold
    in the tau column; the reference rows carry their label there
    instead. Costs and performances are written with six decimals.
    """
    lines = [",".join(CURVE_HEADER)]
    for point in points:
        tau_cell = point.label or ("" if point.tau is None else format(point.tau, ".6g"))
        lines.append(f"{tau_cell},{point.cost:.6f},{point.performance:.6f},{point.n_routed}")
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\r\n".join(lines))


def read_curve(path: str) -> tuple[CurvePoint, ...]:
    """Read a curve CSV, which may start with a byte-order mark, back into points (at its precision)."""
    import csv  # here only: every sweep writes curves, few runs read them
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
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
        try:
            if len(row) != len(CURVE_HEADER):
                raise ValidationError(f"expected {len(CURVE_HEADER)} columns")
            tau_cell, cost_cell, perf_cell, routed_cell = row
            label = tau_cell if tau_cell in ("slm_only", "llm_only") else None
            points.append(
                CurvePoint(  # the cells are read from left to right
                    tau=_parse_float(tau_cell, "tau") if tau_cell and label is None else None,
                    cost=_parse_float(cost_cell, "cost"),
                    performance=_parse_float(perf_cell, "performance"),
                    label=label,
                    n_routed=_parse_int(routed_cell, "n_routed"),
                )
            )
        except ValidationError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise DatasetError(f"{path}: no curve points found")
    return tuple(points)


def _parse_float(cell: str, name: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise ValidationError(f"{name} is not a number: {cell!r}") from exc


def _parse_int(cell: str, name: str) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise ValidationError(f"{name} is not an integer: {cell!r}") from exc


def write_metrics(report: MetricsReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")


def parse_training_question(data: Mapping[str, Any], source: str = "question") -> TrainingQuestion:
    """Build a TrainingQuestion from one decoded JSONL object (``source`` as in ``parse_question``)."""
    values = _object(data, _TRAINING, source)
    rows = _records(values["samples"], _RESPONSE, source, "samples", _response_fields)
    return TrainingQuestion._from_rows(values["id"], values["question"], rows)


def load_training_questions(path: str) -> tuple[TrainingQuestion, ...]:
    """Read a raw training corpus. Raises on the first bad line."""
    return _load(path, parse_training_question)


def write_pairs(pairs: Iterable[PreferencePair], path: str) -> None:
    """One line per pair, byte for byte ``_ENCODE(pair.to_dict())``."""
    _write_pair_rows(map(PreferencePair._values, pairs), path)


def _write_pair_rows(rows: Iterable[tuple[str, str, str, int, int]], path: str) -> None:
    """``write_pairs`` of the pairs whose fields, in ``PreferencePair`` order, are ``rows``."""
    _write_jsonl(
        (
            f'{{"id": {_STR(question_id)}, "chosen": {_STR(chosen)}, '
            f'"rejected": {_STR(rejected)}, "chosen_tokens": {_INT(chosen_tokens)}, '
            f'"rejected_tokens": {_INT(rejected_tokens)}}}\n'
            for question_id, chosen, rejected, chosen_tokens, rejected_tokens in rows
        ),
        path,
    )


def write_refusal_examples(examples: Iterable[RefusalExample], path: str) -> None:
    _write_jsonl((_ENCODE(e.to_dict()) + "\n" for e in examples), path)


# Each confidence level's row text from the threshold to the question in
# the prompt. ``_STR`` escapes each character on its own, so a prompt
# encodes as this head (the encoded prefix without its closing quote)
# followed by ``_STR(question)[1:]``.
_REFUSAL_HEADS = tuple(
    f'"threshold": {_FLOAT(level)}, "prompt": {_STR(refusal_prompt(level, ""))[:-1]}'
    for level in CONFIDENCE_LEVELS
)
# The target most rows carry, encoded here rather than once per row.
_REJECTION = _STR(REJECTION_TEXT)


def _write_refusal_rows(
    rows: Iterable[tuple[TrainingQuestion, Sequence[str]]], path: str
) -> None:
    """Write the refusal rows of each ``(question, targets)`` pair.

    ``targets`` must be ``trainset.refusal_targets(question, seed)``:
    nothing here checks them, so this stays private to ``build``. The
    bytes equal ``write_refusal_examples`` over each question's
    ``build_refusal_examples``, but no record is made per row and the id
    and the question are encoded once per question.
    """

    def lines() -> Iterator[str]:
        for question, targets in rows:
            start = f'{{"id": {_STR(question.id)}, '
            end = f'{_STR(question.question)[1:]}, "target": '
            yield "".join(
                [
                    f"{start}{head}{end}{_REJECTION if target is REJECTION_TEXT else _STR(target)}}}\n"
                    for head, target in zip(_REFUSAL_HEADS, targets, strict=True)
                ]
            )

    _write_jsonl(lines(), path)


# Fixed shape of every synthetic question: inclusive token ranges for
# the question input, an answered sample, a refused sample and the LLM
# answer, and the answer keys a sample chooses from.
_SYNTH_INPUT_TOKENS = (20, 200)
_SYNTH_ANSWER_TOKENS = (40, 400)
_SYNTH_REFUSAL_TOKENS = (6, 14)
_SYNTH_LLM_TOKENS = (80, 800)
_SYNTH_ANSWER_KEYS = ("a", "b", "c", "d")


class SyntheticParams(_Record):
    """Knobs for the synthetic dataset generator, one per ``synth`` flag.

    Each question draws a difficulty d; its SLM answers are correct with
    probability 1 - d, and a confidence-conditioned sample refuses when
    1 - d falls below its level. ``easy_fraction`` pins that share of
    questions to d = 0 exactly, which is the only way fcv samples ever
    answer. ``pre_score_noise`` scales a uniform perturbation of the
    stored pre-generation score away from the true accuracy. Token
    ranges and answer keys are the fixed ``_SYNTH_*`` constants.
    """

    __slots__ = (
        "scheme", "n_samples", "difficulty_min", "difficulty_max", "easy_fraction",
        "llm_correct_prob", "pre_score_noise", "include_llm",
    )

    def __init__(
        self,
        scheme: str = "rcv",
        n_samples: int = 10,
        difficulty_min: float = 0.0,
        difficulty_max: float = 1.0,
        easy_fraction: float = 0.0,
        llm_correct_prob: float = 0.9,
        pre_score_noise: float = 0.0,
        include_llm: bool = True,
    ) -> None:
        if scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        n_samples = _as_int(n_samples, "n_samples")
        if scheme == "rcv" and n_samples != 10:
            raise ValidationError("rcv generates the full confidence ladder; n_samples must be 10")
        if n_samples < 1:
            raise ValidationError(f"n_samples must be a positive integer, got {n_samples!r}")
        difficulty_min = float(_as_number(difficulty_min, "difficulty_min"))
        difficulty_max = float(_as_number(difficulty_max, "difficulty_max"))
        if not 0.0 <= difficulty_min <= difficulty_max <= 1.0:
            raise ValidationError(
                "difficulty bounds must satisfy 0 <= min <= max <= 1, got "
                f"{difficulty_min}..{difficulty_max}"
            )
        easy_fraction = float(_as_number(easy_fraction, "easy_fraction"))
        if not 0.0 <= easy_fraction <= 1.0:
            raise ValidationError(f"easy_fraction must lie in [0, 1], got {easy_fraction}")
        llm_correct_prob = float(_as_number(llm_correct_prob, "llm_correct_prob"))
        if not 0.0 <= llm_correct_prob <= 1.0:
            raise ValidationError(f"llm_correct_prob must lie in [0, 1], got {llm_correct_prob}")
        pre_score_noise = float(_as_number(pre_score_noise, "pre_score_noise"))
        if not (math.isfinite(pre_score_noise) and pre_score_noise >= 0):
            raise ValidationError(
                f"pre_score_noise must be a finite number >= 0, got {pre_score_noise}"
            )
        _as_bool(include_llm, "include_llm")
        self._store(
            scheme, n_samples, difficulty_min, difficulty_max, easy_fraction,
            llm_correct_prob, pre_score_noise, include_llm,
        )


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
    _check_seed(seed)
    questions = []
    for index in range(n):
        questions.append(_synthesize_question(index, seed, params))
    return tuple(questions)


def _synthesize_question(index: int, seed: int, params: SyntheticParams) -> QuestionRecord:
    rng = random.Random(_question_seed(seed, index))

    # Fixed draw order; see generate_synthetic.
    u_easy = rng.random()
    difficulty = rng.uniform(params.difficulty_min, params.difficulty_max)
    if u_easy < params.easy_fraction:
        difficulty = 0.0
    gold = rng.choice(_SYNTH_ANSWER_KEYS)
    llm_correct = rng.random() < params.llm_correct_prob
    llm_tokens = rng.randint(*_SYNTH_LLM_TOKENS)
    noise = rng.uniform(-1.0, 1.0) * params.pre_score_noise
    input_tokens = rng.randint(*_SYNTH_INPUT_TOKENS)

    accuracy = 1.0 - difficulty
    if params.scheme == "rcv":
        levels = CONFIDENCE_LEVELS
    else:
        levels = (1.0 if params.scheme == "fcv" else None,) * params.n_samples
    samples = tuple(_draw_sample(rng, accuracy, gold, level) for level in levels)

    pre_score = min(1.0, max(0.0, accuracy + noise))
    llm = LlmOutcome(correct=llm_correct, tokens=llm_tokens) if params.include_llm else None
    return QuestionRecord(
        id=f"q{index:06d}",
        input_tokens=input_tokens,
        slm_samples=samples,
        pre_score=pre_score,
        llm=llm,
    )


def _draw_sample(
    rng: random.Random, accuracy: float, gold: str, level: float | None
) -> SampleRecord:
    if level is not None and accuracy < level:
        return SampleRecord(
            answer=None,
            correct=False,
            tokens=rng.randint(*_SYNTH_REFUSAL_TOKENS),
            confidence_level=level,
            refusal=True,
        )
    correct = rng.random() < accuracy
    if correct:
        answer = gold
    else:
        wrong = [key for key in _SYNTH_ANSWER_KEYS if key != gold]
        answer = rng.choice(wrong)
    return SampleRecord(
        answer=answer,
        correct=correct,
        tokens=rng.randint(*_SYNTH_ANSWER_TOKENS),
        confidence_level=level,
        refusal=False,
    )
