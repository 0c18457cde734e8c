"""Serialization, diagnostics, CSV curves, and the synthetic generator."""

import enum
import inspect
import json
import math
import os
import pickle
import sys
import tempfile
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routerlab import cli, io, trainset
from routerlab.io import (
    DatasetError,
    SyntheticParams,
    _write_refusal_rows,
    generate_synthetic,
    load_dataset,
    load_pricing,
    load_training_questions,
    parse_question,
    parse_training_question,
    read_curve,
    scan_dataset,
    write_curve,
    write_dataset,
    write_metrics,
    write_pairs,
    write_refusal_examples,
)
from routerlab.prerouting import derive_refusal_score
from routerlab.records import (
    CONFIDENCE_LEVELS,
    REJECTED_TOKEN_RATIO,
    REJECTION_TEXT,
    CurvePoint,
    LlmOutcome,
    MetricsReport,
    PreferencePair,
    PricingSchedule,
    QuestionRecord,
    RefusalExample,
    SampleRecord,
    ValidationError,
    _Record,
    refusal_prompt,
)
from routerlab.trainset import (
    ResponseSample,
    TrainingQuestion,
    build_refusal_examples,
    refusal_targets,
)

from conftest import make_question

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

SYNTH_GOLDEN = Path(__file__).resolve().parent / "data" / "synth_golden"
BUILD_GOLDEN = Path(__file__).resolve().parent / "data" / "build_golden"
SWEEP_GOLDEN = Path(__file__).resolve().parent / "data" / "sweep_golden"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def question_line(qid="q1", **overrides):
    data = {
        "id": qid,
        "input_tokens": 100,
        "slm_samples": [
            {"answer": "a", "correct": True, "tokens": 30},
            {"answer": "b", "correct": False, "tokens": 40},
        ],
        "pre_score": 0.5,
        "llm": {"correct": True, "tokens": 200},
    }
    data.update(overrides)
    return json.dumps(data)


def training_line(qid="t1"):
    return json.dumps(
        {
            "id": qid,
            "question": "Why?",
            "samples": [
                {"text": f"resp-{i}", "correct": i < 6, "tokens": 10 + i}
                for i in range(10)
            ],
        }
    )


def without_field(line, name):
    data = json.loads(line)
    del data[name]
    return json.dumps(data)


def first_problem(read, path):
    """The one problem ``read`` reports for ``path``, as text."""
    if read is scan_dataset:
        count, problems = scan_dataset(path)
        assert (count, len(problems)) == (1, 1)
        return problems[0]
    with pytest.raises(DatasetError) as excinfo:
        read(path)
    return str(excinfo.value)


def with_field(line, name, value):
    data = json.loads(line)
    data[name] = value
    return json.dumps(data)


HUGE = 10**400  # float() overflows on it
DEEP = "[" * 100_000  # nested deeper than the JSON decoder can follow


def with_sample_tokens(line, samples_field, index, tokens):
    data = json.loads(line)
    data[samples_field][index]["tokens"] = tokens
    return json.dumps(data)


def with_sample_field(line, samples_field, index, value):
    """``line`` with the text of sample ``index`` (its answer or text) set to ``value``."""
    data = json.loads(line)
    sample = data[samples_field][index]
    sample["text" if "text" in sample else "answer"] = value
    return json.dumps(data)


def with_repeated_key(line, key, value):
    """``line`` with ``key`` given twice in the first object that has it:
    first as ``value``, then as it was."""
    head = f'"{key}": '
    assert head in line
    return line.replace(head, f"{head}{json.dumps(value)}, {head}", 1)


@pytest.mark.parametrize(
    "kind",
    [
        "invalid_json",
        "invalid_record",
        "duplicate_id",
        "not_an_object",
        "missing_samples",
        "sample_not_an_object",
        "nested_list",
        "bad_value",
        "huge_int",
        "not_utf8",
        "duplicate_key",
        "duplicate_sample_key",
        "lone_surrogate",
        "deep_nesting",
    ],
)
@pytest.mark.parametrize(
    "read",
    [load_dataset, load_training_questions, scan_dataset],
    ids=lambda read: read.__name__,
)
def test_bad_line_reported_at_its_location(tmp_path, read, kind):
    training = read is load_training_questions
    make_line = training_line if training else question_line
    samples_field = "samples" if training else "slm_samples"
    # A nested object given as the list of its keys.
    if training:
        nested_list = ("samples", [["text", "correct", "tokens"]])
    else:
        nested_list = ("llm", ["correct", "tokens"])
    bad = {
        "invalid_json": "{not json",
        "invalid_record": make_line(""),
        "duplicate_id": make_line("q1"),
        "not_an_object": "[1, 2]",
        "missing_samples": without_field(make_line("q2"), samples_field),
        "sample_not_an_object": with_field(make_line("q2"), samples_field, [5]),
        "nested_list": with_field(make_line("q2"), *nested_list),
        "bad_value": with_sample_tokens(make_line("q2"), samples_field, 1, 0),
        # A 400-digit integer: in input_tokens for load_dataset, in a
        # sample's tokens for the other two readers.
        "huge_int": (
            with_field(make_line("q2"), "input_tokens", HUGE)
            if read is load_dataset
            else with_sample_tokens(make_line("q2"), samples_field, 1, HUGE)
        ),
        "not_utf8": make_line("q2").replace("q2", "q\xe9"),
        # The same key twice in the record, or in its first sample.
        "duplicate_key": with_repeated_key(make_line("q2"), "id", "q3"),
        "duplicate_sample_key": with_repeated_key(make_line("q2"), "correct", False),
        # The first sample's answer or text, written as JSON escapes.
        "lone_surrogate": with_sample_field(make_line("q2"), samples_field, 0, "x\ud800"),
        "deep_nesting": DEEP,
    }[kind]
    path = tmp_path / "data.jsonl"
    if kind == "not_utf8":  # line 2 holds the byte 0xE9, which is not UTF-8
        path.write_bytes(f"{make_line('q1')}\n{bad}\n".encode("latin-1"))
    else:
        write_lines(path, [make_line("q1"), bad])
    message = first_problem(read, str(path))
    assert message.startswith(f"{path}:2: ")
    assert message.count(f"{path}:2") == 1
    if read is scan_dataset:
        assert message == first_problem(load_dataset, str(path))
    if kind == "bad_value":
        assert message == f"{path}:2: {samples_field}[1]: tokens must be >= 1, got 0"
    if kind == "huge_int":
        field = "input_tokens" if read is load_dataset else f"{samples_field}[1]: tokens"
        assert message == f"{path}:2: {field} is too large for a float, got an integer of 1329 bits"
    if kind == "duplicate_key":
        assert message == f"{path}:2: duplicate key 'id'"
    if kind == "duplicate_sample_key":
        assert message == f"{path}:2: duplicate key 'correct'"
    if kind == "deep_nesting":  # the rest of the text is CPython's
        assert message.startswith(f"{path}:2: invalid JSON: ")
    if kind == "lone_surrogate":
        field = "text" if training else "answer"
        assert message == (
            f"{path}:2: {samples_field}[0]: {field} holds a lone surrogate U+D800 "
            "at index 1, which UTF-8 cannot encode"
        )


# ---------------------------------------------------------------------------
# The parsers build every record through its constructor; each must give
# what the constructors give, record for record and error for error, and
# what the golden file pins.

# Values a field may wrongly hold: wrong types, a bool where an int is
# expected, a string with a lone surrogate, NaN and infinities, integers
# too large for a float, and confidence levels off the grid.
BAD_VALUES = st.one_of(
    st.sampled_from(["7", "", " ", "x\ud800", [1], {"x": 1}, None, 1.5, -3, 0]),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([HUGE, -HUGE]),
    st.sampled_from([0.05, 0.35, 1.1, 0.30000000000000004, 0.3 + 2e-9, 50]),
)
TOKENS = st.integers(1, 10**6)
LEVELS = st.sampled_from((None, *CONFIDENCE_LEVELS, 1, 0.1 + 1e-10))


@st.composite
def broken(draw, valid):
    """A dict from ``valid``, with one field (or none) replaced by a bad value."""
    data = draw(valid)
    field = draw(st.sampled_from([None, *data]))
    if field is not None:
        data[field] = draw(BAD_VALUES)
    return data


ANSWERED = st.fixed_dictionaries(
    {"answer": st.sampled_from(["a", " A ", "b", "c\n"]), "correct": st.booleans(), "tokens": TOKENS},
    optional={"confidence_level": LEVELS, "refusal": st.just(False)},
)
# Refusals, and sometimes one that carries an answer or is marked correct.
REFUSED = st.fixed_dictionaries(
    {
        "answer": st.sampled_from([None, None, "a"]),
        "correct": st.sampled_from([False, False, True]),
        "tokens": TOKENS,
        "refusal": st.just(True),
    },
    optional={"confidence_level": LEVELS},
)
SAMPLES = st.lists(broken(ANSWERED | REFUSED), max_size=4)
LLM = st.none() | broken(st.fixed_dictionaries({"correct": st.booleans(), "tokens": TOKENS}))
ANY_QUESTIONS = broken(
    st.fixed_dictionaries(
        {"id": st.sampled_from(["q1", "Q 2"]), "input_tokens": TOKENS, "slm_samples": SAMPLES},
        optional={
            "pre_score": st.none() | st.floats(0, 1) | st.sampled_from([0, 1]),
            "llm": LLM,
        },
    )
)
ANY_TRAINING = broken(
    st.fixed_dictionaries(
        {
            "id": st.sampled_from(["t1", "t 2"]),
            "question": st.sampled_from(["Why?", "How"]),
            "samples": st.lists(
                broken(
                    st.fixed_dictionaries(
                        {"text": st.sampled_from(["x", " y "]), "correct": st.booleans(), "tokens": TOKENS}
                    )
                ),
                max_size=3,
            ),
        }
    )
)


# The exact shape the writers write: every field present, valid values
# of the exact types, a question's samples agreeing on each answer's
# correctness, and keys in any order.
ANSWERS = ["a", " A ", "b", "c\n"]
# Whether each canonical answer is correct, drawn once per example.
TRUTH = st.shared(st.fixed_dictionaries({key: st.booleans() for key in "abc"}), key="truth")


def permuted(strategy):
    """Dicts from ``strategy`` with their keys in any order."""
    return strategy.flatmap(lambda data: st.permutations(list(data.items())).map(dict))


@st.composite
def exact_sample(draw):
    answer = draw(st.sampled_from([None, *ANSWERS]))
    correct = False if answer is None else draw(TRUTH)[answer.strip().casefold()]
    fields = {
        "answer": st.just(answer),
        "correct": st.just(correct),
        "tokens": TOKENS,
        "confidence_level": st.sampled_from((None, *CONFIDENCE_LEVELS)),
        "refusal": st.just(answer is None),
    }
    return draw(permuted(st.fixed_dictionaries(fields)))


EXACT_QUESTIONS = permuted(
    st.fixed_dictionaries(
        {
            "id": st.sampled_from(["q1", "Q 2"]),
            "input_tokens": TOKENS,
            "pre_score": st.none() | st.floats(0, 1),
            "slm_samples": st.lists(exact_sample(), min_size=1, max_size=4),
            "llm": st.none()
            | permuted(st.fixed_dictionaries({"correct": st.booleans(), "tokens": TOKENS})),
        }
    )
)
EXACT_TRAINING = permuted(
    st.fixed_dictionaries(
        {
            "id": st.sampled_from(["t1", "t 2"]),
            "question": st.sampled_from(["Why?", "How"]),
            "samples": st.lists(
                permuted(
                    st.fixed_dictionaries(
                        {"text": st.sampled_from(["x", " y "]), "correct": st.booleans(), "tokens": TOKENS}
                    )
                ),
                min_size=1,
                max_size=3,
            ),
        }
    )
)
# What an exact-shape field may hold instead: a bad value, or a valid one
# of another type or off the grid.
NEAR_VALUES = BAD_VALUES | st.sampled_from([1, "é", 0.1 + 1e-10])


@st.composite
def one_off(draw, exact):
    """A dict from ``exact``, as it is or with one change anywhere in it,
    in a nested object too: a value replaced or a key dropped. (The traps
    below add a key.)"""
    data = draw(exact)
    objects = [data]
    for value in data.values():
        items = value if isinstance(value, list) else [value]
        objects.extend(item for item in items if isinstance(item, dict))
    place = draw(st.none() | st.sampled_from([(obj, key) for obj in objects for key in obj]))
    if place is not None:
        obj, key = place
        if draw(st.booleans()):
            obj[key] = draw(NEAR_VALUES)
        else:
            del obj[key]
    return data


# Half exact-shape lines, often off by one change; half anything.
QUESTIONS = one_off(EXACT_QUESTIONS) | ANY_QUESTIONS
TRAINING = one_off(EXACT_TRAINING) | ANY_TRAINING


def by_constructors(data, kind, nested):
    """``data`` read as the parsers read it, but with every record built
    by ``cls(**fields)``; ``nested`` maps a field to the kind of the
    records it holds, ``(kind, True)`` for a list of them."""
    values = dict(io._object(data, kind, "q"))
    for name, (inner, is_list) in nested.items():
        if not is_list:
            if values[name] is not None:
                values[name] = inner.cls(**io._object(values[name], inner, "q", name))
            continue
        if not isinstance(values[name], (list, tuple)):
            raise ValidationError(f"{name} must be a list")
        records = []
        for index, raw in enumerate(values[name]):
            fields = io._object(raw, inner, "q", name, index)
            try:
                records.append(inner.cls(**fields))
            except ValidationError as exc:
                raise ValidationError(f"{name}[{index}]: {exc}") from None
        values[name] = tuple(records)
    return kind.cls(**values)


def outcome(build, *args):
    """A built record's repr, or the type and text of what building raised."""
    try:
        return repr(build(*args)), None
    except Exception as exc:  # compared, not swallowed
        return None, (type(exc), str(exc))


class TestTrustedRecords:
    @given(QUESTIONS)
    @settings(max_examples=400, deadline=None)
    def test_question_matches_constructors(self, data):
        nested = {"slm_samples": (io._SAMPLE, True), "llm": (io._LLM, False)}
        parsed = outcome(parse_question, data, "q")
        assert parsed == outcome(by_constructors, data, io._QUESTION, nested)
        if parsed[1] is None:
            assert parse_question(data) == by_constructors(data, io._QUESTION, nested)

    @given(TRAINING)
    @settings(max_examples=200, deadline=None)
    def test_training_question_matches_constructors(self, data):
        nested = {"samples": (io._RESPONSE, True)}
        parsed = outcome(parse_training_question, data, "q")
        assert parsed == outcome(by_constructors, data, io._TRAINING, nested)
        if parsed[1] is None:
            assert parse_training_question(data) == by_constructors(data, io._TRAINING, nested)

    def test_records_are_the_constructors_records(self):
        data = json.loads(question_line(pre_score=1))
        question = parse_question(data)
        assert type(question) is QuestionRecord and type(question.llm) is LlmOutcome
        assert all(type(sample) is SampleRecord for sample in question.slm_samples)
        assert question.pre_score == 1.0 and type(question.pre_score) is float
        training = parse_training_question(json.loads(training_line()))
        assert type(training) is TrainingQuestion
        assert all(type(sample) is ResponseSample for sample in training.samples)

    def test_unknown_fields_warn_once_per_record(self):
        data = json.loads(question_line())
        data["note"] = "x"
        data["slm_samples"][1]["vibe"] = "y"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            question = parse_question(data, source="q.jsonl:4")
        assert [str(w.message) for w in caught] == [
            "q.jsonl:4: ignoring unknown field(s) note",
            "q.jsonl:4: slm_samples[1]: ignoring unknown field(s) vibe",
        ]
        assert question == parse_question(json.loads(question_line()))

    def test_balanced_key_counts_take_the_item_loop(self):
        # An extra key on one item and a missing one on another keep the
        # list's key count; the reader must still warn and default in order.
        exact = {"answer": "a", "correct": True, "tokens": 30, "confidence_level": None, "refusal": False}
        extra = {**exact, "vibe": "y"}
        short = {key: value for key, value in exact.items() if key != "refusal"}
        data = json.loads(question_line(slm_samples=[exact, extra, short]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            question = parse_question(data, source="q.jsonl:4")
        assert [str(w.message) for w in caught] == [
            "q.jsonl:4: slm_samples[1]: ignoring unknown field(s) vibe",
        ]
        assert question == parse_question(json.loads(question_line(slm_samples=[exact] * 3)))


def field_types(value):
    """``value``'s type, with each field's for a record and each element's for a tuple."""
    if isinstance(value, tuple):
        return tuple(field_types(item) for item in value)
    if isinstance(value, _Record):
        return type(value), tuple(field_types(getattr(value, name)) for name in value._fields)
    return type(value)


def exact_question():
    """A question in the exact shape ``write_dataset`` writes."""
    return {
        "id": "q1",
        "input_tokens": 100,
        "pre_score": 0.5,
        "slm_samples": [
            {"answer": "a", "correct": True, "tokens": 30, "confidence_level": 0.1, "refusal": False},
            {"answer": None, "correct": False, "tokens": 8, "confidence_level": 0.2, "refusal": True},
            {"answer": "b", "correct": False, "tokens": 40, "confidence_level": None, "refusal": False},
        ],
        "llm": {"correct": True, "tokens": 200},
    }


def exact_training():
    """A training question in the exact shape of a corpus line."""
    return json.loads(training_line())


def changed(data, *path_and_value):
    """``data`` with the value at a path of keys and indices set."""
    *path, key, value = path_and_value
    target = data
    for step in path:
        target = target[step]
    target[key] = value
    return data


def reversed_keys(value):
    """``value`` with the keys of every object in it in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(item) for item in value]
    return value


# Inputs one step from the exact shape that a constructor rejects, warns
# about or converts a value of.
QUESTION_TRAPS = {
    "id_empty": changed(exact_question(), "id", ""),
    "id_not_a_string": changed(exact_question(), "id", 7),
    "id_non_ascii": changed(exact_question(), "id", "qé"),
    "id_lone_surrogate": changed(exact_question(), "id", "q\ud800"),
    "input_tokens_true": changed(exact_question(), "input_tokens", True),
    "input_tokens_zero": changed(exact_question(), "input_tokens", 0),
    "input_tokens_huge": changed(exact_question(), "input_tokens", HUGE),
    "samples_not_a_list": changed(exact_question(), "slm_samples", 5),
    "samples_empty": changed(exact_question(), "slm_samples", []),
    "pre_score_int_0": changed(exact_question(), "pre_score", 0),
    "pre_score_int_1": changed(exact_question(), "pre_score", 1),
    "pre_score_above_1": changed(exact_question(), "pre_score", 1.5),
    "pre_score_nan": changed(exact_question(), "pre_score", math.nan),
    "llm_not_an_object": changed(exact_question(), "llm", ["correct", "tokens"]),
    "llm_extra_key": changed(exact_question(), "llm", "note", "x"),
    "llm_missing_key": changed(exact_question(), "llm", {"correct": True}),
    "llm_correct_int": changed(exact_question(), "llm", "correct", 1),
    "llm_tokens_true": changed(exact_question(), "llm", "tokens", True),
    "llm_tokens_zero": changed(exact_question(), "llm", "tokens", 0),
    "llm_tokens_huge": changed(exact_question(), "llm", "tokens", HUGE),
    "sample_not_an_object": changed(exact_question(), "slm_samples", 1, ["answer", None]),
    "sample_missing_key": changed(
        exact_question(), "slm_samples", 0, {"answer": "a", "correct": True, "tokens": 30, "refusal": False}
    ),
    "tokens_true": changed(exact_question(), "slm_samples", 0, "tokens", True),
    "tokens_zero": changed(exact_question(), "slm_samples", 0, "tokens", 0),
    "tokens_huge": changed(exact_question(), "slm_samples", 0, "tokens", HUGE),
    "level_true": changed(exact_question(), "slm_samples", 0, "confidence_level", True),
    "level_int_1": changed(exact_question(), "slm_samples", 0, "confidence_level", 1),
    "level_off_grid": changed(exact_question(), "slm_samples", 0, "confidence_level", 0.1 + 1e-10),
    "refusal_int": changed(exact_question(), "slm_samples", 1, "refusal", 1),
    "refusal_not_a_bool": changed(exact_question(), "slm_samples", 0, "refusal", "no"),
    "refusal_with_answer": changed(exact_question(), "slm_samples", 1, "answer", "a"),
    "refusal_marked_correct": changed(exact_question(), "slm_samples", 1, "correct", True),
    "correct_int": changed(exact_question(), "slm_samples", 0, "correct", 1),
    "answer_not_a_string": changed(exact_question(), "slm_samples", 0, "answer", 7),
    "answer_whitespace_only": changed(exact_question(), "slm_samples", 0, "answer", " \t "),
    "answer_non_ascii": changed(exact_question(), "slm_samples", 0, "answer", "é"),
    "answer_lone_surrogate": changed(exact_question(), "slm_samples", 0, "answer", "x\ud800"),
    "answer_both_correct_and_not": changed(exact_question(), "slm_samples", 2, "answer", " A "),
}
TRAINING_TRAPS = {
    "id_empty": changed(exact_training(), "id", ""),
    "id_not_a_string": changed(exact_training(), "id", 7),
    "id_non_ascii": changed(exact_training(), "id", "té"),
    "question_empty": changed(exact_training(), "question", ""),
    "question_not_a_string": changed(exact_training(), "question", 7),
    "question_non_ascii": changed(exact_training(), "question", "Qué?"),
    "question_lone_surrogate": changed(exact_training(), "question", "Why\ud800"),
    "samples_not_a_list": changed(exact_training(), "samples", 5),
    "samples_empty": changed(exact_training(), "samples", []),
    "sample_not_an_object": changed(exact_training(), "samples", 1, 7),
    "sample_extra_key": changed(exact_training(), "samples", 0, "note", "x"),
    "sample_missing_key": changed(exact_training(), "samples", 0, {"text": "x", "tokens": 3}),
    "text_empty": changed(exact_training(), "samples", 0, "text", ""),
    "text_not_a_string": changed(exact_training(), "samples", 0, "text", 7),
    "text_non_ascii": changed(exact_training(), "samples", 0, "text", "é"),
    "text_lone_surrogate": changed(exact_training(), "samples", 0, "text", "x\ud800"),
    "correct_int": changed(exact_training(), "samples", 0, "correct", 1),
    "tokens_true": changed(exact_training(), "samples", 0, "tokens", True),
    "tokens_zero": changed(exact_training(), "samples", 0, "tokens", 0),
    "tokens_huge": changed(exact_training(), "samples", 0, "tokens", HUGE),
}


PARSE_GOLDEN = Path(__file__).resolve().parent / "data" / "parse_golden" / "cases.jsonl"
PARSERS = {"question": parse_question, "training": parse_training_question}


def read_parse_golden():
    """The pinned cases by ``(kind, name)``: each input with the outcome
    of ``parse_*(input, "golden")``."""
    with open(PARSE_GOLDEN, encoding="ascii") as handle:
        cases = [json.loads(line) for line in handle]
    return {(case["kind"], case["name"]): case for case in cases}


GOLDEN_CASES = read_parse_golden()


def golden_outcome(parse, data):
    """What the golden file stores for ``parse(data, "golden")``: the
    record's repr or the exception's type name and text, and every
    warning's text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record, error = repr(parse(data, "golden")), None
        except Exception as exc:  # compared, not swallowed
            record, error = None, [type(exc).__name__, str(exc)]
    return {"repr": record, "error": error, "warnings": [str(w.message) for w in caught]}


def pinned(kind, name):
    case = GOLDEN_CASES[kind, name]
    return {key: case[key] for key in ("repr", "error", "warnings")}


class TestParseGolden:
    """``tests/data/parse_golden/cases.jsonl`` holds every trap below, the
    exact shapes with reversed keys, unknown fields and non-ASCII strings,
    and 300 fixed-seed draws from ``QUESTIONS`` and ``TRAINING``, each
    with the outcome the parsers gave when each line had two readers (an
    exact-shape one and a checked one). The parsers must still give
    exactly that."""

    def test_every_case_gives_its_pinned_outcome(self):
        assert len(GOLDEN_CASES) == 366
        wrong = [
            key
            for key, case in GOLDEN_CASES.items()
            if golden_outcome(PARSERS[case["kind"]], case["input"]) != pinned(*key)
        ]
        assert wrong == []


class TestKindArgs:
    """``_Kind.args`` hands a record's field values to its constructor by
    position, in the order of the record's ``_fields``, and fills absent
    keys from the constructor's defaults (None where it has none); both
    must match the constructor's own parameters."""

    KINDS = [value for value in vars(io).values() if isinstance(value, io._Kind)]

    def test_every_record_read_has_a_kind(self):
        assert {kind.cls for kind in self.KINDS} == {
            SampleRecord, LlmOutcome, QuestionRecord, ResponseSample, TrainingQuestion,
            PricingSchedule,
        }

    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.cls.__name__)
    def test_fields_are_the_constructor_parameters_in_order(self, kind):
        parameters = list(inspect.signature(kind.cls.__init__).parameters.values())[1:]
        assert [p.name for p in parameters] == list(kind.cls._fields)
        assert kind.known == set(kind.cls._fields)
        for parameter in parameters:
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if parameter.default is inspect.Parameter.empty:
                assert kind.defaults[parameter.name] is None, parameter.name
            else:
                assert kind.defaults[parameter.name] == parameter.default, parameter.name
        values = {name: object() for name in kind.cls._fields}
        assert kind.args(values) == tuple(values.values())


class TestExactShapeReaders:
    """Each trap, a line one step from the shape the writers write, gives
    its pinned outcome and the constructors' outcome."""

    @pytest.mark.parametrize("trap", QUESTION_TRAPS)
    def test_question_trap_takes_the_checked_path(self, trap):
        data = QUESTION_TRAPS[trap]
        assert json.dumps(GOLDEN_CASES["question", trap]["input"]) == json.dumps(data)
        assert golden_outcome(parse_question, data) == pinned("question", trap)
        nested = {"slm_samples": (io._SAMPLE, True), "llm": (io._LLM, False)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert outcome(parse_question, data) == outcome(by_constructors, data, io._QUESTION, nested)

    @pytest.mark.parametrize("trap", TRAINING_TRAPS)
    def test_training_trap_takes_the_checked_path(self, trap):
        data = TRAINING_TRAPS[trap]
        assert json.dumps(GOLDEN_CASES["training", trap]["input"]) == json.dumps(data)
        assert golden_outcome(parse_training_question, data) == pinned("training", trap)
        nested = {"samples": (io._RESPONSE, True)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert outcome(parse_training_question, data) == outcome(
                by_constructors, data, io._TRAINING, nested
            )

    @pytest.mark.parametrize(
        "kind, data",
        [("question", exact_question()), ("training", exact_training())],
        ids=["question", "training"],
    )
    def test_key_order_does_not_matter(self, kind, data):
        for shape in (data, reversed_keys(data)):
            record = PARSERS[kind](shape)
            assert repr(record) == pinned(kind, "reversed_keys")["repr"]
            assert field_types(record) == field_types(PARSERS[kind](data))

    @pytest.mark.parametrize("kind", PARSERS)
    def test_caller_dict_left_unchanged(self, kind):
        for name in ("exact", "unknown_fields", "non_ascii"):
            data = GOLDEN_CASES[kind, name]["input"]
            before = json.dumps(data)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                PARSERS[kind](data)
            assert json.dumps(data) == before


class TestMappingInput:
    """A decoded object that is a ``Mapping`` but not a dict is read on
    the merge path, as a dict with other keys is."""

    def test_writer_shape_parses_as_its_dict(self):
        data = exact_question()
        assert parse_question(types.MappingProxyType(data), "src") == parse_question(data)

    def test_extra_key_warns(self):
        data = types.MappingProxyType({**exact_question(), "note": "x"})
        with pytest.warns(UserWarning) as caught:
            record = parse_question(data, "src")
        assert [str(w.message) for w in caught] == ["src: ignoring unknown field(s) note"]
        assert record == parse_question(exact_question())

    def test_extra_key_warns_before_a_missing_key_raises(self):
        data = {**exact_question(), "note": "x"}
        del data["input_tokens"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError) as excinfo:
                parse_question(types.MappingProxyType(data), "src")
        assert str(excinfo.value) == "missing required field 'input_tokens'"
        assert [str(w.message) for w in caught] == ["src: ignoring unknown field(s) note"]


class TestExactShapeHits:
    """Every line the writers write loads back to the record written."""

    @pytest.mark.parametrize(
        "params",
        [
            SyntheticParams(scheme="rcv", pre_score_noise=0.2),
            SyntheticParams(scheme="rcv", easy_fraction=0.5, include_llm=False),
            SyntheticParams(scheme="sc"),
            SyntheticParams(scheme="fcv", easy_fraction=0.3),
        ],
        ids=["rcv", "rcv_no_llm", "sc", "fcv"],
    )
    def test_every_synth_line(self, tmp_path, params):
        questions = generate_synthetic(60, seed=7, params=params)
        path = tmp_path / "q.jsonl"
        write_dataset(questions, str(path))
        loaded, _ = load_dataset(str(path))
        assert loaded == questions
        assert field_types(loaded) == field_types(questions)

    def test_every_corpus_line(self, tmp_path):
        # The shape of the benchmark's generated corpus, written by json.dumps.
        rows = [
            {
                "id": f"q{index:06d}",
                "question": f"Which option answers item {index}?",
                "samples": [
                    {
                        "text": f"q{index:06d}.{slot}: option a",
                        "correct": slot < index % 11,
                        "tokens": 8 + slot,
                    }
                    for slot in range(10)
                ],
            }
            for index in range(40)
        ]
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps(row) for row in rows])
        loaded = load_training_questions(str(path))
        assert [repr(q) for q in loaded] == [
            repr(by_constructors(row, io._TRAINING, {"samples": (io._RESPONSE, True)})) for row in rows
        ]

    @pytest.mark.parametrize(
        "synth_args",
        [
            ["--pre-noise", "0.2"],
            ["--scheme", "sc"],
            ["--scheme", "fcv", "--easy-fraction", "0.25"],
            ["--no-llm"],
            None,
        ],
        ids=["rcv", "sc", "fcv", "rcv_no_llm", "build_golden_corpus"],
    )
    def test_writer_shaped_lists_skip_the_item_loop(self, tmp_path, monkeypatch, capsys, synth_args):
        # Only the item loop reads a list item through _object, with its index.
        if synth_args is None:
            path, parse = BUILD_GOLDEN / "corpus.jsonl", parse_training_question
        else:
            path, parse = tmp_path / "q.jsonl", parse_question
            assert cli.main(["synth", str(path), "--n", "60", "--seed", "4", *synth_args]) == 0
        read = io._object
        items = []

        def counted(data, kind, source, name="", index=None):
            if index is not None:
                items.append((name, index))
            return read(data, kind, source, name, index)

        monkeypatch.setattr(io, "_object", counted)
        with open(path, "rb") as handle:
            parsed = [parse(io._decode(line)) for line in handle]
        assert parsed and items == []

    @pytest.mark.parametrize("training", [False, True], ids=["dataset", "corpus"])
    def test_unknown_field_on_every_line(self, tmp_path, training):
        if training:
            rows = [json.loads(training_line(f"t{n}")) for n in range(12)]
            load = load_training_questions
        else:
            rows = [q.to_dict() for q in generate_synthetic(12, seed=2)]
            load = load_dataset
        plain = tmp_path / "plain.jsonl"
        noted = tmp_path / "noted.jsonl"
        write_lines(plain, [json.dumps(row) for row in rows])
        write_lines(noted, [json.dumps({**row, "note": "x"}) for row in rows])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = load(str(noted))
        assert loaded == load(str(plain))
        assert [str(w.message) for w in caught] == [
            f"{noted}:{n}: ignoring unknown field(s) note" for n in range(1, len(rows) + 1)
        ]


_HOOKED = json.JSONDecoder(object_pairs_hook=io._unique_keys)


def hooked_decode(raw):
    """The reference: ``io._decode`` as one hooked decode of every text."""
    try:
        return _HOOKED.decode(raw.decode(json.detect_encoding(raw), "surrogatepass"))
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc


# Around a colon or a comma; "\x0c" and "\xa0" are whitespace to
# str.strip but not to JSON. In UTF-16, U+3A22 and U+223A are the bytes
# '":' in one byte order and ':"' in the other.
JSON_SPACE = st.text(alphabet=" \t\r\n", max_size=2)
TEXTS = st.text(alphabet=["a", ":", '"', "\\", " ", "é", "㨢", "∺"], max_size=4)
KEYS = st.sampled_from(["a", "b", "k", ":", '":', '\\":', "a:b"]) | TEXTS
SCALARS = st.sampled_from(["1", "-2.5e3", "true", "null"]) | st.builds(
    json.dumps, TEXTS, ensure_ascii=st.booleans()
)
TRAILERS = st.sampled_from(["", "\n", "\r\n", " \t\r\n", " x", "\n]", ",", "\x0c", "\xa0\n"])


@st.composite
def json_values(draw, depth=0):
    """The text of one JSON value, nested at most five objects or arrays
    deep, whose objects may repeat a key."""
    kind = draw(st.sampled_from(["scalar", "scalar", "object", "array"] if depth < 5 else ["scalar"]))
    if kind == "scalar":
        return draw(SCALARS)
    if kind == "array":
        items = draw(st.lists(json_values(depth + 1), max_size=3))
        return "[" + ",".join(draw(JSON_SPACE) + item for item in items) + "]"
    members = draw(st.lists(st.tuples(KEYS, JSON_SPACE, JSON_SPACE, json_values(depth + 1)), max_size=3))
    if members and draw(st.booleans()):
        key, *_ = draw(st.sampled_from(members))
        members.append((key, draw(JSON_SPACE), draw(JSON_SPACE), draw(json_values(depth + 1))))
    return "{" + ",".join(
        f"{json.dumps(key, ensure_ascii=draw(st.booleans()))}{before}:{after}{value}"
        for key, before, after, value in members
    ) + "}"


@st.composite
def json_lines(draw):
    """A JSON value with leading and trailing text, one in four cut short,
    encoded as UTF-8, UTF-8 with a BOM or UTF-16."""
    text = draw(JSON_SPACE) + draw(json_values()) + draw(TRAILERS)
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text.encode(draw(st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-le"])))


class CountedDecoder:
    """``io._DECODER`` that counts its decodes."""

    def __init__(self):
        self.calls = 0

    def decode(self, text):
        self.calls += 1
        return _HOOKED.decode(text)


class TestDecode:
    @given(json_lines())
    @settings(max_examples=500, deadline=None)
    @example(b'{"k": "::", "k": 1}')
    @example(b'{"a" : 1, "a" :2}')
    @example(b'{"a" :1, "a": 2}')  # one colon hides behind a space
    @example(b'{"a": "x: y", "b": {"c": 1, "c": 2}}')
    @example(b'{"a\\":": 1, "a\\":": 2}')
    @example(b'[{"a": 1, "a": 2}]')
    @example(b'{"a": 1, "a": 2} x')
    # UTF-16 code units that are '":' in bytes: a byte count would see
    # two members.
    @example('{"a": 1, "a": 2, "s": "㨢㨢"}'.encode("utf-16-le"))
    def test_matches_the_hooked_decoder(self, raw):
        assert outcome(io._decode, raw) == outcome(hooked_decode, raw)

    def test_writer_shaped_lines_never_reach_the_hooked_decoder(self, tmp_path, monkeypatch):
        counted = CountedDecoder()
        monkeypatch.setattr(io, "_DECODER", counted)
        for scheme in ("rcv", "sc", "fcv"):
            load_dataset(str(SYNTH_GOLDEN / f"{scheme}.jsonl"))
            load_dataset(str(SWEEP_GOLDEN / f"{scheme}.jsonl"))
        path = tmp_path / "corpus.jsonl"
        corpus.write(corpus.generate(200, 1), str(path))
        load_training_questions(str(path))
        load_training_questions(str(BUILD_GOLDEN / "corpus.jsonl"))
        assert counted.calls == 0
        with pytest.raises(ValidationError, match="duplicate key 'a'"):
            io._decode(b'{"a": 1, "a": 2}\n')
        assert counted.calls == 1


class TestLoadDataset:
    def test_round_trip(self, tmp_path, synth_rcv):
        questions, profile = synth_rcv
        path = tmp_path / "data.jsonl"
        write_dataset(questions, str(path))
        loaded, loaded_profile = load_dataset(str(path))
        assert loaded == questions
        assert loaded_profile == profile

    def test_null_fields(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [question_line(pre_score=None, llm=None)])
        (q,), profile = load_dataset(str(path))
        assert q.pre_score is None and q.llm is None
        assert profile.n_with_llm == 0

    def test_invalid_json_carries_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [question_line(), "{not json"])
        with pytest.raises(DatasetError, match=r"data\.jsonl:2"):
            load_dataset(str(path))

    def test_duplicate_ids_report_both_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [question_line("dup"), question_line("dup")])
        with pytest.raises(DatasetError, match=r":2:.*first seen on line 1"):
            load_dataset(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = json.loads(question_line())
        del line["input_tokens"]
        write_lines(path, [json.dumps(line)])
        with pytest.raises(DatasetError, match="input_tokens"):
            load_dataset(str(path))
        line = json.loads(question_line())
        del line["slm_samples"][1]["correct"]
        write_lines(path, [json.dumps(line)])
        with pytest.raises(
            DatasetError, match=r"data\.jsonl:1: slm_samples\[1\]: missing required field 'correct'$"
        ):
            load_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset(str(path))

    def test_unknown_top_level_field_warns(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [question_line(flavor="spicy")])
        with pytest.warns(UserWarning, match="unknown field"):
            load_dataset(str(path))

    def test_unknown_sample_field_warns(self, tmp_path):
        path = tmp_path / "data.jsonl"
        line = json.loads(question_line())
        line["slm_samples"][0]["vibe"] = "confident"
        write_lines(path, [json.dumps(line)])
        with pytest.warns(UserWarning, match="unknown field"):
            load_dataset(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(question_line() + "\n\n" + question_line("q2") + "\n")
        questions, _ = load_dataset(str(path))
        assert len(questions) == 2


class TestScanDataset:
    def test_counts_and_diagnostics(self, tmp_path):
        path = tmp_path / "data.jsonl"
        bad = json.loads(question_line("bad"))
        bad["slm_samples"] = []
        write_lines(
            path,
            [question_line("ok"), json.dumps(bad), "broken json"],
        )
        count, problems = scan_dataset(str(path))
        assert count == 1
        assert len(problems) == 2
        assert any(":2:" in p for p in problems)
        assert any(":3:" in p for p in problems)

    def test_blank_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert scan_dataset(str(path)) == (0, [f"{path}: no questions found"])


class TestPricingFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pricing.json"
        p = PricingSchedule(slm_in=0.03, slm_out=0.09, llm_in=0.3, llm_out=1.2)
        path.write_text(json.dumps(p.to_dict()), encoding="utf-8")
        assert load_pricing(str(path)) == p

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "pricing.json"
        path.write_text(json.dumps({"slm_in": 0.02}), encoding="utf-8")
        with pytest.raises(DatasetError, match="slm_out"):
            load_pricing(str(path))

    def test_huge_integer_rejected(self, tmp_path):
        path = tmp_path / "pricing.json"
        prices = {"slm_in": HUGE, "slm_out": 0.08, "llm_in": 0.275, "llm_out": 1.1}
        path.write_text(json.dumps(prices), encoding="utf-8")
        with pytest.raises(DatasetError, match=r"pricing\.json: slm_in is too large for a float"):
            load_pricing(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "pricing.json"
        path.write_text(
            '{"slm_in": 0.02, "slm_out": 0.08, "llm_in": 0.275, "llm_out": 1.1, "slm_in": 9}',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"pricing\.json: duplicate key 'slm_in'$"):
            load_pricing(str(path))

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "pricing.json"
        path.write_bytes(b'{"slm_in": 0.02, "note": "caf\xe9"}')
        with pytest.raises(DatasetError, match=r"pricing\.json: invalid JSON: 'utf-8' codec"):
            load_pricing(str(path))

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "pricing.json"
        path.write_text(DEEP, encoding="utf-8")
        with pytest.raises(DatasetError) as excinfo:
            load_pricing(str(path))
        assert str(excinfo.value).startswith(f"{path}: invalid JSON: ")

    def test_syntax_error_rejected(self, tmp_path):
        path = tmp_path / "pricing.json"
        path.write_text('{"slm_in": }', encoding="utf-8")
        with pytest.raises(DatasetError) as excinfo:
            load_pricing(str(path))
        assert str(excinfo.value) == (
            f"{path}: invalid JSON: Expecting value: line 1 column 12 (char 11)"
        )


class TestCurveCsv:
    def points(self):
        return (
            CurvePoint(cost=0.037, performance=0.61, label="slm_only", n_routed=0),
            CurvePoint(cost=0.25, performance=0.75, tau=0.3, n_routed=12),
            CurvePoint(cost=1.0, performance=0.95, label="llm_only", n_routed=40),
        )

    def test_layout(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve(self.points(), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau,cost,performance,n_routed"
        assert lines[1] == "slm_only,0.037000,0.610000,0"
        assert lines[2] == "0.3,0.250000,0.750000,12"
        assert lines[3] == "llm_only,1.000000,0.950000,40"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve(self.points(), str(path))
        restored = read_curve(str(path))
        assert [p.label for p in restored] == ["slm_only", None, "llm_only"]
        assert restored[1].tau == 0.3
        assert restored[1].cost == 0.25
        assert restored[2].n_routed == 40

    def test_tau_formatting_avoids_float_noise(self, tmp_path):
        path = tmp_path / "curve.csv"
        point = CurvePoint(cost=0.5, performance=0.5, tau=0.30000000000000004, n_routed=1)
        write_curve([point], str(path))
        assert "0.3," in path.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("cost,perf\n0.1,0.2\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="header"):
            read_curve(str(path))

    def test_bad_row_carries_row_number(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "tau,cost,performance,n_routed\n0.5,-1.0,0.5,0\n", encoding="utf-8"
        )
        with pytest.raises(DatasetError, match=r"curve\.csv:2"):
            read_curve(str(path))

    def test_bad_row_after_a_multiline_cell_carries_its_file_line(self, tmp_path):
        # The quoted tau cell spans lines 3-4, so the bad cost cell is on
        # line 5 although it is the curve's fourth record.
        path = tmp_path / "curve.csv"
        path.write_text(
            'tau,cost,performance,n_routed\nslm_only,0.1,0.5,0\n"0.5\n",0.2,0.6,1\n'
            "0.7,x,0.7,2\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"curve\.csv:5: cost is not a number: 'x'$"):
            read_curve(str(path))

    def test_cell_over_the_csv_field_limit_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "tau,cost,performance,n_routed\nslm_only,0.1,0.5,0\n"
            f"0.5,{'1' * 131073},0.5,1\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"curve\.csv:3: field larger than field limit"):
            read_curve(str(path))

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"tau,cost,performance,n_routed\nslm_only\xe9,0.1,0.5,0\n")
        with pytest.raises(DatasetError, match=r"curve\.csv: not valid UTF-8"):
            read_curve(str(path))

    def test_byte_order_mark_accepted(self, tmp_path):
        plain = tmp_path / "plain.csv"
        write_curve(self.points(), str(plain))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_curve(str(marked)) == read_curve(str(plain))

    def test_blank_row_skipped(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text(
            "tau,cost,performance,n_routed\nslm_only,0.1,0.5,0\n\nllm_only,1.0,0.9,3\n",
            encoding="utf-8",
        )
        assert [p.label for p in read_curve(str(path))] == ["slm_only", "llm_only"]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("slm_only,0.1,0.5\n", r"curve\.csv:2: expected 4 columns$"),
            ("", r"curve\.csv: no curve points found$"),
            ("slm_only,0.1,0.5,1.5\n", r"curve\.csv:2: n_routed is not an integer: '1\.5'$"),
            ("slm_only,-0.1,0.5,0\n", r"curve\.csv:2: cost must be >= 0, got -0\.1$"),
            ("slm_only,nan,0.5,0\n", r"curve\.csv:2: cost must be a finite number, got nan$"),
            ("slm_only,inf,0.5,0\n", r"curve\.csv:2: cost must be a finite number, got inf$"),
            ("slm_only,0.1,1.5,0\n", r"curve\.csv:2: performance must lie in \[0, 1\], got 1\.5$"),
            ("2,0.1,0.5,0\n", r"curve\.csv:2: tau must lie in \[0, 1\], got 2\.0$"),
            ("slm_only,0.1,0.5,-1\n", r"curve\.csv:2: n_routed must be >= 0, got -1$"),
            ("x,0.1,0.5,0\n", r"curve\.csv:2: tau is not a number: 'x'$"),
            ("slm_only,0.1,x,0\n", r"curve\.csv:2: performance is not a number: 'x'$"),
        ],
        ids=[
            "short_row", "header_only", "fractional_n_routed", "negative_cost", "nan_cost",
            "inf_cost", "performance_above_one", "tau_above_one", "negative_n_routed",
            "non_numeric_tau", "non_numeric_performance",
        ],
    )
    def test_bad_body_rejected(self, tmp_path, body, message):
        path = tmp_path / "curve.csv"
        path.write_text("tau,cost,performance,n_routed\n" + body, encoding="utf-8")
        with pytest.raises(DatasetError, match=message):
            read_curve(str(path))


class TestMetricsJson:
    def test_write(self, tmp_path):
        path = tmp_path / "metrics.json"
        report = MetricsReport(toa=0.75, agl=12.0, arol=88.0, mode="actual", togr=1.1)
        write_metrics(report, str(path))
        data = json.loads(path.read_text())
        assert data["toa"] == 0.75
        assert data["toga"] == 0.25
        assert data["toa100"] is None
        assert data["togr"] == 1.1
        assert data["mode"] == "actual"


# Output records for the writers' property.


class Tokens(enum.IntEnum):
    """Token counts given as an IntEnum, whose repr is not its digits."""

    ONE = 1
    THREE = 3
    FORTY = 40
    HUGE = 2**70


class Level(float):
    """A threshold given as a float subclass with its own repr."""

    def __repr__(self):
        return f"Level({float(self)!r})"


class Text(str):
    """A string subclass."""


# Arbitrary text: every code point but the surrogates, and a str subclass.
TEXT = st.text(min_size=1) | st.text(min_size=1).map(Text)


@st.composite
def token_counts(draw, above=0):
    """A token count greater than ``REJECTED_TOKEN_RATIO * above``: an
    int or a Tokens member."""
    floor = REJECTED_TOKEN_RATIO * above
    members = [t for t in Tokens if t > floor]
    plain = st.integers(int(floor) + 1, int(floor) + 2**80)
    return draw(plain | st.sampled_from(members)) if members else draw(plain)


@st.composite
def preference_pairs(draw):
    chosen_tokens = draw(token_counts())
    return PreferencePair(
        question_id=draw(TEXT),
        chosen=draw(TEXT),
        rejected=draw(TEXT),
        chosen_tokens=chosen_tokens,
        rejected_tokens=draw(token_counts(chosen_tokens)),
    )


@st.composite
def refusal_examples(draw):
    level = draw(st.sampled_from(CONFIDENCE_LEVELS))
    # The level, a float subclass of it, a float within the grid
    # tolerance of it, or for 1.0 also the int 1.
    threshold = draw(st.sampled_from([level, Level(level), level + 1e-10, int(level) or level]))
    return RefusalExample(
        question_id=draw(TEXT),
        threshold=threshold,
        prompt=refusal_prompt(level, draw(TEXT)),
        target=draw(TEXT),
    )


PAIRS = preference_pairs()
REFUSALS = refusal_examples()


class TestTrainingCorpus:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [training_line("a"), training_line("b")])
        questions = load_training_questions(str(path))
        assert [q.id for q in questions] == ["a", "b"]
        assert len(questions[0].samples) == 10

    @given(EXACT_TRAINING)
    @example(json.loads((BUILD_GOLDEN / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]))
    @settings(max_examples=100, deadline=None)
    def test_constructed_question_is_the_parsed_one(self, data):
        # The loader stores checked columns; the constructor takes records.
        parsed = parse_training_question(data)
        built = TrainingQuestion(
            data["id"], data["question"], [ResponseSample(**sample) for sample in data["samples"]]
        )
        assert built == parsed and parsed == built
        assert repr(built) == repr(parsed)
        assert hash(built) == hash(parsed)
        for record in (built, parsed):
            again = pickle.loads(pickle.dumps(record))
            assert type(again) is TrainingQuestion
            assert again == parsed and repr(again) == repr(parsed)
            assert (again.texts, again.correct, again.tokens) == (
                parsed.texts, parsed.correct, parsed.tokens
            )
        assert parsed.samples == tuple(ResponseSample(**sample) for sample in data["samples"])

    def test_unknown_field_warns(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = json.loads(training_line())
        line["difficulty"] = "hard"
        write_lines(path, [json.dumps(line)])
        with pytest.warns(UserWarning, match="unknown field"):
            load_training_questions(str(path))

    @given(st.lists(PAIRS, max_size=4), st.lists(REFUSALS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_write_pairs_and_refusals(self, pairs, examples):
        # Each line is what json.dumps writes for the record's dict.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.jsonl")
            for write, records in ((write_pairs, pairs), (write_refusal_examples, examples)):
                write(records, path)
                with open(path, "rb") as handle:
                    written = handle.read()
                expected = "".join(
                    json.dumps(r.to_dict(), ensure_ascii=False) + "\n" for r in records
                )
                assert written == expected.encode("utf-8")


# Text that JSON escapes or writes raw: quotes, backslashes, control
# characters, U+2028, non-ASCII and astral characters, or any other.
WIRE_CHARS = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "é", "☕", "\U0001f389"]
) | st.characters(exclude_categories=("Cs",))
WIRE_STR = st.text(WIRE_CHARS, min_size=1, max_size=6)
WIRE_TEXT = WIRE_STR | WIRE_STR.map(Text)


@st.composite
def graded_questions(draw):
    """A training question with ten samples, 0 to 10 of them correct."""
    n_correct = draw(st.integers(0, 10))
    verdicts = draw(st.permutations([True] * n_correct + [False] * (10 - n_correct)))
    samples = [ResponseSample(draw(WIRE_TEXT), v, draw(TOKENS)) for v in verdicts]
    return TrainingQuestion(draw(WIRE_TEXT), draw(WIRE_TEXT), samples)


NONE_CORRECT = TrainingQuestion(
    'q "0"', "never\u2028right?", [ResponseSample(f"no {i}", False, 3) for i in range(10)]
)


class TestRefusalRows:
    @given(st.lists(graded_questions(), min_size=1, max_size=2), st.integers(-(2**64), 2**64))
    @example([NONE_CORRECT], 0)
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_reference_records_bytes(self, questions, seed):
        with tempfile.TemporaryDirectory() as tmp:
            rows_path = os.path.join(tmp, "rows.jsonl")
            records_path = os.path.join(tmp, "records.jsonl")
            _write_refusal_rows(((q, refusal_targets(q, seed)) for q in questions), rows_path)
            examples = [e for q in questions for e in build_refusal_examples(q, seed)]
            write_refusal_examples(examples, records_path)
            with open(rows_path, "rb") as rows, open(records_path, "rb") as records:
                written = rows.read()
                assert written == records.read()
        lines = written.split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == len(examples)
        for line, want in zip(lines, examples):
            row = json.loads(line)
            got = RefusalExample(question_id=row.pop("id"), **row)
            assert got == want
        for q in questions:
            assert refusal_targets(q, seed) == tuple(
                e.target for e in build_refusal_examples(q, seed)
            )

    def test_no_correct_sample_draws_nothing(self, monkeypatch):
        def no_hash(*args):
            raise AssertionError("a question with no correct sample hashed its id")

        monkeypatch.setattr(trainset, "_question_seed", no_hash)
        assert refusal_targets(NONE_CORRECT, 0) == (REJECTION_TEXT,) * len(CONFIDENCE_LEVELS)


class TestSyntheticGenerator:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("rcv", SyntheticParams(scheme="rcv", pre_score_noise=0.2)),
            ("sc", SyntheticParams(scheme="sc", include_llm=False)),
            ("fcv", SyntheticParams(scheme="fcv", easy_fraction=0.5)),
        ],
    )
    def test_written_bytes_match_golden(self, tmp_path, name, params):
        # Made by `routerlab synth <name>.jsonl --n 5 --seed 3 --scheme <name>`
        # with --pre-noise 0.2, --no-llm and --easy-fraction 0.5 respectively.
        path = tmp_path / f"{name}.jsonl"
        write_dataset(generate_synthetic(5, seed=3, params=params), str(path))
        assert path.read_bytes() == (SYNTH_GOLDEN / f"{name}.jsonl").read_bytes()

    def test_zero_questions_rejected(self):
        with pytest.raises(ValidationError) as caught:
            generate_synthetic(0, seed=3)
        assert str(caught.value) == "n must be a positive integer, got 0"

    @pytest.mark.parametrize("seed", [True, "1", 1.0, None], ids=repr)
    def test_non_int_seed_rejected(self, seed):
        # Formatted into the hash, True and 1.0 would draw unlike 1 and
        # "1" like it.
        with pytest.raises(ValidationError) as caught:
            generate_synthetic(1, seed=seed)
        assert str(caught.value) == f"seed must be an integer, got {seed!r}"

    @pytest.mark.parametrize("seed", [-1, 2**64, -(10**400)])
    def test_any_int_seed_accepted(self, seed):
        assert generate_synthetic(2, seed=seed) == generate_synthetic(2, seed=seed)

    def test_deterministic(self):
        a = generate_synthetic(40, seed=3)
        b = generate_synthetic(40, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        assert generate_synthetic(10, seed=1) != generate_synthetic(10, seed=2)

    def test_prefix_stability(self):
        # per-question streams are keyed by (seed, index), so growing the
        # dataset never rewrites the earlier questions
        short = generate_synthetic(15, seed=5)
        long = generate_synthetic(40, seed=5)
        assert long[:15] == short

    def test_schemes_share_question_level_draws(self):
        rcv = generate_synthetic(25, seed=9, params=SyntheticParams(scheme="rcv"))
        sc = generate_synthetic(25, seed=9, params=SyntheticParams(scheme="sc"))
        for a, b in zip(rcv, sc):
            assert a.input_tokens == b.input_tokens
            assert a.pre_score == b.pre_score
            assert a.llm == b.llm

    def test_rcv_shape(self, synth_rcv):
        questions, _ = synth_rcv
        for q in questions:
            assert len(q.slm_samples) == 10
            levels = sorted(s.confidence_level for s in q.slm_samples)
            assert levels == [i / 10 for i in range(1, 11)]

    def test_rcv_refusals_are_downward_closed(self, synth_rcv):
        questions, _ = synth_rcv
        for q in questions:
            ladder = sorted(q.slm_samples, key=lambda s: s.confidence_level)
            flags = [s.refusal for s in ladder]
            # once the ladder starts refusing it never answers again
            assert flags == sorted(flags)

    def test_refusal_score_tracks_noiseless_pre_score(self):
        questions = generate_synthetic(60, seed=13, params=SyntheticParams(scheme="rcv"))
        for q in questions:
            score = derive_refusal_score(q)
            assert score <= q.pre_score + 1e-9
            assert q.pre_score < score + 0.1 + 1e-9

    def test_sc_shape(self, synth_sc):
        questions, _ = synth_sc
        for q in questions:
            assert len(q.slm_samples) == 10
            assert all(s.confidence_level is None for s in q.slm_samples)
            assert all(not s.refusal for s in q.slm_samples)

    def test_fcv_shape(self, synth_fcv):
        questions, _ = synth_fcv
        for q in questions:
            assert len(q.slm_samples) == 10
            assert all(s.confidence_level == 1.0 for s in q.slm_samples)

    def test_easy_fraction_pins_difficulty(self):
        params = SyntheticParams(scheme="rcv", easy_fraction=1.0)
        questions = generate_synthetic(20, seed=4, params=params)
        for q in questions:
            assert all(not s.refusal for s in q.slm_samples)
            assert all(s.correct for s in q.slm_samples)
            assert q.pre_score == 1.0

    def test_no_llm(self):
        params = SyntheticParams(scheme="rcv", include_llm=False)
        questions = generate_synthetic(10, seed=6, params=params)
        assert all(q.llm is None for q in questions)

    def test_pre_noise_keeps_scores_in_range(self):
        params = SyntheticParams(scheme="rcv", pre_score_noise=0.5)
        questions = generate_synthetic(50, seed=8, params=params)
        assert all(0.0 <= q.pre_score <= 1.0 for q in questions)

    def test_invalid_params(self):
        with pytest.raises(Exception):
            SyntheticParams(scheme="oracle")
        with pytest.raises(Exception):
            SyntheticParams(difficulty_min=0.9, difficulty_max=0.1)
        for removed in ("input_tokens", "answer_tokens", "refusal_tokens", "llm_tokens"):
            with pytest.raises(TypeError):
                SyntheticParams(**{removed: (1, 2)})
        with pytest.raises(TypeError):
            SyntheticParams(answer_keys=("a",))
        with pytest.raises(Exception):
            SyntheticParams(scheme="sc", n_samples=0)
        with pytest.raises(ValidationError, match=r"^rcv generates the full confidence ladder; n_samples must be 10$"):
            SyntheticParams(scheme="rcv", n_samples=5)
        for noise in (math.nan, math.inf, -0.1):
            with pytest.raises(Exception):
                SyntheticParams(pre_score_noise=noise)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("scheme", 1, "scheme must be one of"),
            ("n_samples", True, "n_samples must be an integer, got True"),
            ("difficulty_min", "0.1", "difficulty_min must be a number, got '0.1'"),
            ("difficulty_max", None, "difficulty_max must be a number, got None"),
            ("easy_fraction", "0.5", "easy_fraction must be a number, got '0.5'"),
            ("llm_correct_prob", False, "llm_correct_prob must be a number, got False"),
            ("pre_score_noise", [0.1], "pre_score_noise must be a number, got [0.1]"),
            ("include_llm", 1, "include_llm must be a boolean, got 1"),
            ("easy_fraction", 1.5, "easy_fraction must lie in [0, 1], got 1.5"),
            ("easy_fraction", -0.1, "easy_fraction must lie in [0, 1], got -0.1"),
            ("llm_correct_prob", 1.5, "llm_correct_prob must lie in [0, 1], got 1.5"),
            ("llm_correct_prob", -0.5, "llm_correct_prob must lie in [0, 1], got -0.5"),
        ],
    )
    def test_bad_value_names_its_field(self, field, value, message):
        with pytest.raises(ValidationError) as caught:
            SyntheticParams(**{"scheme": "sc", field: value})
        assert str(caught.value).startswith(message)

    def test_integer_settings_become_floats(self):
        params = SyntheticParams(difficulty_min=0, difficulty_max=1, easy_fraction=0, llm_correct_prob=1)
        assert (params.difficulty_min, params.difficulty_max) == (0.0, 1.0)
        assert type(params.easy_fraction) is type(params.llm_correct_prob) is float

    def test_refusal_examples_from_synthetic_ids(self):
        # seeding by question id keeps refusal targets stable across corpora
        questions = generate_synthetic(5, seed=2, params=SyntheticParams(scheme="sc"))
        from routerlab.trainset import TrainingQuestion, ResponseSample

        def to_training(q):
            return TrainingQuestion(
                id=q.id,
                question=f"question {q.id}",
                samples=tuple(
                    ResponseSample(
                        text=f"text-{i}", correct=s.correct, tokens=s.tokens
                    )
                    for i, s in enumerate(q.slm_samples)
                ),
            )

        full = [build_refusal_examples(to_training(q), seed=1) for q in questions]
        subset = [build_refusal_examples(to_training(q), seed=1) for q in questions[2:]]
        assert full[2:] == subset
