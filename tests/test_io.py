"""Serialization, diagnostics, CSV curves, and the synthetic generator."""

import enum
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routerlab import io
from routerlab.io import (
    DatasetError,
    SyntheticParams,
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
    CurvePoint,
    LlmOutcome,
    MetricsReport,
    PreferencePair,
    PricingSchedule,
    QuestionRecord,
    RefusalExample,
    SampleRecord,
    ValidationError,
    refusal_prompt,
)
from routerlab.trainset import ResponseSample, TrainingQuestion, build_refusal_examples

from conftest import make_question


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
    if kind == "lone_surrogate":
        field = "text" if training else "answer"
        assert message == (
            f"{path}:2: {samples_field}[0]: {field} holds a lone surrogate U+D800 "
            "at index 1, which UTF-8 cannot encode"
        )


# ---------------------------------------------------------------------------
# The parsers build records without their constructors; each must give
# what the constructors give, record for record and error for error.

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
QUESTIONS = broken(
    st.fixed_dictionaries(
        {"id": st.sampled_from(["q1", "Q 2"]), "input_tokens": TOKENS, "slm_samples": SAMPLES},
        optional={
            "pre_score": st.none() | st.floats(0, 1) | st.sampled_from([0, 1]),
            "llm": LLM,
        },
    )
)
TRAINING = broken(
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


def by_constructors(data, kind, nested):
    """``data`` read as the parsers read it, but with every record built
    by ``cls(**fields)``; ``nested`` maps a field to the kind of the
    records it holds, ``(kind, True)`` for a list of them."""
    values = io._object(data, kind, "q")
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


class TestSyntheticGenerator:
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
        with pytest.raises(Exception):
            SyntheticParams(answer_keys=("a",))
        with pytest.raises(Exception):
            SyntheticParams(scheme="sc", n_samples=0)
        for noise in (math.nan, math.inf, -0.1):
            with pytest.raises(Exception):
                SyntheticParams(pre_score_noise=noise)

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
