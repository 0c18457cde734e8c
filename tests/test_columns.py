"""Sample columns: ``QuestionRecord`` keeps its samples as five aligned
tuples, and every sweep reads those instead of ``SampleRecord``s.

Each column reader must give what a reader of ``q.slm_samples`` gives,
value for value and error for error. The references below are written
over the records, as the readers were before the columns. The records
themselves must keep their constructor, repr, equality, hash and
pickling.
"""

import copy
import pickle
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routerlab.cascade import _cascade_row, _Weights, cascade_vote, select_samples, vote_weight
from routerlab.costs import (
    llm_quality,
    llm_question_cost,
    mean_sample_correct,
    mean_sample_tokens,
    slm_question_cost,
)
from routerlab.io import parse_question
from routerlab.prerouting import derive_refusal_score
from routerlab.records import (
    CONFIDENCE_LEVELS,
    DatasetProfile,
    LlmOutcome,
    PricingSchedule,
    QuestionRecord,
    SampleRecord,
    ValidationError,
    _ladder,
)

from conftest import make_sample
from test_io import QUESTIONS

PRICING = PricingSchedule()
SETTINGS = settings(max_examples=250, deadline=None, derandomize=True, database=None)


def outcome(call, *args):
    """``call(*args)``, or the type and text of what it raised."""
    try:
        return call(*args), None
    except Exception as exc:  # compared, not swallowed
        return None, (type(exc), str(exc))


def parsed(data):
    """The question ``parse_question`` reads from ``data``, or None,
    without the warning about any unknown field in it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return parse_question(data)
    except ValidationError:
        return None


@st.composite
def ladders(draw):
    """A question whose samples are tagged with confidence levels (or
    not) in any order: a full ladder, samples all at 1.0 or all untagged,
    or any mix, in which levels may be missing or repeated."""
    shape = draw(st.sampled_from(["ladder", "ladder", "untagged", "full", "mixed"]))
    if shape == "mixed":
        levels = draw(st.lists(st.sampled_from((None, 1.0, *CONFIDENCE_LEVELS)), min_size=1, max_size=12))
    else:
        levels = {"ladder": CONFIDENCE_LEVELS, "untagged": [None] * 10, "full": [1.0] * 10}[shape]
    levels = draw(st.permutations(levels))
    samples = []
    for level in levels:
        answer = draw(st.sampled_from([None, "a", "b", "c"]))
        samples.append(
            make_sample(
                answer=answer,
                correct=answer == "a",
                tokens=draw(st.integers(1, 60)),
                confidence=level,
                refusal=answer is None,
            )
        )
    llm = draw(st.builds(LlmOutcome, st.booleans(), st.integers(1, 500)) | st.none())
    return QuestionRecord("q", draw(st.integers(1, 500)), samples, draw(st.none() | st.floats(0, 1)), llm)


# Questions read from any line the parsers are tested on, and questions
# with confidence ladders, which those lines (at most four samples) never hold.
ANY_QUESTION = ladders() | ladders() | QUESTIONS.map(parsed).filter(lambda q: q is not None)


# ---------------------------------------------------------------------------
# references over the records


def reference_ladder(question):
    by_level = {}
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


def reference_refusal_score(question):
    score = 0.0
    for level, sample in zip(CONFIDENCE_LEVELS, reference_ladder(question)):
        if not sample.refusal:
            score = level
    return score


def reference_select(question, scheme, k):
    if scheme == "rcv":
        if k != 10:
            raise ValidationError("rcv replays the full confidence ladder; k must be 10")
        return reference_ladder(question)
    if scheme == "fcv":
        pool = [s for s in question.slm_samples if s.confidence_level == 1.0]
        label = "at confidence 1.0"
    else:
        pool = [s for s in question.slm_samples if s.confidence_level is None]
        label = "without a confidence level"
    if len(pool) < k:
        raise ValidationError(
            f"question {question.id!r}: {scheme} needs {k} samples {label}, found {len(pool)}"
        )
    return tuple(pool[:k])


def reference_row(question, scheme, k, alpha, profile, assume_perfect, latency_tau):
    samples = reference_select(question, scheme, k)
    weights = [1.0 if s.confidence_level is None else vote_weight(s.confidence_level, alpha) for s in samples]
    tokens = [s.tokens for s in samples]
    # the full tally, summed in sample order; the strongest answer wins
    # and ties go to the smallest answer text
    total = 0.0
    masses = {}
    for sample, weight in zip(samples, weights):
        total += weight
        if sample.answer is not None:
            masses[sample.answer] = masses.get(sample.answer, 0.0) + weight
    winner = None
    for answer in sorted(masses):
        if winner is None or masses[answer] > masses[winner]:
            winner = answer
    share = masses[winner] / total if winner is not None else 0.0
    # only the early-stop latency comes from the vote itself
    _, _, _, latency, _ = cascade_vote([s.answer for s in samples], weights, tokens, latency_tau)
    winner_correct = winner is not None and next(s.correct for s in samples if s.answer == winner)
    slm_cost = slm_question_cost(question, float(sum(tokens)), PRICING)
    route_cost = slm_cost + llm_question_cost(question, profile, PRICING)
    row = (share, question.id, slm_cost, float(winner_correct), route_cost, llm_quality(question, assume_perfect))
    return row, (share >= latency_tau, latency)


def profile_of(question):
    return DatasetProfile((question.id,), (question.input_tokens,), 250.0, 1)


# ---------------------------------------------------------------------------
# the column readers


class TestColumnReaders:
    @SETTINGS
    @given(
        ANY_QUESTION,
        st.sampled_from([0.5, 0.0, 1.0, 0.5, 2.0]),
        st.booleans(),
        st.sampled_from([0.0, 0.3, 0.5, 0.6, 1.0]),
        st.data(),
    )
    def test_readers_give_what_the_records_give(self, question, alpha, assume_perfect, tau, data):
        samples = question.slm_samples
        assert mean_sample_tokens(question) == sum(s.tokens for s in samples) / len(samples)
        assert mean_sample_correct(question) == sum(1 for s in samples if s.correct) / len(samples)
        assert outcome(derive_refusal_score, question) == outcome(reference_refusal_score, question)
        profile = profile_of(question)
        for scheme in ("rcv", "sc", "fcv"):
            # Mostly as many samples as the scheme replays: ten for rcv,
            # and every sample at the scheme's level for the others.
            if scheme == "rcv":
                k = data.draw(st.sampled_from([10, 10, 10, 10, 3]))
            else:
                level = 1.0 if scheme == "fcv" else None
                k = data.draw(st.sampled_from([max(question.levels.count(level), 1), 1, 5]))
            row = outcome(
                _cascade_row, question, scheme, k, _Weights(alpha), profile, PRICING, assume_perfect, tau
            )
            assert row == outcome(reference_row, question, scheme, k, alpha, profile, assume_perfect, tau)
            assert outcome(select_samples, question, scheme, k) == outcome(reference_select, question, scheme, k)


# ---------------------------------------------------------------------------
# the ladder


def answered_at(levels):
    """A question with one correct sample per entry of ``levels``, each
    with its own token count, so that equal samples have equal indices."""
    return QuestionRecord("q", 7, [make_sample("a", True, tokens, level) for tokens, level in enumerate(levels, 1)])


class TestLadder:
    """``_ladder`` reads an in-order ladder without its per-level dict;
    every other shape, and every error, goes through the dict."""

    @SETTINGS
    @given(ANY_QUESTION)
    @example(answered_at(CONFIDENCE_LEVELS))
    @example(answered_at(CONFIDENCE_LEVELS[::-1]))
    @example(answered_at((*CONFIDENCE_LEVELS, None, None)))
    def test_ladder_gives_what_the_records_give(self, question):
        samples = question.slm_samples
        ladder = outcome(_ladder, question)
        if ladder[0] is not None:
            ladder = (tuple(samples[index] for index in ladder[0]), None)
        assert ladder == outcome(reference_ladder, question)

    @pytest.mark.parametrize(
        "levels",
        [
            (*CONFIDENCE_LEVELS[:6], 0.5, *CONFIDENCE_LEVELS[7:]),  # ten samples, 0.7 missing
            (*CONFIDENCE_LEVELS, 0.5),  # the full ladder in order, then a second 0.5
        ],
        ids=["ten_samples", "in_order_plus_one"],
    )
    def test_duplicate_level_keeps_its_text(self, levels):
        with pytest.raises(ValidationError) as excinfo:
            _ladder(answered_at(levels))
        assert str(excinfo.value) == (
            "question 'q': several samples at confidence 0.5; ladder replay needs one per level"
        )


# ---------------------------------------------------------------------------
# the records


class TestColumnRecords:
    @SETTINGS
    @given(ANY_QUESTION, st.data())
    def test_records_keep_their_surface(self, question, data):
        samples = tuple(
            SampleRecord(s.answer, s.correct, s.tokens, s.confidence_level, s.refusal)
            for s in question.slm_samples
        )
        fields = dict(
            id=question.id, input_tokens=question.input_tokens, slm_samples=list(samples),
            pre_score=question.pre_score, llm=question.llm,
        )
        again = QuestionRecord(**fields)
        assert again.slm_samples == samples
        assert all(type(sample) is SampleRecord for sample in again.slm_samples)
        assert again == question and hash(again) == hash(question)
        assert repr(again) == repr(question)
        assert (again.answers, again.correct, again.tokens, again.levels, again.refusals) == tuple(
            tuple(getattr(s, name) for s in samples)
            for name in ("answer", "correct", "tokens", "confidence_level", "refusal")
        )
        assert again.to_dict()["slm_samples"] == [s.to_dict() for s in samples]

        for copied in (pickle.loads(pickle.dumps(question)), copy.copy(question), copy.deepcopy(question)):
            assert type(copied) is QuestionRecord
            assert copied == question and hash(copied) == hash(question)
            assert repr(copied) == repr(question)

        # One sample one token longer makes another record.
        changed = list(samples)
        index = data.draw(st.integers(0, len(changed) - 1))
        sample = changed[index]
        changed[index] = SampleRecord(
            sample.answer, sample.correct, sample.tokens + 1, sample.confidence_level, sample.refusal
        )
        other = QuestionRecord(**{**fields, "slm_samples": changed})
        assert other != question and repr(other) != repr(question)
